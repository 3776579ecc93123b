//! E-class analyses: per-e-class semilattice data maintained incrementally.
//!
//! TENSAT uses an analysis to attach tensor shape / layout information to
//! every e-class so that rewrites can perform shape checking (paper §4, §6).

use crate::{EGraph, Id, Language};
use std::fmt::Debug;

/// Result of merging two analysis values, reporting which side changed.
///
/// `DidMerge(a_changed, b_changed)`: `a_changed` is true if the merged value
/// differs from the left (kept) input, `b_changed` if it differs from the
/// right (absorbed) input. The e-graph uses this to decide which parents
/// must have their data re-computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DidMerge(pub bool, pub bool);

impl std::ops::BitOr for DidMerge {
    type Output = DidMerge;
    fn bitor(self, rhs: DidMerge) -> DidMerge {
        DidMerge(self.0 || rhs.0, self.1 || rhs.1)
    }
}

/// Helper for implementing [`Analysis::merge`] when the data is a
/// semilattice expressed by an ordering: keeps `to` if `cmp` says it is
/// greater-or-equal, otherwise replaces it with `from`.
pub fn merge_max<D: Ord>(to: &mut D, from: D) -> DidMerge {
    if *to < from {
        *to = from;
        DidMerge(true, false)
    } else if *to == from {
        DidMerge(false, false)
    } else {
        DidMerge(false, true)
    }
}

/// An analysis over language `L`: a value of type `Data` attached to every
/// e-class, computed bottom-up from e-nodes and merged when classes are
/// unioned.
///
/// The semantics follow egg's e-class analyses: `make` computes the data for
/// a single e-node (reading children data through the e-graph), `merge`
/// combines the data of two classes being unioned (and must be a semilattice
/// join for the invariants to hold), and `modify` may inspect/extend the
/// e-graph after a class's data changes (e.g. constant folding).
pub trait Analysis<L: Language>: Sized {
    /// The per-e-class data.
    type Data: Debug + Clone;

    /// Computes the data for a newly added e-node whose children are already
    /// in the e-graph.
    fn make(egraph: &EGraph<L, Self>, enode: &L) -> Self::Data;

    /// Merges `from` into `to`, reporting which side changed.
    fn merge(&mut self, to: &mut Self::Data, from: Self::Data) -> DidMerge;

    /// Hook called after the data of class `id` is created or changed.
    /// The default does nothing.
    fn modify(_egraph: &mut EGraph<L, Self>, _id: Id) {}
}

/// The trivial analysis carrying no data.
impl<L: Language> Analysis<L> for () {
    type Data = ();
    fn make(_egraph: &EGraph<L, Self>, _enode: &L) -> Self::Data {}
    fn merge(&mut self, _to: &mut Self::Data, _from: Self::Data) -> DidMerge {
        DidMerge(false, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn didmerge_or() {
        assert_eq!(
            DidMerge(true, false) | DidMerge(false, true),
            DidMerge(true, true)
        );
        assert_eq!(
            DidMerge(false, false) | DidMerge(false, false),
            DidMerge(false, false)
        );
    }

    #[test]
    fn merge_max_keeps_larger() {
        let mut a = 3;
        assert_eq!(merge_max(&mut a, 5), DidMerge(true, false));
        assert_eq!(a, 5);
        assert_eq!(merge_max(&mut a, 2), DidMerge(false, true));
        assert_eq!(a, 5);
        assert_eq!(merge_max(&mut a, 5), DidMerge(false, false));
    }
}
