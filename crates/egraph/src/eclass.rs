//! [`EClass`]: an equivalence class of e-nodes plus its analysis data.

use crate::Id;

/// An equivalence class of e-nodes.
///
/// Every e-node in the class represents the same value (with respect to the
/// rewrites applied so far). The class holds its e-nodes as ids into the
/// e-graph's node table — [`EGraph::enodes`](crate::EGraph::enodes) reads
/// them — and carries the analysis data `D` and a parent list used for
/// congruence repair during [`EGraph::rebuild`](crate::EGraph::rebuild).
#[derive(Debug, Clone)]
pub struct EClass<D> {
    /// The canonical id of this class at the time of the last rebuild.
    pub id: Id,
    /// The e-nodes in this class, as node-table ids: id `n` names the
    /// e-node whose [`EGraph::add`](crate::EGraph::add) created `n`, so a
    /// smaller id is an earlier e-node. After a rebuild the entries are
    /// canonical, one id per distinct e-node — the smallest id whose entry
    /// canonicalizes to it — and the list is sorted by e-node.
    pub(crate) nodes: Vec<Id>,
    /// The analysis data for this class.
    pub data: D,
    /// The e-nodes that reference this class as a child, as ids into the
    /// e-graph's node table: id `p` names the e-node whose `add` created
    /// `p`, which lives in class `find(p)`. Entries may be stale — a
    /// table entry in a non-canonical form, duplicates — even on a clean
    /// e-graph: rebuild repair only canonicalizes the parents of classes
    /// touched by a union, and every internal consumer canonicalizes on
    /// use.
    pub(crate) parents: Vec<Id>,
    /// Whether a union has merged into this class since its parent list
    /// was last congruence-repaired: [`EGraph::rebuild`](crate::EGraph::rebuild)
    /// walks the list of a root it pops only while this is set, and clears
    /// it as it walks.
    pub(crate) dirty: bool,
}

impl<D> EClass<D> {
    /// Number of e-nodes in the class.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the class has no e-nodes (never the case for a live class).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node-table ids of the class's e-nodes, filtered ones included
    /// ([`EGraph::is_filtered`](crate::EGraph::is_filtered)), in the order
    /// [`EGraph::enodes`](crate::EGraph::enodes) yields the unfiltered
    /// ones; [`EGraph::enode`](crate::EGraph::enode) reads one.
    pub fn node_ids(&self) -> &[Id] {
        &self.nodes
    }
}
