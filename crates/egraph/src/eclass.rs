//! [`EClass`]: an equivalence class of e-nodes plus its analysis data.

use crate::{Id, Language};

/// An equivalence class of e-nodes.
///
/// Every e-node in the class represents the same value (with respect to the
/// rewrites applied so far). The class also carries the analysis data `D`
/// and a parent list used for congruence repair during
/// [`EGraph::rebuild`](crate::EGraph::rebuild).
#[derive(Debug, Clone)]
pub struct EClass<L, D> {
    /// The canonical id of this class at the time of the last rebuild.
    pub id: Id,
    /// The e-nodes in this class. After a rebuild these are canonical and
    /// deduplicated.
    pub nodes: Vec<L>,
    /// Birth stamps parallel to `nodes`: the global insertion counter value
    /// at which each e-node was first added to the e-graph. Used by
    /// TENSAT's cycle-resolution step ("filter the last-added node").
    pub node_birth: Vec<u64>,
    /// The analysis data for this class.
    pub data: D,
    /// Parent e-nodes (and the class they live in) that reference this
    /// class as a child. Entries may be stale — non-canonical node forms,
    /// absorbed target ids, duplicates — even on a clean e-graph: rebuild
    /// repair only canonicalizes the parent lists of classes touched by a
    /// union, and every internal consumer canonicalizes on use.
    pub(crate) parents: Vec<(L, Id)>,
}

impl<L: Language, D> EClass<L, D> {
    /// Number of e-nodes in the class.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the class has no e-nodes (never the case for a live class).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Iterates over the e-nodes in this class.
    pub fn iter(&self) -> impl Iterator<Item = &L> {
        self.nodes.iter()
    }

    /// The index in [`EClass::nodes`] of the first e-node that has `op`'s
    /// operator ([`Language::matches`]; `op`'s own children are ignored)
    /// and whose leading children are not below `prefix` — or of the first
    /// node of a later operator, or the list's length. The nodes with that
    /// operator whose children start with exactly `prefix` are one
    /// contiguous run beginning there, so a reader finds them with one
    /// binary search however large the class is; an empty prefix gives the
    /// start of the operator's run.
    ///
    /// Reads the node list as [`EGraph::rebuild`](crate::EGraph::rebuild)
    /// leaves it — canonical and sorted by an `Ord` that keeps the
    /// [`Language`] ordering contract — so the e-graph must be clean and
    /// `prefix` must hold canonical ids; otherwise nodes are missed.
    pub fn lower_bound(&self, op: &L, prefix: &[Id]) -> usize {
        // Operator-major order: against a node of another operator the
        // children decide nothing, so `op`'s pattern-internal ones are
        // harmless; within the operator the children alone decide.
        self.nodes.partition_point(|enode| {
            if op.matches(enode) {
                enode.children()[..prefix.len()] < *prefix
            } else {
                enode < op
            }
        })
    }

    /// Iterates over `(e-node, birth stamp)` pairs.
    pub fn iter_with_birth(&self) -> impl Iterator<Item = (&L, u64)> {
        self.nodes.iter().zip(self.node_birth.iter().copied())
    }

    /// The parents recorded for congruence repair. Exposed for diagnostics
    /// only: entries may hold non-canonical node forms, absorbed class
    /// ids, or duplicates — even on a clean e-graph (rebuild repair only
    /// canonicalizes the parent lists of classes touched by a union) —
    /// so canonicalize both components before comparing them against memo
    /// keys or class node lists.
    pub fn parents(&self) -> impl Iterator<Item = (&L, Id)> {
        self.parents.iter().map(|(n, id)| (n, *id))
    }
}
