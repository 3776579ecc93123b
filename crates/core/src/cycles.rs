//! Cycle handling for the exploration phase (paper §5.2).
//!
//! Valid rewrites can introduce cycles into the e-graph (paper Fig. 3).
//! The extracted graph must be a DAG, so TENSAT either encodes acyclicity
//! in the ILP (slow) or filters cycles during exploration. This module
//! implements the machinery for both cycle-filtering algorithms:
//!
//! * the *descendants map* used by the pre-filtering step of the efficient
//!   algorithm (Algorithm 2, line 3) — here a snapshot of the class graph
//!   with its strongly connected components numbered in an order no edge
//!   climbs, which answers almost every "does `a` reach `d`?" from two
//!   array reads and walks the snapshot for the rest
//!   ([`DescendantsMap`]); the snapshot and the numbering are
//!   [`tensat_egraph::ClassGraph`]'s, the ones greedy-DAG extraction
//!   orders its worklist by,
//! * the single-candidate cycle check used by both vanilla (recomputed per
//!   candidate) and efficient (pre-computed once per iteration) filtering,
//! * the DFS cycle collection and resolution used by the post-processing
//!   step (Algorithm 2, lines 10–18).

use std::cell::Cell;
use std::collections::HashSet;
use tensat_egraph::{ClassGraph, ENodeOrVar, Id, Language, Pattern, Subst};
use tensat_ir::{TensorEGraph, TensorLang};

/// The per-iteration descendants map: answers whether one e-class reaches
/// another through (unfiltered) e-node child edges, as the e-graph stood
/// when the map was computed.
///
/// It is not a closure. [`DescendantsMap::compute`] copies the class graph
/// into flat tables ([`ClassGraph`]) and numbers its strongly connected
/// components in the order Tarjan's algorithm completes them
/// ([`ClassGraph::components`]), so an edge never leads to a higher
/// number. [`DescendantsMap::is_descendant`] then reads the answer
/// off the two component numbers whenever they decide it — the same
/// component (reachable exactly when the component is a cycle) or a
/// descendant numbered above the ancestor (unreachable) — and otherwise
/// walks the snapshot from the ancestor, entering only classes numbered
/// at or above the descendant's component. Nothing is remembered between
/// queries: on the repo benchmark the order alone answers 83 500 of
/// 83 531 queries on BERT at 20 000 e-nodes and 181 205 of 181 359 on
/// NasNet-A at 30 000, and the walks that remain visit one or two classes
/// each. [`DescendantsMap::queries`] and [`DescendantsMap::walks`] count
/// both, so a run that would profit from a memo shows up in
/// [`ExplorationStats`](crate::ExplorationStats).
///
/// Classes are addressed by the e-graph's own dense slot space
/// ([`tensat_egraph::EGraph::slot_index`]) — these tables, the e-graph's
/// class tables, and the extractors' cost tables all index the same slots,
/// so translating between them is a `find` plus an array read instead of a
/// per-class hash lookup. The map holds O(classes + edges) words.
#[derive(Debug, Clone)]
pub struct DescendantsMap {
    /// The class graph over unfiltered e-nodes, self loops included. A
    /// tombstoned slot (between a union and the next rebuild) has no edges.
    graph: ClassGraph,
    /// The component number of every slot. `comp.len()` is the number of
    /// slots when the map was computed; classes created after that have
    /// no recorded descendants — the pre-filter is sound but not
    /// complete, as the paper notes.
    comp: Vec<u32>,
    /// Per component: whether its classes reach themselves (more than one
    /// class, or one class with a self loop).
    cyclic: Vec<bool>,
    queries: Cell<usize>,
    walks: Cell<usize>,
    rejected: Cell<usize>,
}

impl DescendantsMap {
    /// Takes the snapshot ([`ClassGraph::new`]) and numbers its components
    /// ([`ClassGraph::components`], walked from every slot in slot order).
    /// Linear in classes plus edges, also on a dirty e-graph (vanilla
    /// filtering computes one per candidate).
    pub fn compute(egraph: &TensorEGraph) -> Self {
        let graph = ClassGraph::new(egraph);
        let mut cyclic: Vec<bool> = vec![];
        let comp = graph.components(0..graph.num_slots(), |members| {
            let v = members[0];
            cyclic.push(members.len() > 1 || graph.row(v as usize).binary_search(&v).is_ok());
        });
        DescendantsMap {
            graph,
            comp,
            cyclic,
            queries: Cell::new(0),
            walks: Cell::new(0),
            rejected: Cell::new(0),
        }
    }

    /// True if `descendant` is reachable from `ancestor` (strictly below).
    pub fn is_descendant(&self, egraph: &TensorEGraph, ancestor: Id, descendant: Id) -> bool {
        self.queries.set(self.queries.get() + 1);
        let n = self.comp.len();
        let (a, d) = match (egraph.slot_index(ancestor), egraph.slot_index(descendant)) {
            // Classes created after the map was built (slots past its end)
            // are treated as having no recorded descendants; the slots of
            // classes that existed at the last rebuild are stable until the
            // next one, so mid-iteration unions keep resolving to the slot
            // recorded at build time.
            (Some(a), Some(d)) if a < n && d < n => (a, d),
            _ => return false,
        };
        let (from, target) = (self.comp[a], self.comp[d]);
        if from == target {
            return self.cyclic[target as usize];
        }
        if target > from {
            return false;
        }
        // The order leaves it open: walk the snapshot. A class numbered
        // below `target` cannot reach it, so the walk never enters one, and
        // every class of `target`'s component reaches `d`.
        self.walks.set(self.walks.get() + 1);
        let mut seen: HashSet<u32> = HashSet::new();
        let mut stack = vec![a as u32];
        while let Some(s) = stack.pop() {
            for &child in self.graph.row(s as usize) {
                let c = self.comp[child as usize];
                if c == target {
                    return true;
                }
                if c > target && seen.insert(child) {
                    stack.push(child);
                }
            }
        }
        false
    }

    /// How many times [`DescendantsMap::is_descendant`] was asked.
    pub fn queries(&self) -> usize {
        self.queries.get()
    }

    /// How many of those queries the component order could not answer, so
    /// the snapshot was walked.
    pub fn walks(&self) -> usize {
        self.walks.get()
    }

    /// How many applications [`would_create_cycle`] vetoed with this map.
    pub fn rejected(&self) -> usize {
        self.rejected.get()
    }
}

/// Checks whether applying `target` under `subst` at `matched_class` would
/// introduce a cycle, using a descendants map.
///
/// The instantiated target's root joins `matched_class`; its leaves are the
/// e-classes bound to the pattern variables. A cycle appears exactly when
/// some bound class can already reach `matched_class` (or is it). A veto
/// is counted in [`DescendantsMap::rejected`].
pub fn would_create_cycle(
    egraph: &TensorEGraph,
    desc: &DescendantsMap,
    matched_class: Id,
    target: &Pattern<TensorLang>,
    subst: &Subst,
) -> bool {
    let matched = egraph.find(matched_class);
    for (_, node) in target.ast.iter() {
        if let ENodeOrVar::Var(v) = node {
            if let Some(bound) = subst.get(*v) {
                let bound = egraph.find(bound);
                // A variable bound to a parameter class (Num/Str) can never
                // form a cycle through tensors, but the generic check is
                // still correct for it.
                if bound == matched || desc.is_descendant(egraph, bound, matched) {
                    desc.rejected.set(desc.rejected.get() + 1);
                    return true;
                }
            }
        }
    }
    false
}

/// One cycle in the e-graph: the ids ([`tensat_egraph::EGraph::enode`]) of
/// the e-nodes whose child pointers close the loop.
pub type Cycle = Vec<Id>;

/// Collects a set of cycles reachable from `root` with a DFS over
/// unfiltered e-nodes (Algorithm 2, `DFSGetCycles`). Each invocation finds
/// the cycles visible to one DFS pass; callers loop until none remain.
pub fn find_cycles(egraph: &TensorEGraph, root: Id) -> Vec<Cycle> {
    const ON_STACK: u8 = 1;
    const DONE: u8 = 2;
    /// One in-progress class visit: iterates the class's nodes (stepping
    /// over filtered ones) and, per node, its children. While a node's
    /// children are being followed, the pair `(class, nodes[node_i])` sits
    /// on `path`.
    struct Frame<'a> {
        class: Id,
        slot: usize,
        nodes: &'a [Id],
        node_i: usize,
        child_i: usize,
    }
    // Visit state per e-graph slot; 0 is "not seen yet".
    let mut marks = vec![0u8; egraph.num_slots()];
    let mut cycles: Vec<Cycle> = vec![];
    // Path of (class, e-node id chosen there) currently on the DFS stack.
    let mut path: Vec<(Id, Id)> = vec![];
    // The DFS uses an explicit frame stack: its depth scales with the
    // longest acyclic path through the e-graph, which grows past thread
    // stack limits on saturated model e-graphs.
    let mut stack: Vec<Frame> = vec![];

    let enter = |class: Id,
                 marks: &mut [u8],
                 path: &[(Id, Id)],
                 cycles: &mut Vec<Cycle>|
     -> Option<Frame> {
        let slot = egraph.slot_index(class).expect("visited class is live");
        match marks[slot] {
            DONE => None,
            ON_STACK => {
                // Found a cycle: everything on the path from the previous
                // occurrence of `class` onwards.
                if let Some(pos) = path.iter().position(|(c, _)| *c == class) {
                    cycles.push(path[pos..].iter().map(|&(_, n)| n).collect());
                }
                None
            }
            _ => {
                marks[slot] = ON_STACK;
                Some(Frame {
                    class,
                    slot,
                    nodes: egraph.eclass(class).node_ids(),
                    node_i: 0,
                    child_i: 0,
                })
            }
        }
    };

    let root = egraph.find(root);
    if let Some(frame) = enter(root, &mut marks, &path, &mut cycles) {
        stack.push(frame);
    }
    while let Some(top) = stack.last_mut() {
        let Some(&id) = top.nodes.get(top.node_i) else {
            marks[top.slot] = DONE;
            stack.pop();
            continue;
        };
        if top.child_i == 0 {
            if egraph.is_filtered(id) {
                top.node_i += 1;
                continue;
            }
            path.push((top.class, id));
        }
        if let Some(&child) = egraph.enode(id).children().get(top.child_i) {
            top.child_i += 1;
            if let Some(frame) = enter(egraph.find(child), &mut marks, &path, &mut cycles) {
                stack.push(frame);
            }
        } else {
            path.pop();
            top.node_i += 1;
            top.child_i = 0;
        }
    }
    cycles
}

/// Resolves a cycle by filtering the most recently added e-node on it
/// (Algorithm 2, `ResolveCycLE`). If any edge of the cycle has already been
/// filtered (by resolving an earlier cycle in the same pass), the cycle is
/// already broken and nothing is filtered. Returns the filtered e-node's
/// id: the cycle's largest, as ids are handed out in `add` order.
pub fn resolve_cycle(egraph: &mut TensorEGraph, cycle: &Cycle) -> Option<Id> {
    if cycle.iter().any(|&id| egraph.is_filtered(id)) {
        return None;
    }
    let newest = cycle.iter().copied().max()?;
    egraph.filter_node(newest);
    Some(newest)
}

/// Removes every cycle reachable from `root`, returning the number of
/// e-nodes filtered (the post-processing loop of Algorithm 2).
pub fn remove_all_cycles(egraph: &mut TensorEGraph, root: Id) -> usize {
    let mut filtered = 0;
    loop {
        let cycles = find_cycles(egraph, root);
        if cycles.is_empty() {
            return filtered;
        }
        for cycle in &cycles {
            if resolve_cycle(egraph, cycle).is_some() {
                filtered += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensat_ir::{GraphBuilder, TensorAnalysis};

    fn simple_egraph() -> (TensorEGraph, Id) {
        let mut g = GraphBuilder::new();
        let x = g.input("x", &[8, 32]);
        let w1 = g.weight("w1", &[32, 16]);
        let w2 = g.weight("w2", &[32, 16]);
        let m1 = g.matmul(x, w1);
        let m2 = g.matmul(x, w2);
        let expr = g.finish(&[m1, m2]);
        let mut eg = TensorEGraph::new(TensorAnalysis);
        let root = eg.add_expr(&expr);
        eg.rebuild();
        (eg, root)
    }

    #[test]
    fn descendants_map_of_a_dag() {
        let (eg, root) = simple_egraph();
        let desc = DescendantsMap::compute(&eg);
        // The root (noop) reaches every other class; no class reaches the root.
        for class in eg.classes() {
            if eg.find(class.id) != eg.find(root) {
                assert!(desc.is_descendant(&eg, root, class.id));
                assert!(!desc.is_descendant(&eg, class.id, root));
            }
        }
    }

    #[test]
    fn dag_has_no_cycles() {
        let (eg, root) = simple_egraph();
        assert!(find_cycles(&eg, root).is_empty());
    }

    #[test]
    fn introduced_cycle_is_found_and_resolved() {
        let (mut eg, root) = simple_egraph();
        // Manufacture a cycle: claim that x is equal to relu(m1), making
        // m1's class an ancestor and descendant of x's class.
        let x = {
            let sym = tensat_ir::encode_identifier("x", &[8, 32]);
            let s = eg.lookup(&TensorLang::Str(sym)).unwrap();
            eg.lookup(&TensorLang::Input([s])).unwrap()
        };
        // Find m1's class: any matmul node.
        let m1 = eg
            .classes()
            .find(|c| eg.enodes(c).any(|n| matches!(n, TensorLang::Matmul(_))))
            .map(|c| c.id)
            .unwrap();
        let relu = eg.add(TensorLang::Relu([m1]));
        eg.union(x, relu);
        eg.rebuild();
        let cycles = find_cycles(&eg, root);
        assert!(cycles.iter().any(|cycle| cycle.contains(&relu)));
        let filtered = remove_all_cycles(&mut eg, root);
        assert!(filtered >= 1);
        assert!(find_cycles(&eg, root).is_empty());
        // The filtered node is the newest one (the relu), not the original
        // graph nodes.
        assert!(eg.is_filtered(relu));
    }

    #[test]
    fn would_create_cycle_detects_self_reference() {
        let (eg, root) = simple_egraph();
        let desc = DescendantsMap::compute(&eg);
        // A pattern variable bound to the root itself trivially cycles.
        let pat = tensat_rules::parse_pattern("(relu ?x)").unwrap();
        let mut subst = Subst::new();
        subst.insert(tensat_egraph::Var::new("x"), root);
        assert!(would_create_cycle(&eg, &desc, root, &pat, &subst));
        // Bound to a leaf, applying at the root is fine.
        let x = {
            let sym = tensat_ir::encode_identifier("x", &[8, 32]);
            let s = eg.lookup(&TensorLang::Str(sym)).unwrap();
            eg.lookup(&TensorLang::Input([s])).unwrap()
        };
        let mut subst = Subst::new();
        subst.insert(tensat_egraph::Var::new("x"), x);
        assert!(!would_create_cycle(&eg, &desc, root, &pat, &subst));
        // But applying at the leaf a pattern bound to the root cycles.
        let mut subst = Subst::new();
        subst.insert(tensat_egraph::Var::new("x"), root);
        assert!(would_create_cycle(&eg, &desc, x, &pat, &subst));
    }
}
