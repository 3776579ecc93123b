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
//!   ([`DescendantsMap`]),
//! * the single-candidate cycle check used by both vanilla (recomputed per
//!   candidate) and efficient (pre-computed once per iteration) filtering,
//! * the DFS cycle collection and resolution used by the post-processing
//!   step (Algorithm 2, lines 10–18).

use std::cell::Cell;
use std::collections::HashSet;
use tensat_egraph::{ENodeOrVar, Id, Language, Pattern, Subst};
use tensat_ir::{TensorEGraph, TensorLang};

/// The per-iteration descendants map: answers whether one e-class reaches
/// another through (unfiltered) e-node child edges, as the e-graph stood
/// when the map was computed.
///
/// It is not a closure. [`DescendantsMap::compute`] copies the class graph
/// into flat tables and numbers its strongly connected components in the
/// order Tarjan's algorithm completes them, so an edge never leads to a
/// higher number. [`DescendantsMap::is_descendant`] then reads the answer
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
    /// `edges[offsets[s]..offsets[s + 1]]` are the child slots of the
    /// class in slot `s` through its unfiltered e-nodes: ascending, without
    /// duplicates, the class itself included if a node loops back. A
    /// tombstoned slot (between a union and the next rebuild) has none.
    offsets: Vec<u32>,
    edges: Vec<u32>,
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
    /// Takes the snapshot: one sweep over the classes for the edge tables,
    /// one pass of Tarjan's algorithm for the component order. Linear in
    /// classes plus edges, also on a dirty e-graph (vanilla filtering
    /// computes one per candidate).
    pub fn compute(egraph: &TensorEGraph) -> Self {
        let n = egraph.num_slots();
        let mut offsets: Vec<u32> = Vec::with_capacity(n + 1);
        let mut edges: Vec<u32> = vec![];
        let mut row: Vec<u32> = vec![];
        for class in egraph.classes() {
            let ci = egraph.slot_index(class.id).expect("iterated class is live");
            // Slots skipped since the last class are tombstones: no edges.
            offsets.resize(ci + 1, edges.len() as u32);
            row.clear();
            for node in class.iter() {
                if egraph.is_filtered(node) {
                    continue;
                }
                for &child in node.children() {
                    let child = egraph.slot_index(child).expect("child class is live");
                    row.push(child as u32);
                }
            }
            row.sort_unstable();
            row.dedup();
            edges.extend_from_slice(&row);
        }
        offsets.resize(n + 1, edges.len() as u32);
        // The map lives through a whole apply phase: give back what the
        // doubling growth left over.
        edges.shrink_to_fit();
        let (comp, cyclic) = components(&offsets, &edges);
        DescendantsMap {
            offsets,
            edges,
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
            // are treated as having no recorded descendants; slots are
            // stable between rebuilds, so mid-iteration unions keep
            // resolving to the slot recorded at build time.
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
            for &child in self.children(s as usize) {
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

    fn children(&self, slot: usize) -> &[u32] {
        &self.edges[self.offsets[slot] as usize..self.offsets[slot + 1] as usize]
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

/// Numbers the strongly connected components of the class graph in the
/// order Tarjan's algorithm completes them — a component is complete only
/// after everything it reaches, so no edge leads to a higher number — and
/// records which components are cycles. Iterative: chains in saturated
/// model e-graphs outgrow thread stacks.
fn components(offsets: &[u32], edges: &[u32]) -> (Vec<u32>, Vec<bool>) {
    const NONE: u32 = u32::MAX;
    let n = offsets.len() - 1;
    // Discovery number, and the lowest discovery number known reachable.
    let mut index = vec![NONE; n];
    let mut low = vec![0u32; n];
    // `NONE` until the slot's component is complete: a discovered slot
    // without a component is on `open`.
    let mut comp = vec![NONE; n];
    let mut cyclic: Vec<bool> = vec![];
    let mut open: Vec<u32> = vec![];
    // (slot, position in `edges` of its next child edge to follow)
    let mut stack: Vec<(u32, u32)> = vec![];
    let mut discovered = 0u32;
    for start in 0..n {
        if index[start] != NONE {
            continue;
        }
        stack.push((start as u32, offsets[start]));
        while let Some(top) = stack.last_mut() {
            let v = top.0 as usize;
            if index[v] == NONE {
                index[v] = discovered;
                low[v] = discovered;
                discovered += 1;
                open.push(v as u32);
            }
            if top.1 < offsets[v + 1] {
                let w = edges[top.1 as usize] as usize;
                top.1 += 1;
                if index[w] == NONE {
                    stack.push((w as u32, offsets[w]));
                } else if comp[w] == NONE {
                    low[v] = low[v].min(index[w]);
                }
                continue;
            }
            stack.pop();
            if let Some(&(parent, _)) = stack.last() {
                let parent = parent as usize;
                low[parent] = low[parent].min(low[v]);
            }
            if low[v] == index[v] {
                let number = cyclic.len() as u32;
                let mut size = 0;
                loop {
                    let w = open.pop().expect("a component's root is still open") as usize;
                    comp[w] = number;
                    size += 1;
                    if w == v {
                        break;
                    }
                }
                let row = &edges[offsets[v] as usize..offsets[v + 1] as usize];
                cyclic.push(size > 1 || row.binary_search(&(v as u32)).is_ok());
            }
        }
    }
    (comp, cyclic)
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

/// One cycle in the e-graph: the sequence of `(class, e-node)` edges whose
/// child pointers close the loop.
pub type Cycle = Vec<(Id, TensorLang)>;

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
        nodes: &'a [TensorLang],
        node_i: usize,
        child_i: usize,
    }
    // Visit state per e-graph slot; 0 is "not seen yet".
    let mut marks = vec![0u8; egraph.num_slots()];
    let mut cycles: Vec<Cycle> = vec![];
    // Path of (class, enode chosen at that class) currently on the DFS stack.
    let mut path: Vec<(Id, &TensorLang)> = vec![];
    // The DFS uses an explicit frame stack: its depth scales with the
    // longest acyclic path through the e-graph, which grows past thread
    // stack limits on saturated model e-graphs.
    let mut stack: Vec<Frame> = vec![];

    let enter = |class: Id,
                 marks: &mut [u8],
                 path: &[(Id, &TensorLang)],
                 cycles: &mut Vec<Cycle>|
     -> Option<Frame> {
        let slot = egraph.slot_index(class).expect("visited class is live");
        match marks[slot] {
            DONE => None,
            ON_STACK => {
                // Found a cycle: everything on the path from the previous
                // occurrence of `class` onwards.
                if let Some(pos) = path.iter().position(|(c, _)| *c == class) {
                    cycles.push(path[pos..].iter().map(|&(c, n)| (c, n.clone())).collect());
                }
                None
            }
            _ => {
                marks[slot] = ON_STACK;
                Some(Frame {
                    class,
                    slot,
                    nodes: &egraph.eclass(class).nodes,
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
        let Some(node) = top.nodes.get(top.node_i) else {
            marks[top.slot] = DONE;
            stack.pop();
            continue;
        };
        if top.child_i == 0 {
            if egraph.is_filtered(node) {
                top.node_i += 1;
                continue;
            }
            path.push((top.class, node));
        }
        if let Some(&child) = node.children().get(top.child_i) {
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
/// already broken and nothing is filtered.
pub fn resolve_cycle(egraph: &mut TensorEGraph, cycle: &Cycle) -> Option<TensorLang> {
    if cycle.iter().any(|(_, node)| egraph.is_filtered(node)) {
        return None;
    }
    let mut newest: Option<(u64, Id, TensorLang)> = None;
    for (class, node) in cycle {
        let birth = egraph.node_birth(*class, node).unwrap_or(0);
        if newest.as_ref().is_none_or(|(b, _, _)| birth > *b) {
            newest = Some((birth, *class, node.clone()));
        }
    }
    let (_, _, node) = newest?;
    egraph.filter_node(&node);
    Some(node)
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
            .find(|c| c.iter().any(|n| matches!(n, TensorLang::Matmul(_))))
            .map(|c| c.id)
            .unwrap();
        let relu = eg.add(TensorLang::Relu([m1]));
        eg.union(x, relu);
        eg.rebuild();
        let cycles = find_cycles(&eg, root);
        assert!(!cycles.is_empty());
        let filtered = remove_all_cycles(&mut eg, root);
        assert!(filtered >= 1);
        assert!(find_cycles(&eg, root).is_empty());
        // The filtered node is the newest one (the relu), not the original
        // graph nodes.
        assert!(eg.is_filtered(&eg.canonicalize(&TensorLang::Relu([m1]))));
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
