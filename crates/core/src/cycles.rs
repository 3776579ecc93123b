//! Cycle handling for the exploration phase (paper §5.2).
//!
//! Valid rewrites can introduce cycles into the e-graph (paper Fig. 3).
//! The extracted graph must be a DAG, so TENSAT either encodes acyclicity
//! in the ILP (slow) or filters cycles during exploration. This module
//! implements the machinery for both cycle-filtering algorithms:
//!
//! * the *descendants map* used by the pre-filtering step of the efficient
//!   algorithm (Algorithm 2, line 3),
//! * the single-candidate cycle check used by both vanilla (recomputed per
//!   candidate) and efficient (pre-computed once per iteration) filtering,
//! * the DFS cycle collection and resolution used by the post-processing
//!   step (Algorithm 2, lines 10–18).

use std::collections::HashMap;
use tensat_egraph::{ENodeOrVar, Id, Language, Pattern, Subst};
use tensat_ir::{TensorEGraph, TensorLang};

/// The dense bit set over e-class slots. Moved into `tensat-egraph` when
/// the DAG extractor's reachability sets joined the slot tables there;
/// re-exported here so existing `tensat_core::cycles::BitSet` paths keep
/// working.
pub use tensat_egraph::BitSet;

/// The per-iteration descendants map: for every e-class, the set of
/// e-classes reachable through (unfiltered) e-node child edges.
///
/// Classes are addressed by the e-graph's own dense slot space
/// ([`tensat_egraph::EGraph::slot_index`]) — the bit sets, the e-graph's
/// class tables, and the extractors' cost tables all index the same slots,
/// so translating between them is a `find` plus an array read instead of a
/// per-class hash lookup.
#[derive(Debug, Clone)]
pub struct DescendantsMap {
    /// Number of slots when the map was computed. Classes created after
    /// that (slot >= `n`) have no recorded descendants — the pre-filter is
    /// sound but not complete, as the paper notes.
    n: usize,
    /// `desc[s]` is the descendant set of the class in e-graph slot `s`.
    pub desc: Vec<BitSet>,
}

impl DescendantsMap {
    /// Computes the descendants map: the least fixpoint of
    /// `desc[i] = children(i) ∪ ⋃ desc[child]`, swept in a DFS post-order
    /// of the class graph (children first). Where the graph is acyclic a
    /// row's children are final before the row is built, so the first
    /// sweep is the fixpoint and nothing is swept twice; cycles (the loop
    /// only guarantees none are reachable from the root) leave rows behind
    /// a back edge incomplete, and the sweep repeats until nothing
    /// changes — bit sets only grow, so it converges.
    pub fn compute(egraph: &TensorEGraph) -> Self {
        let n = egraph.num_slots();
        // Direct child edges.
        let mut children: Vec<Vec<usize>> = vec![vec![]; n];
        for class in egraph.classes() {
            let ci = egraph.slot_index(class.id).expect("iterated class is live");
            for node in class.iter() {
                if egraph.is_filtered(node) {
                    continue;
                }
                for &child in node.children() {
                    let child = egraph.slot_index(child).expect("child class is live");
                    children[ci].push(child);
                }
            }
        }
        for c in &mut children {
            c.sort_unstable();
            c.dedup();
        }
        let (order, acyclic) = post_order(&children);
        let mut desc: Vec<BitSet> = (0..n).map(|_| BitSet::new(n)).collect();
        loop {
            let mut changed = false;
            for &i in &order {
                // Take the row out so the children's rows can be read
                // while it is written; a self loop reads nothing new.
                let mut row = std::mem::take(&mut desc[i]);
                for &c in &children[i] {
                    changed |= row.insert(c);
                    if c != i {
                        changed |= row.union_with(&desc[c]);
                    }
                }
                desc[i] = row;
            }
            if acyclic || !changed {
                return DescendantsMap { n, desc };
            }
        }
    }

    /// True if `descendant` is reachable from `ancestor` (strictly below).
    pub fn is_descendant(&self, egraph: &TensorEGraph, ancestor: Id, descendant: Id) -> bool {
        match (egraph.slot_index(ancestor), egraph.slot_index(descendant)) {
            // Classes created after the map was built (slots past its end)
            // are treated as having no recorded descendants; slots are
            // stable between rebuilds, so mid-iteration unions keep
            // resolving to the slot recorded at build time.
            (Some(ai), Some(di)) if ai < self.n && di < self.n => self.desc[ai].contains(di),
            _ => false,
        }
    }
}

/// A DFS post-order of the whole class graph (every slot once, each after
/// the children first reached through it), and whether the graph is
/// acyclic (no edge closes onto the DFS stack). Iterative: chains in
/// saturated model e-graphs outgrow thread stacks.
fn post_order(children: &[Vec<usize>]) -> (Vec<usize>, bool) {
    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        New,
        OnStack,
        Done,
    }
    let n = children.len();
    let mut marks = vec![Mark::New; n];
    let mut order = Vec::with_capacity(n);
    let mut acyclic = true;
    // (slot, index of its next child edge to follow)
    let mut stack: Vec<(usize, usize)> = vec![];
    for start in 0..n {
        if marks[start] != Mark::New {
            continue;
        }
        marks[start] = Mark::OnStack;
        stack.push((start, 0));
        while let Some((slot, next)) = stack.last_mut() {
            match children[*slot].get(*next) {
                Some(&child) => {
                    *next += 1;
                    match marks[child] {
                        Mark::New => {
                            marks[child] = Mark::OnStack;
                            stack.push((child, 0));
                        }
                        Mark::OnStack => acyclic = false,
                        Mark::Done => {}
                    }
                }
                None => {
                    marks[*slot] = Mark::Done;
                    order.push(*slot);
                    stack.pop();
                }
            }
        }
    }
    (order, acyclic)
}

/// Checks whether applying `target` under `subst` at `matched_class` would
/// introduce a cycle, using a descendants map.
///
/// The instantiated target's root joins `matched_class`; its leaves are the
/// e-classes bound to the pattern variables. A cycle appears exactly when
/// some bound class can already reach `matched_class` (or is it).
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
    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        OnStack,
        Done,
    }
    /// One in-progress class visit: iterates its (unfiltered) nodes and,
    /// per node, its children. While `node_i` points at a node, the pair
    /// `(class, nodes[node_i])` sits on `path`.
    struct Frame {
        class: Id,
        nodes: Vec<TensorLang>,
        node_i: usize,
        child_i: usize,
    }
    let mut marks: HashMap<Id, Mark> = HashMap::new();
    let mut cycles: Vec<Cycle> = vec![];
    // Path of (class, enode chosen at that class) currently on the DFS stack.
    let mut path: Vec<(Id, TensorLang)> = vec![];
    // The DFS uses an explicit frame stack: its depth scales with the
    // longest acyclic path through the e-graph, which grows past thread
    // stack limits on saturated model e-graphs.
    let mut stack: Vec<Frame> = vec![];

    let enter = |class: Id,
                 marks: &mut HashMap<Id, Mark>,
                 path: &[(Id, TensorLang)],
                 cycles: &mut Vec<Cycle>|
     -> Option<Frame> {
        match marks.get(&class).copied() {
            Some(Mark::Done) => None,
            Some(Mark::OnStack) => {
                // Found a cycle: everything on the path from the previous
                // occurrence of `class` onwards.
                if let Some(pos) = path.iter().position(|(c, _)| *c == class) {
                    cycles.push(path[pos..].to_vec());
                }
                None
            }
            None => {
                marks.insert(class, Mark::OnStack);
                let nodes: Vec<TensorLang> = egraph
                    .eclass(class)
                    .iter()
                    .filter(|n| !egraph.is_filtered(n))
                    .cloned()
                    .collect();
                Some(Frame {
                    class,
                    nodes,
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
        if top.node_i >= top.nodes.len() {
            marks.insert(top.class, Mark::Done);
            stack.pop();
            continue;
        }
        let node = top.nodes[top.node_i].clone();
        if top.child_i == 0 {
            path.push((top.class, node.clone()));
        }
        if top.child_i < node.children().len() {
            let child = egraph.find(node.children()[top.child_i]);
            top.child_i += 1;
            if let Some(frame) = enter(child, &mut marks, &path, &mut cycles) {
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
    fn bitset_basics() {
        let mut b = BitSet::new(130);
        assert!(!b.contains(5));
        assert!(b.insert(5));
        assert!(!b.insert(5));
        assert!(b.insert(129));
        assert!(b.contains(129));
        assert_eq!(b.count(), 2);
        let mut c = BitSet::new(130);
        c.insert(7);
        assert!(b.union_with(&c));
        assert!(!b.union_with(&c));
        assert_eq!(b.count(), 3);
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
