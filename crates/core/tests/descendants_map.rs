//! Property test of the cycle pre-filter's descendants map
//! (Algorithm 2, line 3): [`DescendantsMap::compute`]'s post-order sweep
//! must produce exactly the reachability relation a naive per-class DFS
//! over unfiltered e-node child edges produces — on DAGs (one sweep), on
//! e-graphs with filtered nodes, and on e-graphs with cycles, including
//! cycles in classes the root cannot reach (the exploration loop only
//! removes root-reachable ones, so those survive into the next
//! iteration's map).

use proptest::prelude::*;
use tensat_core::DescendantsMap;
use tensat_egraph::{Id, Language};
use tensat_ir::{GraphBuilder, TensorAnalysis, TensorEGraph, TensorLang};

/// A random graph-building step over `[8, 8]` tensors; operand indices
/// pick among earlier nodes modulo the current length.
#[derive(Debug, Clone)]
enum Op {
    Relu(usize),
    Tanh(usize),
    Ewadd(usize, usize),
    Ewmul(usize, usize),
}

fn ops_strategy(max_len: usize) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            any::<usize>().prop_map(Op::Relu),
            any::<usize>().prop_map(Op::Tanh),
            (any::<usize>(), any::<usize>()).prop_map(|(a, b)| Op::Ewadd(a, b)),
            (any::<usize>(), any::<usize>()).prop_map(|(a, b)| Op::Ewmul(a, b)),
        ],
        1..max_len,
    )
}

/// The classes strictly below `start`: a DFS over the child edges of
/// unfiltered e-nodes, one fresh traversal per class.
fn naive_descendants(egraph: &TensorEGraph, start: Id) -> Vec<Id> {
    let mut seen: Vec<Id> = vec![];
    let mut stack = vec![egraph.find(start)];
    while let Some(class) = stack.pop() {
        for node in egraph.eclass(class).iter() {
            if egraph.is_filtered(node) {
                continue;
            }
            for &child in node.children() {
                let child = egraph.find(child);
                if !seen.contains(&child) {
                    seen.push(child);
                    stack.push(child);
                }
            }
        }
    }
    seen
}

proptest! {
    #[test]
    fn descendants_map_equals_naive_reachability(
        ops in ops_strategy(24),
        unions in prop::collection::vec((any::<usize>(), any::<usize>()), 0..4),
        filter_picks in prop::collection::vec(any::<usize>(), 0..4),
        off_root_cycle in any::<bool>(),
    ) {
        // The rooted part: a random DAG, every node an output.
        let mut g = GraphBuilder::new();
        let mut ids = vec![g.input("p", &[8, 8]), g.input("q", &[8, 8])];
        for op in &ops {
            let pick = |r: &usize| ids[r % ids.len()];
            let id = match op {
                Op::Relu(a) => g.relu(pick(a)),
                Op::Tanh(a) => g.tanh(pick(a)),
                Op::Ewadd(a, b) => g.ewadd(pick(a), pick(b)),
                Op::Ewmul(a, b) => g.ewmul(pick(a), pick(b)),
            };
            ids.push(id);
        }
        let expr = g.finish(&ids);
        let mut eg = TensorEGraph::new(TensorAnalysis);
        let root = eg.add_expr(&expr);
        eg.rebuild();

        // Random unions between tensor classes: each may close a cycle the
        // root reaches.
        let tensors: Vec<Id> = eg
            .classes()
            .filter(|c| c.data.shape().is_some())
            .map(|c| c.id)
            .collect();
        for (a, b) in &unions {
            eg.union(tensors[a % tensors.len()], tensors[b % tensors.len()]);
        }
        if off_root_cycle {
            // Classes nothing above them uses: a self loop and a two-class
            // cycle hanging off the graph, unreachable from the root.
            let p = tensors[0];
            let a = eg.add(TensorLang::Sigmoid([p]));
            let b = eg.add(TensorLang::Sigmoid([a]));
            eg.union(a, b);
            let c = eg.add(TensorLang::Sigmoid([tensors[tensors.len() - 1]]));
            let d = eg.add(TensorLang::Relu([c]));
            let e = eg.add(TensorLang::Tanh([d]));
            eg.union(c, e);
        }
        eg.rebuild();
        let all_nodes: Vec<TensorLang> =
            eg.classes().flat_map(|c| c.iter().cloned()).collect();
        for pick in &filter_picks {
            eg.filter_node(&all_nodes[pick % all_nodes.len()]);
        }

        let map = DescendantsMap::compute(&eg);
        let classes: Vec<Id> = eg.classes().map(|c| c.id).collect();
        for &ancestor in &classes {
            let below = naive_descendants(&eg, ancestor);
            for &descendant in &classes {
                prop_assert_eq!(
                    map.is_descendant(&eg, ancestor, descendant),
                    below.contains(&eg.find(descendant)),
                    "ancestor {:?}, descendant {:?} (root {:?})", ancestor, descendant, root
                );
            }
        }
    }
}
