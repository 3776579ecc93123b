//! Tests of the cycle pre-filter's descendants map (Algorithm 2, line 3).
//! [`DescendantsMap`] answers from a snapshot of the class graph — the
//! order of its strongly connected components where that decides, a walk
//! where it does not — and must give exactly the reachability relation a
//! naive per-class DFS over unfiltered e-node child edges gives: on random
//! DAGs, on e-graphs with filtered nodes, on e-graphs with cycles,
//! including cycles in classes the root cannot reach (the exploration loop
//! only removes root-reachable ones, so those survive into the next
//! iteration's map), and on an explored model e-graph. Two more tests pin
//! what the property cannot see: that the answers are those of the
//! e-graph *as it stood at `compute`* however it changes afterwards, and
//! that the walk runs — and prunes — where the component order leaves a
//! question open.

use proptest::prelude::*;
use std::collections::HashSet;
use tensat_core::{explore, DescendantsMap, OptimizerConfig};
use tensat_egraph::{Id, Language};
use tensat_ir::{encode_identifier, GraphBuilder, TensorAnalysis, TensorEGraph, TensorLang};
use tensat_models::{build_benchmark, ModelScale};
use tensat_rules::{multi_rules, single_rules};

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
/// unfiltered e-nodes, one fresh traversal per class. It reads every listed
/// id and asks for its filter bit itself, where the map reads
/// `EGraph::enodes`.
fn naive_descendants(egraph: &TensorEGraph, start: Id) -> HashSet<Id> {
    let mut seen: HashSet<Id> = HashSet::new();
    let mut stack = vec![egraph.find(start)];
    while let Some(class) = stack.pop() {
        for &id in egraph.eclass(class).node_ids() {
            if egraph.is_filtered(id) {
                continue;
            }
            for &child in egraph.enode(id).children() {
                let child = egraph.find(child);
                if seen.insert(child) {
                    stack.push(child);
                }
            }
        }
    }
    seen
}

/// A random DAG over two inputs, every node an output, as a clean e-graph.
fn random_dag(ops: &[Op]) -> (TensorEGraph, Id) {
    let mut g = GraphBuilder::new();
    let mut ids = vec![g.input("p", &[8, 8]), g.input("q", &[8, 8])];
    for op in ops {
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
    (eg, root)
}

/// The classes holding a tensor (not a parameter leaf).
fn tensor_classes(eg: &TensorEGraph) -> Vec<Id> {
    eg.classes()
        .filter(|c| c.data.shape().is_some())
        .map(|c| c.id)
        .collect()
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
        let (mut eg, root) = random_dag(&ops);

        // Random unions between tensor classes: each may close a cycle the
        // root reaches.
        let tensors = tensor_classes(&eg);
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
        let all_nodes: Vec<Id> = eg.classes().flat_map(|c| c.node_ids().to_vec()).collect();
        for pick in &filter_picks {
            eg.filter_node(all_nodes[pick % all_nodes.len()]);
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

proptest! {
    /// The map is a snapshot. Classes added after `compute` have no
    /// recorded descendants and are nobody's, and a class unioned after it
    /// answers with the slot `find` now resolves it to — the answers
    /// recorded for that slot at build time, not the merged e-graph's. The
    /// apply phase relies on exactly this: it adds and unions for a whole
    /// iteration without rebuilding the map (or the e-graph). In
    /// particular a union that absorbs the class in the map's last slot
    /// before the adds must not free that slot for a new class.
    #[test]
    fn later_adds_and_unions_do_not_change_the_recorded_answers(
        ops in ops_strategy(24),
        cycle_unions in prop::collection::vec((any::<usize>(), any::<usize>()), 0..3),
        tail_partner in any::<usize>(),
        later_unions in prop::collection::vec((any::<usize>(), any::<usize>()), 1..6),
        later_adds in prop::collection::vec(any::<usize>(), 1..6),
    ) {
        let (mut eg, _) = random_dag(&ops);
        let tensors = tensor_classes(&eg);
        for (a, b) in &cycle_unions {
            eg.union(tensors[a % tensors.len()], tensors[b % tensors.len()]);
        }
        // The newest class, so the last slot after the rebuild: a fresh
        // input of one id, which loses any union (the larger set's root
        // wins, the first argument on a tie).
        let name = eg.add(TensorLang::Str(encode_identifier("tail", &[8, 8])));
        let tail = eg.add(TensorLang::Input([name]));
        eg.rebuild();

        let map = DescendantsMap::compute(&eg);
        let classes: Vec<Id> = eg.classes().map(|c| c.id).collect();
        let slot = |eg: &TensorEGraph, id: Id| eg.slot_index(id).expect("class is live");
        let n = eg.num_slots();
        prop_assert_eq!(slot(&eg, tail), n - 1);
        let mut recorded = vec![false; n * n];
        for &a in &classes {
            for &d in &classes {
                recorded[slot(&eg, a) * n + slot(&eg, d)] = map.is_descendant(&eg, a, d);
            }
        }

        // What an apply phase does, with no rebuild: the last recorded
        // slot's class absorbed, new classes on top of old ones, unions
        // among the old ones.
        let tensors = tensor_classes(&eg);
        let partner = tensors[tail_partner % (tensors.len() - 1)];
        eg.union(partner, tail);
        prop_assert_eq!(eg.find(tail), partner, "the tail class is the one absorbed");
        prop_assert_eq!(eg.num_slots(), n, "the absorbed slot stays a tombstone");
        let mut added: Vec<Id> = vec![];
        for pick in &later_adds {
            let below = tensors[pick % tensors.len()];
            let relu = eg.add(TensorLang::Relu([below]));
            added.push(eg.add(TensorLang::Sigmoid([relu])));
        }
        for (a, b) in &later_unions {
            eg.union(tensors[a % tensors.len()], tensors[b % tensors.len()]);
        }

        for &a in &classes {
            for &d in &classes {
                prop_assert_eq!(
                    map.is_descendant(&eg, a, d),
                    recorded[slot(&eg, a) * n + slot(&eg, d)],
                    "ancestor {:?}, descendant {:?}", a, d
                );
            }
        }
        // `sigmoid(relu(x))` cannot have been in the e-graph: its class is
        // new, in a slot past the snapshot's end.
        for &new in &added {
            prop_assert!(slot(&eg, new) >= n);
            for &old in &classes {
                prop_assert!(!map.is_descendant(&eg, new, old));
                prop_assert!(!map.is_descendant(&eg, old, new));
            }
            prop_assert!(!map.is_descendant(&eg, new, new));
        }
    }
}

/// All pairs against the naive DFS on a real e-graph: BERT at the repo
/// benchmark's scale explored to 2 000 e-nodes with two multi-pattern
/// iterations — the one benchmark case in which the pre-filter vetoes
/// applications. The pairs include every kind of query: decided by the
/// component order, walked to `true`, walked to `false`.
///
/// Half of the 1.3 M pairs need a walk, which nothing in the library asks
/// for at this rate: an unoptimized build takes every eighth class as
/// ancestor (against every descendant) to stay within seconds; release
/// builds — CI runs this test by name in one — take them all.
#[test]
fn descendants_map_equals_naive_reachability_on_explored_bert() {
    let graph = build_benchmark(
        "BERT",
        ModelScale {
            blocks: 2,
            hidden: 128,
            batch: 8,
        },
    );
    let mut eg = TensorEGraph::new(TensorAnalysis);
    let root = eg.add_expr(&graph);
    eg.rebuild();
    let config = OptimizerConfig {
        k_multi: 2,
        node_limit: 2_000,
        ..Default::default()
    };
    let stats = explore(&mut eg, root, &single_rules(), &multi_rules(), &config);
    assert!(stats.enodes > 1_500, "{} e-nodes", stats.enodes);
    assert!(
        stats.prefilter_rejected > 0,
        "the pre-filter vetoed nothing"
    );
    assert!(stats.prefilter_walks > 0 && stats.prefilter_walks < stats.prefilter_queries);

    let map = DescendantsMap::compute(&eg);
    let classes: Vec<Id> = eg.classes().map(|c| c.id).collect();
    let stride = if cfg!(debug_assertions) { 8 } else { 1 };
    let ancestors: Vec<Id> = classes.iter().copied().step_by(stride).collect();
    let (mut walked_to_true, mut walked_to_false) = (0usize, 0usize);
    for &ancestor in &ancestors {
        let below = naive_descendants(&eg, ancestor);
        for &descendant in &classes {
            let walks_before = map.walks();
            let got = map.is_descendant(&eg, ancestor, descendant);
            assert_eq!(
                got,
                below.contains(&eg.find(descendant)),
                "ancestor {ancestor:?}, descendant {descendant:?}"
            );
            if map.walks() > walks_before {
                *(if got {
                    &mut walked_to_true
                } else {
                    &mut walked_to_false
                }) += 1;
            }
        }
    }
    assert_eq!(map.queries(), ancestors.len() * classes.len());
    assert_eq!(map.walks(), walked_to_true + walked_to_false);
    assert!(walked_to_true > 0 && walked_to_false > 0);
    assert!(map.walks() < map.queries());
}

/// A hand-built class graph on which the component order cannot decide and
/// the walk must — or must not have to:
///
/// * two chains under one root, over different inputs. Neither reaches the
///   other, but one of them is numbered after the other, so from its top
///   the order leaves "do you reach the other chain's bottom?" open; the
///   walk answers `false`, and it is pruned: the asking chain's own classes
///   are all numbered below the target;
/// * a diamond, where the walk from the top finds the bottom (`true`);
/// * off the root, a two-class cycle (`true` both ways and on itself) and
///   a self loop (`true` on itself) — answered from the component alone —
///   while an acyclic class asked about itself is `false`.
#[test]
fn the_walk_decides_what_the_component_order_cannot() {
    let mut eg = TensorEGraph::new(TensorAnalysis);
    let input = |eg: &mut TensorEGraph, name: &str| {
        let sym = eg.add(TensorLang::Str(encode_identifier(name, &[8, 8])));
        eg.add(TensorLang::Input([sym]))
    };
    let (p, q, r) = (
        input(&mut eg, "p"),
        input(&mut eg, "q"),
        input(&mut eg, "r"),
    );
    // Chains: top -> mid -> bottom -> input.
    let chain = |eg: &mut TensorEGraph, leaf: Id| {
        let bottom = eg.add(TensorLang::Relu([leaf]));
        let mid = eg.add(TensorLang::Tanh([bottom]));
        let top = eg.add(TensorLang::Relu([mid]));
        (top, bottom)
    };
    let (a_top, a_bottom) = chain(&mut eg, p);
    let (b_top, b_bottom) = chain(&mut eg, q);
    // Diamond over `r`.
    let bottom = eg.add(TensorLang::Sigmoid([r]));
    let left = eg.add(TensorLang::Relu([bottom]));
    let right = eg.add(TensorLang::Tanh([bottom]));
    let top = eg.add(TensorLang::Ewadd([left, right]));
    let chains = eg.add(TensorLang::Noop([a_top, b_top]));
    let root = eg.add(TensorLang::Noop([chains, top]));
    // Off the root: `loop_` = {sigmoid(p), sigmoid(loop_)}, and
    // `c` = {sigmoid(q), tanh(d)} with `d` = {relu(c)}.
    let loop_ = eg.add(TensorLang::Sigmoid([p]));
    let again = eg.add(TensorLang::Sigmoid([loop_]));
    eg.union(loop_, again);
    let c = eg.add(TensorLang::Sigmoid([q]));
    let d = eg.add(TensorLang::Relu([c]));
    let e = eg.add(TensorLang::Tanh([d]));
    eg.union(c, e);
    eg.rebuild();

    let map = DescendantsMap::compute(&eg);
    // Runs the query, checks the answer against the naive DFS, and returns
    // it with the number of walks it took (0 or 1).
    let ask = |ancestor: Id, descendant: Id| {
        let before = map.walks();
        let got = map.is_descendant(&eg, ancestor, descendant);
        assert_eq!(
            got,
            naive_descendants(&eg, ancestor).contains(&eg.find(descendant)),
            "ancestor {ancestor:?}, descendant {descendant:?}"
        );
        (got, map.walks() - before)
    };

    // Whichever chain Tarjan completed first, exactly one direction is
    // left open by the order.
    let (a_reaches_b, a_walks) = ask(a_top, b_bottom);
    let (b_reaches_a, b_walks) = ask(b_top, a_bottom);
    assert!(!a_reaches_b && !b_reaches_a);
    assert_eq!(a_walks + b_walks, 1);
    // Same between the diamond's sides, which share only what is below.
    let (l_reaches_r, l_walks) = ask(left, right);
    let (r_reaches_l, r_walks) = ask(right, left);
    assert!(!l_reaches_r && !r_reaches_l);
    assert_eq!(l_walks + r_walks, 1);

    // Downwards the order never decides: the walk finds the target.
    assert_eq!(ask(top, bottom), (true, 1));
    assert_eq!(ask(root, a_bottom), (true, 1));
    assert_eq!(ask(root, r), (true, 1));
    // Upwards it always does.
    assert_eq!(ask(bottom, top), (false, 0));
    assert_eq!(ask(p, root), (false, 0));

    // Cycles are answered from the component, without a walk.
    assert_eq!(ask(c, d), (true, 0));
    assert_eq!(ask(d, c), (true, 0));
    assert_eq!(ask(c, c), (true, 0));
    assert_eq!(ask(d, d), (true, 0));
    assert_eq!(ask(loop_, loop_), (true, 0));
    // So is an acyclic class asked about itself.
    assert_eq!(ask(p, p), (false, 0));
    assert_eq!(ask(top, top), (false, 0));
    assert_eq!(ask(root, root), (false, 0));
    // From a cycle down to what hangs below it: a walk.
    assert_eq!(ask(d, q), (true, 1));
    assert_eq!(ask(q, d), (false, 0));
}
