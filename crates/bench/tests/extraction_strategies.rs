//! Property tests of the extraction-strategy seam on random tensor
//! e-graphs: random square-matrix programs are built, explored with the
//! single-pattern rule set, and then extracted by all three strategies.
//!
//! The properties pin down the greedy-DAG extractor's contract:
//!
//! 1. **Well-formed selection** — the extracted `RecExpr` maps bottom-up
//!    into the e-graph (so it is acyclic by construction) and contains
//!    exactly one e-node per reachable e-class, rooted at the query root;
//! 2. **DAG-cost dominance** — its honest DAG cost (each e-node charged
//!    once) is never worse than tree-greedy's DAG cost;
//! 3. **ILP relationship** — ILP extraction (warm-started from greedy-DAG)
//!    is never worse, and when the solver proves `Status::Optimal` the
//!    greedy-DAG result matches the ILP optimum on these e-graphs;
//! 4. **Determinism** — repeated extraction from the same e-graph yields a
//!    bit-identical expression.
//!
//! The generator sticks to shape-preserving ops over square matrices so
//! every operand combination is well-typed and exploration has real rewrite
//! opportunities (associativity, fusion, transpose-cancellation, ...).

use proptest::prelude::*;
use std::collections::HashSet;
use tensat_core::{
    explore, extract_greedy, extract_greedy_dag, extract_ilp, DagCost, ExplorationConfig,
    IlpConfig, TreeCost,
};
use tensat_egraph::{CostFunction, DagExtractor, Extractor, Id, Language, RecExpr};
use tensat_ilp::Status;
use tensat_ir::{Cost, CostModel, GraphBuilder, TensorAnalysis, TensorEGraph, TensorLang};
use tensat_rules::single_rules;

/// One random op: opcode plus two operand picks (taken modulo the number
/// of nodes built so far, so every program is closed).
type RandOp = (u8, usize, usize);

/// Builds a random square-matrix program over two inputs and two weights.
fn build_graph(ops: &[RandOp]) -> RecExpr<TensorLang> {
    const D: i64 = 16;
    let mut g = GraphBuilder::new();
    let mut nodes = vec![
        g.input("x", &[D, D]),
        g.input("y", &[D, D]),
        g.weight("w1", &[D, D]),
        g.weight("w2", &[D, D]),
    ];
    for &(op, a, b) in ops {
        let a = nodes[a % nodes.len()];
        let b = nodes[b % nodes.len()];
        let id = match op % 6 {
            0 => g.ewadd(a, b),
            1 => g.ewmul(a, b),
            2 => g.matmul(a, b),
            3 => g.relu(a),
            4 => g.tanh(a),
            _ => g.sigmoid(a),
        };
        nodes.push(id);
    }
    let root = *nodes.last().unwrap();
    g.finish(&[root])
}

/// Explores the program with the single-pattern rule set under small,
/// deterministic limits and returns the saturated e-graph plus root.
fn explored(graph: &RecExpr<TensorLang>) -> (TensorEGraph, Id) {
    let mut eg = TensorEGraph::new(TensorAnalysis);
    let root = eg.add_expr(graph);
    eg.rebuild();
    explore(
        &mut eg,
        root,
        &single_rules(),
        &[],
        &ExplorationConfig {
            max_iter: 2,
            node_limit: 2_000,
            search_threads: 1,
            ..Default::default()
        },
    );
    (eg, root)
}

/// Maps each node of an extracted expression back to its e-class, bottom
/// up. A successful pass proves the expression is well-formed (children
/// resolve before parents, so the selection is acyclic); the returned
/// vector is then checked for the one-node-per-class property.
fn classes_of(eg: &TensorEGraph, expr: &RecExpr<TensorLang>) -> Vec<Id> {
    let mut classes: Vec<Id> = Vec::with_capacity(expr.len());
    for (_, node) in expr.iter() {
        let mapped = node.map_children(|c| classes[usize::from(c)]);
        let class = eg
            .lookup(&mapped)
            .expect("every extracted e-node must exist in the e-graph");
        classes.push(class);
    }
    classes
}

fn op_strategy() -> impl Strategy<Value = Vec<RandOp>> {
    prop::collection::vec((any::<u8>(), any::<usize>(), any::<usize>()), 1..12)
}

proptest! {
    /// Properties 1, 2 and 4: well-formed acyclic selection, one node per
    /// reachable class, DAG-cost dominance over tree-greedy, determinism.
    #[test]
    fn greedy_dag_selection_is_sound_and_never_worse(ops in op_strategy()) {
        let graph = build_graph(&ops);
        let model = CostModel::default();
        let (eg, root) = explored(&graph);

        let tree = extract_greedy(&eg, root, &model).expect("tree-greedy extraction succeeds");
        let dag = extract_greedy_dag(&eg, root, &model).expect("greedy-DAG extraction succeeds");

        // 1. The selection maps back into the e-graph bottom-up (acyclic),
        //    picks exactly one node per reachable class, and is rooted at
        //    the query root.
        let classes = classes_of(&eg, &dag.expr);
        let distinct: HashSet<&Id> = classes.iter().collect();
        prop_assert_eq!(
            distinct.len(),
            classes.len(),
            "a reachable e-class contributed more than one e-node"
        );
        prop_assert_eq!(*classes.last().unwrap(), eg.find(root));

        // 2. Honest DAG cost never worse than tree-greedy's DAG cost.
        prop_assert!(
            dag.dag_cost <= tree.dag_cost + 1e-9,
            "greedy-DAG ({}) worse than tree-greedy ({})",
            dag.dag_cost,
            tree.dag_cost
        );

        // 4. Bit-identical determinism across repeated extraction.
        for _ in 0..2 {
            let again = extract_greedy_dag(&eg, root, &model).unwrap();
            prop_assert_eq!(again.expr.nodes(), dag.expr.nodes());
            prop_assert_eq!(again.dag_cost, dag.dag_cost);
        }
    }
}

proptest! {
    /// Property 3: ILP never loses to greedy-DAG, and when the solver
    /// proves optimality the greedy-DAG result matches the ILP optimum.
    /// (The vendored proptest runs a fixed, deterministically seeded case
    /// count, so a pass here is reproducible, not probabilistic.)
    #[test]
    fn greedy_dag_matches_ilp_optimum(ops in op_strategy()) {
        let graph = build_graph(&ops);
        let model = CostModel::default();
        let (eg, root) = explored(&graph);

        let dag = extract_greedy_dag(&eg, root, &model).unwrap();
        let ilp = extract_ilp(&eg, root, &model, &IlpConfig::default()).unwrap();
        let stats = ilp.ilp.as_ref().expect("ILP extraction records solver stats");

        prop_assert!(
            ilp.dag_cost <= dag.dag_cost + 1e-9,
            "ILP ({}) worse than its own greedy-DAG warm start ({})",
            ilp.dag_cost,
            dag.dag_cost
        );
        if stats.status == Status::Optimal {
            let tol = 1e-6 * ilp.dag_cost.max(1.0);
            prop_assert!(
                (dag.dag_cost - ilp.dag_cost).abs() <= tol,
                "greedy-DAG ({}) missed the proven ILP optimum ({})",
                dag.dag_cost,
                ilp.dag_cost
            );
        }
    }
}

/// Tree-greedy extraction runs the cost model once per e-node however
/// often its fixpoint costs a node again: on the repo benchmark's
/// `bert_apply` e-graph (BERT explored to the 20 000 e-node limit) the
/// extractor asks for more costs than there are e-nodes — a node is costed
/// again whenever a child's best improves — and the model still runs at
/// most once for each.
#[test]
fn tree_greedy_runs_the_cost_model_once_per_enode_on_bert() {
    /// `TreeCost`, counting how often the extractor asks it for a cost.
    struct Counted<'a> {
        tree_cost: TreeCost<'a>,
        asked: usize,
    }
    impl CostFunction<TensorLang> for Counted<'_> {
        type Cost = f64;
        fn cost<C: FnMut(Id) -> f64>(&mut self, enode: &TensorLang, costs: C) -> f64 {
            self.asked += 1;
            self.tree_cost.cost(enode, costs)
        }
        fn cmp(a: &f64, b: &f64) -> std::cmp::Ordering {
            TreeCost::cmp(a, b)
        }
    }

    let graph = tensat_models::build_benchmark("BERT", tensat_models::ModelScale::default());
    let mut eg = TensorEGraph::new(TensorAnalysis);
    let root = eg.add_expr(&graph);
    eg.rebuild();
    explore(
        &mut eg,
        root,
        &single_rules(),
        &tensat_rules::multi_rules(),
        &ExplorationConfig {
            node_limit: 20_000,
            search_threads: 1,
            ..Default::default()
        },
    );
    let enodes = eg.total_number_of_nodes();
    assert!(enodes > 15_000, "{enodes}");

    let model = CostModel::default();
    let mut counted = Counted {
        tree_cost: TreeCost::new(model.clone(), &eg),
        asked: 0,
    };
    let (_, expr) = Extractor::new(&eg, &mut counted).find_best(root).unwrap();
    assert!(counted.asked > enodes, "{} costs asked", counted.asked);
    assert!(
        counted.tree_cost.model_calls() <= enodes,
        "{} cost-model calls for {enodes} e-nodes",
        counted.tree_cost.model_calls()
    );
    let outcome = extract_greedy(&eg, root, &model).unwrap();
    assert_eq!(outcome.expr.nodes(), expr.nodes());
}

/// What the greedy-DAG pass extracts, to the bit: its composite cost
/// (latency µs, peak-memory bytes, kernel launches) and the length of its
/// expression.
type Pinned = (f64, f64, f64, usize);

/// Runs the DAG pass alone — `extract_greedy_dag` without the tree pass it
/// is compared with — and checks it against the pin.
fn assert_dag_pass(
    label: &str,
    eg: &TensorEGraph,
    root: Id,
    pinned: Pinned,
) -> RecExpr<TensorLang> {
    let model = CostModel::default();
    let (cost, expr) = DagExtractor::new(eg, DagCost::new(model, eg))
        .find_best(root)
        .unwrap_or_else(|| panic!("{label}: the DAG pass found no term"));
    let (latency, peak_memory, launches, len) = pinned;
    let pinned_cost = Cost {
        latency,
        peak_memory,
        launches,
    };
    assert_eq!((cost, expr.len()), (pinned_cost, len), "{label}");
    expr
}

/// The repo benchmark checks an op only against its own warm-up, so an
/// extractor that changed what it extracts would pass there: this pins the
/// greedy-DAG pass on the e-graphs of the benchmark's `zoo7_small`
/// workload — every model at `blocks: 2`, saturated with `k_multi` 1 and 2
/// under a 2 000 e-node limit — to the values it had when the reach sets
/// were bit sets, and pins which of its two passes `extract_greedy_dag`
/// returns.
#[test]
fn greedy_dag_extraction_is_pinned_on_every_benchmark_model() {
    // (model, pin at k_multi 1, pin at k_multi 2)
    let same = |pin: Pinned| (pin, pin);
    let pins: [(&str, (Pinned, Pinned)); 7] = [
        ("NasRNN", same((95.03253333333332, 81920.0, 18.0, 65))),
        ("BERT", same((95.48245333333332, 90624.0, 18.0, 54))),
        ("ResNeXt-50", same((56.88874666666666, 802816.0, 10.0, 26))),
        (
            "NasNet-A",
            (
                (62.915456, 802816.0, 6.0, 46),
                (113.823872, 1204224.0, 10.0, 48),
            ),
        ),
        ("SqueezeNet", same((65.37847466666666, 1906688.0, 9.0, 26))),
        ("VGG-19", same((132.98037333333335, 1507328.0, 7.0, 24))),
        (
            "Inception-v3",
            same((110.80552533333334, 903168.0, 20.0, 49)),
        ),
    ];
    assert_eq!(pins.map(|(model, _)| model), tensat_models::BENCHMARKS);
    let model = CostModel::default();
    for (name, (k1, k2)) in pins {
        let graph = tensat_models::build_benchmark(name, tensat_bench::harness_scale());
        for (k_multi, pinned) in [(1, k1), (2, k2)] {
            let label = format!("{name} k_multi {k_multi}");
            let mut eg = TensorEGraph::new(TensorAnalysis);
            let root = eg.add_expr(&graph);
            eg.rebuild();
            explore(
                &mut eg,
                root,
                &single_rules(),
                &tensat_rules::multi_rules(),
                &ExplorationConfig {
                    k_multi,
                    max_iter: 15,
                    node_limit: 2_000,
                    search_threads: 1,
                    ..Default::default()
                },
            );
            let expr = assert_dag_pass(&label, &eg, root, pinned);

            // The DAG pass's graph is the one returned on all fourteen: the
            // tree pass's is as cheap by DAG cost everywhere but on BERT.
            let both = extract_greedy_dag(&eg, root, &model).unwrap();
            assert_eq!(both.expr.nodes(), expr.nodes(), "{label}");
            let tree = extract_greedy(&eg, root, &model).unwrap();
            let tree_dag_cost = match (name, k_multi) {
                ("BERT", 1) => 122.35381333333332,
                ("BERT", _) => 110.60533333333332,
                _ => pinned.0,
            };
            assert_eq!(tree.dag_cost, tree_dag_cost, "{label}");
        }
    }
}

/// The same pin on an e-graph where the two forms of a reach set are far
/// apart: NasNet-A at `blocks: 4` (the benchmark's `nasnet_search` model)
/// grown to 10 000 e-nodes — 4 152 classes, so 520 bytes of bit set per
/// class, against lists of 23 slots on average and 82 at most.
#[test]
fn greedy_dag_extraction_is_pinned_on_the_big_nasnet_egraph() {
    let (eg, root) = tensat_bench::nasnet_egraph(10_000);
    assert_eq!(eg.total_number_of_nodes(), 9_197);
    assert_dag_pass(
        "NasNet-A blocks 4",
        &eg,
        root,
        (103.56740266666665, 1204224.0, 8.0, 81),
    );
}
