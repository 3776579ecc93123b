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
use std::cell::Cell;
use std::collections::HashSet;
use tensat_core::{
    explore, extract_greedy, extract_greedy_dag, extract_ilp, IlpConfig, OptimizerConfig,
};
use tensat_egraph::{CostFunction, DagExtractor, Extractor, Id, Language, Polish, RecExpr};
use tensat_ilp::Status;
use tensat_ir::{CostModel, GraphBuilder, TensorAnalysis, TensorEGraph, TensorLang};
use tensat_rules::single_rules;

mod common;
use common::fingerprint;

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
        &OptimizerConfig {
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
/// often its fixpoint evaluates a node: on the repo benchmark's
/// `bert_apply` e-graph (BERT explored to the 20 000 e-node limit) a node
/// is evaluated again whenever a child's best improves — 96 469
/// evaluations of 18 210 e-nodes — and the extractor still asks the cost
/// function for each node's own cost at most once. Greedy-DAG's tree pass
/// hands its own costs to the 1-opt polish of both starts, so run as
/// `extract_greedy_dag` runs them the three still ask at most once per
/// e-node (a polish with a table of its own asked ~4 600 more times).
#[test]
fn tree_greedy_runs_the_cost_model_once_per_enode_on_bert() {
    /// The cost model, counting its `node_cost` calls.
    struct Counted<'a> {
        model: &'a CostModel,
        calls: &'a Cell<usize>,
    }
    impl CostFunction<TensorLang, TensorAnalysis> for Counted<'_> {
        fn node_cost(&self, egraph: &TensorEGraph, enode: &TensorLang) -> f64 {
            self.calls.set(self.calls.get() + 1);
            self.model.enode_cost(egraph, enode)
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
        &OptimizerConfig {
            node_limit: 20_000,
            search_threads: 1,
            ..Default::default()
        },
    );
    let enodes = eg.total_number_of_nodes();
    assert!(enodes > 15_000, "{enodes}");

    let model = CostModel::default();
    let calls = Cell::new(0);
    let counted = || Counted {
        model: &model,
        calls: &calls,
    };
    let (_, tree) = Extractor::new(&eg, counted()).find_best(root).unwrap();
    assert!(
        calls.get() <= enodes,
        "{} cost-model calls for {enodes} e-nodes",
        calls.get()
    );
    let outcome = extract_greedy(&eg, root, &model).unwrap();
    assert_eq!(outcome.picks, tree.picks);

    // As in `extract_greedy_dag`: the DAG pass prices on its own; the tree
    // pass's table serves both polishes.
    calls.set(0);
    let dag = DagExtractor::new(&eg, &model);
    let tree = Extractor::new(&eg, counted());
    let starts = [dag.find_best(root), tree.find_best(root)];
    let mut polish = Polish::new(&eg, tree.into_own_costs(), dag.choices());
    let polished = starts.map(|start| polish.run(root, &start.unwrap().1.picks).unwrap());
    assert!(
        calls.get() <= enodes,
        "{} cost-model calls for {enodes} e-nodes",
        calls.get()
    );
    let [dag, tree] = polished.map(|(cost, _)| cost);
    let outcome = extract_greedy_dag(&eg, root, &model).unwrap();
    assert_eq!(outcome.dag_cost, if tree < dag { tree } else { dag });
}

/// What the greedy-DAG pass extracts, to the bit: its latency in µs, the
/// length of its expression and its [`fingerprint`], which tells two
/// graphs of equal latency apart.
type Pinned = (f64, usize, u64);

/// Runs the DAG pass alone — `extract_greedy_dag` without the tree pass it
/// is compared with — and checks it against the pin.
fn assert_dag_pass(
    label: &str,
    eg: &TensorEGraph,
    root: Id,
    pinned: Pinned,
) -> RecExpr<TensorLang> {
    let model = CostModel::default();
    let (cost, term) = DagExtractor::new(eg, &model)
        .find_best(root)
        .unwrap_or_else(|| panic!("{label}: the DAG pass found no term"));
    assert_eq!(
        (cost, term.expr.len(), fingerprint(&term.expr)),
        pinned,
        "{label}"
    );
    term.expr
}

/// What tree-greedy (`extract_greedy`) extracts, to the bit: the latency,
/// expression length and fingerprint of [`Pinned`], and its tree cost.
type TreePinned = (Pinned, f64);

/// Runs `extract_greedy` and checks it against the pin.
fn assert_tree_greedy(label: &str, eg: &TensorEGraph, root: Id, pinned: TreePinned) {
    let model = CostModel::default();
    let tree = extract_greedy(eg, root, &model).unwrap();
    let ((latency, len, print), tree_cost) = pinned;
    assert_eq!(
        (
            tree.dag_cost,
            tree.expr.len(),
            fingerprint(&tree.expr),
            model.tree_cost(&tree.expr)
        ),
        (latency, len, print, tree_cost),
        "{label} tree-greedy"
    );
}

/// The repo benchmark checks an op only against its own warm-up, so an
/// extractor that changed what it extracts would pass there: this pins the
/// greedy-DAG pass and tree-greedy on the e-graphs of the benchmark's
/// `zoo7_small` workload — every model at `blocks: 2`, saturated with
/// `k_multi` 1 and 2 under a 2 000 e-node limit — to the values they had
/// when the reach sets were bit sets and tree-greedy compared latency
/// alone (BERT at `k_multi` 1 sums the same DAG cost one ulp higher on its
/// e-graph without self-merged multi-pattern matches), and pins which of
/// its two passes `extract_greedy_dag` returns.
#[test]
fn greedy_dag_extraction_is_pinned_on_every_benchmark_model() {
    // (model, per k_multi 1 and 2: the DAG pass's pin and tree-greedy's).
    // Off BERT, tree-greedy's graph costs what the DAG pass's does.
    let same = |dag: Pinned, tree_cost: f64| [(dag, (dag, tree_cost)); 2];
    let pins: [(&str, [(Pinned, TreePinned); 2]); 7] = [
        (
            "NasRNN",
            same(
                (95.03253333333332, 65, 2_002_769_870_575_493_143),
                313.40053333333327,
            ),
        ),
        (
            "BERT",
            [
                (
                    (95.48245333333334, 54, 714_621_630_666_365_197),
                    (
                        (128.41877333333332, 65, 9_025_056_140_602_220_135),
                        661.8532799999999,
                    ),
                ),
                (
                    (95.48245333333332, 54, 6_770_099_041_467_276_305),
                    (
                        (116.54741333333332, 60, 11_993_565_755_953_279_745),
                        706.1159999999999,
                    ),
                ),
            ],
        ),
        (
            "ResNeXt-50",
            same((56.88874666666666, 26, 4_441_865_610_254_996_692), 85.33312),
        ),
        (
            "NasNet-A",
            [
                (
                    (62.915456, 46, 843_507_815_731_458_624),
                    ((62.915456, 46, 843_507_815_731_458_624), 62.915456),
                ),
                (
                    (113.823872, 48, 4_047_457_334_302_699_019),
                    ((113.823872, 48, 8_196_220_534_215_528_831), 189.749888),
                ),
            ],
        ),
        (
            "SqueezeNet",
            same(
                (65.37847466666666, 26, 13_668_053_915_724_657_832),
                115.21288533333333,
            ),
        ),
        (
            "VGG-19",
            same(
                (132.98037333333335, 24, 7_655_983_872_396_182_445),
                132.98037333333335,
            ),
        ),
        (
            "Inception-v3",
            same(
                (110.80552533333334, 49, 17_400_348_095_540_810_599),
                277.01381333333336,
            ),
        ),
    ];
    assert_eq!(pins.map(|(model, _)| model), tensat_models::BENCHMARKS);
    let model = CostModel::default();
    for (name, [k1, k2]) in pins {
        let graph = tensat_models::build_benchmark(name, tensat_bench::harness_scale());
        for (k_multi, (dag, tree)) in [(1, k1), (2, k2)] {
            let label = format!("{name} k_multi {k_multi}");
            let mut eg = TensorEGraph::new(TensorAnalysis);
            let root = eg.add_expr(&graph);
            eg.rebuild();
            explore(
                &mut eg,
                root,
                &single_rules(),
                &tensat_rules::multi_rules(),
                &OptimizerConfig {
                    k_multi,
                    max_iter: 15,
                    node_limit: 2_000,
                    search_threads: 1,
                    ..Default::default()
                },
            );
            let expr = assert_dag_pass(&label, &eg, root, dag);
            assert_tree_greedy(&label, &eg, root, tree);

            // The DAG pass's graph is the one returned on all fourteen: the
            // tree pass's is as cheap by DAG cost everywhere but on BERT.
            let both = extract_greedy_dag(&eg, root, &model).unwrap();
            assert_eq!(both.expr.nodes(), expr.nodes(), "{label}");
        }
    }
}

/// The same pins on an e-graph where the two forms of a reach set are far
/// apart: NasNet-A at `blocks: 4` (the benchmark's `nasnet_search` model)
/// grown to 10 000 e-nodes — 4 152 classes, so 520 bytes of bit set per
/// class, against lists of 23 slots on average and 82 at most.
#[test]
fn greedy_dag_extraction_is_pinned_on_the_big_nasnet_egraph() {
    let (eg, root) = tensat_bench::nasnet_egraph(10_000);
    assert_eq!(eg.total_number_of_nodes(), 9_196);
    assert_dag_pass(
        "NasNet-A blocks 4",
        &eg,
        root,
        (103.56740266666665, 81, 10_593_177_530_291_863_129),
    );
    assert_tree_greedy(
        "NasNet-A blocks 4",
        &eg,
        root,
        (
            (103.56740266666665, 81, 10_593_177_530_291_863_129),
            181.24295466666666,
        ),
    );
}
