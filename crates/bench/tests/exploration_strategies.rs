//! Property tests of the exploration-strategy seam.
//!
//! The seam refactor (PR precedent: the extraction seam) must not change
//! saturation behavior by a single bit, so the pre-refactor monolithic
//! loop is kept verbatim as a differential oracle
//! (`tensat_core::explore::legacy::explore_monolithic`) and compared
//! against [`Saturate`]-through-the-seam on random e-graphs and on every
//! `BENCHMARKS` model:
//!
//! 1. **Bit-identical saturation** — identical node/class/union counts,
//!    identical per-rule match sets on the final e-graph, identical
//!    iteration statistics and stop reason, and identical tree-greedy and
//!    greedy-DAG extraction results — including runs in which an
//!    iteration is cut by `node_limit` and the rebuild drops the e-graph
//!    back under it (the cut iteration must be the last on both sides);
//! 2. **Guided determinism** — the guided beam search uses no randomness
//!    and no wall-clock tie-breaks, so three runs from the same seed
//!    produce bit-identical e-graphs and extractions;
//! 3. **Hard node budget** — the guided strategy never leaves the e-graph
//!    above `node_limit`, on random programs and on the benchmarks;
//! 4. **Budgeted quality** (the headline acceptance property) — on at
//!    least one benchmark model, guided exploration under a node budget
//!    at least 4x below the saturated size still extracts a DAG no more
//!    expensive than tree-greedy extraction from the fully saturated
//!    e-graph;
//! 5. **Budget semantics** — the node limit is asked before every
//!    application (the overshoot is one right-hand side), and a zero time
//!    limit halts exploration before the first iteration;
//! 6. **Thread determinism** — `search_threads` 1 and 4 give the same
//!    trajectory on a fixture whose search batches the driver really
//!    shards (the test checks that itself).

use proptest::prelude::*;
use std::time::Duration;
use tensat_core::explore::legacy::explore_monolithic;
use tensat_core::{
    explore, extract_greedy, extract_greedy_dag, CycleFilter, ExplorationConfig, ExplorationMode,
    ExplorationStats, StopReason,
};
use tensat_egraph::{Id, RecExpr, SearchMatches, PARALLEL_SEARCH_SPAWN_THRESHOLD};
use tensat_ir::{CostModel, GraphBuilder, TensorAnalysis, TensorEGraph, TensorLang};
use tensat_models::{build_benchmark, ModelScale, BENCHMARKS};
use tensat_rules::{multi_rules, single_rules, MultiPatternRule, TensorRewrite};

/// One random op: opcode plus two operand picks (taken modulo the number
/// of nodes built so far, so every program is closed).
type RandOp = (u8, usize, usize);

/// Builds a random square-matrix program over two inputs and two weights
/// (same generator as `extraction_strategies.rs`).
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

fn seeded(graph: &RecExpr<TensorLang>) -> (TensorEGraph, Id) {
    let mut eg = TensorEGraph::new(TensorAnalysis);
    let root = eg.add_expr(graph);
    eg.rebuild();
    (eg, root)
}

/// Deterministic small limits shared by both sides of each comparison.
fn saturate_config(node_limit: usize) -> ExplorationConfig {
    ExplorationConfig {
        mode: ExplorationMode::Saturate,
        k_multi: 1,
        max_iter: 2,
        node_limit,
        time_limit: Duration::from_secs(600),
        search_threads: 1,
        ..Default::default()
    }
}

/// The full per-rule match sets of every single-pattern rule on an
/// e-graph — the strongest observable equality short of dumping storage.
fn match_sets(eg: &TensorEGraph, rules: &[TensorRewrite]) -> Vec<Vec<SearchMatches>> {
    rules.iter().map(|rw| rw.search(eg)).collect()
}

/// Runs the legacy monolith and the seamed `Saturate` strategy from the
/// same seed and asserts bit-identical results. Returns the seam side.
/// (The vendored `prop_assert!` macros are plain assertions, so this
/// helper panics on mismatch — fine both inside and outside `proptest!`.)
fn assert_bit_identical(
    graph: &RecExpr<TensorLang>,
    singles: &[TensorRewrite],
    multis: &[MultiPatternRule],
    config: &ExplorationConfig,
) -> (TensorEGraph, Id, ExplorationStats) {
    let (mut legacy_eg, legacy_root) = seeded(graph);
    let legacy_stats = explore_monolithic(&mut legacy_eg, legacy_root, singles, multis, config);

    let (mut seam_eg, seam_root) = seeded(graph);
    let seam_stats = explore(&mut seam_eg, seam_root, singles, multis, config);
    prop_assert_eq!(seam_stats.strategy, "saturate");

    // Identical iteration trajectory and final sizes.
    prop_assert_eq!(legacy_stats.iterations, seam_stats.iterations);
    prop_assert_eq!(legacy_stats.saturated, seam_stats.saturated);
    prop_assert_eq!(&legacy_stats.stop_reason, &seam_stats.stop_reason);
    prop_assert_eq!(
        seam_stats.saturated,
        seam_stats.stop_reason == Some(StopReason::Saturated)
    );
    prop_assert_eq!(legacy_stats.filtered_nodes, seam_stats.filtered_nodes);
    prop_assert_eq!(
        &legacy_stats.nodes_per_iteration,
        &seam_stats.nodes_per_iteration
    );
    prop_assert_eq!(legacy_stats.enodes, seam_stats.enodes);
    prop_assert_eq!(legacy_stats.eclasses, seam_stats.eclasses);
    prop_assert_eq!(
        legacy_eg.total_number_of_nodes(),
        seam_eg.total_number_of_nodes()
    );
    prop_assert_eq!(legacy_eg.number_of_classes(), seam_eg.number_of_classes());
    prop_assert_eq!(legacy_eg.union_count(), seam_eg.union_count());

    // Identical per-rule match sets on the final e-graphs.
    prop_assert_eq!(
        match_sets(&legacy_eg, singles),
        match_sets(&seam_eg, singles)
    );

    // Identical extraction results under both greedy extractors.
    let model = CostModel::default();
    let legacy_tree = extract_greedy(&legacy_eg, legacy_root, &model).unwrap();
    let seam_tree = extract_greedy(&seam_eg, seam_root, &model).unwrap();
    prop_assert_eq!(legacy_tree.expr.nodes(), seam_tree.expr.nodes());
    prop_assert_eq!(legacy_tree.dag_cost, seam_tree.dag_cost);
    prop_assert_eq!(legacy_tree.tree_cost, seam_tree.tree_cost);
    let legacy_dag = extract_greedy_dag(&legacy_eg, legacy_root, &model).unwrap();
    let seam_dag = extract_greedy_dag(&seam_eg, seam_root, &model).unwrap();
    prop_assert_eq!(legacy_dag.expr.nodes(), seam_dag.expr.nodes());
    prop_assert_eq!(legacy_dag.dag_cost, seam_dag.dag_cost);

    (seam_eg, seam_root, seam_stats)
}

proptest! {
    /// Property 1 on random e-graphs, single-pattern rules.
    #[test]
    fn saturate_is_bit_identical_to_legacy_on_random_graphs(ops in op_strategy()) {
        let graph = build_graph(&ops);
        assert_bit_identical(&graph, &single_rules(), &[], &saturate_config(2_000));
    }

    /// Property 3 on random e-graphs: the guided strategy's final e-graph
    /// never exceeds the node budget, and still extracts a valid graph.
    #[test]
    fn guided_respects_the_node_budget_on_random_graphs(ops in op_strategy()) {
        let graph = build_graph(&ops);
        let (mut eg, root) = seeded(&graph);
        let budget = eg.total_number_of_nodes().max(100);
        let config = ExplorationConfig {
            mode: ExplorationMode::Guided,
            node_limit: budget,
            search_threads: 1,
            time_limit: Duration::from_secs(600),
            ..Default::default()
        };
        let stats = explore(&mut eg, root, &single_rules(), &[], &config);
        prop_assert_eq!(stats.strategy, "guided");
        prop_assert!(
            eg.total_number_of_nodes() <= budget,
            "guided left {} e-nodes over the budget of {}",
            eg.total_number_of_nodes(),
            budget
        );
        let model = CostModel::default();
        let out = extract_greedy_dag(&eg, root, &model).unwrap();
        let data = tensat_ir::infer_recexpr(&out.expr);
        prop_assert!(data.iter().all(|d| d.is_valid()));
    }
}

fn op_strategy() -> impl Strategy<Value = Vec<RandOp>> {
    prop::collection::vec((any::<u8>(), any::<usize>(), any::<usize>()), 1..12)
}

/// Property 1 on every benchmark model, with multi-pattern rules in play
/// (the multi apply path and cycle filter both exercised).
#[test]
fn saturate_is_bit_identical_to_legacy_on_all_benchmarks() {
    let singles = single_rules();
    let multis = multi_rules();
    for name in BENCHMARKS {
        let graph = build_benchmark(name, ModelScale::tiny());
        assert_bit_identical(&graph, &singles, &multis, &saturate_config(5_000));
    }
}

/// Property 1 where the two loops could disagree about *stopping*: an
/// iteration's apply phase is cut by `node_limit`, the rebuild's
/// deduplication leaves the e-graph under the limit, and a loop that only
/// compared the node count would search everything again (the two 2 000
/// cases ran 6 iterations to 2 000 and 2 001 e-nodes that way, BERT at
/// 20 000 two iterations further). Engine and oracle must both stop at the
/// cut iteration; the trajectories are two of the repo benchmark's
/// `zoo7_small` cases and its `bert_apply` case, pinned to the digit.
#[test]
fn an_iteration_cut_by_node_limit_is_the_last_in_engine_and_oracle() {
    let singles = single_rules();
    let multis = multi_rules();
    for (name, node_limit, enodes, eclasses, iterations) in [
        ("NasNet-A", 2_000, 1_820, 685, 4),
        ("BERT", 2_000, 1_675, 664, 4),
        ("BERT", 20_000, 18_210, 7_962, 6),
    ] {
        let config = ExplorationConfig {
            max_iter: 15,
            ..saturate_config(node_limit)
        };
        let graph = build_benchmark(name, ModelScale::default());
        let (_, _, stats) = assert_bit_identical(&graph, &singles, &multis, &config);
        assert_eq!(stats.stop_reason, Some(StopReason::NodeLimit(node_limit)));
        assert_eq!(
            (stats.enodes, stats.eclasses, stats.iterations),
            (enodes, eclasses, iterations),
            "{name}"
        );
        assert_eq!(stats.nodes_per_iteration.len(), iterations, "{name}");
        assert!(
            stats.enodes < node_limit,
            "{name}: the fixture ends under the limit"
        );
    }
}

/// Regression: the node limit is asked before every application, so a run
/// can overshoot by at most one application's right-hand side — never by
/// the rest of the gathered match batch.
#[test]
fn node_limit_is_enforced_per_application() {
    // Largest right-hand side in the rule corpus, with margin: a single
    // application can add at most this many e-nodes past the limit.
    const MAX_RHS_NODES: usize = 32;
    let singles = single_rules();
    let multis = multi_rules();
    for name in ["NasRNN", "BERT"] {
        let graph = build_benchmark(name, ModelScale::tiny());
        let (mut eg, root) = seeded(&graph);
        let node_limit = eg.total_number_of_nodes() + 50;
        let stats = explore(
            &mut eg,
            root,
            &singles,
            &multis,
            &saturate_config(node_limit),
        );
        assert!(
            stats.enodes <= node_limit + MAX_RHS_NODES,
            "{name}: {} e-nodes overshot the {node_limit} limit by more than \
             one application",
            stats.enodes
        );
    }
}

/// Regression: the time limit is checked before every iteration (and
/// before every application), so a zero budget halts exploration before
/// the first iteration mutates anything.
#[test]
fn zero_time_limit_halts_before_the_first_iteration() {
    let graph = build_benchmark("NasRNN", ModelScale::tiny());
    let (mut eg, root) = seeded(&graph);
    let seed_nodes = eg.total_number_of_nodes();
    let stats = explore(
        &mut eg,
        root,
        &single_rules(),
        &multi_rules(),
        &ExplorationConfig {
            time_limit: Duration::ZERO,
            ..saturate_config(2_000)
        },
    );
    assert_eq!(stats.iterations, 0);
    assert_eq!(
        stats.stop_reason,
        Some(StopReason::TimeLimit(Duration::ZERO))
    );
    assert_eq!(eg.total_number_of_nodes(), seed_nodes);
}

/// The whole saturation trajectory of every benchmark model at the repo
/// benchmark's `zoo7_small` sizing (`blocks: 2`, `node_limit: 2000`,
/// `max_iter: 15`, one thread, `k_multi` 1 and 2), engine and oracle, pinned
/// to the digit: `(e-nodes, e-classes, iterations, filtered e-nodes, unions,
/// stop reason)`. The repo benchmark only compares an op with its own
/// warm-up, so this is what a change that must leave trajectories
/// bit-identical is checked against; the e-node column sums to the
/// benchmark's `egraph.final_enodes` for `zoo7_small`.
#[test]
fn saturate_trajectories_are_pinned_on_every_benchmark_model() {
    use StopReason::{NodeLimit, Saturated};
    type Pin = (usize, usize, usize, usize, usize, StopReason);
    // Per model: the pins for `k_multi` 1 and 2.
    let pinned: [(&str, [Pin; 2]); 7] = [
        (
            "NasRNN",
            [
                (546, 260, 4, 80, 286, Saturated),
                (2002, 992, 2, 80, 1010, NodeLimit(2000)),
            ],
        ),
        (
            "BERT",
            [
                (1675, 664, 4, 12, 1364, NodeLimit(2000)),
                (1976, 936, 3, 28, 1066, NodeLimit(2000)),
            ],
        ),
        (
            "ResNeXt-50",
            [(36, 30, 2, 0, 6, Saturated), (36, 30, 2, 0, 6, Saturated)],
        ),
        (
            "NasNet-A",
            [
                (1820, 685, 4, 42, 1357, NodeLimit(2000)),
                (2000, 996, 2, 42, 1004, NodeLimit(2000)),
            ],
        ),
        (
            "SqueezeNet",
            [(38, 32, 2, 0, 6, Saturated), (38, 32, 2, 0, 6, Saturated)],
        ),
        (
            "VGG-19",
            [(32, 28, 2, 0, 4, Saturated), (32, 28, 2, 0, 4, Saturated)],
        ),
        (
            "Inception-v3",
            [
                (170, 98, 4, 12, 72, Saturated),
                (1251, 495, 5, 156, 756, Saturated),
            ],
        ),
    ];
    assert!(pinned.iter().map(|(name, _)| name).eq(BENCHMARKS));
    let singles = single_rules();
    let multis = multi_rules();
    let mut total_enodes = 0;
    for (name, pins) in pinned {
        let graph = build_benchmark(name, ModelScale::default());
        for (k_multi, pin) in [1, 2].into_iter().zip(pins) {
            let config = ExplorationConfig {
                k_multi,
                max_iter: 15,
                ..saturate_config(2_000)
            };
            let (eg, _, stats) = assert_bit_identical(&graph, &singles, &multis, &config);
            assert_eq!(
                (
                    stats.enodes,
                    stats.eclasses,
                    stats.iterations,
                    stats.filtered_nodes,
                    eg.union_count(),
                    stats
                        .stop_reason
                        .expect("a finished run says why it stopped"),
                ),
                pin,
                "{name} k_multi {k_multi}"
            );
            total_enodes += stats.enodes;
        }
    }
    assert_eq!(total_enodes, 11_652);
}

/// The trajectories of the repo benchmark's two big workloads, pinned to
/// the digit: `bert_apply` (BERT `blocks: 2` to 20 000 e-nodes) and
/// `nasnet_search` (NasNet-A `blocks: 4` to 30 000) — `(e-nodes,
/// e-classes, iterations, filtered e-nodes, unions, stop reason, e-nodes
/// after each iteration, greedy-DAG cost)`. The pins above stop at 2 000
/// e-nodes and the benchmark compares an op only with its own warm-up, so
/// this is what holds a change to the e-graph's storage to the same run at
/// 20–30 k e-nodes. Release builds only: a debug build runs
/// `check_invariants` after every rebuild (CI runs this test with
/// `TENSAT_CHECK_INVARIANTS=1`, which does the same in release).
#[test]
fn big_benchmark_trajectories_are_pinned() {
    use StopReason::NodeLimit;
    if cfg!(debug_assertions) {
        return;
    }
    let cases = [
        (
            "BERT",
            2,
            20_000,
            (
                18_210,
                7_962,
                6,
                12,
                13_294,
                NodeLimit(20_000),
                vec![146, 338, 932, 3_131, 14_978, 18_210],
                110.26111999999998,
            ),
        ),
        (
            "NasNet-A",
            4,
            30_000,
            (
                28_025,
                13_602,
                5,
                102,
                17_287,
                NodeLimit(30_000),
                vec![591, 1_025, 2_770, 10_334, 28_025],
                103.56740266666665,
            ),
        ),
    ];
    let singles = single_rules();
    let multis = multi_rules();
    for (name, blocks, node_limit, pin) in cases {
        let scale = ModelScale {
            blocks,
            ..ModelScale::default()
        };
        let (mut eg, root) = seeded(&build_benchmark(name, scale));
        let config = ExplorationConfig {
            max_iter: 15,
            cycle_filter: CycleFilter::Efficient,
            ..saturate_config(node_limit)
        };
        let stats = explore(&mut eg, root, &singles, &multis, &config);
        let dag = extract_greedy_dag(&eg, root, &CostModel::default()).unwrap();
        assert_eq!(
            (
                stats.enodes,
                stats.eclasses,
                stats.iterations,
                stats.filtered_nodes,
                eg.union_count(),
                stats
                    .stop_reason
                    .expect("a finished run says why it stopped"),
                stats.nodes_per_iteration,
                dag.dag_cost,
            ),
            pin,
            "{name} blocks {blocks} at {node_limit}"
        );
    }
}

/// Property 6: sharded search must not change an exploration outcome —
/// match lists are bit-identical at every thread count, so every
/// downstream decision (conditions, cycle filtering, application order)
/// is too. BERT at the harness scale is the fixture because its
/// single-rule search batch passes `PARALLEL_SEARCH_SPAWN_THRESHOLD`,
/// below which the driver runs sequentially whatever `search_threads`
/// says; the test checks that on the e-graph the last iteration searched,
/// so it cannot go stale silently.
#[test]
fn exploration_is_bit_identical_at_1_and_4_search_threads() {
    let singles = single_rules();
    let multis = multi_rules();
    let graph = build_benchmark("BERT", tensat_bench::harness_scale());
    let run = |search_threads: usize, max_iter: usize| {
        let (mut eg, root) = seeded(&graph);
        let config = ExplorationConfig {
            max_iter,
            search_threads,
            ..saturate_config(5_000)
        };
        let stats = explore(&mut eg, root, &singles, &multis, &config);
        (eg, stats)
    };
    let observed = |(eg, stats): &(TensorEGraph, ExplorationStats)| {
        (
            stats.iterations,
            stats.nodes_per_iteration.clone(),
            eg.total_number_of_nodes(),
            eg.number_of_classes(),
            eg.union_count(),
            stats.filtered_nodes,
            stats.stop_reason.clone(),
        )
    };
    let sequential = run(1, 15);
    assert_eq!(observed(&sequential), observed(&run(4, 15)));

    // The candidate classes the single-pattern rules present to the search
    // driver on the e-graph the last iteration started from.
    let (searched, _) = run(1, sequential.1.iterations - 1);
    let batch: usize = singles
        .iter()
        .map(|rw| match rw.searcher.program().root_op() {
            Some(op) => searched.classes_with_op(op).len(),
            None => searched.number_of_classes(),
        })
        .sum();
    assert!(
        batch >= PARALLEL_SEARCH_SPAWN_THRESHOLD,
        "the fixture no longer reaches the sharded driver: {batch} candidates"
    );
}

/// Property 2: three guided runs from the same seed are bit-identical —
/// same iteration trajectory, same final e-graph counts, same extracted
/// expression. (Wall-clock is the only nondeterministic input, so the
/// time limit is generous enough never to bind.)
#[test]
fn guided_exploration_is_deterministic() {
    let graph = build_benchmark("NasRNN", ModelScale::tiny());
    let config = ExplorationConfig {
        mode: ExplorationMode::Guided,
        node_limit: 1_000,
        search_threads: 1,
        time_limit: Duration::from_secs(600),
        ..Default::default()
    };
    let model = CostModel::default();
    let runs: Vec<_> = (0..3)
        .map(|_| {
            let (mut eg, root) = seeded(&graph);
            let stats = explore(&mut eg, root, &single_rules(), &multi_rules(), &config);
            let out = extract_greedy_dag(&eg, root, &model).unwrap();
            (
                stats.iterations,
                stats.nodes_per_iteration.clone(),
                eg.total_number_of_nodes(),
                eg.number_of_classes(),
                eg.union_count(),
                out.expr.nodes().to_vec(),
                out.dag_cost,
            )
        })
        .collect();
    assert_eq!(runs[0], runs[1]);
    assert_eq!(runs[1], runs[2]);
}

/// Property 4 (the acceptance criterion): guided exploration under a hard
/// budget at least 4x below the saturated e-graph size extracts a DAG no
/// more expensive than tree-greedy extraction from full saturation, on at
/// least one benchmark model.
#[test]
fn guided_beats_saturation_tree_greedy_under_a_quarter_budget() {
    let singles = single_rules();
    let multis = multi_rules();
    let model = CostModel::default();
    let mut witnesses = Vec::new();
    let mut report = Vec::new();
    for name in BENCHMARKS {
        let graph = build_benchmark(name, ModelScale::tiny());
        let (mut sat_eg, sat_root) = seeded(&graph);
        let seed_nodes = sat_eg.total_number_of_nodes();
        explore(
            &mut sat_eg,
            sat_root,
            &singles,
            &multis,
            &saturate_config(20_000),
        );
        let sat_nodes = sat_eg.total_number_of_nodes();
        let sat_tree = extract_greedy(&sat_eg, sat_root, &model).unwrap();

        let budget = sat_nodes / 4;
        if budget < seed_nodes {
            // The saturated e-graph is not even 4x the seed: the budgeted
            // regime is meaningless for this model at this scale.
            report.push(format!(
                "{name}: saturation {sat_nodes} < 4x seed {seed_nodes}"
            ));
            continue;
        }
        let (mut gui_eg, gui_root) = seeded(&graph);
        let stats = explore(
            &mut gui_eg,
            gui_root,
            &singles,
            &multis,
            &ExplorationConfig {
                mode: ExplorationMode::Guided,
                node_limit: budget,
                search_threads: 1,
                time_limit: Duration::from_secs(600),
                ..Default::default()
            },
        );
        assert!(
            gui_eg.total_number_of_nodes() <= budget,
            "{name}: guided exceeded its budget"
        );
        assert_eq!(stats.strategy, "guided");
        let gui_dag = extract_greedy_dag(&gui_eg, gui_root, &model).unwrap();
        report.push(format!(
            "{name}: guided dag {:.3} @ {} nodes (budget {budget}) vs saturation tree {:.3} @ {sat_nodes} nodes",
            gui_dag.dag_cost,
            gui_eg.total_number_of_nodes(),
            sat_tree.dag_cost,
        ));
        if gui_dag.dag_cost <= sat_tree.dag_cost + 1e-9 {
            witnesses.push(*name);
        }
    }
    assert!(
        !witnesses.is_empty(),
        "no benchmark had guided-under-quarter-budget match saturation tree-greedy:\n{}",
        report.join("\n")
    );
}
