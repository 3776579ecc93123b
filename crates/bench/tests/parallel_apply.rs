//! Differential tests of the windowed staged-parallel apply + rebuild path.
//!
//! The windowed applier (`tensat_egraph::apply_windowed`) must be
//! *bit-identical* to the sequential in-place apply loop at every thread
//! count, so full saturation is run three ways on every `BENCHMARKS`
//! model — the legacy monolithic oracle (in-place sequential apply), the
//! seam with one apply thread, and the seam with four apply threads — and
//! every observable is compared: iteration statistics, final e-graph
//! counts, per-rule match sets, and tree-greedy / greedy-DAG / ILP
//! extraction outcomes. Two regression tests pin the budget semantics:
//! the node limit is enforced per-commit (overshoot bounded by a single
//! staged application, never a whole window), and a zero time limit
//! halts exploration before the first iteration.

use std::time::Duration;
use tensat_core::explore::legacy::explore_monolithic;
use tensat_core::{
    explore, extract_greedy, extract_greedy_dag, extract_ilp, ExplorationConfig, ExplorationMode,
    ExplorationStats, IlpConfig,
};
use tensat_egraph::{Id, RecExpr, SearchMatches, StopReason};
use tensat_ir::{CostModel, TensorAnalysis, TensorEGraph, TensorLang};
use tensat_models::{build_benchmark, ModelScale, BENCHMARKS};
use tensat_rules::{multi_rules, single_rules, TensorRewrite};

fn seeded(graph: &RecExpr<TensorLang>) -> (TensorEGraph, Id) {
    let mut eg = TensorEGraph::new(TensorAnalysis);
    let root = eg.add_expr(graph);
    eg.rebuild();
    (eg, root)
}

/// Deterministic limits shared by every side of each comparison. Threads
/// only vary on the apply side: search stays single-threaded so any
/// divergence is attributable to the staged applier.
fn config(node_limit: usize, apply_threads: usize) -> ExplorationConfig {
    ExplorationConfig {
        mode: ExplorationMode::Saturate,
        k_multi: 1,
        max_iter: 2,
        node_limit,
        time_limit: Duration::from_secs(600),
        search_threads: 1,
        apply_threads: Some(apply_threads),
        ..Default::default()
    }
}

/// The full per-rule match sets of every single-pattern rule — the
/// strongest observable equality short of dumping storage.
fn match_sets(eg: &TensorEGraph, rules: &[TensorRewrite]) -> Vec<Vec<SearchMatches>> {
    rules.iter().map(|rw| rw.search(eg)).collect()
}

/// The iteration-trajectory fields of [`ExplorationStats`] (phase timings
/// excluded — wall-clock is the one legitimately nondeterministic output).
fn trajectory(
    stats: &ExplorationStats,
) -> (
    usize,
    bool,
    Option<StopReason>,
    usize,
    Vec<usize>,
    usize,
    usize,
) {
    (
        stats.iterations,
        stats.saturated,
        stats.stop_reason.clone(),
        stats.filtered_nodes,
        stats.nodes_per_iteration.clone(),
        stats.enodes,
        stats.eclasses,
    )
}

/// Runs saturation on all seven benchmark models through the legacy
/// in-place oracle and the staged path at 1 and 4 apply threads, and
/// asserts every observable is identical.
#[test]
fn staged_parallel_apply_is_bit_identical_on_all_benchmarks() {
    let singles = single_rules();
    let multis = multi_rules();
    let model = CostModel::default();
    for name in BENCHMARKS {
        let graph = build_benchmark(name, ModelScale::tiny());

        let (mut legacy_eg, legacy_root) = seeded(&graph);
        let legacy_stats = explore_monolithic(
            &mut legacy_eg,
            legacy_root,
            &singles,
            &multis,
            &config(2_000, 1),
        );

        let mut outcomes = Vec::new();
        for apply_threads in [1, 4] {
            let (mut eg, root) = seeded(&graph);
            let stats = explore(
                &mut eg,
                root,
                &singles,
                &multis,
                &config(2_000, apply_threads),
            );
            assert_eq!(stats.strategy, "saturate", "{name}");
            assert_eq!(
                trajectory(&legacy_stats),
                trajectory(&stats),
                "{name}: iteration stats diverged at {apply_threads} apply threads"
            );
            assert_eq!(
                legacy_eg.total_number_of_nodes(),
                eg.total_number_of_nodes(),
                "{name}: node count diverged at {apply_threads} apply threads"
            );
            assert_eq!(
                legacy_eg.number_of_classes(),
                eg.number_of_classes(),
                "{name}"
            );
            assert_eq!(legacy_eg.union_count(), eg.union_count(), "{name}");
            assert_eq!(
                match_sets(&legacy_eg, &singles),
                match_sets(&eg, &singles),
                "{name}: per-rule match sets diverged at {apply_threads} apply threads"
            );

            // All three extraction outcomes must agree with the oracle's.
            let tree = extract_greedy(&eg, root, &model).unwrap();
            let legacy_tree = extract_greedy(&legacy_eg, legacy_root, &model).unwrap();
            assert_eq!(legacy_tree.expr.nodes(), tree.expr.nodes(), "{name}");
            assert_eq!(legacy_tree.dag_cost, tree.dag_cost, "{name}");
            assert_eq!(legacy_tree.tree_cost, tree.tree_cost, "{name}");
            let dag = extract_greedy_dag(&eg, root, &model).unwrap();
            let legacy_dag = extract_greedy_dag(&legacy_eg, legacy_root, &model).unwrap();
            assert_eq!(legacy_dag.expr.nodes(), dag.expr.nodes(), "{name}");
            assert_eq!(legacy_dag.dag_cost, dag.dag_cost, "{name}");
            let ilp = extract_ilp(&eg, root, &model, &IlpConfig::default()).unwrap();
            outcomes.push((ilp.expr.nodes().to_vec(), ilp.dag_cost));
        }
        // The two staged runs solved the identical ILP instance, so the
        // solver (deterministic branch-and-bound) returns the same answer.
        assert_eq!(outcomes[0], outcomes[1], "{name}: ILP outcome diverged");
        let legacy_ilp =
            extract_ilp(&legacy_eg, legacy_root, &model, &IlpConfig::default()).unwrap();
        assert_eq!(
            outcomes[0],
            (legacy_ilp.expr.nodes().to_vec(), legacy_ilp.dag_cost),
            "{name}: ILP outcome diverged from the legacy oracle"
        );
    }
}

/// Regression: the node limit is asked before every staged application's
/// commit, so a run can overshoot by at most one application's right-hand
/// side — never by a whole staged window (which at four threads holds a
/// thousand candidates).
#[test]
fn node_limit_is_enforced_per_commit_not_per_log() {
    // Largest right-hand side in the rule corpus, with margin: a single
    // application can add at most this many e-nodes past the limit.
    const MAX_RHS_NODES: usize = 32;
    let singles = single_rules();
    let multis = multi_rules();
    for name in ["NasRNN", "BERT"] {
        let graph = build_benchmark(name, ModelScale::tiny());
        for apply_threads in [1, 4] {
            let (mut eg, root) = seeded(&graph);
            let node_limit = eg.total_number_of_nodes() + 50;
            let stats = explore(
                &mut eg,
                root,
                &singles,
                &multis,
                &config(node_limit, apply_threads),
            );
            assert!(
                stats.enodes <= node_limit + MAX_RHS_NODES,
                "{name}: {} e-nodes overshot the {node_limit} limit by more than \
                 one application at {apply_threads} apply threads",
                stats.enodes
            );
        }
    }
}

/// Regression: the time limit is checked before every iteration (and
/// before every staged candidate), so a zero budget halts exploration
/// before the first iteration mutates anything.
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
            ..config(2_000, 4)
        },
    );
    assert_eq!(stats.iterations, 0);
    assert_eq!(
        stats.stop_reason,
        Some(StopReason::TimeLimit(Duration::ZERO))
    );
    assert_eq!(eg.total_number_of_nodes(), seed_nodes);
}

/// The stop rule at every apply-thread count: the iteration whose apply
/// phase `node_limit` cuts is the last one in the oracle and in the
/// windowed applier at 1 and 4 threads, although the rebuild closing it
/// leaves each of these e-graphs *under* the limit (a loop that only
/// compared the node count ran NasNet-A two iterations further, and BERT
/// at 20 000 two further as well). A window staged past the cut must not
/// leak into the e-graph, the trajectory or the stop reason.
#[test]
fn an_iteration_cut_by_node_limit_is_the_last_at_every_thread_count() {
    let singles = single_rules();
    let multis = multi_rules();
    // A `zoo7_small` case and the `bert_apply` case of the repo benchmark.
    let cases = [
        ("NasNet-A", 2_000, (1_829, 727, 4)),
        ("BERT", 20_000, (19_596, 8_600, 6)),
    ];
    for (name, node_limit, (enodes, eclasses, iterations)) in cases {
        let graph = build_benchmark(name, ModelScale::default());
        let limits = |apply_threads| ExplorationConfig {
            max_iter: 15,
            ..config(node_limit, apply_threads)
        };
        let (mut legacy_eg, legacy_root) = seeded(&graph);
        let legacy_stats =
            explore_monolithic(&mut legacy_eg, legacy_root, &singles, &multis, &limits(1));
        assert_eq!(
            legacy_stats.stop_reason,
            Some(StopReason::NodeLimit(node_limit)),
            "{name}"
        );
        assert_eq!(
            (
                legacy_stats.enodes,
                legacy_stats.eclasses,
                legacy_stats.iterations
            ),
            (enodes, eclasses, iterations),
            "{name}"
        );
        assert_eq!(legacy_stats.nodes_per_iteration.len(), iterations, "{name}");
        assert!(
            legacy_stats.enodes < node_limit,
            "{name}: the fixture ends under the limit"
        );
        for apply_threads in [1, 4] {
            let (mut eg, root) = seeded(&graph);
            let stats = explore(&mut eg, root, &singles, &multis, &limits(apply_threads));
            assert_eq!(
                trajectory(&legacy_stats),
                trajectory(&stats),
                "{name}: diverged at {apply_threads} apply threads"
            );
            assert_eq!(legacy_eg.union_count(), eg.union_count(), "{name}");
            assert_eq!(
                match_sets(&legacy_eg, &singles),
                match_sets(&eg, &singles),
                "{name}: per-rule match sets diverged at {apply_threads} apply threads"
            );
        }
    }
}
