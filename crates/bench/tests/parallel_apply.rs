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
use tensat_egraph::{search_all_guarded_parallel, Id, RecExpr, SearchMatches};
use tensat_ir::{CostModel, GraphBuilder, TensorAnalysis, TensorEGraph, TensorLang};
use tensat_models::{build_benchmark, ModelScale, BENCHMARKS};
use tensat_rules::{multi_rules, parse_pattern, rw, single_rules, MultiPatternRule, TensorRewrite};

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
    let queries: Vec<_> = rules.iter().map(|rw| rw.searcher_query()).collect();
    search_all_guarded_parallel(&queries, eg, 1)
}

/// The iteration-trajectory fields of [`ExplorationStats`] (phase timings
/// excluded — wall-clock is the one legitimately nondeterministic output).
fn trajectory(stats: &ExplorationStats) -> (usize, bool, usize, Vec<usize>, usize, usize) {
    (
        stats.iterations,
        stats.saturated,
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
    assert_eq!(eg.total_number_of_nodes(), seed_nodes);
}

/// Runs full-search and incremental-multi exploration from the same seed
/// and asserts every observable is identical. Returns the two stats.
fn assert_incremental_matches_full(
    graph: &RecExpr<TensorLang>,
    singles: &[TensorRewrite],
    multis: &[MultiPatternRule],
    base: &ExplorationConfig,
    context: &str,
) -> (ExplorationStats, ExplorationStats, TensorEGraph) {
    let model = CostModel::default();
    let (mut full_eg, full_root) = seeded(graph);
    let full_stats = explore(&mut full_eg, full_root, singles, multis, base);
    assert_eq!(full_stats.multi_stale_skipped, 0, "{context}");

    let (mut inc_eg, inc_root) = seeded(graph);
    let inc_stats = explore(
        &mut inc_eg,
        inc_root,
        singles,
        multis,
        &ExplorationConfig {
            incremental_multi: true,
            ..base.clone()
        },
    );

    assert_eq!(
        trajectory(&full_stats),
        trajectory(&inc_stats),
        "{context}: incremental multi diverged from full search"
    );
    assert_eq!(
        full_eg.total_number_of_nodes(),
        inc_eg.total_number_of_nodes(),
        "{context}"
    );
    assert_eq!(
        full_eg.number_of_classes(),
        inc_eg.number_of_classes(),
        "{context}"
    );
    assert_eq!(full_eg.union_count(), inc_eg.union_count(), "{context}");
    assert_eq!(
        match_sets(&full_eg, singles),
        match_sets(&inc_eg, singles),
        "{context}"
    );
    let full_dag = extract_greedy_dag(&full_eg, full_root, &model).unwrap();
    let inc_dag = extract_greedy_dag(&inc_eg, inc_root, &model).unwrap();
    assert_eq!(full_dag.expr.nodes(), inc_dag.expr.nodes(), "{context}");
    assert_eq!(full_dag.dag_cost, inc_dag.dag_cost, "{context}");
    (full_stats, inc_stats, inc_eg)
}

/// The incremental multi-pattern search (watermark-restricted re-search
/// plus a cache of stale matches) must be bit-identical to re-searching
/// from scratch every iteration on every benchmark model. The corpus
/// multi rules self-feed (each application creates a fresh matmul/conv
/// match), and cycle filtering flushes the cache, so no stale combination
/// is skippable here — the two targeted tests below pin the skip and the
/// stale-x-fresh semantics on purpose-built rule sets.
#[test]
fn incremental_multi_search_is_bit_identical_to_full_search_on_benchmarks() {
    let singles = single_rules();
    let multis = multi_rules();
    for name in BENCHMARKS {
        let graph = build_benchmark(name, ModelScale::tiny());
        let base = ExplorationConfig {
            k_multi: 3,
            max_iter: 4,
            ..config(2_000, 1)
        };
        assert_incremental_matches_full(&graph, &singles, &multis, &base, name);
    }
}

/// A multi rule whose targets equal its sources is a no-op from the first
/// application on, so its matched classes are never touched again: from
/// the second multi iteration the whole Cartesian product is stale x stale
/// and must be skipped — while an unrelated `ewadd` associativity churn
/// keeps the exploration loop alive. The incremental run must skip at
/// least one combination and still be bit-identical to full search.
#[test]
fn incremental_multi_skips_all_stale_combinations() {
    let mut g = GraphBuilder::new();
    let p = g.input("p", &[8, 8]);
    let q = g.input("q", &[8, 8]);
    let r = g.relu(p);
    let t = g.tanh(q);
    let mut chain = g.input("a0", &[8, 8]);
    for i in 1..6 {
        let a = g.input(&format!("a{i}"), &[8, 8]);
        chain = g.ewadd(a, chain);
    }
    let graph = g.finish(&[r, t, chain]);

    let singles: Vec<TensorRewrite> = single_rules()
        .into_iter()
        .filter(|r| r.name == "ewadd-assoc")
        .collect();
    assert_eq!(singles.len(), 1);
    let multis = vec![MultiPatternRule::new(
        "quiet-pair",
        &["(relu ?x)", "(tanh ?y)"],
        &["(relu ?x)", "(tanh ?y)"],
    )];
    // The first *tracked* rebuild conservatively stamps every class as
    // touched (the seed window covers the whole pre-watermark history), so
    // the first incremental iteration sees only fresh matches; the skip
    // shows up from the second incremental iteration on — hence k_multi 4.
    let base = ExplorationConfig {
        k_multi: 4,
        max_iter: 5,
        ..config(10_000, 1)
    };
    let (_, inc_stats, _) =
        assert_incremental_matches_full(&graph, &singles, &multis, &base, "quiet-pair");
    assert!(
        inc_stats.multi_stale_skipped > 0,
        "the all-stale relu x tanh combination was never skipped"
    );
}

/// The watermark-honesty case from Algorithm 1's Cartesian product: a
/// combination of a *stale* match (the relu class, untouched after the
/// first iteration) with a *fresh* match (a new tanh binding created by
/// the `tanh-grow` rule each iteration) is a brand-new combination even
/// though one side is old, and must fire under incremental search. If it
/// were wrongly skipped the sigmoid unions would be missing and every
/// equality against full search would fail.
#[test]
fn stale_fresh_combinations_fire_under_incremental_search() {
    let mut g = GraphBuilder::new();
    let p = g.input("p", &[8, 8]);
    let q = g.input("q", &[8, 8]);
    let r = g.relu(p);
    let t = g.tanh(q);
    let graph = g.finish(&[r, t]);

    let singles = vec![rw("tanh-grow", "(tanh ?y)", "(tanh (ewmul ?y ?y))")];
    let multis = vec![MultiPatternRule::new(
        "stale-fresh-pair",
        &["(relu ?x)", "(tanh ?y)"],
        &["(relu ?x)", "(sigmoid (ewadd ?x ?y))"],
    )];
    // k_multi 4 so the second incremental iteration runs with precise
    // touch stamps (the first tracked rebuild stamps everything fresh),
    // making the relu side genuinely stale while tanh keeps growing.
    let base = ExplorationConfig {
        k_multi: 4,
        max_iter: 5,
        ..config(5_000, 1)
    };
    let (_, inc_stats, inc_eg) =
        assert_incremental_matches_full(&graph, &singles, &multis, &base, "stale-fresh-pair");
    // Every combination had the fresh tanh side, so none was skipped...
    assert_eq!(inc_stats.multi_stale_skipped, 0);
    // ...and the stale-relu x fresh-tanh combinations really fired: one
    // sigmoid per distinct tanh binding, not just the first iteration's.
    let witness = parse_pattern("(sigmoid (ewadd ?x ?y))").unwrap();
    let fired: usize = witness.search(&inc_eg).iter().map(|m| m.substs.len()).sum();
    assert!(
        fired >= 2,
        "expected sigmoid unions from stale x fresh combinations, found {fired}"
    );
}
