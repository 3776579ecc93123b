//! Property tests of the exploration-strategy seam.
//!
//! Saturation is checked against what it means rather than against a kept
//! copy of an older loop. Equality saturation applies every rewrite it
//! finds, so a run that saturates has exactly one result, whatever order
//! the rules are tried in — the paper's point against TASO's sequential
//! search. The final e-graph is compared through
//! [`tensat_bench::signature`], which ignores ids:
//!
//! 1. **Order invariance** — on random e-graphs and on every benchmark
//!    model that saturates at `ModelScale::tiny()` (`k_multi` 0 and 1,
//!    cycle filter `Off` and `Efficient`), reversing or rotating the
//!    single- and multi-pattern rule lists reaches the same signature;
//! 2. **Naive reference** — a naive loop (every rule searched with
//!    `Pattern::search_naive`, applied with `Rewrite::apply`, rebuilt,
//!    repeated) reaches the engine's signature on the runs that saturate;
//! 3. **Pinned trajectories** — a run that stops at `node_limit` may
//!    depend on order, so those are pinned to the digit: every benchmark
//!    model at the repo benchmark's `zoo7_small` sizing and its two big
//!    workloads, per-iteration e-node counts and final signature included,
//!    and the iteration `node_limit` cuts is the last;
//! 4. **Budget semantics** — the node limit is asked before every
//!    application (the overshoot is one right-hand side), and a zero time
//!    limit halts exploration before the first iteration.

use proptest::prelude::*;
use proptest::TestRng;
use std::time::Duration;
use tensat_bench::{explored, seeded, signature};
use tensat_core::{
    explore, extract_greedy_dag, CycleFilter, ExplorationStats, ExtractionMode, Optimizer,
    OptimizerConfig, StopReason,
};
use tensat_egraph::{Id, RecExpr};
use tensat_ir::{CostModel, GraphBuilder, TensorEGraph, TensorLang};
use tensat_models::{build_benchmark, ModelScale, BENCHMARKS};
use tensat_rules::{multi_rules, single_rules, MultiPatternRule, TensorRewrite};

mod common;
use common::fingerprint;

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

fn op_strategy() -> impl Strategy<Value = Vec<RandOp>> {
    prop::collection::vec((any::<u8>(), any::<usize>(), any::<usize>()), 1..12)
}

/// `n` random programs drawn from `op_strategy`, the same ones on every
/// run.
fn random_graphs(n: usize) -> Vec<RecExpr<TensorLang>> {
    let mut rng = TestRng::from_seed_str("saturation fixpoint");
    (0..n)
        .map(|_| build_graph(&op_strategy().generate(&mut rng)))
        .collect()
}

/// Deterministic small limits.
fn saturate_config(node_limit: usize) -> OptimizerConfig {
    OptimizerConfig {
        k_multi: 1,
        max_iter: 2,
        node_limit,
        exploration_time_limit: Duration::from_secs(600),
        ..Default::default()
    }
}

/// Limits a saturating run of the fixtures below stays under: 40
/// iterations and 20 000 e-nodes.
fn fixpoint_config(k_multi: usize, cycle_filter: CycleFilter) -> OptimizerConfig {
    OptimizerConfig {
        k_multi,
        cycle_filter,
        max_iter: 40,
        ..saturate_config(20_000)
    }
}

/// `graph` seeded and explored with the given rule lists, in their order:
/// the e-graph, its root and the stats.
fn explored_with(
    graph: &RecExpr<TensorLang>,
    singles: &[TensorRewrite],
    multis: &[MultiPatternRule],
    config: &OptimizerConfig,
) -> (TensorEGraph, Id, ExplorationStats) {
    let (mut eg, root) = seeded(graph);
    let stats = explore(&mut eg, root, singles, multis, config);
    assert_eq!(stats.strategy, "saturate");
    assert_eq!(
        stats.saturated,
        stats.stop_reason == Some(StopReason::Saturated)
    );
    (eg, root, stats)
}

/// If `graph` saturates under `config`, asserts that the reversed and a
/// rotated order of both rule lists saturate to the same signature, and
/// returns true. Returns false, comparing nothing, when the run stops at
/// a limit.
fn assert_order_invariant(graph: &RecExpr<TensorLang>, config: &OptimizerConfig) -> bool {
    let (singles, multis) = (single_rules(), multi_rules());
    let (eg, root, stats) = explored_with(graph, &singles, &multis, config);
    if !stats.saturated {
        return false;
    }
    let expected = signature(&eg, root);
    fn reversed<T: Clone>(rules: &[T]) -> Vec<T> {
        rules.iter().rev().cloned().collect()
    }
    fn rotated<T: Clone>(rules: &[T], by: usize) -> Vec<T> {
        let mut rules = rules.to_vec();
        rules.rotate_left(by);
        rules
    }
    let variants = [
        ("reversed", reversed(&singles), reversed(&multis)),
        (
            "rotated",
            rotated(&singles, singles.len() / 3),
            rotated(&multis, 1),
        ),
    ];
    for (label, singles, multis) in variants {
        let (eg, root, stats) = explored_with(graph, &singles, &multis, config);
        assert_eq!(stats.stop_reason, Some(StopReason::Saturated), "{label}");
        assert_eq!(signature(&eg, root), expected, "{label}");
    }
    true
}

/// Algorithm 1 written as plainly as possible, for a reference: every
/// rule is searched with the naive matcher against the iteration-start
/// e-graph, every match is applied, last rule first, and the e-graph is
/// rebuilt, until nothing changes. No multi-pattern rules, no cycle filter. `None`
/// if the e-graph passes `node_cap` e-nodes or `max_iter` iterations run
/// without saturating.
fn saturate_naively(
    graph: &RecExpr<TensorLang>,
    rules: &[TensorRewrite],
    max_iter: usize,
    node_cap: usize,
) -> Option<(TensorEGraph, Id)> {
    let (mut eg, root) = seeded(graph);
    for _ in 0..max_iter {
        let before = (eg.total_number_of_nodes(), eg.union_count());
        let matches: Vec<_> = rules
            .iter()
            .map(|rw| rw.searcher.search_naive(&eg))
            .collect();
        for (rw, matches) in rules.iter().zip(&matches).rev() {
            rw.apply(&mut eg, matches);
        }
        eg.rebuild();
        if eg.total_number_of_nodes() > node_cap {
            return None;
        }
        if (eg.total_number_of_nodes(), eg.union_count()) == before {
            return Some((eg, root));
        }
    }
    None
}

/// Property 1 on random e-graphs, with multi-pattern rules and the
/// efficient cycle filter in play.
#[test]
fn saturation_ignores_rule_order_on_random_graphs() {
    let config = fixpoint_config(1, CycleFilter::Efficient);
    let compared = random_graphs(200)
        .iter()
        .filter(|graph| assert_order_invariant(graph, &config))
        .count();
    assert_eq!(compared, 200, "saturating random graphs compared");
}

/// Property 1 on every benchmark model that saturates at
/// `ModelScale::tiny()`, under `k_multi` 0 and 1 and cycle filter `Off`
/// and `Efficient`.
#[test]
fn saturation_ignores_rule_order_on_the_benchmarks() {
    let mut compared = vec![];
    for name in BENCHMARKS {
        let graph = build_benchmark(name, ModelScale::tiny());
        for k_multi in [0, 1] {
            for filter in [CycleFilter::Off, CycleFilter::Efficient] {
                if assert_order_invariant(&graph, &fixpoint_config(k_multi, filter)) {
                    compared.push(*name);
                }
            }
        }
    }
    // Six models times four settings: NasNet-A passes 20 000 e-nodes.
    assert_eq!(compared.len(), 24, "saturating runs compared: {compared:?}");
}

/// Property 2: under `CycleFilter::Off` and `k_multi` 0 the engine reaches
/// the fixpoint of [`saturate_naively`] on random e-graphs and the
/// benchmark models, wherever both saturate.
#[test]
fn saturation_reaches_the_fixpoint_of_a_naive_loop() {
    let singles = single_rules();
    let config = fixpoint_config(0, CycleFilter::Off);
    let mut graphs = random_graphs(200);
    graphs.extend(
        BENCHMARKS
            .iter()
            .map(|name| build_benchmark(name, ModelScale::tiny())),
    );
    let mut compared = 0;
    for graph in &graphs {
        let (eg, root, stats) = explored_with(graph, &singles, &[], &config);
        let naive = saturate_naively(graph, &singles, config.max_iter, 5_000);
        if let (true, Some((naive, naive_root))) = (stats.saturated, naive) {
            assert_eq!(signature(&eg, root), signature(&naive, naive_root));
            compared += 1;
        }
    }
    // Every random graph and six models: NasNet-A passes 20 000 e-nodes.
    assert_eq!(compared, 206, "saturating cases compared");
}

/// Property 3 where a loop could get *stopping* wrong: an iteration's
/// apply phase is cut by `node_limit`, the rebuild's deduplication leaves
/// the e-graph under the limit, and a loop that only compared the node
/// count would search everything again (the two 2 000 cases ran 6
/// iterations to 2 000 and 2 001 e-nodes that way, BERT at 20 000 two
/// iterations further). The cut iteration must be the last; the
/// trajectories are two of the repo benchmark's `zoo7_small` cases and its
/// `bert_apply` case, pinned to the digit.
#[test]
fn an_iteration_cut_by_node_limit_is_the_last() {
    for (name, node_limit, enodes, eclasses, iterations) in [
        ("NasNet-A", 2_000, 1_820, 685, 4),
        ("BERT", 2_000, 1_675, 664, 4),
        ("BERT", 20_000, 18_210, 7_962, 6),
    ] {
        let config = OptimizerConfig {
            max_iter: 15,
            ..saturate_config(node_limit)
        };
        let graph = build_benchmark(name, ModelScale::default());
        let (_, _, stats) = explored(&graph, &config);
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
/// the first iteration mutates anything. The optimizer still extracts a
/// well-typed graph no worse than the input.
#[test]
fn zero_time_limit_halts_before_the_first_iteration() {
    let counts = |eg: &TensorEGraph| {
        (
            eg.total_number_of_nodes(),
            eg.number_of_classes(),
            eg.union_count(),
        )
    };
    let config = OptimizerConfig {
        exploration_time_limit: Duration::ZERO,
        extraction: ExtractionMode::GreedyDag,
        ..saturate_config(20_000)
    };
    for name in ["BERT", "NasNet-A", "NasRNN"] {
        let graph = build_benchmark(name, ModelScale::default());
        let (mut eg, root) = seeded(&graph);
        let seed = counts(&eg);
        let stats = explore(&mut eg, root, &single_rules(), &multi_rules(), &config);
        assert_eq!(stats.iterations, 0, "{name}");
        assert_eq!(
            stats.stop_reason,
            Some(StopReason::TimeLimit(Duration::ZERO)),
            "{name}"
        );
        assert_eq!(counts(&eg), seed, "{name}");

        let result = Optimizer::new(config.clone()).optimize(&graph).unwrap();
        assert!(
            result.optimized_cost <= result.original_cost + 1e-9,
            "{name}"
        );
        let data = tensat_ir::infer_recexpr(&result.optimized_graph);
        assert!(data.iter().all(|d| d.is_valid()), "{name}: ill-typed");
    }
}

/// The whole saturation trajectory of every benchmark model at the repo
/// benchmark's `zoo7_small` sizing (`blocks: 2`, `node_limit: 2000`,
/// `max_iter: 15`, one thread, `k_multi` 1 and 2), pinned
/// to the digit: `(e-nodes, e-classes, iterations, filtered e-nodes, unions,
/// stop reason, e-nodes after each iteration, final e-graph signature)` —
/// the [`tensat_bench::signature`] stands for the final e-graph itself,
/// ids aside. The repo benchmark only compares an op with its own
/// warm-up, so this is what a change that must leave trajectories
/// bit-identical is checked against; the e-node column sums to the
/// benchmark's `egraph.final_enodes` for `zoo7_small`.
#[test]
fn saturate_trajectories_are_pinned_on_every_benchmark_model() {
    use StopReason::{NodeLimit, Saturated};
    type Pin = (
        (usize, usize, usize, usize, usize, StopReason),
        Vec<usize>,
        u64,
    );
    // Per model: the pins for `k_multi` 1 and 2.
    let pinned: [(&str, [Pin; 2]); 7] = [
        (
            "NasRNN",
            [
                (
                    (546, 260, 4, 80, 286, Saturated),
                    vec![431, 538, 546, 546],
                    12_295_631_676_573_967_717,
                ),
                (
                    (2002, 992, 2, 80, 1010, NodeLimit(2000)),
                    vec![431, 2002],
                    14_536_784_574_973_179_502,
                ),
            ],
        ),
        (
            "BERT",
            [
                (
                    (1675, 664, 4, 12, 1364, NodeLimit(2000)),
                    vec![146, 338, 932, 1675],
                    2_598_109_016_755_556_240,
                ),
                (
                    (1976, 936, 3, 28, 1066, NodeLimit(2000)),
                    vec![146, 1153, 1976],
                    12_803_401_475_765_931_774,
                ),
            ],
        ),
        (
            "ResNeXt-50",
            [
                (
                    (36, 30, 2, 0, 6, Saturated),
                    vec![36, 36],
                    821_928_763_353_544_114,
                ),
                (
                    (36, 30, 2, 0, 6, Saturated),
                    vec![36, 36],
                    821_928_763_353_544_114,
                ),
            ],
        ),
        (
            "NasNet-A",
            [
                (
                    (1820, 685, 4, 42, 1357, NodeLimit(2000)),
                    vec![263, 471, 1344, 1820],
                    9_101_964_182_005_201_067,
                ),
                (
                    (2000, 996, 2, 42, 1004, NodeLimit(2000)),
                    vec![263, 2000],
                    16_639_144_361_927_389_507,
                ),
            ],
        ),
        (
            "SqueezeNet",
            [
                (
                    (38, 32, 2, 0, 6, Saturated),
                    vec![38, 38],
                    16_409_065_874_580_050_061,
                ),
                (
                    (38, 32, 2, 0, 6, Saturated),
                    vec![38, 38],
                    16_409_065_874_580_050_061,
                ),
            ],
        ),
        (
            "VGG-19",
            [
                (
                    (32, 28, 2, 0, 4, Saturated),
                    vec![32, 32],
                    16_093_051_043_965_343_444,
                ),
                (
                    (32, 28, 2, 0, 4, Saturated),
                    vec![32, 32],
                    16_093_051_043_965_343_444,
                ),
            ],
        ),
        (
            "Inception-v3",
            [
                (
                    (170, 98, 4, 12, 72, Saturated),
                    vec![122, 158, 170, 170],
                    10_054_291_150_884_907_417,
                ),
                (
                    (1251, 495, 5, 156, 756, Saturated),
                    vec![122, 711, 1119, 1251, 1251],
                    15_398_129_610_505_109_768,
                ),
            ],
        ),
    ];
    assert!(pinned.iter().map(|(name, _)| name).eq(BENCHMARKS));
    let mut total_enodes = 0;
    for (name, pins) in pinned {
        let graph = build_benchmark(name, ModelScale::default());
        for (k_multi, pin) in [1, 2].into_iter().zip(pins) {
            let config = OptimizerConfig {
                k_multi,
                max_iter: 15,
                ..saturate_config(2_000)
            };
            let (eg, root, stats) = explored(&graph, &config);
            assert_eq!(stats.filtered_nodes, eg.filtered_count());
            assert_eq!(
                (
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
                    stats.nodes_per_iteration,
                    tensat_bench::signature(&eg, root),
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
/// after each iteration, greedy-DAG cost and graph fingerprint, final
/// e-graph signature, match rows searched)`. The pins above stop at 2 000
/// e-nodes and the benchmark compares an op only with its own warm-up, so
/// this is what holds a change to the e-graph's storage to the same run at
/// 20–30 k e-nodes. The last column is what searching each rule right
/// before its apply saves: 30 471 and 49 846 rows, where searching every
/// rule of an iteration before applying any built 117 534 and 53 171
/// (most of them in the last iteration, for rules its node limit cut
/// off); it grows again if a rule after the cut is searched. Release
/// builds only: a debug build runs `check_invariants` after every rebuild
/// (CI runs this test with `TENSAT_CHECK_INVARIANTS=1`, which does the
/// same in release).
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
                97.53045333333333,
                4_950_112_881_948_126_868,
                17_330_369_404_885_528_206,
                30_471,
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
                10_593_177_530_291_863_129,
                9_412_832_200_318_848_345,
                49_846,
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
        let config = OptimizerConfig {
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
                fingerprint(&dag.expr),
                tensat_bench::signature(&eg, root),
                stats.rows_searched,
            ),
            pin,
            "{name} blocks {blocks} at {node_limit}"
        );
    }
}
