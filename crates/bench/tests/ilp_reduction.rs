//! Acceptance tests of the ILP problem-reduction pipeline on the real
//! benchmark models (the ISSUE-10 tentpole): on every `BENCHMARKS` model,
//! reduced exact extraction must return the *same optimal cost* as the
//! unreduced §5.1 program — and do it fast. The oracle,
//! `extract_ilp_monolithic`, is the same pipeline (encoder, warm start,
//! greedy fallback) with the reduction skipped, so what it checks is the
//! reduction: pruning, forcing, decomposition, hint repair and the stitch.
//!
//! 1. **Differential optimality** — on the bench-scale grown e-graph of
//!    every model, `extract_ilp` and `extract_ilp_monolithic` both reach
//!    `Optimal` and agree on `dag_cost` to 1e-9, the reduction's
//!    "before" stats equal the unreduced program's size, and the
//!    residual problem never grows.
//! 2. **Per-model time budget** — the reduced solve completes within a
//!    generous per-model wall-clock budget. The release budget (5 s) is
//!    ~6x the worst observed time on the single-core dev container
//!    (BERT ≈ 0.8 s; every other model is milliseconds), so it trips on
//!    an order-of-magnitude regression — the pre-reduction BERT solve
//!    took ~34–47 s — without flaking on machine noise.
//!
//! Profile awareness: CI runs this test in *release* (the budget step in
//! the full job), where every assertion is live. Under `cargo test`'s
//! debug profile the solver is roughly an order of magnitude slower, so
//! the budget scales up and the *unreduced oracle* — slow by design: it
//! is the problem the reduction exists to shrink — is skipped for the
//! largest models (it exhausts its node budget before proving optimality
//! in debug; the release run is the proof).
//!
//! The growth recipe (2 iterations, 20k node limit, default scale)
//! mirrors `bench_report` so the numbers asserted here are the numbers
//! `BENCH_egraph.json` archives.
//!
//! 3. **Branch-and-bound pins** — the three cases of the repo benchmark's
//!    `ilp_extract` workload, optimized as that workload configures them,
//!    prove `Optimal` at pinned optima in a pinned number of B&B nodes.
//!    The benchmark compares an op only with its own warm-up, so a solver
//!    change that searched a different tree would pass it unnoticed.
//! 4. **The deadline binds the reduction** — on NasNet-A at the paper's
//!    50 000-node limit the reduction alone would run for tens of seconds
//!    (one class keeps ~12 000 candidates, and dominance pruning compares
//!    them pairwise); with a 2 s `ilp_time_limit` extraction must return
//!    within ~1 s of it, `Feasible`, no worse than greedy-DAG. Release only.

use std::time::{Duration, Instant};
use tensat_core::{
    explore, extract_greedy_dag, extract_ilp, extract_ilp_monolithic, CycleFilter, ExtractionMode,
    IlpConfig, Optimizer, OptimizerConfig,
};
use tensat_ilp::{Limit, Status};
use tensat_ir::{CostModel, TensorAnalysis, TensorEGraph};
use tensat_models::{build_benchmark, ModelScale, BENCHMARKS};
use tensat_rules::{multi_rules, single_rules};

mod common;
use common::fingerprint;

/// Wall-clock budget per model for the *reduced* ILP extraction (scaled
/// up under the debug profile; see the module docs).
const PER_MODEL_BUDGET: Duration = if cfg!(debug_assertions) {
    Duration::from_secs(60)
} else {
    Duration::from_secs(5)
};

/// Monolithic encodings above this size are only solved as the oracle in
/// release builds (in debug the §5.1 encoding of BERT exhausts the
/// solver's node budget without proving optimality — which is the very
/// slowness the reduction pipeline exists to remove).
const DEBUG_ORACLE_VAR_LIMIT: usize = 150;

fn grown(model: &str) -> (TensorEGraph, tensat_egraph::Id) {
    let rules = single_rules();
    let graph = build_benchmark(model, ModelScale::default());
    let mut eg = TensorEGraph::new(TensorAnalysis);
    let root = eg.add_expr(&graph);
    eg.rebuild();
    explore(
        &mut eg,
        root,
        &rules,
        &[],
        &OptimizerConfig {
            max_iter: 2,
            node_limit: 20_000,
            ..Default::default()
        },
    );
    (eg, root)
}

#[test]
fn reduced_ilp_is_optimal_and_within_budget_on_every_benchmark_model() {
    let model = CostModel::default();
    for name in BENCHMARKS {
        let (eg, root) = grown(name);

        let start = Instant::now();
        let reduced = extract_ilp(&eg, root, &model, &IlpConfig::default())
            .unwrap_or_else(|e| panic!("reduced ILP failed on {name}: {e}"));
        let elapsed = start.elapsed();

        let rs = reduced.ilp.as_ref().unwrap();
        assert_eq!(rs.status, Status::Optimal, "{name}: reduced not optimal");

        if cfg!(debug_assertions) && rs.vars_before > DEBUG_ORACLE_VAR_LIMIT {
            eprintln!(
                "[ilp-reduction] {name}: skipping the monolithic oracle in debug \
                 ({} vars; release CI runs it)",
                rs.vars_before
            );
        } else {
            let monolithic = extract_ilp_monolithic(&eg, root, &model, &IlpConfig::default())
                .unwrap_or_else(|e| panic!("monolithic ILP failed on {name}: {e}"));
            let ms = monolithic.ilp.as_ref().unwrap();
            assert_eq!(ms.status, Status::Optimal, "{name}: oracle not optimal");
            assert!(
                (reduced.dag_cost - monolithic.dag_cost).abs() < 1e-9,
                "{name}: reduced optimum {} != monolithic optimum {}",
                reduced.dag_cost,
                monolithic.dag_cost
            );
            assert_eq!(
                rs.vars_before, ms.num_vars,
                "{name}: vars_before must equal the monolithic encoding size"
            );
            assert_eq!(
                rs.constraints_before, ms.num_constraints,
                "{name}: constraints_before must equal the monolithic encoding size"
            );
            assert!(rs.num_vars <= ms.num_vars, "{name}: reduction grew vars");
            assert!(
                rs.num_constraints <= ms.num_constraints,
                "{name}: reduction grew constraints"
            );
        }
        assert!(
            elapsed <= PER_MODEL_BUDGET,
            "{name}: reduced ILP extraction took {elapsed:?}, budget {PER_MODEL_BUDGET:?}"
        );
        eprintln!(
            "[ilp-reduction] {name}: {:?} (vars {}/{}, constraints {}/{}, components {}, \
             dag {:.3})",
            elapsed,
            rs.num_vars,
            rs.vars_before,
            rs.num_constraints,
            rs.constraints_before,
            rs.components,
            reduced.dag_cost
        );
    }
}

#[test]
fn ilp_extract_cases_prove_their_optima_in_pinned_node_counts() {
    // (model, blocks, node_limit, B&B nodes, optimum in µs, the optimized
    // graph's fingerprint, propagation counters, reduction counters,
    // encoded program), as in `benchmark/src/workloads.rs`. The node counts
    // sum to the workload's `ilp.bb_nodes`, 24 876, and the optima to its
    // `extract.ilp_cost_us`. The propagation counters — rows visited, rows
    // that reached the per-term tightening loop, bound changes (the
    // branching fix of every node below the root included) — attribute a
    // node's cost: of the rows propagation visits (32 per node on NasNet-A)
    // 3 % to 15 % reach the loop; the rest stop after one pass over their
    // terms. The reduction counters — candidates pruned as dominated,
    // candidates pruned by the incumbent's bound, classes forced — sum to
    // the workload's `extract.dominated_pruned` (364) and
    // `extract.forced_classes` (215); only NasNet-A prunes by the bound.
    // The encoded program — independent components, variables and
    // constraints handed to the solver — is what the reduction leaves:
    // Inception-v3 splits into 16 components, the other two stay whole.
    let cases = [
        (
            "NasNet-A",
            2,
            2_000,
            19_567,
            62.915456,
            843_507_815_731_458_624,
            (631_472, 19_172, 38_738),
            (350, 194, 33),
            (1, 951, 1_604),
        ),
        (
            "Inception-v3",
            8,
            20_000,
            4_864,
            399.746048,
            16_740_504_291_635_575_710,
            (22_328, 2_048, 6_896),
            (0, 0, 134),
            (16, 480, 464),
        ),
        (
            "NasRNN",
            2,
            20_000,
            445,
            95.032533,
            2_002_769_870_575_493_143,
            (3_192, 477, 921),
            (14, 0, 48),
            (1, 404, 336),
        ),
    ];
    for (model, blocks, node_limit, nodes, optimum, print, counters, reduced, encoded) in cases {
        let graph = build_benchmark(
            model,
            ModelScale {
                blocks,
                hidden: 128,
                batch: 8,
            },
        );
        let config = OptimizerConfig {
            k_multi: 1,
            max_iter: 15,
            node_limit,
            exploration_time_limit: Duration::from_secs(120),
            cycle_filter: CycleFilter::Efficient,
            extraction: ExtractionMode::Ilp,
            ilp_cycle_constraints: false,
            ilp_integer_topo_vars: false,
            ilp_time_limit: Duration::from_secs(60),
            ..Default::default()
        };
        let result = Optimizer::new(config)
            .optimize(&graph)
            .unwrap_or_else(|e| panic!("{model}: {e}"));
        let ilp = result.stats.ilp.as_ref().expect("ILP extraction ran");
        assert_eq!(ilp.status, Status::Optimal, "{model}");
        assert_eq!(ilp.limit, None, "{model}");
        assert_eq!(ilp.nodes_explored, nodes, "{model}: B&B nodes");
        let p = &ilp.propagation;
        assert_eq!(
            (p.rows_visited, p.rows_looped, p.bound_changes),
            counters,
            "{model}: propagation"
        );
        assert_eq!(p.capped, 0, "{model}: capped propagations");
        assert_eq!(
            (ilp.dominated_pruned, ilp.bound_pruned, ilp.forced_classes),
            reduced,
            "{model}: reduction"
        );
        assert_eq!(
            (ilp.components, ilp.num_vars, ilp.num_constraints),
            encoded,
            "{model}: encoded program"
        );
        assert!(
            (result.optimized_cost - optimum).abs() < 1e-6,
            "{model}: optimum {} != {optimum}",
            result.optimized_cost
        );
        assert_eq!(
            fingerprint(&result.optimized_graph),
            print,
            "{model}: graph"
        );
    }
}

#[test]
fn reduction_stops_at_the_ilp_time_limit() {
    // Exploring to 50 000 e-nodes takes minutes under the debug profile;
    // the release run (CI's) is the check.
    if cfg!(debug_assertions) {
        return;
    }
    let graph = build_benchmark(
        "NasNet-A",
        ModelScale {
            blocks: 2,
            ..ModelScale::default()
        },
    );
    let config = OptimizerConfig {
        node_limit: 50_000,
        ..Default::default()
    };
    let mut eg = TensorEGraph::new(TensorAnalysis);
    let root = eg.add_expr(&graph);
    eg.rebuild();
    explore(&mut eg, root, &single_rules(), &multi_rules(), &config);
    let model = CostModel::default();
    let limit = Duration::from_secs(2);
    let ilp = extract_ilp(
        &eg,
        root,
        &model,
        &IlpConfig {
            time_limit: limit,
            ..Default::default()
        },
    )
    .expect("a limit-bound extraction still returns the incumbent");
    let stats = ilp.ilp.as_ref().expect("ILP stats");
    eprintln!(
        "[ilp-reduction] NasNet-A blocks 2 at {} e-nodes, limit {limit:?}: {:?}, {:?}, \
         residual vars {}/{}",
        eg.total_number_of_nodes(),
        ilp.time,
        stats.status,
        stats.num_vars,
        stats.vars_before
    );
    assert!(
        ilp.time < limit + Duration::from_secs(1),
        "extraction took {:?} against a {limit:?} limit",
        ilp.time
    );
    assert_eq!(stats.status, Status::Feasible);
    assert_eq!(stats.limit, Some(Limit::Time));
    let greedy = extract_greedy_dag(&eg, root, &model).expect("greedy-DAG extraction");
    assert!(
        ilp.dag_cost <= greedy.dag_cost,
        "ILP {} is worse than greedy-DAG {}",
        ilp.dag_cost,
        greedy.dag_cost
    );
}
