//! Workspace smoke test: every published benchmark model must build, shape-
//! infer, and round-trip through the optimizer in greedy mode under tight
//! limits. This is the fast canary that catches manifest, feature, and
//! facade-re-export regressions long before the heavier end-to-end suite.

use std::time::Duration;
use tensat::prelude::*;

/// Deliberately tight limits: the point is wiring, not optimization quality.
fn smoke_config() -> OptimizerConfig {
    OptimizerConfig {
        k_multi: 1,
        max_iter: 2,
        node_limit: 1_000,
        exploration_time_limit: Duration::from_secs(5),
        extraction: ExtractionMode::Greedy,
        ..Default::default()
    }
}

#[test]
fn every_benchmark_builds_infers_and_optimizes() {
    assert!(!BENCHMARKS.is_empty(), "benchmark registry is empty");
    for &name in BENCHMARKS {
        let graph = build_benchmark(name, ModelScale::tiny());
        assert!(!graph.is_empty(), "{name}: built an empty graph");

        // Shape inference must assign a valid shape to every node.
        let shapes = tensat::ir::infer_recexpr(&graph);
        assert_eq!(shapes.len(), graph.len(), "{name}: missing shape data");
        assert!(
            shapes.iter().all(|d| d.is_valid()),
            "{name}: graph is ill-typed before optimization"
        );

        // The optimizer must round-trip without panicking and never make
        // the graph worse, even under tight greedy-mode limits.
        let result = Optimizer::new(smoke_config())
            .optimize(&graph)
            .unwrap_or_else(|e| panic!("{name}: optimize failed: {e}"));
        assert!(
            result.optimized_cost <= result.original_cost + 1e-9,
            "{name}: greedy smoke run made the graph worse \
             ({} -> {})",
            result.original_cost,
            result.optimized_cost
        );
        assert!(
            result.optimized_cost.is_finite() && result.original_cost.is_finite(),
            "{name}: non-finite cost"
        );
    }
}

#[test]
fn every_benchmark_survives_greedy_dag_extraction() {
    // Same canary as above, but through the DAG-aware greedy extractor: the
    // result must never be worse than the original *or* than tree-greedy's
    // honest DAG cost, on every model.
    for &name in BENCHMARKS {
        let graph = build_benchmark(name, ModelScale::tiny());
        let greedy = Optimizer::new(smoke_config())
            .optimize(&graph)
            .unwrap_or_else(|e| panic!("{name}: greedy optimize failed: {e}"));
        let dag = Optimizer::new(OptimizerConfig {
            extraction: ExtractionMode::GreedyDag,
            ..smoke_config()
        })
        .optimize(&graph)
        .unwrap_or_else(|e| panic!("{name}: greedy-dag optimize failed: {e}"));
        assert!(
            dag.optimized_cost <= dag.original_cost + 1e-9,
            "{name}: greedy-dag made the graph worse ({} -> {})",
            dag.original_cost,
            dag.optimized_cost
        );
        assert!(
            dag.optimized_cost <= greedy.optimized_cost + 1e-9,
            "{name}: greedy-dag ({}) lost to tree-greedy ({})",
            dag.optimized_cost,
            greedy.optimized_cost
        );
    }
}

#[test]
fn facade_prelude_exposes_the_documented_surface() {
    // Compile-time check that the advertised prelude names resolve; a few
    // are also exercised so the test has observable behavior.
    let rules = single_rules();
    assert!(!rules.is_empty(), "single-pattern rule set is empty");
    assert!(!multi_rules().is_empty(), "multi-pattern rule set is empty");
    let pat = parse_pattern("(relu ?x)").expect("pattern parser rejected (relu ?x)");
    let _: &Pattern<TensorLang> = &pat;
    let _ = CostModel::default();
    let _ = IlpConfig::default();
    let _ = OptimizerConfig::default();
    let _ = BacktrackingConfig::default();
    let _: CycleFilter = CycleFilter::Efficient;
    let _ = GuidedConfig::default();
    let _ = TasoConfig::default();
    let _ = (ExplorationMode::Saturate, Saturate);
}
