//! End-to-end integration tests spanning all crates: models are built,
//! explored, extracted, and compared against the sequential baseline.

use std::time::Duration;
use tensat::prelude::*;

fn fast_config() -> OptimizerConfig {
    OptimizerConfig {
        k_multi: 1,
        max_iter: 6,
        node_limit: 5_000,
        exploration_time_limit: Duration::from_secs(20),
        ilp_time_limit: Duration::from_secs(20),
        ..Default::default()
    }
}

#[test]
fn tensat_improves_or_preserves_every_benchmark() {
    for (name, graph) in tensat::models::all_benchmarks(ModelScale::tiny()) {
        let result = Optimizer::new(fast_config())
            .optimize(&graph)
            .unwrap_or_else(|e| panic!("{name}: optimization failed: {e}"));
        assert!(
            result.optimized_cost <= result.original_cost + 1e-9,
            "{name}: optimized graph is worse than the original"
        );
        // The optimized graph must be well-typed.
        assert!(
            tensat::ir::infer_recexpr(&result.optimized_graph)
                .iter()
                .all(|d| d.is_valid()),
            "{name}: optimized graph is ill-typed"
        );
    }
}

#[test]
fn nasrnn_gets_a_real_speedup() {
    // NasRNN is the paper's best case (many parallel matmuls): the
    // reproduction must find a strictly positive speedup.
    let graph = tensat::models::nasrnn(ModelScale::tiny());
    let result = Optimizer::new(fast_config()).optimize(&graph).unwrap();
    assert!(
        result.speedup_percent() > 5.0,
        "expected a clear speedup on NasRNN, got {:.2}%",
        result.speedup_percent()
    );
}

#[test]
fn tensat_matches_or_beats_sequential_baseline_on_nasrnn() {
    let graph = tensat::models::nasrnn(ModelScale::tiny());
    let taso = BacktrackingSearch::with_default_rules(BacktrackingConfig {
        iterations: 20,
        time_limit: Duration::from_secs(30),
        ..Default::default()
    })
    .run(&graph);
    let tensat = Optimizer::new(fast_config()).optimize(&graph).unwrap();
    assert!(
        tensat.optimized_cost <= taso.best_cost + 1e-6,
        "TENSAT ({}) should be at least as good as the baseline ({})",
        tensat.optimized_cost,
        taso.best_cost
    );
}

#[test]
fn greedy_and_ilp_extraction_are_both_available_end_to_end() {
    let graph = tensat::models::bert(ModelScale::tiny());
    let greedy = Optimizer::new(OptimizerConfig {
        extraction: ExtractionMode::Greedy,
        ..fast_config()
    })
    .optimize(&graph)
    .unwrap();
    let ilp = Optimizer::new(fast_config()).optimize(&graph).unwrap();
    assert!(ilp.optimized_cost <= greedy.optimized_cost + 1e-6);
}

#[test]
fn extracted_graph_reenters_the_egraph_as_equivalent() {
    // Soundness check: the optimized graph, added back to an e-graph with
    // the original, must land in the same e-class after saturation of the
    // rule set that produced it (we check a weaker but meaningful property:
    // its cost is finite and the graph is well-typed; full equivalence is
    // guaranteed by construction since extraction only picks represented
    // terms).
    let graph = tensat::models::squeezenet(ModelScale::tiny());
    let result = Optimizer::new(fast_config()).optimize(&graph).unwrap();
    let cost = CostModel::default().graph_cost(&result.optimized_graph);
    assert!(cost.is_finite());
    assert!((cost - result.optimized_cost).abs() < 1e-6);
}

#[test]
fn cycle_filtering_modes_agree_on_final_cost() {
    // Efficient filtering + ILP without cycle constraints versus no
    // filtering, where the optimizer turns the cycle constraints on by
    // itself: the same rewrites are available, only the mechanism that
    // guarantees acyclicity differs. BERT and Inception-v3 saturate into
    // cyclic e-graphs, where an unconstrained ILP selects a cycle.
    let models = [
        ("NasRNN", tensat::models::nasrnn(ModelScale::tiny())),
        ("BERT", tensat::models::bert(ModelScale::tiny())),
        (
            "Inception-v3",
            tensat::models::inception_v3(ModelScale::tiny()),
        ),
    ];
    for (name, graph) in models {
        let filtered = Optimizer::new(fast_config()).optimize(&graph).unwrap();
        let unfiltered = Optimizer::new(OptimizerConfig {
            cycle_filter: CycleFilter::Off,
            ..fast_config()
        })
        .optimize(&graph)
        .unwrap_or_else(|e| panic!("{name} without the cycle filter: {e:?}"));
        for result in [&filtered, &unfiltered] {
            assert!(result.optimized_cost <= graph_cost(&graph) + 1e-6, "{name}");
            assert!(
                tensat::ir::infer_recexpr(&result.optimized_graph)
                    .iter()
                    .all(|d| d.is_valid()),
                "{name}: optimized graph is ill-typed"
            );
        }
    }
}

fn graph_cost(graph: &RecExpr<TensorLang>) -> f64 {
    CostModel::default().graph_cost(graph)
}
