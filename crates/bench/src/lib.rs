//! # tensat-bench
//!
//! The experiment harness: one binary per table/figure of the paper's
//! evaluation, plus `bench_report` (see `src/bin/`). This library crate
//! holds the shared plumbing: benchmark configuration, result rows, and
//! CSV/console reporting.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::io::Write;
use std::path::Path;
use std::time::Duration;
use tensat_core::{
    explore, CycleFilter, ExplorationConfig, ExtractionMode, Optimizer, OptimizerConfig,
};
use tensat_ir::{TensorAnalysis, TensorEGraph};
use tensat_models::ModelScale;
use tensat_rules::{multi_rules, single_rules};
use tensat_taso::{BacktrackingConfig, BacktrackingSearch};

/// The scale used by the harness binaries for the seven benchmark models.
pub fn harness_scale() -> ModelScale {
    ModelScale {
        blocks: 2,
        hidden: 128,
        batch: 8,
    }
}

/// NasNet-A at `blocks: 4`, explored with the full rule set until
/// `node_limit` stops it: the e-graph of the repo benchmark's
/// `nasnet_search` workload. It is the one benchmark model on which single
/// classes grow to over a thousand e-nodes (the separable-conv outputs of
/// a cell all become equal), so it is where a search that is not
/// output-sensitive shows — the per-rule search table of `bench_report`
/// and the machine-vs-oracle differential test both run on it — and, with
/// its root, the big e-graph extraction is timed and pinned on.
pub fn nasnet_egraph(node_limit: usize) -> (TensorEGraph, tensat_egraph::Id) {
    let scale = ModelScale {
        blocks: 4,
        ..harness_scale()
    };
    let graph = tensat_models::build_benchmark("NasNet-A", scale);
    let mut eg = TensorEGraph::new(TensorAnalysis);
    let root = eg.add_expr(&graph);
    eg.rebuild();
    explore(
        &mut eg,
        root,
        &single_rules(),
        &multi_rules(),
        &ExplorationConfig {
            k_multi: 1,
            max_iter: 15,
            node_limit,
            search_threads: 1,
            cycle_filter: CycleFilter::Efficient,
            ..Default::default()
        },
    );
    (eg, root)
}

/// The TENSAT configuration used for the headline results (paper §6.1),
/// with `k_multi` overridable per experiment.
pub fn tensat_config(k_multi: usize) -> OptimizerConfig {
    OptimizerConfig {
        k_multi,
        max_iter: 15,
        node_limit: 20_000,
        exploration_time_limit: Duration::from_secs(30),
        cycle_filter: CycleFilter::Efficient,
        search_threads: tensat_core::default_search_threads(),
        extraction: ExtractionMode::Ilp,
        exploration: tensat_core::ExplorationMode::Saturate,
        guided: Default::default(),
        taso: Default::default(),
        ilp_cycle_constraints: false,
        ilp_integer_topo_vars: false,
        ilp_time_limit: Duration::from_secs(30),
        cost_model: Default::default(),
        ..Default::default()
    }
}

/// The TASO baseline configuration used for the headline results
/// (`n = 100`, `alpha = 1.0`, paper §6.1).
pub fn taso_config() -> BacktrackingConfig {
    BacktrackingConfig {
        iterations: 100,
        alpha: 1.0,
        time_limit: Duration::from_secs(60),
        ..Default::default()
    }
}

/// One comparison row: a benchmark optimized by both systems.
#[derive(Debug, Clone)]
pub struct ComparisonRow {
    /// Benchmark name.
    pub name: String,
    /// TASO total search time (seconds).
    pub taso_time_s: f64,
    /// TASO time-to-best (seconds).
    pub taso_best_time_s: f64,
    /// TASO speedup over the original graph (%).
    pub taso_speedup_pct: f64,
    /// TENSAT optimizer time (seconds).
    pub tensat_time_s: f64,
    /// TENSAT exploration time (seconds).
    pub tensat_explore_s: f64,
    /// TENSAT extraction time (seconds).
    pub tensat_extract_s: f64,
    /// TENSAT speedup over the original graph (%).
    pub tensat_speedup_pct: f64,
    /// Final e-graph size (e-nodes).
    pub tensat_enodes: usize,
}

/// Runs both optimizers on one benchmark and returns the comparison row.
pub fn compare_on(name: &str, k_multi: usize) -> ComparisonRow {
    let graph = tensat_models::build_benchmark(name, harness_scale());

    let taso = BacktrackingSearch::with_default_rules(taso_config()).run(&graph);
    let tensat = Optimizer::new(tensat_config(k_multi))
        .optimize(&graph)
        .expect("TENSAT optimization should succeed on the benchmark models");

    ComparisonRow {
        name: name.to_string(),
        taso_time_s: taso.total_time.as_secs_f64(),
        taso_best_time_s: taso.time_to_best.as_secs_f64(),
        taso_speedup_pct: taso.speedup_percent(),
        tensat_time_s: tensat.optimizer_time().as_secs_f64(),
        tensat_explore_s: tensat.stats.exploration.time.as_secs_f64(),
        tensat_extract_s: tensat.stats.extraction_time.as_secs_f64(),
        tensat_speedup_pct: tensat.speedup_percent(),
        tensat_enodes: tensat.stats.exploration.enodes,
    }
}

/// Writes rows as CSV into `results/<file>` (creating the directory), and
/// echoes the path.
pub fn write_csv(file: &str, header: &str, rows: &[String]) {
    let dir = Path::new("results");
    std::fs::create_dir_all(dir).expect("create results directory");
    let path = dir.join(file);
    let mut f = std::fs::File::create(&path).expect("create results file");
    writeln!(f, "{header}").unwrap();
    for row in rows {
        writeln!(f, "{row}").unwrap();
    }
    println!("\n[results written to {}]", path.display());
}

/// Formats a duration in seconds with 3 decimal places.
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configs_have_paper_defaults() {
        let c = tensat_config(1);
        assert_eq!(c.k_multi, 1);
        assert_eq!(c.max_iter, 15);
        assert!(matches!(c.extraction, ExtractionMode::Ilp));
        assert!(!c.ilp_cycle_constraints);
        let t = taso_config();
        assert_eq!(t.iterations, 100);
        assert_eq!(t.alpha, 1.0);
    }

    #[test]
    fn comparison_runs_on_a_small_model() {
        // Smoke test on the cheapest benchmark at tiny scale via the
        // public pieces (not the full harness scale, to keep tests fast).
        let graph = tensat_models::nasrnn(tensat_models::ModelScale::tiny());
        let taso = BacktrackingSearch::with_default_rules(BacktrackingConfig {
            iterations: 5,
            ..Default::default()
        })
        .run(&graph);
        let tensat = Optimizer::new(tensat_config(1)).optimize(&graph).unwrap();
        assert!(taso.best_cost <= taso.original_cost);
        assert!(tensat.optimized_cost <= tensat.original_cost);
    }
}
