//! Regenerates **Table 6**: exploration-phase time under vanilla vs
//! efficient cycle filtering, for k_multi = 1 and 2, on BERT, NasRNN and
//! NasNet-A.
//!
//! Vanilla recomputes the descendants map for every candidate
//! application. Since that map is a snapshot of the class graph with a
//! component order — one linear pass, no n x n closure — the recompute
//! costs O(classes + edges) instead of a bit-matrix fixpoint, so the
//! vanilla column is smaller than the paper's ratio suggests; it still
//! grows with matches x e-graph size where the efficient column does not.

use std::time::Duration;
use tensat_bench::{harness_scale, write_csv};
use tensat_core::{explore, CycleFilter, ExplorationConfig};
use tensat_ir::{TensorAnalysis, TensorEGraph};
use tensat_rules::{multi_rules, single_rules};

fn main() {
    println!("Table 6: exploration time (s), vanilla vs efficient cycle filtering");
    println!(
        "{:<12} {:>3} {:>12} {:>12}",
        "model", "k", "vanilla", "efficient"
    );
    let mut rows = vec![];
    for &name in &["BERT", "NasRNN", "NasNet-A"] {
        for k in [1usize, 2] {
            let graph = tensat_models::build_benchmark(name, harness_scale());
            let time_of = |filter: CycleFilter| {
                let mut eg = TensorEGraph::new(TensorAnalysis);
                let root = eg.add_expr(&graph);
                eg.rebuild();
                let stats = explore(
                    &mut eg,
                    root,
                    &single_rules(),
                    &multi_rules(),
                    &ExplorationConfig {
                        k_multi: k,
                        max_iter: 8,
                        node_limit: 8_000,
                        time_limit: Duration::from_secs(120),
                        cycle_filter: filter,
                        ..Default::default()
                    },
                );
                stats.time.as_secs_f64()
            };
            let efficient = time_of(CycleFilter::Efficient);
            let vanilla = time_of(CycleFilter::Vanilla);
            println!("{name:<12} {k:>3} {vanilla:>12.3} {efficient:>12.3}");
            rows.push(format!("{name},{k},{vanilla:.4},{efficient:.4}"));
        }
    }
    write_csv(
        "table6_cycle_filtering.csv",
        "model,k_multi,vanilla_s,efficient_s",
        &rows,
    );
}
