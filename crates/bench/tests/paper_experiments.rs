//! Every experiment of the `paper` binary runs to completion on the seven
//! benchmark models at `ModelScale::tiny()` under a small node limit, and
//! returns the columns its CSV promises with one row per case. Release
//! only: Table 5's cycle-constrained ILP solves alone take ~85 s there.

use tensat_bench::{Setting, EXPERIMENTS};
use tensat_models::ModelScale;

/// Small enough to keep the run short; Inception-v3 at `k_multi` 2 still
/// gets an ILP selection without a finite cost at this size.
const NODE_LIMIT: usize = 2_000;

#[test]
fn every_experiment_runs_at_tiny_scale() {
    if cfg!(debug_assertions) {
        return;
    }
    let expected: [(&str, usize, &str); 7] = [
        ("taso_vs_tensat", 7, "model,k_multi,taso_time_s,taso_best_s,taso_speedup_pct,tensat_time_s,exploration_s,extraction_s,tensat_speedup_pct,taso_stderr,tensat_stderr,enodes,speedup_ratio"),
        ("table4_greedy_vs_ilp", 7, "model,original_us,tree_us,greedy_dag_us,ilp_us,tree_time_s,greedy_dag_time_s,ilp_time_s,tree_treecost_us,greedy_dag_treecost_us,ilp_treecost_us,ilp_status"),
        ("table5_cycle_constraints", 6, "model,k_multi,with_real_s,with_int_s,without_s"),
        ("table6_cycle_filtering", 6, "model,k_multi,vanilla_s,efficient_s"),
        ("table7_exploration", 14, "model,strategy,explore_s,enodes,node_budget,dag_cost_us"),
        ("fig6_tradeoff", 10, "optimizer,budget,time_s,speedup_pct"),
        ("fig7_kmulti", 28, "model,k_multi,speedup_pct,time_s,enodes"),
    ];
    assert!(EXPERIMENTS.iter().map(|e| e.0).eq(expected.map(|e| e.0)));
    let setting = Setting {
        scale: ModelScale::tiny(),
        node_limit: NODE_LIMIT,
        reps: 2,
    };
    for (&(name, _, run), (_, rows, header)) in EXPERIMENTS.iter().zip(expected) {
        // Table 4 asserts greedy-DAG's cost is never above tree-greedy's.
        let table = run(&setting);
        assert_eq!(table.columns.join(","), header, "{name}");
        assert_eq!(table.rows.len(), rows, "{name}");
        let csv = table.csv();
        assert_eq!(csv.lines().count(), rows + 1, "{name}");
        for line in csv.lines() {
            assert_eq!(
                line.split(',').count(),
                table.columns.len(),
                "{name}: {line}"
            );
        }
    }
}
