//! Compare the three extractors on the same explored e-graph —
//! the single-model version of the paper's Table 4 ablation, showing why
//! DAG-aware extraction is needed to pick shared (split) subgraphs.
//!
//! Run with:
//! ```text
//! cargo run --release --example compare_extraction
//! ```

use tensat::ir::TensorAnalysis;
use tensat::prelude::*;

fn main() {
    let scale = ModelScale::tiny();
    let graph = tensat::models::nasrnn(scale);
    let model = CostModel::default();
    let original = model.graph_cost(&graph);

    // Explore once.
    let mut egraph = TensorEGraph::new(TensorAnalysis);
    let root = egraph.add_expr(&graph);
    egraph.rebuild();
    let stats = explore(
        &mut egraph,
        root,
        &single_rules(),
        &multi_rules(),
        &ExplorationConfig::default(),
    );
    println!(
        "explored NasRNN (tiny): {} e-nodes, {} e-classes in {:.3}s",
        stats.enodes,
        stats.eclasses,
        stats.time.as_secs_f64()
    );

    // Extract three times from the same e-graph.
    let modes = [
        (ExtractionMode::Greedy, "tree-greedy"),
        (ExtractionMode::GreedyDag, "greedy-dag"),
        (ExtractionMode::Ilp, "ilp"),
    ];
    println!("original      : {original:10.2} µs (DAG cost)");
    let mut costs = vec![];
    for (mode, name) in modes {
        let out = extract(mode, &egraph, root, &model, &IlpConfig::default())
            .expect("extraction succeeds on an explored model");
        print!(
            "{name:14}: {:10.2} µs DAG / {:10.2} µs tree  ({:.3}s)",
            out.dag_cost,
            out.tree_cost,
            out.time.as_secs_f64()
        );
        if let Some(ilp) = &out.ilp {
            print!(
                "  [{} vars, {} constraints, status {:?}]",
                ilp.num_vars, ilp.num_constraints, ilp.status
            );
        }
        println!();
        costs.push(out.dag_cost);
    }
    if costs[2] < costs[0] {
        println!("\nDAG-aware extraction found a cheaper graph than tree-greedy (paper Table 4).");
    } else {
        println!("\nTree-greedy matched the DAG-aware strategies on this graph.");
    }
}
