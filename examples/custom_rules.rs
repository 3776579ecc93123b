//! Using TENSAT with a custom rewrite-rule set: define rules from textual
//! patterns, add a multi-pattern rule, and optimize a graph with them.
//!
//! Run with:
//! ```text
//! cargo run --release --example custom_rules
//! ```

use tensat::prelude::*;
use tensat::rules::rw;

fn main() {
    // A graph with a fusable activation and two parallel matmuls.
    let mut g = GraphBuilder::new();
    let x = g.input("x", &[32, 128]);
    let w1 = g.weight("w1", &[128, 128]);
    let w2 = g.weight("w2", &[128, 128]);
    let m1 = g.matmul(x, w1);
    let r1 = g.relu(m1);
    let m2 = g.matmul(x, w2);
    let graph = g.finish(&[r1, m2]);

    // A minimal custom rule set: only ReLU fusion...
    let single = vec![rw(
        "my-fuse-matmul-relu",
        "(relu (matmul 0 ?a ?b))",
        "(matmul 1 ?a ?b)",
    )];
    // ...plus the paper's Figure 2 multi-pattern rule, written by hand: the
    // merged product splits along its columns where ?w1's end, so the
    // extent ?n is bound to dim(?w1, 1).
    let multi = vec![MultiPatternRule::new(
        "my-merge-matmuls",
        &["(matmul ?act ?x ?w1)", "(matmul ?act ?x ?w2)"],
        &[
            "(split0 1 ?n (matmul ?act ?x (concat2 1 ?w1 ?w2)))",
            "(split1 1 ?n (matmul ?act ?x (concat2 1 ?w1 ?w2)))",
        ],
        &[("n", "w1", 1)],
    )];

    let optimizer = Optimizer::with_rules(OptimizerConfig::default(), single, multi);
    let result = optimizer.optimize(&graph).expect("optimization succeeds");

    println!("original  : {:.2} µs", result.original_cost);
    println!("optimized : {:.2} µs", result.optimized_cost);
    println!("speedup   : {:.1} %", result.speedup_percent());
    println!("graph     : {}", result.optimized_graph);
}
