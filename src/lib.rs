//! # tensat
//!
//! A from-scratch Rust reproduction of **TENSAT** — *Equality Saturation
//! for Tensor Graph Superoptimization* (Yang et al., MLSys 2021) — together
//! with every substrate the system depends on: an e-graph engine, the
//! tensor-graph IR with shape inference and an analytical cost model, the
//! TASO rewrite-rule set, an ILP solver for extraction, the TASO-style
//! sequential baseline, and replicas of the paper's benchmark models.
//!
//! This crate is a facade that re-exports the workspace crates under one
//! name. See the README for the architecture overview and `DESIGN.md` /
//! `EXPERIMENTS.md` for the reproduction details.
//!
//! ## Quick start
//!
//! ```
//! use tensat::prelude::*;
//!
//! // Build a tensor graph: two matmuls sharing an input.
//! let mut g = GraphBuilder::new();
//! let x = g.input("x", &[32, 64]);
//! let w1 = g.weight("w1", &[64, 64]);
//! let w2 = g.weight("w2", &[64, 64]);
//! let m1 = g.matmul(x, w1);
//! let m2 = g.matmul(x, w2);
//! let graph = g.finish(&[m1, m2]);
//!
//! // Optimize it with equality saturation + ILP extraction.
//! let result = Optimizer::new(OptimizerConfig::default()).optimize(&graph).unwrap();
//! assert!(result.optimized_cost <= result.original_cost);
//! println!("speedup: {:.1}%", result.speedup_percent());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use tensat_core as core;
pub use tensat_egraph as egraph;
pub use tensat_ilp as ilp;
pub use tensat_ir as ir;
pub use tensat_models as models;
pub use tensat_rules as rules;
pub use tensat_taso as taso;
pub use tensat_verify as verify;

/// The most commonly used types, re-exported for convenience.
pub mod prelude {
    pub use tensat_core::{
        explore, explore_with, extract, extract_greedy, extract_greedy_dag, extract_ilp,
        CycleFilter, ExplorationConfig, ExplorationMode, ExplorationStrategy, ExtractionMode,
        ExtractionOutcome, Guided, GuidedConfig, IlpConfig, OptimizationResult, Optimizer,
        OptimizerConfig, Saturate, StopReason, TasoBacktracking, TasoConfig,
    };
    pub use tensat_egraph::{EGraph, Id, Pattern, RecExpr, Rewrite, Symbol};
    pub use tensat_ir::{
        Activation, Cost, CostModel, GraphBuilder, Padding, TensorAnalysis, TensorEGraph,
        TensorLang,
    };
    pub use tensat_models::{build_benchmark, ModelScale, BENCHMARKS};
    pub use tensat_rules::{multi_rules, parse_pattern, single_rules, MultiPatternRule};
    pub use tensat_taso::{BacktrackingConfig, BacktrackingSearch};
}
