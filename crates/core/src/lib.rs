//! # tensat-core
//!
//! The core of the TENSAT reproduction: tensor-graph superoptimization via
//! equality saturation (MLSys 2021). This crate implements the paper's
//! contributions on top of the `tensat-egraph`, `tensat-ir`, `tensat-rules`
//! and `tensat-ilp` substrates:
//!
//! * the **exploration phase** with single- and multi-pattern rewrites
//!   (Algorithm 1) and a separate `k_multi` limit (§4), behind an
//!   [`ExplorationStrategy`] seam with saturate-all and guided
//!   beam-search strategies,
//! * **cycle filtering** — both the vanilla and the efficient algorithm
//!   (Algorithm 2) — so extraction can drop the ILP cycle constraints (§5.2),
//! * the **extraction phase** — tree-greedy, global greedy DAG, and ILP
//!   (constraints (1)–(5)), dispatched by [`extract()`] on an
//!   [`ExtractionMode`] (§5.1),
//! * the end-to-end [`Optimizer`] pipeline with the paper's default
//!   configuration.
//!
//! ```
//! use tensat_core::{Optimizer, OptimizerConfig};
//! use tensat_ir::GraphBuilder;
//! let mut g = GraphBuilder::new();
//! let x = g.input("x", &[32, 64]);
//! let w1 = g.weight("w1", &[64, 64]);
//! let w2 = g.weight("w2", &[64, 64]);
//! let m1 = g.matmul(x, w1);
//! let m2 = g.matmul(x, w2);
//! let graph = g.finish(&[m1, m2]);
//! let result = Optimizer::new(OptimizerConfig::default()).optimize(&graph).unwrap();
//! assert!(result.optimized_cost <= result.original_cost);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cycles;
pub mod explore;
pub mod extract;
pub mod optimizer;

pub use cycles::{find_cycles, remove_all_cycles, would_create_cycle, DescendantsMap};
pub use explore::{
    default_search_threads, explore, explore_with, CycleFilter, ExplorationContext,
    ExplorationMode, ExplorationStats, ExplorationStrategy, Guided, GuidedConfig, Saturate,
    StopReason,
};
pub use extract::{
    extract, extract_greedy, extract_greedy_dag, extract_ilp, extract_ilp_monolithic, ExtractError,
    ExtractionMode, ExtractionOutcome, IlpConfig, IlpStats,
};
pub use optimizer::{
    OptimizationResult, OptimizationStats, Optimizer, OptimizerConfig, TasoConfig,
};
