//! # tensat-ir
//!
//! The tensor-graph intermediate representation used by the TENSAT
//! reproduction: the operator language of the paper's Table 2
//! ([`TensorLang`]), shape inference ([`shape`]), the e-class analysis that
//! carries shape/layout information for shape checking ([`TensorAnalysis`]),
//! an analytical GPU operator cost model standing in for on-device
//! measurement ([`CostModel`], also the extractors' per-e-node cost), and
//! a hash-consing graph construction DSL ([`GraphBuilder`]).
//!
//! ## Quick start
//!
//! ```
//! use tensat_ir::{GraphBuilder, CostModel};
//! let mut g = GraphBuilder::new();
//! let x = g.input("x", &[8, 128]);
//! let w = g.weight("w", &[128, 64]);
//! let y = g.matmul(x, w);
//! let graph = g.finish(&[y]);
//! let cost = CostModel::default().graph_cost(&graph);
//! assert!(cost > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod builder;
pub mod cost;
pub mod lang;
pub mod shape;
pub mod symbolic;

pub use analysis::{class_data, TensorAnalysis, TensorEGraph};
pub use builder::{graph_stats, GraphBuilder, GraphStats};
pub use cost::{Cost, CostModel};
pub use lang::{
    decode_identifier, decode_permutation, decode_shape, encode_identifier, encode_permutation,
    encode_shape, Activation, Padding, TensorLang,
};
pub use shape::{child_data_kinds, infer, infer_recexpr, DataKind, TensorData, TensorInfo};
pub use symbolic::{sym_infer, DimEnv, SymDim, SymError, SymTensor, SymValue};

/// Convenience re-exports of the e-graph substrate types most commonly used
/// together with the IR.
pub use tensat_egraph::{Id, RecExpr};
