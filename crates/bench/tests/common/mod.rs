//! Helpers shared by this crate's integration tests.

use tensat_egraph::RecExpr;
use tensat_ir::TensorLang;

/// A fingerprint of a graph that a pin holds across processes and
/// toolchains: the 64-bit FNV-1a hash of its s-expression (the output of
/// `DefaultHasher` may change between Rust releases).
pub fn fingerprint(expr: &RecExpr<TensorLang>) -> u64 {
    expr.to_string()
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}
