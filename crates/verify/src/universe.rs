//! The concrete binding universe the enumeration fallback draws from.
//!
//! When the symbolic prover cannot decide a rule (non-linear operators,
//! opaque string parameters), the verifier checks the rule over every
//! combination of a small, hand-curated pool of concrete [`TensorData`]
//! values per variable. The pools are chosen so that
//!
//! * every shipped rule has at least one *live* binding in the universe
//!   (so dead-rule detection has no false positives) — rectangular matmul
//!   chains, an NCHW conv input with a matching OIHW weight, concat-marked
//!   tensors for the `split` algebra, valid and invalid permutations;
//! * no tensor is square and no two distinct shapes are compatible by
//!   accident, so shape-divergent mutants (swapped children, renamed
//!   variables) cannot hide behind coincidental equalities.

use std::collections::BTreeSet;
use tensat_ir::{encode_identifier, encode_permutation, DataKind, TensorData, TensorInfo};

/// A tensor pool entry: `[3,5]`-style rectangular shapes plus a few
/// structured values. See the module docs for the selection rationale.
fn tensor(shape: &[i64]) -> TensorData {
    TensorData::Tensor(TensorInfo::new(shape.to_vec(), false))
}

fn tensor_split(shape: &[i64], split_at: (usize, i64)) -> TensorData {
    let mut info = TensorInfo::new(shape.to_vec(), false);
    info.split_at = Some(split_at);
    TensorData::Tensor(info)
}

/// The scalar pool: small parameter values covering "axis 0/1", "stride
/// 1/2", "padding valid/same" and the degenerate 0 cases.
pub fn scalar_pool() -> Vec<TensorData> {
    [0, 1, 2].into_iter().map(TensorData::Scalar).collect()
}

/// The string pool: involutive and non-involutive permutations of ranks 2
/// and 3, plus a tensor identifier (for `input`/`weight` leaves).
pub fn str_pool() -> Vec<TensorData> {
    vec![
        TensorData::Str(encode_permutation(&[1, 0])),
        TensorData::Str(encode_permutation(&[0, 1])),
        TensorData::Str(encode_permutation(&[1, 2, 0])),
        TensorData::Str(encode_permutation(&[0, 2, 1])),
        TensorData::Str(encode_identifier("t", &[3, 5])),
    ]
}

/// The tensor pool. Deliberately contains **no square matrix**: a square
/// matrix makes `a·b` and transposed/swap variants coincidentally
/// shape-equal, which would mask exactly the mutants the verifier exists
/// to reject.
pub fn tensor_pool() -> Vec<TensorData> {
    vec![
        tensor(&[3, 5]),
        tensor(&[5, 7]),
        tensor(&[7, 11]),
        tensor(&[5, 3]),
        // A batched operand (rank 3) — the binding class on which the
        // `concat-matmul` family diverges.
        tensor(&[2, 3, 5]),
        // NCHW conv input and a matching OIHW weight (groups = 1).
        tensor(&[1, 4, 8, 8]),
        TensorData::Tensor(TensorInfo::new(vec![6, 4, 3, 3], true)),
        // Concat-produced tensors, so the `split` algebra has fireable
        // bindings: concatenated on axis 1 (5 + 7) and on axis 0 (2 + 4).
        tensor_split(&[3, 12], (1, 5)),
        tensor_split(&[6, 5], (0, 2)),
    ]
}

/// The tuple pool (what `split` yields and `split0`/`split1` consume).
pub fn tuple_pool() -> Vec<TensorData> {
    vec![TensorData::Tuple(
        Box::new(TensorInfo::new(vec![3, 5], false)),
        Box::new(TensorInfo::new(vec![4, 5], false)),
    )]
}

/// The candidate pool for a variable whose occurrences demand `kinds`
/// (the union of its kind constraints across a rule's patterns; empty
/// means only validity is required).
///
/// A variable with two *different* kind demands can never bind valid data
/// — the caller reports that as `dead-rule` before asking for a pool —
/// so the union here is effectively a single kind or empty.
pub fn pool_for_kinds(kinds: &BTreeSet<DataKind>) -> Vec<TensorData> {
    let mut pool = vec![];
    let wants = |k: DataKind| kinds.contains(&k);
    if wants(DataKind::Scalar) {
        pool.extend(scalar_pool());
    }
    if wants(DataKind::Str) {
        pool.extend(str_pool());
    }
    if wants(DataKind::Tensor) {
        pool.extend(tensor_pool());
    }
    if wants(DataKind::Tuple) {
        pool.extend(tuple_pool());
    }
    if pool.is_empty() {
        // Unconstrained (kind-`Any` positions only, e.g. a matmul
        // activation): the value is never inspected beyond validity, so
        // one representative per broad kind suffices.
        pool.push(TensorData::Scalar(0));
        pool.push(tensor(&[3, 5]));
    }
    pool
}

/// Iterates the Cartesian product of the given pools as index vectors,
/// deterministically subsampled with a fixed stride when the product
/// exceeds `cap`. Calls `f` with the per-pool indices; stops early when
/// `f` returns `false`.
pub fn for_each_binding(pool_sizes: &[usize], cap: u64, f: &mut dyn FnMut(&[usize]) -> bool) {
    if pool_sizes.contains(&0) {
        return;
    }
    let total: u64 = pool_sizes
        .iter()
        .try_fold(1u64, |acc, &s| acc.checked_mul(s as u64))
        .unwrap_or(u64::MAX);
    let stride = total.div_ceil(cap).max(1);
    let mut idx = vec![0usize; pool_sizes.len()];
    let mut i = 0u64;
    while i < total {
        let mut rem = i;
        for (slot, &size) in idx.iter_mut().zip(pool_sizes).rev() {
            *slot = (rem % size as u64) as usize;
            rem /= size as u64;
        }
        if !f(&idx) {
            return;
        }
        i += stride;
    }
}

/// The number of bindings [`for_each_binding`] will actually visit.
pub fn bindings_visited(pool_sizes: &[usize], cap: u64) -> u64 {
    if pool_sizes.contains(&0) {
        return 0;
    }
    let total: u64 = pool_sizes
        .iter()
        .try_fold(1u64, |acc, &s| acc.checked_mul(s as u64))
        .unwrap_or(u64::MAX);
    let stride = total.div_ceil(cap).max(1);
    total.div_ceil(stride)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pools_are_valid_data() {
        for d in scalar_pool()
            .into_iter()
            .chain(str_pool())
            .chain(tensor_pool())
            .chain(tuple_pool())
        {
            assert!(d.is_valid(), "pool entry {d:?} must be valid");
        }
    }

    #[test]
    fn no_square_tensors_in_pool() {
        for d in tensor_pool() {
            if let Some(shape) = d.shape() {
                if shape.len() == 2 {
                    assert_ne!(shape[0], shape[1], "square matrix {shape:?} in pool");
                }
            }
        }
    }

    #[test]
    fn binding_iteration_covers_product_and_respects_cap() {
        let mut seen = vec![];
        for_each_binding(&[2, 3], 1 << 20, &mut |idx| {
            seen.push(idx.to_vec());
            true
        });
        assert_eq!(seen.len(), 6);
        assert_eq!(seen[0], vec![0, 0]);
        assert_eq!(seen[5], vec![1, 2]);

        let mut count = 0u64;
        for_each_binding(&[10, 10, 10], 100, &mut |_| {
            count += 1;
            true
        });
        assert!(count <= 100, "cap exceeded: {count}");
        assert_eq!(count, bindings_visited(&[10, 10, 10], 100));
        assert_eq!(bindings_visited(&[2, 3], 1 << 20), 6);
    }

    #[test]
    fn early_exit_stops_iteration() {
        let mut count = 0;
        for_each_binding(&[5, 5], 1 << 20, &mut |_| {
            count += 1;
            count < 3
        });
        assert_eq!(count, 3);
    }
}
