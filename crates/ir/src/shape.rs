//! Shape inference for [`TensorLang`] nodes.
//!
//! Every node's output is summarized by a [`TensorData`] value: parameter
//! leaves evaluate to scalars/strings, operators to tensor metadata (shape,
//! whether the value depends only on weights, and where the most recent
//! concatenation happened — the information TENSAT stores in its e-class
//! analysis for shape checking, paper §4 and §6).

use crate::lang::{decode_identifier, decode_permutation, decode_shape, Padding, TensorLang};
use tensat_egraph::{Id, Language, RecExpr, Symbol};

/// Metadata describing a concrete tensor value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TensorInfo {
    /// The tensor shape (dimension sizes).
    pub shape: Vec<i64>,
    /// True if the value depends only on weight tensors, so it can be
    /// pre-computed before inference (drives the "concat of weights is
    /// free" rewrites of the paper's appendix).
    pub weights_only: bool,
    /// If the tensor was most recently produced by a concatenation, the
    /// axis and the size of the first part — the position at which `split`
    /// will cut (paper Table 2, note e).
    pub split_at: Option<(usize, i64)>,
}

impl TensorInfo {
    /// Creates tensor info with no concat history.
    pub fn new(shape: Vec<i64>, weights_only: bool) -> Self {
        TensorInfo {
            shape,
            weights_only,
            split_at: None,
        }
    }

    /// The number of elements in the tensor.
    pub fn elements(&self) -> i64 {
        self.shape.iter().product()
    }
}

/// Analysis data attached to every node / e-class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorData {
    /// The node is not well-typed (shape mismatch, bad parameters, ...).
    /// Carries a human-readable reason for diagnostics.
    Invalid(String),
    /// An integer parameter.
    Scalar(i64),
    /// A string parameter.
    Str(Symbol),
    /// A tensor value.
    Tensor(TensorInfo),
    /// A tensor tuple (the result of `split`).
    Tuple(Box<TensorInfo>, Box<TensorInfo>),
}

impl TensorData {
    /// Invalid data with a reason.
    pub fn invalid(reason: impl Into<String>) -> Self {
        TensorData::Invalid(reason.into())
    }

    /// True unless this is [`TensorData::Invalid`].
    pub fn is_valid(&self) -> bool {
        !matches!(self, TensorData::Invalid(_))
    }

    /// The tensor info if this is a tensor.
    pub fn as_tensor(&self) -> Option<&TensorInfo> {
        match self {
            TensorData::Tensor(t) => Some(t),
            _ => None,
        }
    }

    /// The scalar value if this is a scalar.
    pub fn as_scalar(&self) -> Option<i64> {
        match self {
            TensorData::Scalar(v) => Some(*v),
            _ => None,
        }
    }

    /// The tensor shape if this is a tensor.
    pub fn shape(&self) -> Option<&[i64]> {
        self.as_tensor().map(|t| t.shape.as_slice())
    }
}

/// The coarse kind of [`TensorData`] an operator child position requires —
/// the static part of [`infer`]'s per-child admissibility checks, exposed so
/// the rule verifier can derive, per pattern variable, the kinds a rule's
/// operator positions demand (see [`child_data_kinds`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DataKind {
    /// An integer parameter ([`TensorData::Scalar`]).
    Scalar,
    /// A string parameter ([`TensorData::Str`]).
    Str,
    /// A tensor value ([`TensorData::Tensor`]).
    Tensor,
    /// A tensor tuple ([`TensorData::Tuple`], produced by `split`).
    Tuple,
    /// Any valid value: the position is ignored by shape inference (e.g. the
    /// activation code of `matmul`), so only overall validity is required.
    Any,
}

/// For each child position of `node`, the [`DataKind`] that [`infer`]
/// requires of that child's data — `infer` returns
/// [`TensorData::Invalid`] whenever a child's data fails its position's
/// kind (and always when a child is invalid). This table must mirror the
/// accessors `infer` actually calls; `shape.rs` keeps the two adjacent so
/// they evolve together.
pub fn child_data_kinds(node: &TensorLang) -> &'static [DataKind] {
    use DataKind::{Any, Scalar, Str, Tensor, Tuple};
    use TensorLang as L;
    match node {
        L::Num(_) | L::Str(_) => &[],
        L::Input(_) | L::Weight(_) => &[Str],
        L::Ewadd(_) | L::Ewmul(_) | L::Enlarge(_) | L::Noop(_) => &[Tensor, Tensor],
        L::Matmul(_) => &[Any, Tensor, Tensor],
        L::Conv(_) => &[Scalar, Scalar, Scalar, Any, Tensor, Tensor],
        L::Relu(_) | L::Tanh(_) | L::Sigmoid(_) => &[Tensor],
        L::Poolmax(_) | L::Poolavg(_) => &[Tensor, Scalar, Scalar, Scalar, Scalar, Scalar, Any],
        L::Transpose(_) | L::Reshape(_) => &[Tensor, Str],
        L::Concat2(_) => &[Scalar, Tensor, Tensor],
        L::Concat3(_) => &[Scalar, Tensor, Tensor, Tensor],
        L::Concat4(_) => &[Scalar, Tensor, Tensor, Tensor, Tensor],
        L::Concat5(_) => &[Scalar, Tensor, Tensor, Tensor, Tensor, Tensor],
        L::Split(_) => &[Scalar, Tensor],
        L::Split0(_) | L::Split1(_) => &[Tuple],
        L::Merge(_) => &[Tensor, Scalar],
    }
}

fn spatial_out(size: i64, kernel: i64, stride: i64, pad: Padding) -> Option<i64> {
    if stride <= 0 || kernel <= 0 || size <= 0 {
        return None;
    }
    match pad {
        Padding::Same => Some((size + stride - 1) / stride),
        Padding::Valid => {
            if size < kernel {
                None
            } else {
                Some((size - kernel) / stride + 1)
            }
        }
    }
}

/// Infers the output [`TensorData`] of a single node given a function that
/// yields the data of each child.
pub fn infer(node: &TensorLang, get: &dyn Fn(Id) -> TensorData) -> TensorData {
    use TensorLang as L;

    let tensor = |id: Id| -> Result<TensorInfo, TensorData> {
        match get(id) {
            TensorData::Tensor(t) => Ok(t),
            TensorData::Invalid(r) => Err(TensorData::Invalid(r)),
            other => Err(TensorData::invalid(format!(
                "expected tensor child, found {other:?}"
            ))),
        }
    };
    let scalar = |id: Id| -> Result<i64, TensorData> {
        match get(id) {
            TensorData::Scalar(v) => Ok(v),
            other => Err(TensorData::invalid(format!(
                "expected integer child, found {other:?}"
            ))),
        }
    };
    let string = |id: Id| -> Result<Symbol, TensorData> {
        match get(id) {
            TensorData::Str(s) => Ok(s),
            other => Err(TensorData::invalid(format!(
                "expected string child, found {other:?}"
            ))),
        }
    };

    // A small macro-free helper to early-return invalid data.
    macro_rules! ok {
        ($e:expr) => {
            match $e {
                Ok(v) => v,
                Err(d) => return d,
            }
        };
    }

    match node {
        L::Num(v) => TensorData::Scalar(*v),
        L::Str(s) => TensorData::Str(*s),
        L::Input([id]) | L::Weight([id]) => {
            let sym = ok!(string(*id));
            match decode_identifier(sym) {
                Ok((_, shape)) => {
                    TensorData::Tensor(TensorInfo::new(shape, matches!(node, L::Weight(_))))
                }
                Err(e) => TensorData::invalid(e),
            }
        }
        L::Ewadd([a, b]) | L::Ewmul([a, b]) => {
            let ta = ok!(tensor(*a));
            let tb = ok!(tensor(*b));
            if ta.shape != tb.shape {
                return TensorData::invalid(format!(
                    "elementwise op on mismatched shapes {:?} vs {:?}",
                    ta.shape, tb.shape
                ));
            }
            TensorData::Tensor(TensorInfo::new(
                ta.shape,
                ta.weights_only && tb.weights_only,
            ))
        }
        L::Matmul([_act, a, b]) => {
            let ta = ok!(tensor(*a));
            let tb = ok!(tensor(*b));
            let (ra, rb) = (ta.shape.len(), tb.shape.len());
            if ra < 2 || rb < 2 {
                return TensorData::invalid("matmul operands must have rank >= 2");
            }
            let (m, k1) = (ta.shape[ra - 2], ta.shape[ra - 1]);
            let (k2, n) = (tb.shape[rb - 2], tb.shape[rb - 1]);
            if k1 != k2 {
                return TensorData::invalid(format!(
                    "matmul inner dimensions differ: {k1} vs {k2}"
                ));
            }
            // Batch dimensions must be identical (or one side may be 2-D,
            // in which case it is broadcast over the other's batch dims).
            let batch: Vec<i64> = if ra == rb {
                if ta.shape[..ra - 2] != tb.shape[..rb - 2] {
                    return TensorData::invalid("matmul batch dimensions differ");
                }
                ta.shape[..ra - 2].to_vec()
            } else if rb == 2 {
                ta.shape[..ra - 2].to_vec()
            } else if ra == 2 {
                tb.shape[..rb - 2].to_vec()
            } else {
                return TensorData::invalid("matmul rank mismatch");
            };
            let mut shape = batch;
            shape.push(m);
            shape.push(n);
            let rank = shape.len();
            let mut info = TensorInfo::new(shape, ta.weights_only && tb.weights_only);
            // Propagate concat positions through the matmul so a later
            // `split` can recover the halves (paper Table 2, note e): a
            // concat of the RHS along its columns splits the output along
            // its columns; a concat of the LHS along its rows splits the
            // output along its rows.
            if let Some((ax, pos)) = tb.split_at {
                if ax + 1 == rb {
                    info.split_at = Some((rank - 1, pos));
                }
            }
            if info.split_at.is_none() {
                if let Some((ax, pos)) = ta.split_at {
                    if ax + 2 == ra {
                        info.split_at = Some((rank - 2, pos));
                    }
                }
            }
            TensorData::Tensor(info)
        }
        L::Conv([sh, sw, pad, _act, x, w]) => {
            let sh = ok!(scalar(*sh));
            let sw = ok!(scalar(*sw));
            let pad = Padding::from_code(ok!(scalar(*pad)));
            let tx = ok!(tensor(*x));
            let tw = ok!(tensor(*w));
            if tx.shape.len() != 4 || tw.shape.len() != 4 {
                return TensorData::invalid("conv expects NCHW input and OIHW weight");
            }
            let (n, c, h, wd) = (tx.shape[0], tx.shape[1], tx.shape[2], tx.shape[3]);
            let (co, ci, kh, kw) = (tw.shape[0], tw.shape[1], tw.shape[2], tw.shape[3]);
            if ci == 0 || c % ci != 0 {
                return TensorData::invalid(format!(
                    "conv groups invalid: input channels {c} not divisible by weight in-channels {ci}"
                ));
            }
            let groups = c / ci;
            if groups == 0 || co % groups != 0 {
                return TensorData::invalid("conv output channels not divisible by groups");
            }
            let oh = match spatial_out(h, kh, sh, pad) {
                Some(v) => v,
                None => return TensorData::invalid("conv spatial size underflow"),
            };
            let ow = match spatial_out(wd, kw, sw, pad) {
                Some(v) => v,
                None => return TensorData::invalid("conv spatial size underflow"),
            };
            let mut info = TensorInfo::new(vec![n, co, oh, ow], tx.weights_only && tw.weights_only);
            // A concat of the weights along output channels splits the conv
            // output along its channel axis; a concat of the inputs along
            // the batch axis splits the output along the batch axis.
            if let Some((0, pos)) = tw.split_at {
                info.split_at = Some((1, pos));
            } else if let Some((0, pos)) = tx.split_at {
                info.split_at = Some((0, pos));
            }
            TensorData::Tensor(info)
        }
        L::Relu([x]) | L::Tanh([x]) | L::Sigmoid([x]) => {
            let t = ok!(tensor(*x));
            let mut info = TensorInfo::new(t.shape, t.weights_only);
            info.split_at = t.split_at;
            TensorData::Tensor(info)
        }
        L::Poolmax([x, kh, kw, sh, sw, pad, _act]) | L::Poolavg([x, kh, kw, sh, sw, pad, _act]) => {
            let t = ok!(tensor(*x));
            let kh = ok!(scalar(*kh));
            let kw = ok!(scalar(*kw));
            let sh = ok!(scalar(*sh));
            let sw = ok!(scalar(*sw));
            let pad = Padding::from_code(ok!(scalar(*pad)));
            if t.shape.len() != 4 {
                return TensorData::invalid("pooling expects an NCHW input");
            }
            let oh = match spatial_out(t.shape[2], kh, sh, pad) {
                Some(v) => v,
                None => return TensorData::invalid("pool spatial size underflow"),
            };
            let ow = match spatial_out(t.shape[3], kw, sw, pad) {
                Some(v) => v,
                None => return TensorData::invalid("pool spatial size underflow"),
            };
            TensorData::Tensor(TensorInfo::new(
                vec![t.shape[0], t.shape[1], oh, ow],
                t.weights_only,
            ))
        }
        L::Transpose([x, perm]) => {
            let t = ok!(tensor(*x));
            let perm = match decode_permutation(ok!(string(*perm))) {
                Ok(p) => p,
                Err(e) => return TensorData::invalid(e),
            };
            if perm.len() != t.shape.len() {
                return TensorData::invalid("transpose permutation rank mismatch");
            }
            let mut sorted = perm.clone();
            sorted.sort_unstable();
            if sorted != (0..t.shape.len()).collect::<Vec<_>>() {
                return TensorData::invalid("transpose permutation is not a permutation");
            }
            let shape: Vec<i64> = perm.iter().map(|&i| t.shape[i]).collect();
            TensorData::Tensor(TensorInfo::new(shape, t.weights_only))
        }
        L::Enlarge([x, reference]) => {
            let t = ok!(tensor(*x));
            let r = ok!(tensor(*reference));
            if t.shape.len() != 4 || r.shape.len() != 4 {
                return TensorData::invalid("enlarge expects OIHW kernels");
            }
            if r.shape[2] < t.shape[2] || r.shape[3] < t.shape[3] {
                return TensorData::invalid("enlarge reference kernel is smaller than input");
            }
            TensorData::Tensor(TensorInfo::new(
                vec![t.shape[0], t.shape[1], r.shape[2], r.shape[3]],
                t.weights_only && r.weights_only,
            ))
        }
        L::Concat2(_) | L::Concat3(_) | L::Concat4(_) | L::Concat5(_) => {
            let ch = node.children();
            let (axis_id, rest) = (ch[0], &ch[1..]);
            let axis = ok!(scalar(axis_id));
            if axis < 0 {
                return TensorData::invalid("negative concat axis");
            }
            let axis = axis as usize;
            let mut parts = Vec::with_capacity(rest.len());
            for id in rest {
                parts.push(ok!(tensor(*id)));
            }
            let first = &parts[0];
            if axis >= first.shape.len() {
                return TensorData::invalid("concat axis out of range");
            }
            let mut total = 0;
            let mut weights_only = true;
            for p in &parts {
                if p.shape.len() != first.shape.len() {
                    return TensorData::invalid("concat rank mismatch");
                }
                for (d, (&a, &b)) in first.shape.iter().zip(&p.shape).enumerate() {
                    if d != axis && a != b {
                        return TensorData::invalid(format!(
                            "concat non-axis dimension mismatch at dim {d}: {a} vs {b}"
                        ));
                    }
                }
                total += p.shape[axis];
                weights_only &= p.weights_only;
            }
            let mut shape = first.shape.clone();
            shape[axis] = total;
            let mut info = TensorInfo::new(shape, weights_only);
            info.split_at = Some((axis, first.shape[axis]));
            TensorData::Tensor(info)
        }
        L::Split([axis, x]) => {
            let axis = ok!(scalar(*axis));
            if axis < 0 {
                return TensorData::invalid("negative split axis");
            }
            let axis = axis as usize;
            let t = ok!(tensor(*x));
            match t.split_at {
                Some((concat_axis, first_size)) if concat_axis == axis => {
                    let total = t.shape[axis];
                    if first_size <= 0 || first_size >= total {
                        return TensorData::invalid("split position out of range");
                    }
                    let mut s0 = t.shape.clone();
                    let mut s1 = t.shape.clone();
                    s0[axis] = first_size;
                    s1[axis] = total - first_size;
                    TensorData::Tuple(
                        Box::new(TensorInfo::new(s0, t.weights_only)),
                        Box::new(TensorInfo::new(s1, t.weights_only)),
                    )
                }
                _ => TensorData::invalid("split without a matching concat on that axis"),
            }
        }
        L::Split0([x]) => match get(*x) {
            TensorData::Tuple(first, _) => TensorData::Tensor(*first),
            TensorData::Invalid(r) => TensorData::Invalid(r),
            other => TensorData::invalid(format!("split0 expects a tuple, found {other:?}")),
        },
        L::Split1([x]) => match get(*x) {
            TensorData::Tuple(_, second) => TensorData::Tensor(*second),
            TensorData::Invalid(r) => TensorData::Invalid(r),
            other => TensorData::invalid(format!("split1 expects a tuple, found {other:?}")),
        },
        L::Merge([w, count]) => {
            let t = ok!(tensor(*w));
            let count = ok!(scalar(*count));
            if t.shape.len() != 4 || count <= 0 {
                return TensorData::invalid("merge expects an OIHW weight and positive count");
            }
            let mut shape = t.shape.clone();
            shape[1] *= count;
            TensorData::Tensor(TensorInfo::new(shape, t.weights_only))
        }
        L::Reshape([x, shape]) => {
            let t = ok!(tensor(*x));
            let target = match decode_shape(ok!(string(*shape))) {
                Ok(s) => s,
                Err(e) => return TensorData::invalid(e),
            };
            let from: i64 = t.shape.iter().product();
            let to: i64 = target.iter().product();
            if from != to {
                return TensorData::invalid(format!(
                    "reshape element count mismatch: {from} vs {to}"
                ));
            }
            TensorData::Tensor(TensorInfo::new(target, t.weights_only))
        }
        L::Noop([a, b]) => {
            let ta = ok!(tensor(*a));
            let tb = ok!(tensor(*b));
            TensorData::Tensor(TensorInfo::new(vec![], ta.weights_only && tb.weights_only))
        }
    }
}

/// Infers [`TensorData`] for every node of a [`RecExpr`], bottom-up.
pub fn infer_recexpr(expr: &RecExpr<TensorLang>) -> Vec<TensorData> {
    let mut data: Vec<TensorData> = Vec::with_capacity(expr.len());
    for (_, node) in expr.iter() {
        let get = |id: Id| data[usize::from(id)].clone();
        let d = infer(node, &get);
        data.push(d);
    }
    data
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::{encode_identifier, encode_permutation, Activation};
    use tensat_egraph::RecExpr;

    fn data_of(expr: &RecExpr<TensorLang>) -> TensorData {
        infer_recexpr(expr).last().unwrap().clone()
    }

    fn input(expr: &mut RecExpr<TensorLang>, name: &str, shape: &[i64]) -> Id {
        let s = expr.add(TensorLang::Str(encode_identifier(name, shape)));
        expr.add(TensorLang::Input([s]))
    }

    fn weight(expr: &mut RecExpr<TensorLang>, name: &str, shape: &[i64]) -> Id {
        let s = expr.add(TensorLang::Str(encode_identifier(name, shape)));
        expr.add(TensorLang::Weight([s]))
    }

    #[test]
    fn input_and_weight_shapes() {
        let mut e = RecExpr::default();
        input(&mut e, "x", &[8, 128]);
        let d = data_of(&e);
        assert_eq!(d.shape().unwrap(), &[8, 128]);
        assert!(!d.as_tensor().unwrap().weights_only);

        let mut e = RecExpr::default();
        weight(&mut e, "w", &[128, 64]);
        assert!(data_of(&e).as_tensor().unwrap().weights_only);
    }

    #[test]
    fn matmul_shape_and_mismatch() {
        let mut e = RecExpr::default();
        let a = input(&mut e, "a", &[8, 128]);
        let b = weight(&mut e, "b", &[128, 64]);
        let act = e.add(TensorLang::Num(Activation::None.code()));
        e.add(TensorLang::Matmul([act, a, b]));
        assert_eq!(data_of(&e).shape().unwrap(), &[8, 64]);

        let mut e = RecExpr::default();
        let a = input(&mut e, "a", &[8, 100]);
        let b = weight(&mut e, "b", &[128, 64]);
        let act = e.add(TensorLang::Num(0));
        e.add(TensorLang::Matmul([act, a, b]));
        assert!(!data_of(&e).is_valid());
    }

    #[test]
    fn batched_matmul() {
        let mut e = RecExpr::default();
        let a = input(&mut e, "a", &[4, 8, 128]);
        let b = weight(&mut e, "b", &[128, 64]);
        let act = e.add(TensorLang::Num(0));
        e.add(TensorLang::Matmul([act, a, b]));
        assert_eq!(data_of(&e).shape().unwrap(), &[4, 8, 64]);
    }

    #[test]
    fn conv_same_and_valid_padding() {
        let mut e = RecExpr::default();
        let x = input(&mut e, "x", &[1, 64, 56, 56]);
        let w = weight(&mut e, "w", &[128, 64, 3, 3]);
        let one = e.add(TensorLang::Num(1));
        let same = e.add(TensorLang::Num(Padding::Same.code()));
        let act = e.add(TensorLang::Num(0));
        e.add(TensorLang::Conv([one, one, same, act, x, w]));
        assert_eq!(data_of(&e).shape().unwrap(), &[1, 128, 56, 56]);

        let mut e = RecExpr::default();
        let x = input(&mut e, "x", &[1, 64, 56, 56]);
        let w = weight(&mut e, "w", &[128, 64, 3, 3]);
        let two = e.add(TensorLang::Num(2));
        let valid = e.add(TensorLang::Num(Padding::Valid.code()));
        let act = e.add(TensorLang::Num(0));
        e.add(TensorLang::Conv([two, two, valid, act, x, w]));
        assert_eq!(data_of(&e).shape().unwrap(), &[1, 128, 27, 27]);
    }

    #[test]
    fn grouped_conv_shapes() {
        // 32 groups: input 256 channels, weight in-channels 8.
        let mut e = RecExpr::default();
        let x = input(&mut e, "x", &[1, 256, 14, 14]);
        let w = weight(&mut e, "w", &[256, 8, 3, 3]);
        let one = e.add(TensorLang::Num(1));
        let same = e.add(TensorLang::Num(Padding::Same.code()));
        let act = e.add(TensorLang::Num(0));
        e.add(TensorLang::Conv([one, one, same, act, x, w]));
        assert_eq!(data_of(&e).shape().unwrap(), &[1, 256, 14, 14]);

        // Bad grouping: 256 not divisible by 7.
        let mut e = RecExpr::default();
        let x = input(&mut e, "x", &[1, 256, 14, 14]);
        let w = weight(&mut e, "w", &[256, 7, 3, 3]);
        let one = e.add(TensorLang::Num(1));
        let same = e.add(TensorLang::Num(1));
        let act = e.add(TensorLang::Num(0));
        e.add(TensorLang::Conv([one, one, same, act, x, w]));
        assert!(!data_of(&e).is_valid());
    }

    #[test]
    fn concat_then_split_recovers_parts() {
        let mut e = RecExpr::default();
        let a = weight(&mut e, "a", &[128, 64]);
        let b = weight(&mut e, "b", &[128, 32]);
        let one = e.add(TensorLang::Num(1));
        let cat = e.add(TensorLang::Concat2([one, a, b]));
        let split = e.add(TensorLang::Split([one, cat]));
        let s0 = e.add(TensorLang::Split0([split]));
        let data = infer_recexpr(&e);
        assert_eq!(data[usize::from(cat)].shape().unwrap(), &[128, 96]);
        assert!(data[usize::from(cat)].as_tensor().unwrap().weights_only);
        assert_eq!(data[usize::from(s0)].shape().unwrap(), &[128, 64]);
        let s1 = e.add(TensorLang::Split1([split]));
        let data = infer_recexpr(&e);
        assert_eq!(data[usize::from(s1)].shape().unwrap(), &[128, 32]);
    }

    #[test]
    fn split_without_concat_is_invalid() {
        let mut e = RecExpr::default();
        let a = input(&mut e, "a", &[128, 64]);
        let one = e.add(TensorLang::Num(1));
        e.add(TensorLang::Split([one, a]));
        assert!(!data_of(&e).is_valid());
    }

    #[test]
    fn concat_mismatch_is_invalid() {
        let mut e = RecExpr::default();
        let a = weight(&mut e, "a", &[128, 64]);
        let b = weight(&mut e, "b", &[100, 32]);
        let one = e.add(TensorLang::Num(1));
        e.add(TensorLang::Concat2([one, a, b]));
        assert!(!data_of(&e).is_valid());
    }

    #[test]
    fn transpose_and_reshape() {
        let mut e = RecExpr::default();
        let a = input(&mut e, "a", &[8, 128]);
        let perm = e.add(TensorLang::Str(encode_permutation(&[1, 0])));
        e.add(TensorLang::Transpose([a, perm]));
        assert_eq!(data_of(&e).shape().unwrap(), &[128, 8]);

        let mut e = RecExpr::default();
        let a = input(&mut e, "a", &[8, 128]);
        let target = e.add(TensorLang::Str(crate::lang::encode_shape(&[4, 2, 128])));
        e.add(TensorLang::Reshape([a, target]));
        assert_eq!(data_of(&e).shape().unwrap(), &[4, 2, 128]);

        let mut e = RecExpr::default();
        let a = input(&mut e, "a", &[8, 128]);
        let target = e.add(TensorLang::Str(crate::lang::encode_shape(&[4, 100])));
        e.add(TensorLang::Reshape([a, target]));
        assert!(!data_of(&e).is_valid());
    }

    #[test]
    fn pooling_shapes() {
        let mut e = RecExpr::default();
        let x = input(&mut e, "x", &[1, 64, 56, 56]);
        let three = e.add(TensorLang::Num(3));
        let two = e.add(TensorLang::Num(2));
        let valid = e.add(TensorLang::Num(Padding::Valid.code()));
        let act = e.add(TensorLang::Num(0));
        e.add(TensorLang::Poolmax([x, three, three, two, two, valid, act]));
        assert_eq!(data_of(&e).shape().unwrap(), &[1, 64, 27, 27]);
    }

    #[test]
    fn elementwise_requires_equal_shapes() {
        let mut e = RecExpr::default();
        let a = input(&mut e, "a", &[8, 128]);
        let b = input(&mut e, "b", &[8, 128]);
        e.add(TensorLang::Ewadd([a, b]));
        assert_eq!(data_of(&e).shape().unwrap(), &[8, 128]);

        let mut e = RecExpr::default();
        let a = input(&mut e, "a", &[8, 128]);
        let b = input(&mut e, "b", &[8, 64]);
        e.add(TensorLang::Ewadd([a, b]));
        assert!(!data_of(&e).is_valid());
    }

    #[test]
    fn child_data_kinds_cover_every_child_position() {
        // One sample node per operator variant: the kind table must be
        // exactly as long as the child list, or kind-constraint derivation
        // would silently misalign positions.
        let id = Id::from(0usize);
        let samples: Vec<TensorLang> = vec![
            TensorLang::Num(0),
            TensorLang::Str(Symbol::new("s")),
            TensorLang::Input([id]),
            TensorLang::Weight([id]),
            TensorLang::Ewadd([id; 2]),
            TensorLang::Ewmul([id; 2]),
            TensorLang::Matmul([id; 3]),
            TensorLang::Conv([id; 6]),
            TensorLang::Relu([id]),
            TensorLang::Tanh([id]),
            TensorLang::Sigmoid([id]),
            TensorLang::Poolmax([id; 7]),
            TensorLang::Poolavg([id; 7]),
            TensorLang::Transpose([id; 2]),
            TensorLang::Enlarge([id; 2]),
            TensorLang::Concat2([id; 3]),
            TensorLang::Concat3([id; 4]),
            TensorLang::Concat4([id; 5]),
            TensorLang::Concat5([id; 6]),
            TensorLang::Split([id; 2]),
            TensorLang::Split0([id]),
            TensorLang::Split1([id]),
            TensorLang::Merge([id; 2]),
            TensorLang::Reshape([id; 2]),
            TensorLang::Noop([id; 2]),
        ];
        for node in samples {
            assert_eq!(
                child_data_kinds(&node).len(),
                node.children().len(),
                "kind table misaligned for {node:?}"
            );
        }

        // Spot-check against infer: a scalar in matmul's tensor position is
        // exactly what the kind table says is inadmissible.
        let mut e = RecExpr::default();
        let n = e.add(TensorLang::Num(3));
        let b = weight(&mut e, "b", &[128, 64]);
        let act = e.add(TensorLang::Num(0));
        e.add(TensorLang::Matmul([act, n, b]));
        assert!(!data_of(&e).is_valid());
        assert_eq!(
            child_data_kinds(&TensorLang::Matmul([act, n, b]))[1],
            DataKind::Tensor
        );
    }

    #[test]
    fn enlarge_pads_spatial_dims() {
        let mut e = RecExpr::default();
        let w = weight(&mut e, "w", &[64, 64, 1, 1]);
        let r = weight(&mut e, "r", &[64, 64, 3, 3]);
        e.add(TensorLang::Enlarge([w, r]));
        assert_eq!(data_of(&e).shape().unwrap(), &[64, 64, 3, 3]);
    }
}
