//! A symbolic shape domain for static rule verification.
//!
//! [`infer`](crate::infer) computes *concrete* [`TensorData`](crate::TensorData) bottom-up; the
//! types here mirror it over shapes whose dimensions are **linear
//! expressions in named dimension variables** ([`SymDim`]). A rewrite-rule
//! verifier instantiates each pattern variable with a symbolic value (fresh
//! dims at a chosen rank), runs [`sym_infer`] over both sides of the rule,
//! and lets a [`DimEnv`] collect the equalities the operators require. If
//! the two output shapes resolve to syntactically identical expressions,
//! the rule is shape-preserving for *every* dimension valuation at that
//! rank configuration — infinitely many concrete shapes at once, which is
//! what makes this a static analysis rather than a test.
//!
//! The domain is deliberately partial: operators whose output shape is not
//! a linear function of the input dims (convolution spatial arithmetic,
//! reshape element counts, ...) report [`SymError::Undecidable`] and the
//! caller falls back to checking concrete bindings (see `tensat-verify`).
//! Two other simplifications are sound for that use:
//!
//! * `weights_only` is not tracked — it never affects validity or shapes.
//! * Range side conditions over symbolic dims (e.g. `split` requiring
//!   `0 < pos < total`) are assumed satisfiable. This can only make the
//!   verifier consider *more* bindings than concretely exist, and every
//!   counterexample it derives is re-confirmed with the concrete
//!   [`infer`](crate::infer) before being reported.

use crate::lang::{decode_identifier, decode_permutation, TensorLang};
use std::collections::BTreeMap;
use tensat_egraph::{Id, Language, Symbol};

/// A dimension as a linear expression `konst + Σ coeffᵢ·varᵢ` over named
/// dimension variables. Kept in a normal form (no zero coefficients, terms
/// sorted by variable id), so structural equality is semantic equality of
/// the linear expressions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymDim {
    konst: i64,
    terms: BTreeMap<u32, i64>,
}

impl SymDim {
    /// A constant dimension.
    pub fn constant(v: i64) -> Self {
        SymDim {
            konst: v,
            terms: BTreeMap::new(),
        }
    }

    /// The dimension variable `v` (coefficient 1, no constant part).
    pub fn var(v: u32) -> Self {
        SymDim {
            konst: 0,
            terms: [(v, 1)].into(),
        }
    }

    /// True if this is the zero expression.
    pub fn is_zero(&self) -> bool {
        self.konst == 0 && self.terms.is_empty()
    }

    /// The sum of two dimension expressions.
    pub fn add(&self, other: &SymDim) -> SymDim {
        let mut out = self.clone();
        out.konst += other.konst;
        for (&v, &c) in &other.terms {
            let e = out.terms.entry(v).or_insert(0);
            *e += c;
            if *e == 0 {
                out.terms.remove(&v);
            }
        }
        out
    }

    /// The difference of two dimension expressions.
    pub fn sub(&self, other: &SymDim) -> SymDim {
        self.add(&other.scale(-1))
    }

    /// The expression scaled by an integer constant.
    pub fn scale(&self, k: i64) -> SymDim {
        if k == 0 {
            return SymDim::constant(0);
        }
        SymDim {
            konst: self.konst * k,
            terms: self.terms.iter().map(|(&v, &c)| (v, c * k)).collect(),
        }
    }

    /// The variable ids occurring in this expression.
    pub fn vars(&self) -> impl Iterator<Item = u32> + '_ {
        self.terms.keys().copied()
    }
}

impl std::fmt::Display for SymDim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut first = true;
        if self.konst != 0 || self.terms.is_empty() {
            write!(f, "{}", self.konst)?;
            first = false;
        }
        for (v, c) in &self.terms {
            if !first {
                write!(f, "{}", if *c < 0 { " - " } else { " + " })?;
            } else if *c < 0 {
                write!(f, "-")?;
            }
            first = false;
            if c.abs() != 1 {
                write!(f, "{}·", c.abs())?;
            }
            write!(f, "d{v}")?;
        }
        Ok(())
    }
}

/// Symbolic tensor metadata: the [`SymDim`] shape and the concat history
/// that [`infer`](crate::infer) tracks for `split` (`weights_only` is
/// irrelevant to validity and shapes, so the symbolic domain drops it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymTensor {
    /// The symbolic shape.
    pub shape: Vec<SymDim>,
    /// Concat axis and first-part size, if the tensor was most recently
    /// produced by a concatenation (mirrors
    /// [`TensorInfo::split_at`](crate::TensorInfo)).
    pub split_at: Option<(usize, SymDim)>,
}

impl SymTensor {
    /// A tensor with the given shape and no concat history.
    pub fn new(shape: Vec<SymDim>) -> Self {
        SymTensor {
            shape,
            split_at: None,
        }
    }
}

/// A symbolic analysis value — the abstract counterpart of
/// [`TensorData`](crate::TensorData). Parameter leaves may be *known*
/// (`Scalar`/`Str`, from pattern literals) or *opaque*
/// (`ScalarVar`/`StrVar`, from pattern variables); consumers that need the
/// actual parameter value report [`SymError::Undecidable`] on the opaque
/// forms. There is no `Invalid` variant: inadmissibility surfaces as
/// [`SymError::Contradiction`] instead, so "no valuation is well-typed" is
/// distinguishable from "well-typed under these constraints".
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SymValue {
    /// A known integer parameter (a `Num` literal in the pattern).
    Scalar(i64),
    /// An opaque integer parameter (a pattern variable of scalar kind).
    ScalarVar(u32),
    /// A known string parameter (a `Str` literal in the pattern).
    Str(Symbol),
    /// An opaque string parameter (a pattern variable of string kind).
    StrVar(u32),
    /// A tensor value.
    Tensor(SymTensor),
    /// A tensor tuple (the result of `split`).
    Tuple(Box<SymTensor>, Box<SymTensor>),
}

impl SymValue {
    /// The tensor if this is a tensor value.
    pub fn as_tensor(&self) -> Option<&SymTensor> {
        match self {
            SymValue::Tensor(t) => Some(t),
            _ => None,
        }
    }
}

/// Why symbolic inference could not produce a value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SymError {
    /// No dimension valuation makes the interpreted nodes well-typed under
    /// the constraints collected so far (the concrete
    /// [`infer`](crate::infer) would return `Invalid` for every one).
    Contradiction(String),
    /// The domain cannot express the operator's semantics symbolically
    /// (non-linear shape arithmetic, or an opaque parameter in a
    /// shape-determining position). The caller must fall back to concrete
    /// checking.
    Undecidable(String),
}

impl std::fmt::Display for SymError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SymError::Contradiction(m) => write!(f, "contradiction: {m}"),
            SymError::Undecidable(m) => write!(f, "undecidable: {m}"),
        }
    }
}

/// A unification environment over dimension variables: fresh-variable
/// supply plus the substitution produced by the equality constraints the
/// interpreted operators require.
#[derive(Debug, Clone, Default)]
pub struct DimEnv {
    bindings: BTreeMap<u32, SymDim>,
    next: u32,
}

impl DimEnv {
    /// An empty environment.
    pub fn new() -> Self {
        DimEnv::default()
    }

    /// A fresh, unconstrained dimension variable.
    pub fn fresh(&mut self) -> SymDim {
        let v = self.next;
        self.next += 1;
        SymDim::var(v)
    }

    /// The expression with every bound variable substituted out.
    ///
    /// Bindings form no cycles (unification always solves for a variable
    /// in terms of *other* variables), so recursive expansion terminates.
    pub fn resolve(&self, dim: &SymDim) -> SymDim {
        let mut out = SymDim::constant(dim.konst);
        for (&v, &c) in &dim.terms {
            match self.bindings.get(&v) {
                Some(expr) => out = out.add(&self.resolve(expr).scale(c)),
                None => out = out.add(&SymDim::var(v).scale(c)),
            }
        }
        out
    }

    /// Requires `a == b`, extending the substitution when the residual
    /// equation can be solved for a unit-coefficient variable.
    ///
    /// # Errors
    ///
    /// [`SymError::Contradiction`] when the resolved difference is a
    /// non-zero constant; [`SymError::Undecidable`] when the residual
    /// equation has no unit-coefficient variable to solve for.
    pub fn unify(&mut self, a: &SymDim, b: &SymDim) -> Result<(), SymError> {
        let diff = self.resolve(a).sub(&self.resolve(b));
        if diff.is_zero() {
            return Ok(());
        }
        if diff.terms.is_empty() {
            return Err(SymError::Contradiction(format!(
                "dimension mismatch: {} ≠ {}",
                self.resolve(a),
                self.resolve(b)
            )));
        }
        // Solve `diff = 0` for some variable with coefficient ±1.
        match diff.terms.iter().find(|(_, c)| c.abs() == 1) {
            Some((&v, &c)) => {
                let mut rest = diff.clone();
                rest.terms.remove(&v);
                // 0 = rest + c·v  ⇒  v = -rest/c = rest·(-1/c).
                self.bindings.insert(v, rest.scale(-c));
                Ok(())
            }
            None => Err(SymError::Undecidable(format!(
                "cannot solve {} = {} over the integers",
                self.resolve(a),
                self.resolve(b)
            ))),
        }
    }

    /// The number of variable bindings the collected equality constraints
    /// have produced so far. A verifier compares counts before and after
    /// interpreting a pattern to detect constraints that pattern *added*:
    /// a rule's target demanding equalities its sources did not already
    /// establish means the target is invalid for generic bindings.
    pub fn constraint_count(&self) -> usize {
        self.bindings.len()
    }

    /// Evaluates the expression under a valuation of the *free* (unbound)
    /// variables, resolving bound variables first.
    pub fn evaluate(&self, dim: &SymDim, valuation: &dyn Fn(u32) -> i64) -> i64 {
        let r = self.resolve(dim);
        r.konst + r.terms.iter().map(|(&v, &c)| c * valuation(v)).sum::<i64>()
    }
}

/// Symbolically infers the output of a single node, mirroring
/// [`infer`](crate::infer) case by case over the [`SymValue`] domain.
/// Equalities the operator requires (matching elementwise shapes, matmul
/// inner dimensions, concat non-axis dimensions, ...) are pushed into
/// `env`; kind violations and unsatisfiable equalities come back as
/// [`SymError::Contradiction`], semantics outside the linear domain as
/// [`SymError::Undecidable`].
///
/// # Errors
///
/// See [`SymError`] for the two failure modes.
pub fn sym_infer(
    node: &TensorLang,
    get: &dyn Fn(Id) -> SymValue,
    env: &mut DimEnv,
) -> Result<SymValue, SymError> {
    use TensorLang as L;

    let tensor = |id: Id| -> Result<SymTensor, SymError> {
        match get(id) {
            SymValue::Tensor(t) => Ok(t),
            other => Err(SymError::Contradiction(format!(
                "expected tensor child, found {other:?}"
            ))),
        }
    };
    // A scalar parameter whose concrete value shape inference depends on.
    let scalar_known = |id: Id| -> Result<i64, SymError> {
        match get(id) {
            SymValue::Scalar(v) => Ok(v),
            SymValue::ScalarVar(_) => Err(SymError::Undecidable(
                "opaque integer parameter in a shape-determining position".into(),
            )),
            other => Err(SymError::Contradiction(format!(
                "expected integer child, found {other:?}"
            ))),
        }
    };
    let string_known = |id: Id| -> Result<Symbol, SymError> {
        match get(id) {
            SymValue::Str(s) => Ok(s),
            SymValue::StrVar(_) => Err(SymError::Undecidable(
                "opaque string parameter in a shape-determining position".into(),
            )),
            other => Err(SymError::Contradiction(format!(
                "expected string child, found {other:?}"
            ))),
        }
    };
    // Positions `infer` ignores apart from validity (DataKind::Any): any
    // symbolic value is admissible, nothing to check.
    let any = |_id: Id| {};

    match node {
        L::Num(v) => Ok(SymValue::Scalar(*v)),
        L::Str(s) => Ok(SymValue::Str(*s)),
        L::Input([id]) | L::Weight([id]) => {
            let sym = string_known(*id)?;
            match decode_identifier(sym) {
                Ok((_, shape)) => Ok(SymValue::Tensor(SymTensor::new(
                    shape.into_iter().map(SymDim::constant).collect(),
                ))),
                Err(e) => Err(SymError::Contradiction(e)),
            }
        }
        L::Ewadd([a, b]) | L::Ewmul([a, b]) => {
            let ta = tensor(*a)?;
            let tb = tensor(*b)?;
            if ta.shape.len() != tb.shape.len() {
                return Err(SymError::Contradiction(
                    "elementwise op on mismatched ranks".into(),
                ));
            }
            for (x, y) in ta.shape.iter().zip(&tb.shape) {
                env.unify(x, y)?;
            }
            Ok(SymValue::Tensor(SymTensor::new(ta.shape)))
        }
        L::Matmul([act, a, b]) => {
            any(*act);
            let ta = tensor(*a)?;
            let tb = tensor(*b)?;
            let (ra, rb) = (ta.shape.len(), tb.shape.len());
            if ra < 2 || rb < 2 {
                return Err(SymError::Contradiction(
                    "matmul operands must have rank >= 2".into(),
                ));
            }
            let (m, k1) = (&ta.shape[ra - 2], &ta.shape[ra - 1]);
            let (k2, n) = (&tb.shape[rb - 2], &tb.shape[rb - 1]);
            env.unify(k1, k2)?;
            let batch: Vec<SymDim> = if ra == rb {
                for (x, y) in ta.shape[..ra - 2].iter().zip(&tb.shape[..rb - 2]) {
                    env.unify(x, y)?;
                }
                ta.shape[..ra - 2].to_vec()
            } else if rb == 2 {
                ta.shape[..ra - 2].to_vec()
            } else if ra == 2 {
                tb.shape[..rb - 2].to_vec()
            } else {
                return Err(SymError::Contradiction("matmul rank mismatch".into()));
            };
            let mut shape = batch;
            shape.push(m.clone());
            shape.push(n.clone());
            let rank = shape.len();
            let mut out = SymTensor::new(shape);
            // Concat-position propagation, exactly as in `infer`.
            if let Some((ax, pos)) = &tb.split_at {
                if ax + 1 == rb {
                    out.split_at = Some((rank - 1, pos.clone()));
                }
            }
            if out.split_at.is_none() {
                if let Some((ax, pos)) = &ta.split_at {
                    if ax + 2 == ra {
                        out.split_at = Some((rank - 2, pos.clone()));
                    }
                }
            }
            Ok(SymValue::Tensor(out))
        }
        L::Relu([x]) | L::Tanh([x]) | L::Sigmoid([x]) => {
            let t = tensor(*x)?;
            Ok(SymValue::Tensor(SymTensor {
                shape: t.shape,
                split_at: t.split_at,
            }))
        }
        L::Transpose([x, perm]) => {
            let t = tensor(*x)?;
            let perm = decode_permutation(string_known(*perm)?).map_err(SymError::Contradiction)?;
            if perm.len() != t.shape.len() {
                return Err(SymError::Contradiction(
                    "transpose permutation rank mismatch".into(),
                ));
            }
            let mut sorted = perm.clone();
            sorted.sort_unstable();
            if sorted != (0..t.shape.len()).collect::<Vec<_>>() {
                return Err(SymError::Contradiction(
                    "transpose permutation is not a permutation".into(),
                ));
            }
            let shape: Vec<SymDim> = perm.iter().map(|&i| t.shape[i].clone()).collect();
            Ok(SymValue::Tensor(SymTensor::new(shape)))
        }
        L::Concat2(_) | L::Concat3(_) | L::Concat4(_) | L::Concat5(_) => {
            let ch = node.children();
            let axis = scalar_known(ch[0])?;
            if axis < 0 {
                return Err(SymError::Contradiction("negative concat axis".into()));
            }
            let axis = axis as usize;
            let mut parts = Vec::with_capacity(ch.len() - 1);
            for id in &ch[1..] {
                parts.push(tensor(*id)?);
            }
            let first = parts[0].clone();
            if axis >= first.shape.len() {
                return Err(SymError::Contradiction("concat axis out of range".into()));
            }
            let mut total = SymDim::constant(0);
            for p in &parts {
                if p.shape.len() != first.shape.len() {
                    return Err(SymError::Contradiction("concat rank mismatch".into()));
                }
                for (d, (a, b)) in first.shape.iter().zip(&p.shape).enumerate() {
                    if d != axis {
                        env.unify(a, b)?;
                    }
                }
                total = total.add(&p.shape[axis]);
            }
            let mut shape = first.shape.clone();
            shape[axis] = total;
            let mut out = SymTensor::new(shape);
            out.split_at = Some((axis, first.shape[axis].clone()));
            Ok(SymValue::Tensor(out))
        }
        L::Split([axis, x]) => {
            let axis = scalar_known(*axis)?;
            if axis < 0 {
                return Err(SymError::Contradiction("negative split axis".into()));
            }
            let axis = axis as usize;
            let t = tensor(*x)?;
            match &t.split_at {
                Some((concat_axis, first_size)) if *concat_axis == axis => {
                    // The range condition 0 < first < total is assumed
                    // satisfiable (see the module docs); over the positive
                    // valuations the verifier uses it always holds for
                    // concat-produced positions.
                    let total = &t.shape[axis];
                    let mut s0 = t.shape.clone();
                    let mut s1 = t.shape.clone();
                    s0[axis] = first_size.clone();
                    s1[axis] = total.sub(first_size);
                    Ok(SymValue::Tuple(
                        Box::new(SymTensor::new(s0)),
                        Box::new(SymTensor::new(s1)),
                    ))
                }
                _ => Err(SymError::Contradiction(
                    "split without a matching concat on that axis".into(),
                )),
            }
        }
        L::Split0([x]) => match get(*x) {
            SymValue::Tuple(first, _) => Ok(SymValue::Tensor(*first)),
            other => Err(SymError::Contradiction(format!(
                "split0 expects a tuple, found {other:?}"
            ))),
        },
        L::Split1([x]) => match get(*x) {
            SymValue::Tuple(_, second) => Ok(SymValue::Tensor(*second)),
            other => Err(SymError::Contradiction(format!(
                "split1 expects a tuple, found {other:?}"
            ))),
        },
        L::Noop([a, b]) => {
            let _ = tensor(*a)?;
            let _ = tensor(*b)?;
            Ok(SymValue::Tensor(SymTensor::new(vec![])))
        }
        // Outside the linear domain: convolution and pooling do strided
        // spatial arithmetic, reshape compares element products, merge
        // multiplies a dimension by a parameter, and enlarge takes spatial
        // maxima. The verifier falls back to concrete bindings for rules
        // that mention these.
        L::Conv(_)
        | L::Poolmax(_)
        | L::Poolavg(_)
        | L::Reshape(_)
        | L::Merge(_)
        | L::Enlarge(_) => Err(SymError::Undecidable(format!(
            "`{}` has non-linear shape semantics",
            node.op_name()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::encode_permutation;

    #[test]
    fn linear_arithmetic_normalizes() {
        let a = SymDim::var(0);
        let b = SymDim::var(1);
        let e1 = a.add(&b).add(&SymDim::constant(3));
        let e2 = b.add(&SymDim::constant(3)).add(&a);
        assert_eq!(e1, e2);
        assert!(a.sub(&a).is_zero());
        assert_eq!(a.add(&a), a.scale(2));
        assert_eq!(e1.sub(&b).sub(&SymDim::constant(3)), a);
    }

    #[test]
    fn unify_solves_and_contradicts() {
        let mut env = DimEnv::new();
        let a = env.fresh();
        let b = env.fresh();
        // a + 2 == b  ⇒  resolvable.
        env.unify(&a.add(&SymDim::constant(2)), &b).unwrap();
        assert_eq!(env.resolve(&b), env.resolve(&a).add(&SymDim::constant(2)));
        // Now a + 2 == a + 5 must contradict.
        let err = env
            .unify(&a.add(&SymDim::constant(2)), &a.add(&SymDim::constant(5)))
            .unwrap_err();
        assert!(matches!(err, SymError::Contradiction(_)));
        // 2a == 3 over the integers with no unit coefficient: undecidable.
        let mut env = DimEnv::new();
        let a = env.fresh();
        let err = env.unify(&a.scale(2), &SymDim::constant(3)).unwrap_err();
        assert!(matches!(err, SymError::Undecidable(_)));
    }

    #[test]
    fn evaluate_uses_valuation_for_free_vars() {
        let mut env = DimEnv::new();
        let a = env.fresh();
        let b = env.fresh();
        env.unify(&a, &b.add(&SymDim::constant(4))).unwrap();
        // a is bound to b + 4; valuation only supplies b.
        let v = env.evaluate(&a, &|_| 7);
        assert_eq!(v, 11);
    }

    #[test]
    fn sym_matmul_unifies_inner_dims() {
        let mut env = DimEnv::new();
        let (m, k1, k2, n) = (env.fresh(), env.fresh(), env.fresh(), env.fresh());
        let a = SymValue::Tensor(SymTensor::new(vec![m.clone(), k1.clone()]));
        let b = SymValue::Tensor(SymTensor::new(vec![k2.clone(), n.clone()]));
        let act = SymValue::Scalar(0);
        let vals = [act, a, b];
        let get = |id: Id| vals[usize::from(id)].clone();
        let node = TensorLang::Matmul([Id::from(0usize), Id::from(1usize), Id::from(2usize)]);
        let out = sym_infer(&node, &get, &mut env).unwrap();
        let t = out.as_tensor().unwrap();
        assert_eq!(env.resolve(&t.shape[0]), env.resolve(&m));
        assert_eq!(env.resolve(&t.shape[1]), env.resolve(&n));
        // The inner dims were unified.
        assert_eq!(env.resolve(&k1), env.resolve(&k2));
    }

    #[test]
    fn sym_concat_sums_axis_and_records_split() {
        let mut env = DimEnv::new();
        let (r, c1, c2) = (env.fresh(), env.fresh(), env.fresh());
        let w1 = SymValue::Tensor(SymTensor::new(vec![r.clone(), c1.clone()]));
        let w2 = SymValue::Tensor(SymTensor::new(vec![r.clone(), c2.clone()]));
        let vals = [SymValue::Scalar(1), w1, w2];
        let get = |id: Id| vals[usize::from(id)].clone();
        let node = TensorLang::Concat2([Id::from(0usize), Id::from(1usize), Id::from(2usize)]);
        let out = sym_infer(&node, &get, &mut env).unwrap();
        let t = out.as_tensor().unwrap();
        assert_eq!(t.shape[1], c1.add(&c2));
        assert_eq!(t.split_at, Some((1, c1.clone())));
        // Splitting it back recovers both parts.
        let vals2 = [SymValue::Scalar(1), out];
        let get2 = |id: Id| vals2[usize::from(id)].clone();
        let split = TensorLang::Split([Id::from(0usize), Id::from(1usize)]);
        let tup = sym_infer(&split, &get2, &mut env).unwrap();
        match tup {
            SymValue::Tuple(s0, s1) => {
                assert_eq!(env.resolve(&s0.shape[1]), env.resolve(&c1));
                assert_eq!(env.resolve(&s1.shape[1]), env.resolve(&c2));
            }
            other => panic!("expected tuple, got {other:?}"),
        }
    }

    #[test]
    fn sym_transpose_requires_known_permutation() {
        let mut env = DimEnv::new();
        let (a, b) = (env.fresh(), env.fresh());
        let x = SymValue::Tensor(SymTensor::new(vec![a.clone(), b.clone()]));
        let perm = SymValue::Str(encode_permutation(&[1, 0]));
        let vals = [x.clone(), perm];
        let get = |id: Id| vals[usize::from(id)].clone();
        let node = TensorLang::Transpose([Id::from(0usize), Id::from(1usize)]);
        let out = sym_infer(&node, &get, &mut env).unwrap();
        assert_eq!(out.as_tensor().unwrap().shape, vec![b, a]);

        let vals = [x, SymValue::StrVar(0)];
        let get = |id: Id| vals[usize::from(id)].clone();
        assert!(matches!(
            sym_infer(&node, &get, &mut env),
            Err(SymError::Undecidable(_))
        ));
    }

    #[test]
    fn non_linear_operators_are_undecidable() {
        let mut env = DimEnv::new();
        let id = Id::from(0usize);
        for node in [
            TensorLang::Conv([id; 6]),
            TensorLang::Poolmax([id; 7]),
            TensorLang::Reshape([id; 2]),
            TensorLang::Merge([id; 2]),
            TensorLang::Enlarge([id; 2]),
        ] {
            let get = |_: Id| SymValue::Scalar(0);
            assert!(matches!(
                sym_infer(&node, &get, &mut env),
                Err(SymError::Undecidable(_))
            ));
        }
    }
}
