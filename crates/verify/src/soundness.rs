//! Rule soundness analysis: does the RHS preserve validity and output
//! shape for every binding the LHS can produce?
//!
//! Two cooperating engines answer this:
//!
//! 1. A **symbolic prover** over [`tensat_ir::symbolic`]: each tensor
//!    variable is instantiated at every rank in 2–4 (with and without a
//!    concat mark on each axis) with *fresh symbolic dimensions*, each
//!    scalar-kind variable at each small parameter value, and both sides
//!    of the rule are abstract-interpreted in a shared [`DimEnv`]. If the
//!    resolved root shapes agree in every non-vacuous configuration, the
//!    rule is shape-preserving for **all** concrete dimension sizes at
//!    those ranks. When they disagree, the prover instantiates the free
//!    dimensions with concrete values and re-checks the binding with the
//!    concrete [`tensat_ir::infer`] — a reported counterexample is always
//!    a real, confirmed binding, never a symbolic artifact.
//! 2. An **enumeration fallback** over the pools in [`crate::universe`],
//!    for rules the symbolic domain cannot express (convolutions, opaque
//!    permutations).
//!
//! Divergence splits into two severities. A *condition-visible* divergence
//! (both roots are tensors with different shapes) is blocked at runtime by
//! the standard shape-checking condition, so for a conditional rule it is
//! only a warning — the rule pays for dead match enumeration but stays
//! sound. A *condition-blind* divergence (the root's data **kind** or
//! parameter value changes) slips through `shape_check`'s tensor-only
//! comparison and is always an error.

use crate::universe::{bindings_visited, for_each_binding, pool_for_kinds};
use crate::{Diagnostic, RuleSpec, Severity};
use std::collections::BTreeSet;
use tensat_egraph::{ENodeOrVar, Pattern, Var};
use tensat_ir::{
    sym_infer, DimEnv, SymDim, SymError, SymTensor, SymValue, TensorData, TensorInfo, TensorLang,
};
use tensat_rules::pattern_data_with;

/// Hard ceiling on enumerated concrete bindings per rule; beyond it the
/// product is deterministically stride-sampled (and the report says so).
const BINDING_CAP: u64 = 1 << 21;

/// Ceiling on symbolic rank/split configurations per rule; larger rules
/// fall back to enumeration.
const CONFIG_CAP: u64 = 1 << 17;

/// A concrete, [`tensat_ir::infer`]-confirmed binding demonstrating a
/// soundness defect (or, for `Live`, witnessing that the rule can fire).
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// The variable bindings.
    pub bindings: Vec<(Var, TensorData)>,
    /// Which source/target pair diverges (always 0 for single rules).
    pub pair: usize,
    /// The inferred root data of the source pattern.
    pub lhs_root: TensorData,
    /// The inferred root data of the target pattern.
    pub rhs_root: TensorData,
}

/// Formats [`TensorData`] compactly for reports.
pub(crate) fn fmt_data(d: &TensorData) -> String {
    match d {
        TensorData::Invalid(r) => format!("invalid({r})"),
        TensorData::Scalar(v) => v.to_string(),
        TensorData::Str(s) => format!("\"{s}\""),
        TensorData::Tensor(t) => fmt_info(t),
        TensorData::Tuple(a, b) => format!("tuple({}, {})", fmt_info(a), fmt_info(b)),
    }
}

fn fmt_info(t: &TensorInfo) -> String {
    let dims: Vec<String> = t.shape.iter().map(|d| d.to_string()).collect();
    match t.split_at {
        Some((ax, pos)) => format!("tensor[{}]@split({ax},{pos})", dims.join(", ")),
        None => format!("tensor[{}]", dims.join(", ")),
    }
}

impl std::fmt::Display for Counterexample {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let binds: Vec<String> = self
            .bindings
            .iter()
            .map(|(v, d)| format!("{v} = {}", fmt_data(d)))
            .collect();
        write!(
            f,
            "{}; LHS infers {} but RHS infers {} (pattern pair {})",
            binds.join(", "),
            fmt_data(&self.lhs_root),
            fmt_data(&self.rhs_root),
            self.pair
        )
    }
}

/// How a fireable binding relates the two sides.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PairVerdict {
    /// RHS reproduces the LHS root exactly (shape for tensors).
    Live,
    /// Tensor roots with different shapes — the shape condition sees and
    /// blocks this at runtime.
    Divergent,
    /// Kind or parameter-value change at the root — invisible to the
    /// shape condition.
    Blind,
}

fn compare_infos(a: &TensorInfo, b: &TensorInfo) -> bool {
    a.shape == b.shape
}

fn compare_roots(lhs: &TensorData, rhs: &TensorData) -> PairVerdict {
    use TensorData as D;
    match (lhs, rhs) {
        (D::Tensor(a), D::Tensor(b)) => {
            if compare_infos(a, b) {
                PairVerdict::Live
            } else {
                PairVerdict::Divergent
            }
        }
        (D::Tuple(a0, a1), D::Tuple(b0, b1)) => {
            if compare_infos(a0, b0) && compare_infos(a1, b1) {
                PairVerdict::Live
            } else {
                PairVerdict::Blind
            }
        }
        (D::Scalar(a), D::Scalar(b)) if a == b => PairVerdict::Live,
        (D::Str(a), D::Str(b)) if a == b => PairVerdict::Live,
        _ => PairVerdict::Blind,
    }
}

/// Aggregated soundness facts, produced by either engine.
#[derive(Debug, Default)]
struct Outcome {
    live: u64,
    divergent: u64,
    blind: u64,
    blocked: u64,
    live_witness: Option<Vec<(Var, TensorData)>>,
    divergent_example: Option<Counterexample>,
    blind_example: Option<Counterexample>,
    blocked_example: Option<(Vec<(Var, TensorData)>, String)>,
    method: String,
}

// ---------------------------------------------------------------------------
// Concrete evaluation (shared by enumeration and counterexample confirmation)
// ---------------------------------------------------------------------------

fn lookup_in<'a>(bindings: &'a [(Var, TensorData)]) -> impl Fn(Var) -> Option<TensorData> + 'a {
    move |v| {
        bindings
            .iter()
            .find(|(u, _)| *u == v)
            .map(|(_, d)| d.clone())
    }
}

struct ConcreteEval {
    sources_valid: bool,
    targets_valid: bool,
    first_invalid: Option<String>,
    /// Per pair: (source root, target root). Only meaningful when both
    /// sides are fully valid.
    roots: Vec<(TensorData, TensorData)>,
}

fn eval_concrete(spec: &RuleSpec, bindings: &[(Var, TensorData)]) -> ConcreteEval {
    let lookup = lookup_in(bindings);
    let mut src_roots = Vec::with_capacity(spec.sources.len());
    let mut sources_valid = true;
    for p in &spec.sources {
        let data = pattern_data_with(p, &lookup);
        if !data.iter().all(|d| d.is_valid()) {
            sources_valid = false;
            break;
        }
        src_roots.push(data.last().expect("patterns are non-empty").clone());
    }
    if !sources_valid {
        return ConcreteEval {
            sources_valid,
            targets_valid: false,
            first_invalid: None,
            roots: vec![],
        };
    }
    let mut targets_valid = true;
    let mut first_invalid = None;
    let mut roots = Vec::with_capacity(spec.targets.len());
    for (i, p) in spec.targets.iter().enumerate() {
        let data = pattern_data_with(p, &lookup);
        if let Some(bad) = data.iter().find(|d| !d.is_valid()) {
            targets_valid = false;
            if let TensorData::Invalid(r) = bad {
                first_invalid = Some(r.clone());
            }
            break;
        }
        roots.push((
            src_roots[i].clone(),
            data.last().expect("patterns are non-empty").clone(),
        ));
    }
    ConcreteEval {
        sources_valid,
        targets_valid,
        first_invalid,
        roots,
    }
}

// ---------------------------------------------------------------------------
// Symbolic prover
// ---------------------------------------------------------------------------

/// One instantiation choice for a variable (materialized per config with
/// fresh dims).
#[derive(Debug, Clone)]
enum VarOption {
    /// A tensor of the given rank, optionally carrying a concat mark on
    /// the given axis (with a fresh first-part size).
    Tensor {
        rank: usize,
        split_axis: Option<usize>,
    },
    /// A concrete scalar parameter value.
    ScalarConst(i64),
    /// An opaque value for a variable whose occurrences never inspect it
    /// (kind-`Any` positions only).
    Opaque,
}

fn contains_nonlinear_op(p: &Pattern<TensorLang>) -> bool {
    p.ast.iter().any(|(_, node)| {
        matches!(
            node,
            ENodeOrVar::ENode(
                TensorLang::Conv(_)
                    | TensorLang::Poolmax(_)
                    | TensorLang::Poolavg(_)
                    | TensorLang::Reshape(_)
                    | TensorLang::Merge(_)
                    | TensorLang::Enlarge(_)
            )
        )
    })
}

fn sym_eval_pattern(
    p: &Pattern<TensorLang>,
    assign: &[(Var, SymValue)],
    env: &mut DimEnv,
) -> Result<SymValue, SymError> {
    let mut vals: Vec<SymValue> = Vec::with_capacity(p.ast.len());
    for (_, node) in p.ast.iter() {
        let v = match node {
            ENodeOrVar::Var(var) => assign
                .iter()
                .find(|(u, _)| u == var)
                .map(|(_, s)| s.clone())
                .expect("every pattern variable is assigned"),
            ENodeOrVar::ENode(n) => {
                let get = |id: tensat_egraph::Id| vals[usize::from(id)].clone();
                sym_infer(n, &get, env)?
            }
        };
        vals.push(v);
    }
    Ok(vals.pop().expect("patterns are non-empty"))
}

fn compare_sym(env: &DimEnv, lhs: &SymValue, rhs: &SymValue) -> Option<PairVerdict> {
    let tensors_eq = |a: &SymTensor, b: &SymTensor| -> bool {
        a.shape.len() == b.shape.len()
            && a.shape
                .iter()
                .zip(&b.shape)
                .all(|(x, y)| env.resolve(x) == env.resolve(y))
    };
    use SymValue as S;
    Some(match (lhs, rhs) {
        (S::Tensor(a), S::Tensor(b)) => {
            if tensors_eq(a, b) {
                PairVerdict::Live
            } else {
                PairVerdict::Divergent
            }
        }
        (S::Tuple(a0, a1), S::Tuple(b0, b1)) => {
            if tensors_eq(a0, b0) && tensors_eq(a1, b1) {
                PairVerdict::Live
            } else {
                PairVerdict::Blind
            }
        }
        (S::Scalar(a), S::Scalar(b)) => {
            if a == b {
                PairVerdict::Live
            } else {
                PairVerdict::Blind
            }
        }
        (S::Str(a), S::Str(b)) => {
            if a == b {
                PairVerdict::Live
            } else {
                PairVerdict::Blind
            }
        }
        (S::ScalarVar(a), S::ScalarVar(b)) if a == b => PairVerdict::Live,
        (S::StrVar(a), S::StrVar(b)) if a == b => PairVerdict::Live,
        // Mixed opaque/known roots: cannot decide symbolically.
        (S::ScalarVar(_) | S::StrVar(_), _) | (_, S::ScalarVar(_) | S::StrVar(_)) => return None,
        _ => PairVerdict::Blind,
    })
}

/// Evaluates a symbolic dimension under a rotated prime valuation of its
/// free variables and converts the assignment to concrete [`TensorData`].
/// Returns `None` if the valuation produces a negative dimension or an
/// out-of-range concat mark — the caller then tries another rotation.
fn concretize(
    assign: &[(Var, SymValue)],
    env: &DimEnv,
    rot: usize,
) -> Option<Vec<(Var, TensorData)>> {
    const PRIMES: [i64; 12] = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41];
    let val = |v: u32| PRIMES[(v as usize + rot) % PRIMES.len()];
    let eval_dim = |d: &SymDim| env.evaluate(d, &val);
    let eval_info = |t: &SymTensor| -> Option<TensorInfo> {
        let shape: Vec<i64> = t.shape.iter().map(eval_dim).collect();
        if shape.iter().any(|&d| d < 0) {
            return None;
        }
        let mut info = TensorInfo::new(shape, false);
        if let Some((ax, first)) = &t.split_at {
            let f = eval_dim(first);
            let total = info.shape[*ax];
            if !(0 < f && f < total) {
                return None;
            }
            info.split_at = Some((*ax, f));
        }
        Some(info)
    };
    assign
        .iter()
        .map(|(var, s)| {
            let d = match s {
                SymValue::Scalar(c) => TensorData::Scalar(*c),
                SymValue::ScalarVar(_) => TensorData::Scalar(0),
                SymValue::Str(sym) => TensorData::Str(*sym),
                SymValue::StrVar(_) => return None,
                SymValue::Tensor(t) => TensorData::Tensor(eval_info(t)?),
                SymValue::Tuple(a, b) => {
                    TensorData::Tuple(Box::new(eval_info(a)?), Box::new(eval_info(b)?))
                }
            };
            Some((*var, d))
        })
        .collect()
}

/// A confirmed concrete valuation: the witness bindings plus, for
/// divergence findings, the counterexample describing the mismatch.
type Confirmation = (Vec<(Var, TensorData)>, Option<Counterexample>);

/// Confirms a symbolic finding concretely: tries a few valuations and
/// checks the expected relation with the real [`tensat_ir::infer`].
fn confirm(
    spec: &RuleSpec,
    assign: &[(Var, SymValue)],
    env: &DimEnv,
    expect_live: bool,
) -> Option<Confirmation> {
    for rot in 0..8 {
        let Some(bindings) = concretize(assign, env, rot) else {
            continue;
        };
        let eval = eval_concrete(spec, &bindings);
        if !eval.sources_valid || !eval.targets_valid {
            continue;
        }
        if expect_live {
            if eval
                .roots
                .iter()
                .all(|(l, r)| compare_roots(l, r) == PairVerdict::Live)
            {
                return Some((bindings, None));
            }
        } else if let Some((pair, (l, r))) = eval
            .roots
            .iter()
            .enumerate()
            .find(|(_, (l, r))| compare_roots(l, r) != PairVerdict::Live)
        {
            let ce = Counterexample {
                bindings: bindings.clone(),
                pair,
                lhs_root: l.clone(),
                rhs_root: r.clone(),
            };
            return Some((bindings, Some(ce)));
        }
    }
    None
}

/// Runs the symbolic prover. `None` means the rule is outside the symbolic
/// domain (or a finding could not be concretely confirmed) and the caller
/// must enumerate.
fn symbolic_analysis(
    spec: &RuleSpec,
    var_kinds: &[(Var, BTreeSet<tensat_ir::DataKind>)],
) -> Option<Outcome> {
    use tensat_ir::DataKind;
    if spec
        .sources
        .iter()
        .chain(&spec.targets)
        .any(|p| contains_nonlinear_op(p))
    {
        return None;
    }
    let mut options: Vec<Vec<VarOption>> = Vec::with_capacity(var_kinds.len());
    for (_, kinds) in var_kinds {
        if kinds.contains(&DataKind::Str) || kinds.contains(&DataKind::Tuple) {
            // Every string consumer needs the concrete value; tuple-typed
            // variables are not modeled. Enumerate instead.
            return None;
        }
        if kinds.contains(&DataKind::Tensor) {
            let mut opts = vec![];
            for rank in 2..=4 {
                opts.push(VarOption::Tensor {
                    rank,
                    split_axis: None,
                });
                for ax in 0..rank {
                    opts.push(VarOption::Tensor {
                        rank,
                        split_axis: Some(ax),
                    });
                }
            }
            options.push(opts);
        } else if kinds.contains(&DataKind::Scalar) {
            options.push((0..=3).map(VarOption::ScalarConst).collect());
        } else {
            options.push(vec![VarOption::Opaque]);
        }
    }
    let sizes: Vec<usize> = options.iter().map(Vec::len).collect();
    if bindings_visited(&sizes, u64::MAX) > CONFIG_CAP {
        return None;
    }

    let mut out = Outcome::default();
    let mut configs = 0u64;
    let mut undecided = false;
    let mut opaque_counter = 0u32;
    for_each_binding(&sizes, u64::MAX, &mut |idx| {
        configs += 1;
        let mut env = DimEnv::new();
        let assign: Vec<(Var, SymValue)> = var_kinds
            .iter()
            .enumerate()
            .map(|(slot, (var, _))| {
                let value = match &options[slot][idx[slot]] {
                    VarOption::Tensor { rank, split_axis } => {
                        let shape: Vec<SymDim> = (0..*rank).map(|_| env.fresh()).collect();
                        let mut t = SymTensor::new(shape);
                        if let Some(ax) = split_axis {
                            t.split_at = Some((*ax, env.fresh()));
                        }
                        SymValue::Tensor(t)
                    }
                    VarOption::ScalarConst(c) => SymValue::Scalar(*c),
                    VarOption::Opaque => {
                        opaque_counter += 1;
                        SymValue::ScalarVar(opaque_counter)
                    }
                };
                (*var, value)
            })
            .collect();

        // Interpret the sources; a contradiction means no concrete binding
        // realizes this configuration (vacuous).
        let mut src_roots = Vec::with_capacity(spec.sources.len());
        for p in &spec.sources {
            match sym_eval_pattern(p, &assign, &mut env) {
                Ok(v) => src_roots.push(v),
                Err(SymError::Contradiction(_)) => return true,
                Err(SymError::Undecidable(_)) => {
                    undecided = true;
                    return false;
                }
            }
        }
        // Interpret the targets in the same environment. The sources have
        // already pushed every equality the LHS establishes, so any *new*
        // binding a target creates is a dimension equality the rule does
        // not guarantee: for generic members of this configuration the
        // RHS is ill-typed (blocked), and only the constrained subspace —
        // which the remaining analysis now describes — behaves as the
        // resolved shapes say. Both populations are real, so the config
        // counts as blocked *and* contributes its subspace verdict.
        let src_env = env.clone();
        let mut src_constraints = env.constraint_count();
        let mut verdict = PairVerdict::Live;
        let mut bad_pair = 0;
        for (i, p) in spec.targets.iter().enumerate() {
            match sym_eval_pattern(p, &assign, &mut env) {
                Ok(dst_root) => {
                    if env.constraint_count() > src_constraints {
                        src_constraints = env.constraint_count();
                        out.blocked += 1;
                        if out.blocked_example.is_none() {
                            for rot in 0..8 {
                                let Some(b) = concretize(&assign, &src_env, rot) else {
                                    continue;
                                };
                                let ev = eval_concrete(spec, &b);
                                if ev.sources_valid && !ev.targets_valid {
                                    out.blocked_example = Some((
                                        b,
                                        "target demands dimension equalities the sources do \
                                         not establish"
                                            .into(),
                                    ));
                                    break;
                                }
                            }
                        }
                    }
                    match compare_sym(&env, &src_roots[i], &dst_root) {
                        Some(PairVerdict::Live) => {}
                        Some(v) => {
                            // Blind outranks Divergent.
                            if verdict != PairVerdict::Blind {
                                verdict = v;
                                bad_pair = i;
                            }
                        }
                        None => {
                            undecided = true;
                            return false;
                        }
                    }
                }
                Err(SymError::Contradiction(_)) => {
                    out.blocked += 1;
                    if out.blocked_example.is_none() {
                        if let Some(b) = concretize(&assign, &env, 0) {
                            out.blocked_example = Some((b, "target is ill-typed".into()));
                        }
                    }
                    return true;
                }
                Err(SymError::Undecidable(_)) => {
                    undecided = true;
                    return false;
                }
            }
        }
        let _ = bad_pair;
        match verdict {
            PairVerdict::Live => {
                out.live += 1;
                if out.live_witness.is_none() {
                    if let Some((w, None)) = confirm(spec, &assign, &env, true) {
                        out.live_witness = Some(w);
                    }
                }
            }
            PairVerdict::Divergent | PairVerdict::Blind => {
                let slot = if verdict == PairVerdict::Divergent {
                    out.divergent += 1;
                    &mut out.divergent_example
                } else {
                    out.blind += 1;
                    &mut out.blind_example
                };
                if slot.is_none() {
                    match confirm(spec, &assign, &env, false) {
                        Some((_, Some(ce))) => *slot = Some(ce),
                        // A symbolic divergence we cannot realize
                        // concretely: hand the rule to enumeration rather
                        // than report an unconfirmed finding.
                        _ => {
                            undecided = true;
                            return false;
                        }
                    }
                }
            }
        }
        true
    });
    if undecided {
        return None;
    }
    // A symbolically-live rule whose first witness could not be confirmed:
    // let enumeration try to find a live binding before trusting the claim.
    if out.live > 0 && out.live_witness.is_none() {
        if let Some(w) = enumeration_live_witness(spec, var_kinds) {
            out.live_witness = Some(w);
        }
    }
    out.method = format!(
        "symbolic abstract interpretation over {configs} rank/split configurations (ranks 2-4)"
    );
    Some(out)
}

// ---------------------------------------------------------------------------
// Enumeration fallback
// ---------------------------------------------------------------------------

/// The candidate pool of every variable, by the kinds its positions
/// demand.
fn candidate_pools(
    var_kinds: &[(Var, BTreeSet<tensat_ir::DataKind>)],
) -> Vec<(Var, Vec<TensorData>)> {
    var_kinds
        .iter()
        .map(|(var, kinds)| (*var, pool_for_kinds(kinds)))
        .collect()
}

fn enumeration_live_witness(
    spec: &RuleSpec,
    var_kinds: &[(Var, BTreeSet<tensat_ir::DataKind>)],
) -> Option<Vec<(Var, TensorData)>> {
    let pools = candidate_pools(var_kinds);
    let sizes: Vec<usize> = pools.iter().map(|(_, p)| p.len()).collect();
    let mut witness = None;
    for_each_binding(&sizes, BINDING_CAP, &mut |idx| {
        let bindings: Vec<(Var, TensorData)> = pools
            .iter()
            .zip(idx)
            .map(|((v, pool), &i)| (*v, pool[i].clone()))
            .collect();
        let eval = eval_concrete(spec, &bindings);
        if eval.sources_valid
            && eval.targets_valid
            && eval
                .roots
                .iter()
                .all(|(l, r)| compare_roots(l, r) == PairVerdict::Live)
        {
            witness = Some(bindings);
            return false;
        }
        true
    });
    witness
}

fn enumeration_analysis(
    spec: &RuleSpec,
    var_kinds: &[(Var, BTreeSet<tensat_ir::DataKind>)],
) -> Outcome {
    let pools = candidate_pools(var_kinds);
    let sizes: Vec<usize> = pools.iter().map(|(_, p)| p.len()).collect();
    let visited = bindings_visited(&sizes, BINDING_CAP);
    let total = bindings_visited(&sizes, u64::MAX);
    let mut out = Outcome::default();
    for_each_binding(&sizes, BINDING_CAP, &mut |idx| {
        let bindings: Vec<(Var, TensorData)> = pools
            .iter()
            .zip(idx)
            .map(|((v, pool), &i)| (*v, pool[i].clone()))
            .collect();
        let eval = eval_concrete(spec, &bindings);
        if !eval.sources_valid {
            return true;
        }
        if !eval.targets_valid {
            out.blocked += 1;
            if out.blocked_example.is_none() {
                out.blocked_example = Some((
                    bindings,
                    eval.first_invalid
                        .unwrap_or_else(|| "ill-typed target".into()),
                ));
            }
            return true;
        }
        let mut verdict = PairVerdict::Live;
        let mut pair = 0;
        for (i, (l, r)) in eval.roots.iter().enumerate() {
            match compare_roots(l, r) {
                PairVerdict::Live => {}
                v => {
                    if verdict != PairVerdict::Blind {
                        verdict = v;
                        pair = i;
                    }
                }
            }
        }
        match verdict {
            PairVerdict::Live => {
                out.live += 1;
                if out.live_witness.is_none() {
                    out.live_witness = Some(bindings);
                }
            }
            v => {
                let (l, r) = &eval.roots[pair];
                let slot = if v == PairVerdict::Divergent {
                    out.divergent += 1;
                    &mut out.divergent_example
                } else {
                    out.blind += 1;
                    &mut out.blind_example
                };
                if slot.is_none() {
                    *slot = Some(Counterexample {
                        bindings,
                        pair,
                        lhs_root: l.clone(),
                        rhs_root: r.clone(),
                    });
                }
            }
        }
        true
    });
    out.method = if visited == total {
        format!("exhaustive enumeration of {visited} concrete bindings")
    } else {
        format!("sampled enumeration of {visited} of {total} concrete bindings")
    };
    out
}

// ---------------------------------------------------------------------------
// Verdict assembly
// ---------------------------------------------------------------------------

/// Runs the full soundness analysis for a rule spec, returning report
/// diagnostics and a one-line method/result summary.
pub(crate) fn check_soundness(spec: &RuleSpec) -> (Vec<Diagnostic>, String) {
    let mut diags = vec![];

    // Per-variable kind demands: the union of constraints across every
    // source and target pattern (all of them must hold for the rule to
    // fire).
    let mut var_kinds: Vec<(Var, BTreeSet<tensat_ir::DataKind>)> = vec![];
    for p in spec.sources.iter().chain(&spec.targets) {
        for (v, kinds) in tensat_rules::pattern_kind_constraints(p) {
            match var_kinds.iter_mut().find(|(u, _)| *u == v) {
                Some((_, set)) => set.extend(kinds),
                None => var_kinds.push((v, kinds)),
            }
        }
    }
    // A variable demanded at two different kinds (the constraint sets hold
    // no `Any`) can never bind valid data: the rule is statically dead.
    for (var, kinds) in &var_kinds {
        if kinds.len() > 1 {
            let kind_list: Vec<String> = kinds.iter().map(|k| format!("{k:?}")).collect();
            diags.push(Diagnostic {
                severity: Severity::Error,
                code: "dead-rule",
                message: format!(
                    "variable {var} can never bind admissible data: its positions demand \
                     [{}] and no data kind satisfies all of them",
                    kind_list.join(", ")
                ),
            });
        }
    }
    if !diags.is_empty() {
        return (
            diags,
            "statically dead (unsatisfiable variable kinds)".into(),
        );
    }

    let outcome = symbolic_analysis(spec, &var_kinds)
        .unwrap_or_else(|| enumeration_analysis(spec, &var_kinds));

    if let Some(ce) = &outcome.blind_example {
        diags.push(Diagnostic {
            severity: Severity::Error,
            code: "unsound-kind",
            message: format!(
                "RHS changes the root's data kind or parameter value, which the shape \
                 condition cannot observe: {ce}"
            ),
        });
    }
    if outcome.divergent > 0 {
        let ce = outcome
            .divergent_example
            .as_ref()
            .map(|c| c.to_string())
            .unwrap_or_default();
        if !spec.conditional {
            diags.push(Diagnostic {
                severity: Severity::Error,
                code: "unsound-shape",
                message: format!(
                    "unconditional rule produces a different output shape on some fireable \
                     bindings: {ce}"
                ),
            });
        } else if outcome.live > 0 {
            diags.push(Diagnostic {
                severity: Severity::Warning,
                code: "divergence-blocked",
                message: format!(
                    "{} of {} fireable cases change the output shape and rely on the runtime \
                     shape condition to be blocked, e.g. {ce}",
                    outcome.divergent,
                    outcome.live + outcome.divergent + outcome.blind
                ),
            });
        }
    }
    if !spec.conditional && outcome.blocked > 0 {
        let detail = outcome
            .blocked_example
            .as_ref()
            .map(|(b, r)| {
                let binds: Vec<String> = b
                    .iter()
                    .map(|(v, d)| format!("{v} = {}", fmt_data(d)))
                    .collect();
                format!("{}; {r}", binds.join(", "))
            })
            .unwrap_or_default();
        diags.push(Diagnostic {
            severity: Severity::Error,
            code: "unsound-invalid-rhs",
            message: format!(
                "unconditional rule can instantiate an ill-typed RHS from a well-typed LHS: \
                 {detail}"
            ),
        });
    }
    if (outcome.divergent > 0 || outcome.blind > 0) && outcome.live == 0 {
        diags.push(Diagnostic {
            severity: Severity::Error,
            code: "always-divergent",
            message: "every fireable binding changes the output shape — the rule can never \
                      soundly fire"
                .into(),
        });
    }
    if outcome.live == 0 && outcome.divergent == 0 && outcome.blind == 0 {
        diags.push(Diagnostic {
            severity: Severity::Error,
            code: "dead-rule",
            message: format!(
                "no fireable binding found ({}; {} blocked by the condition)",
                outcome.method, outcome.blocked
            ),
        });
    }

    let mut summary = format!(
        "{}: live {}, shape-divergent {}, kind-divergent {}, condition-blocked {}",
        outcome.method, outcome.live, outcome.divergent, outcome.blind, outcome.blocked
    );
    if let Some(w) = &outcome.live_witness {
        let binds: Vec<String> = w
            .iter()
            .map(|(v, d)| format!("{v} = {}", fmt_data(d)))
            .collect();
        summary.push_str(&format!("; live witness: {}", binds.join(", ")));
    }
    (diags, summary)
}
