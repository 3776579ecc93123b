//! Shape-checking side conditions for rewrite rules (paper §4).
//!
//! Before a rewrite is applied at a match, TENSAT verifies that the tensor
//! shapes in the *target* pattern are compatible. Here this is done by
//! symbolically inferring the [`TensorData`] of every node of the target
//! pattern under the candidate substitution (reading the bound variables'
//! data from the e-class analysis) and rejecting the match if any node is
//! ill-typed.
//!
//! The whole check is one function, [`target_fits`], evaluated when a match
//! is applied — where the paper puts it: as a post-match [`Condition`]
//! ([`shape_check`]) for single-pattern rules, and per target by the
//! multi-pattern applier. Search is purely structural.

use std::borrow::Cow;
use std::collections::BTreeSet;
use std::sync::Arc;
use tensat_egraph::{Condition, EGraph, ENodeOrVar, Id, Language, Pattern, Subst, Var};
use tensat_ir::{child_data_kinds, infer, DataKind, TensorAnalysis, TensorData, TensorLang};

/// Infers the [`TensorData`] of every node of `pattern`, reading each
/// variable's data from `lookup`. Variables for which `lookup` returns
/// `None` yield `Invalid`.
///
/// A variable's entry borrows what `lookup` returns; only the pattern's
/// operator nodes (and unbound variables) own their data, inferred here.
///
/// The shape check reads each variable's e-class data through it
/// ([`target_fits`]); the static rule verifier (`tensat-verify`) uses it
/// to interpret patterns over synthetic variable bindings with no e-graph
/// in sight.
pub fn pattern_data_with<'a>(
    pattern: &Pattern<TensorLang>,
    lookup: &dyn Fn(Var) -> Option<&'a TensorData>,
) -> Vec<Cow<'a, TensorData>> {
    let mut data: Vec<Cow<'a, TensorData>> = Vec::with_capacity(pattern.ast.len());
    for (_, node) in pattern.ast.iter() {
        let d = match node {
            ENodeOrVar::Var(v) => lookup(*v).map_or_else(
                || Cow::Owned(TensorData::invalid(format!("unbound variable {v}"))),
                Cow::Borrowed,
            ),
            ENodeOrVar::ENode(n) => Cow::Owned(infer(n, &|id| &*data[usize::from(id)])),
        };
        data.push(d);
    }
    data
}

/// True if `target` instantiated under `subst` is fully well-typed *and*
/// its output shape matches the shape of `matched_class` (so unioning the
/// two is shape-preserving): the shape check of single- and multi-pattern
/// rules alike. A variable `extents` lists (a multi-pattern rule's bound
/// sizes, see [`crate::bind_extents`], which have no e-class yet) reads its
/// data there instead of through `subst`.
pub fn target_fits(
    egraph: &EGraph<TensorLang, TensorAnalysis>,
    target: &Pattern<TensorLang>,
    matched_class: Id,
    subst: &Subst,
    extents: &[(Var, TensorData)],
) -> bool {
    let data = pattern_data_with(target, &|v| match extents.iter().find(|(u, _)| *u == v) {
        Some((_, size)) => Some(size),
        None => subst.get(v).map(|class| &egraph.eclass(class).data),
    });
    if !data.iter().all(|d| d.is_valid()) {
        return false;
    }
    let target_out = data.last().expect("pattern is non-empty");
    let class_data = &egraph.eclass(matched_class).data;
    match (class_data.shape(), target_out.shape()) {
        (Some(a), Some(b)) => a == b,
        // If either side is not a plain tensor (e.g. the matched class is
        // still invalid), only require the target to be valid.
        _ => true,
    }
}

/// Builds the standard shape-checking condition for a rule with the given
/// target pattern: [`target_fits`] at every match.
pub fn shape_check(target: Pattern<TensorLang>) -> Condition<TensorLang, TensorAnalysis> {
    Arc::new(move |egraph, matched_class, subst| {
        target_fits(egraph, &target, matched_class, subst, &[])
    })
}

/// For every variable of `pattern`, the set of [`DataKind`]s its child
/// positions require (per [`child_data_kinds`]), in first-occurrence order.
/// [`DataKind::Any`] positions contribute no constraint — validity alone is
/// required there — so an empty set means "any valid data".
///
/// A binding violating one of these kinds makes [`infer`] return invalid
/// data for the corresponding pattern node, so [`target_fits`] is
/// guaranteed false for it: the constraints are the per-variable part of
/// the shape check, which the rule verifier (`tensat-verify`) reasons with.
pub fn pattern_kind_constraints(pattern: &Pattern<TensorLang>) -> Vec<(Var, BTreeSet<DataKind>)> {
    let mut out: Vec<(Var, BTreeSet<DataKind>)> = pattern
        .vars()
        .into_iter()
        .map(|v| (v, BTreeSet::new()))
        .collect();
    for (_, node) in pattern.ast.iter() {
        if let ENodeOrVar::ENode(n) = node {
            for (&child, &kind) in n.children().iter().zip(child_data_kinds(n)) {
                if kind == DataKind::Any {
                    continue;
                }
                if let ENodeOrVar::Var(v) = &pattern.ast[child] {
                    let entry = out.iter_mut().find(|(u, _)| u == v);
                    entry
                        .expect("pattern.vars() lists every variable")
                        .1
                        .insert(kind);
                }
            }
        }
    }
    out
}

/// A condition requiring the string bound to `var`-like child to be a
/// self-inverse permutation (used by the double-transpose elimination
/// rule). The permutation is the *literal* in the pattern, so this simply
/// checks the decoded permutation.
pub fn involutive_permutation(perm: &[usize]) -> bool {
    perm.iter()
        .enumerate()
        .all(|(i, &p)| p < perm.len() && perm[p] == i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_pattern;
    use tensat_egraph::{Id, Var};
    use tensat_ir::{GraphBuilder, TensorEGraph};

    fn setup() -> (TensorEGraph, Id, Id, Id) {
        // x: [8,128] input, w1: [128,64] weight, w2: [128,32] weight.
        let mut g = GraphBuilder::new();
        let x = g.input("x", &[8, 128]);
        let w1 = g.weight("w1", &[128, 64]);
        let _w2 = g.weight("w2", &[128, 32]);
        let m = g.matmul(x, w1);
        let expr = g.finish(&[m]);
        let mut eg = TensorEGraph::new(TensorAnalysis);
        eg.add_expr(&expr);
        // Also add w2 so we can bind variables to it.
        let mut g2 = GraphBuilder::new();
        let w2e = g2.weight("w2", &[128, 32]);
        let e2 = g2.finish(&[w2e]);
        eg.add_expr(&e2);
        eg.rebuild();
        let find = |name: &str, shape: &[i64]| {
            let sym = tensat_ir::encode_identifier(name, shape);
            eg.lookup(&TensorLang::Str(sym)).unwrap()
        };
        let x_id = eg
            .lookup(&TensorLang::Input([find("x", &[8, 128])]))
            .unwrap();
        let w1_id = eg
            .lookup(&TensorLang::Weight([find("w1", &[128, 64])]))
            .unwrap();
        let w2_id = eg
            .lookup(&TensorLang::Weight([find("w2", &[128, 32])]))
            .unwrap();
        (eg, x_id, w1_id, w2_id)
    }

    /// The data of every node of `pattern` under `subst`.
    fn data<'a>(
        eg: &'a TensorEGraph,
        pattern: &Pattern<TensorLang>,
        subst: &Subst,
    ) -> Vec<Cow<'a, TensorData>> {
        pattern_data_with(pattern, &|v| subst.get(v).map(|c| &eg.eclass(c).data))
    }

    fn is_valid(eg: &TensorEGraph, pattern: &Pattern<TensorLang>, subst: &Subst) -> bool {
        data(eg, pattern, subst).iter().all(|d| d.is_valid())
    }

    #[test]
    fn valid_target_pattern_passes() {
        let (eg, x, w1, w2) = setup();
        let target = parse_pattern("(matmul 0 ?x (concat2 1 ?w1 ?w2))").unwrap();
        let mut subst = Subst::new();
        subst.insert(Var::new("x"), x);
        subst.insert(Var::new("w1"), w1);
        subst.insert(Var::new("w2"), w2);
        assert!(is_valid(&eg, &target, &subst));
        let data = data(&eg, &target, &subst);
        assert_eq!(data.last().unwrap().shape().unwrap(), &[8, 96]);
    }

    #[test]
    fn invalid_target_pattern_fails() {
        let (eg, x, w1, w2) = setup();
        // Concatenating along axis 0 mismatches the second dims (64 vs 32).
        let target = parse_pattern("(matmul 0 ?x (concat2 0 ?w1 ?w2))").unwrap();
        let mut subst = Subst::new();
        subst.insert(Var::new("x"), x);
        subst.insert(Var::new("w1"), w1);
        subst.insert(Var::new("w2"), w2);
        assert!(!is_valid(&eg, &target, &subst));
    }

    #[test]
    fn unbound_variable_is_invalid() {
        let (eg, x, _, _) = setup();
        let target = parse_pattern("(ewadd ?x ?missing)").unwrap();
        let mut subst = Subst::new();
        subst.insert(Var::new("x"), x);
        assert!(!is_valid(&eg, &target, &subst));
    }

    #[test]
    fn kind_constraints_follow_target_positions() {
        // ?x is a matmul data operand (Tensor); ?w1/?w2 are concat operands
        // (Tensor); ?a is the concat axis (Scalar).
        let target = parse_pattern("(matmul 0 ?x (concat2 ?a ?w1 ?w2))").unwrap();
        let constraints = pattern_kind_constraints(&target);
        let get = |name: &str| {
            constraints
                .iter()
                .find(|(v, _)| *v == Var::new(name))
                .map(|(_, k)| k.iter().copied().collect::<Vec<_>>())
                .unwrap()
        };
        assert_eq!(get("x"), vec![DataKind::Tensor]);
        assert_eq!(get("a"), vec![DataKind::Scalar]);
        assert_eq!(get("w1"), vec![DataKind::Tensor]);
        // A variable used only at an ignored (Any) position has no kind
        // constraint, but still appears (validity is always required).
        let act_target = parse_pattern("(matmul ?act ?x ?w)").unwrap();
        let constraints = pattern_kind_constraints(&act_target);
        let act = constraints
            .iter()
            .find(|(v, _)| *v == Var::new("act"))
            .unwrap();
        assert!(act.1.is_empty());
    }

    #[test]
    fn involutive_permutation_check() {
        assert!(involutive_permutation(&[1, 0]));
        assert!(involutive_permutation(&[0, 1, 2]));
        assert!(involutive_permutation(&[2, 1, 0]));
        assert!(!involutive_permutation(&[1, 2, 0]));
    }
}
