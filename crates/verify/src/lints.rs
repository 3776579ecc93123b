//! Well-formedness lints over individual rules and the whole corpus:
//! unbound RHS variables, self-identical rules, duplicates, and
//! subsumption.
//!
//! All structural comparisons work on **jointly alpha-canonicalized**
//! pattern pairs: variables are renamed `?v0, ?v1, ...` in order of first
//! occurrence across the LHS *then* the RHS, so `(ewadd ?x ?y) =>
//! (ewadd ?y ?x)` (commutativity) canonicalizes to `(ewadd ?v0 ?v1) =>
//! (ewadd ?v1 ?v0)` and is correctly *not* self-identical, while
//! `(ewadd ?a ?b) => (ewadd ?a ?b)` is.

use crate::{Diagnostic, Severity};
use std::collections::HashMap;
use tensat_egraph::{ENodeOrVar, Id, Language, Pattern, Var};
use tensat_ir::TensorLang;

/// Renders the subtree of `pattern` rooted at `node`, renaming variables
/// through `rename` (extending it in first-occurrence order when a
/// variable is missing).
fn render(pattern: &Pattern<TensorLang>, node: Id, rename: &mut HashMap<Var, usize>) -> String {
    match &pattern.ast[node] {
        ENodeOrVar::Var(v) => {
            let next = rename.len();
            let idx = *rename.entry(*v).or_insert(next);
            format!("?v{idx}")
        }
        ENodeOrVar::ENode(n) => {
            if n.children().is_empty() {
                n.to_string()
            } else {
                let kids: Vec<String> = n
                    .children()
                    .iter()
                    .map(|&c| render(pattern, c, rename))
                    .collect();
                format!("({} {})", n, kids.join(" "))
            }
        }
    }
}

fn root(pattern: &Pattern<TensorLang>) -> Id {
    Id::from(pattern.ast.len() - 1)
}

/// The joint alpha-canonical rendering of a rule's pattern sequence
/// (sources then targets, `=>`-separated between the two halves).
pub(crate) fn joint_canonical(
    sources: &[&Pattern<TensorLang>],
    targets: &[&Pattern<TensorLang>],
) -> String {
    let mut rename = HashMap::new();
    let srcs: Vec<String> = sources
        .iter()
        .map(|p| render(p, root(p), &mut rename))
        .collect();
    let dsts: Vec<String> = targets
        .iter()
        .map(|p| render(p, root(p), &mut rename))
        .collect();
    format!("{} => {}", srcs.join(" & "), dsts.join(" & "))
}

/// Variables used by any target but bound by no source.
pub(crate) fn unbound_target_vars(
    sources: &[&Pattern<TensorLang>],
    targets: &[&Pattern<TensorLang>],
) -> Vec<Var> {
    let mut bound = vec![];
    for s in sources {
        for v in s.vars() {
            if !bound.contains(&v) {
                bound.push(v);
            }
        }
    }
    let mut unbound = vec![];
    for t in targets {
        for v in t.vars() {
            if !bound.contains(&v) && !unbound.contains(&v) {
                unbound.push(v);
            }
        }
    }
    unbound
}

/// Per-rule structural lints: self-identical LHS/RHS.
pub(crate) fn check_rule_shape(
    sources: &[&Pattern<TensorLang>],
    targets: &[&Pattern<TensorLang>],
) -> Vec<Diagnostic> {
    let mut diags = vec![];
    let mut rename = HashMap::new();
    let srcs: Vec<String> = sources
        .iter()
        .map(|p| render(p, root(p), &mut rename))
        .collect();
    let dsts: Vec<String> = targets
        .iter()
        .map(|p| render(p, root(p), &mut rename))
        .collect();
    if srcs == dsts {
        diags.push(Diagnostic {
            severity: Severity::Error,
            code: "self-identical",
            message: "LHS and RHS are identical up to variable renaming — the rule can only \
                      ever union a class with itself"
                .into(),
        });
    }
    diags
}

// ---------------------------------------------------------------------------
// Subsumption
// ---------------------------------------------------------------------------

/// Renders the subtree at `node` with *original* variable names — the
/// exact-identity form used for substitution-consistency checks (two
/// bindings of the same general variable must be the same subtree,
/// including variable names, not merely alpha-equivalent; and the check
/// must work across the LHS and RHS patterns, whose ast ids are not
/// interchangeable).
fn render_exact(pattern: &Pattern<TensorLang>, node: Id) -> String {
    match &pattern.ast[node] {
        ENodeOrVar::Var(v) => v.to_string(),
        ENodeOrVar::ENode(n) => {
            if n.children().is_empty() {
                n.to_string()
            } else {
                let kids: Vec<String> = n
                    .children()
                    .iter()
                    .map(|&c| render_exact(pattern, c))
                    .collect();
                format!("({} {})", n, kids.join(" "))
            }
        }
    }
}

/// Matches the subtree of `general` at `ga` onto the subtree of `specific`
/// at `sb`, binding `general`'s variables to `specific` subtrees in `sigma`
/// (consistently across calls, including calls on a different `specific`
/// pattern — bindings are stored as rendered subtree text, not ast ids).
fn match_onto(
    general: &Pattern<TensorLang>,
    ga: Id,
    specific: &Pattern<TensorLang>,
    sb: Id,
    sigma: &mut HashMap<Var, String>,
) -> bool {
    match &general.ast[ga] {
        ENodeOrVar::Var(v) => {
            let here = render_exact(specific, sb);
            match sigma.get(v) {
                Some(prev) => *prev == here,
                None => {
                    sigma.insert(*v, here);
                    true
                }
            }
        }
        ENodeOrVar::ENode(gn) => match &specific.ast[sb] {
            ENodeOrVar::ENode(sn) => {
                gn.display_op_eq(sn)
                    && gn.children().len() == sn.children().len()
                    && gn
                        .children()
                        .iter()
                        .zip(sn.children())
                        .all(|(&gc, &sc)| match_onto(general, gc, specific, sc, sigma))
            }
            ENodeOrVar::Var(_) => false,
        },
    }
}

/// True if rule `a` subsumes rule `b`: a single substitution of `a`'s
/// variables by subpatterns turns `a`'s LHS into `b`'s LHS *and* `a`'s RHS
/// into `b`'s RHS — every match and application of `b` is already one of
/// `a`, so `b` is redundant.
pub(crate) fn subsumes(
    a: (&Pattern<TensorLang>, &Pattern<TensorLang>),
    b: (&Pattern<TensorLang>, &Pattern<TensorLang>),
) -> bool {
    let mut sigma = HashMap::new();
    match_onto(a.0, root(a.0), b.0, root(b.0), &mut sigma)
        && match_onto(a.1, root(a.1), b.1, root(b.1), &mut sigma)
}

/// An op-level equality helper for `ENodeOrVar` comparisons that must
/// distinguish literals (`Num(3)` vs `Num(4)`) but ignore child ids.
trait DisplayOpEq {
    fn display_op_eq(&self, other: &Self) -> bool;
}

impl DisplayOpEq for TensorLang {
    fn display_op_eq(&self, other: &Self) -> bool {
        // `Display` prints the operator name for compound nodes and the
        // literal value for `Num`/`Str` leaves, which is exactly the
        // child-independent identity needed here.
        self.to_string() == other.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensat_rules::parse_pattern;

    fn pat(s: &str) -> Pattern<TensorLang> {
        parse_pattern(s).unwrap()
    }

    #[test]
    fn commutativity_is_not_self_identical() {
        let lhs = pat("(ewadd ?x ?y)");
        let rhs = pat("(ewadd ?y ?x)");
        assert!(check_rule_shape(&[&lhs], &[&rhs]).is_empty());
        let same = pat("(ewadd ?a ?b)");
        let same2 = pat("(ewadd ?a ?b)");
        let diags = check_rule_shape(&[&same], &[&same2]);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "self-identical");
    }

    #[test]
    fn joint_canonicalization_ignores_names() {
        let a = joint_canonical(&[&pat("(ewadd ?x ?y)")], &[&pat("(ewadd ?y ?x)")]);
        let b = joint_canonical(&[&pat("(ewadd ?p ?q)")], &[&pat("(ewadd ?q ?p)")]);
        assert_eq!(a, b);
        let c = joint_canonical(&[&pat("(ewadd ?p ?q)")], &[&pat("(ewadd ?p ?q)")]);
        assert_ne!(a, c);
    }

    #[test]
    fn literals_are_distinguished() {
        let a = joint_canonical(&[&pat("(matmul 0 ?a ?b)")], &[&pat("?a")]);
        let b = joint_canonical(&[&pat("(matmul 1 ?a ?b)")], &[&pat("?a")]);
        assert_ne!(a, b);
    }

    #[test]
    fn subsumption_detects_instances() {
        // (ewadd ?x ?y) => (ewadd ?y ?x) subsumes the relu-specialized
        // variant.
        let gen = (pat("(ewadd ?x ?y)"), pat("(ewadd ?y ?x)"));
        let spec = (pat("(ewadd (relu ?a) ?b)"), pat("(ewadd ?b (relu ?a))"));
        assert!(subsumes((&gen.0, &gen.1), (&spec.0, &spec.1)));
        // ...but not the other way round, and not an unrelated rule.
        assert!(!subsumes((&spec.0, &spec.1), (&gen.0, &gen.1)));
        let other = (pat("(ewmul ?x ?y)"), pat("(ewmul ?y ?x)"));
        assert!(!subsumes((&gen.0, &gen.1), (&other.0, &other.1)));
    }

    #[test]
    fn subsumption_requires_consistent_sigma() {
        // ?x must map to the same subtree on both sides.
        let gen = (pat("(relu ?x)"), pat("(tanh ?x)"));
        let bad = (pat("(relu (ewadd ?a ?b))"), pat("(tanh (ewmul ?a ?b))"));
        assert!(!subsumes((&gen.0, &gen.1), (&bad.0, &bad.1)));
    }

    #[test]
    fn unbound_vars_found() {
        let lhs = pat("(ewadd ?x ?y)");
        let rhs = pat("(ewadd ?x ?zzz)");
        let unbound = unbound_target_vars(&[&lhs], &[&rhs]);
        assert_eq!(unbound, vec![Var::new("zzz")]);
    }
}
