//! Mutation testing of the verifier itself: seed the corpus with the
//! defect classes the verifier exists to catch — a swapped child, a
//! renamed RHS variable, a shape-changing RHS — and assert each mutant is
//! rejected with the right diagnostic while the pristine corpus passes
//! (see `corpus.rs`).
//!
//! Swap-child mutants are *curated*, not blind: some swaps are harmless by
//! algebra (swapping the operands of `ewadd` is commutativity; reassociating
//! `matmul` children preserves shapes by associativity), so each entry
//! below is a swap hand-checked to change the output shape on some binding.

use proptest::prelude::*;
use tensat_egraph::{ENodeOrVar, Pattern, RecExpr, Var};
use tensat_rules::{parse_pattern, single_rules};
use tensat_verify::verify_patterns;

/// `(name, lhs, mutated_rhs)` triples where the RHS mutant no longer
/// preserves the output shape (or validity) for all bindings. Verified
/// *unconditionally*: the pristine versions of these rules all verify with
/// zero shape-divergent and zero condition-blocked cases (pinned in
/// `corpus.rs`), so any divergence here is introduced by the mutation.
const SWAP_CHILD_MUTANTS: &[(&str, &str, &str)] = &[
    (
        // transpose-matmul with the RHS matmul operands swapped: (AB)^T is
        // B^T A^T, not A^T B^T.
        "transpose-matmul-swapped",
        "(transpose (matmul 0 ?a ?b) \"1_0\")",
        "(matmul 0 (transpose ?a \"1_0\") (transpose ?b \"1_0\"))",
    ),
    (
        // matmul-linear-rhs with ?a/?b swapped in the first product.
        "matmul-linear-rhs-swapped",
        "(matmul ?act ?a (ewadd ?b ?c))",
        "(ewadd (matmul ?act ?b ?a) (matmul ?act ?a ?c))",
    ),
    (
        // conv-add-weights with input and summed weights swapped.
        "conv-add-weights-swapped",
        "(ewadd (conv ?sh ?sw ?p 0 ?x ?w1) (conv ?sh ?sw ?p 0 ?x ?w2))",
        "(conv ?sh ?sw ?p 0 (ewadd ?w1 ?w2) ?x)",
    ),
    (
        // split0-of-concat projecting the wrong half.
        "split0-of-concat-swapped",
        "(split0 ?ax ?n (concat2 ?ax ?x ?y))",
        "?y",
    ),
    (
        // A shape-changing RHS: elementwise add replaced by concatenation.
        "ewadd-to-concat",
        "(ewadd ?x ?y)",
        "(concat2 0 ?x ?y)",
    ),
];

fn verify_mutant(name: &str, lhs: &str, rhs: &str) -> tensat_verify::RuleReport {
    let sources = vec![parse_pattern(lhs).unwrap()];
    let targets = vec![parse_pattern(rhs).unwrap()];
    verify_patterns(name, &sources, &targets, false)
}

proptest! {
    /// Every curated shape-breaking mutant is rejected with a hard error.
    #[test]
    fn swap_child_mutants_are_rejected(idx in 0usize..SWAP_CHILD_MUTANTS.len()) {
        let (name, lhs, rhs) = SWAP_CHILD_MUTANTS[idx];
        let report = verify_mutant(name, lhs, rhs);
        prop_assert!(
            report.has_errors(),
            "mutant `{name}` should have been rejected:\n{report}"
        );
        let shape_error = report.diagnostics.iter().any(|d| {
            matches!(
                d.code,
                "unsound-shape" | "always-divergent" | "unsound-invalid-rhs" | "dead-rule"
            )
        });
        prop_assert!(
            shape_error,
            "mutant `{name}` rejected for the wrong reason:\n{report}"
        );
    }

    /// Renaming an RHS variable out from under its LHS binder is reported
    /// as an unbound-variable error naming the variable.
    #[test]
    fn renamed_rhs_var_is_rejected(idx in 0usize..single_rules().len()) {
        let rules = single_rules();
        let rule = &rules[idx];
        // Rename the first RHS variable to one the LHS does not bind.
        let Some(victim) = rule.applier.vars().first().copied() else {
            return; // variable-free RHS: nothing to rename
        };
        let mut mutated = RecExpr::default();
        for (_, node) in rule.applier.ast.iter() {
            mutated.add(match node {
                ENodeOrVar::Var(v) if *v == victim => {
                    ENodeOrVar::Var(Var::new("mutant_unbound"))
                }
                other => other.clone(),
            });
        }
        let sources = vec![rule.searcher.clone()];
        let targets = vec![Pattern::new(mutated)];
        let report = verify_patterns(&rule.name, &sources, &targets, true);
        prop_assert!(report.has_errors(), "rename mutant of `{}` accepted:\n{report}", rule.name);
        let named = report.diagnostics.iter().any(|d| {
            d.code == "unbound-rhs-var" && d.message.contains("?mutant_unbound")
        });
        prop_assert!(
            named,
            "rename mutant of `{}` missing an unbound-rhs-var diagnostic naming \
             ?mutant_unbound:\n{report}",
            rule.name
        );
    }
}

/// A variable whose positions demand two different kinds — a tensor
/// operand on the LHS, a concat axis on the RHS — can never bind valid
/// data: the rule is reported dead, naming the variable.
#[test]
fn variable_demanded_at_two_kinds_is_dead() {
    let report = verify_mutant("relu-as-axis", "(relu ?x)", "(concat2 ?x ?x ?x)");
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.code == "dead-rule" && d.message.contains("?x")),
        "no dead-rule diagnostic naming ?x:\n{report}"
    );
}

/// A rule whose two sides are the same pattern is structurally dead.
#[test]
fn self_identical_rule_is_rejected() {
    let report = verify_mutant("noop", "(ewadd ?p ?q)", "(ewadd ?p ?q)");
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.code == "self-identical"),
        "self-identical rule not flagged:\n{report}"
    );
}

/// The shape-changing seeded rule's error carries a concrete, confirmed
/// counterexample binding (variables with tensor shapes and both inferred
/// root shapes).
#[test]
fn shape_divergence_reports_a_concrete_counterexample() {
    let report = verify_mutant("ewadd-to-concat", "(ewadd ?x ?y)", "(concat2 0 ?x ?y)");
    let diag = report
        .diagnostics
        .iter()
        .find(|d| d.code == "unsound-shape")
        .unwrap_or_else(|| panic!("no unsound-shape diagnostic:\n{report}"));
    assert!(
        diag.message.contains("?x = tensor[") && diag.message.contains("LHS infers"),
        "counterexample not concrete: {diag}"
    );
}
