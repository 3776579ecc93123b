//! Multi-pattern rewrite rules (paper §3.2 and §4).
//!
//! A multi-pattern rule has several source patterns that must match
//! *simultaneously* (with consistent variable bindings) and one target
//! pattern per source; each matched output class is unioned with the
//! corresponding instantiated target. The canonical example is the paper's
//! Figure 2: two `matmul`s sharing an input merge into one `matmul` over
//! concatenated weights, whose two halves are recovered with `split`.
//!
//! The application algorithm (Algorithm 1: canonicalize, search once, take
//! the Cartesian product of matches, check compatibility) lives in
//! `tensat-core::explore`; this module defines the rule data and the rule
//! set.

use crate::parser::parse_pattern;
use tensat_egraph::{Pattern, Var};
use tensat_ir::TensorLang;

/// A multi-pattern rewrite rule: `srcs[i]` is equivalent to `dsts[i]` for
/// every `i`, under a single shared variable binding.
#[derive(Debug, Clone)]
pub struct MultiPatternRule {
    /// Human-readable rule name.
    pub name: String,
    /// The source patterns, all of which must match simultaneously.
    pub srcs: Vec<Pattern<TensorLang>>,
    /// The target patterns, pairwise equivalent to the sources.
    pub dsts: Vec<Pattern<TensorLang>>,
}

impl MultiPatternRule {
    /// Creates a rule from textual patterns.
    ///
    /// # Panics
    ///
    /// Panics if the pattern lists have different lengths, any pattern
    /// fails to parse, or a target uses a variable not bound by any source
    /// — rule definitions are static program data.
    pub fn new(name: &str, srcs: &[&str], dsts: &[&str]) -> Self {
        assert_eq!(
            srcs.len(),
            dsts.len(),
            "rule {name}: sources and targets must pair up"
        );
        assert!(
            srcs.len() >= 2,
            "rule {name}: multi-pattern rules need >= 2 patterns"
        );
        let srcs: Vec<Pattern<TensorLang>> = srcs
            .iter()
            .map(|s| {
                parse_pattern(s)
                    .unwrap_or_else(|e| panic!("rule {name}: bad source pattern `{s}`: {e}"))
            })
            .collect();
        let dsts: Vec<Pattern<TensorLang>> = dsts
            .iter()
            .map(|s| {
                parse_pattern(s)
                    .unwrap_or_else(|e| panic!("rule {name}: bad target pattern `{s}`: {e}"))
            })
            .collect();
        let mut src_vars: Vec<Var> = vec![];
        for s in &srcs {
            for v in s.vars() {
                if !src_vars.contains(&v) {
                    src_vars.push(v);
                }
            }
        }
        for d in &dsts {
            for v in d.vars() {
                assert!(
                    src_vars.contains(&v),
                    "rule {name}: target uses unbound variable {v}"
                );
            }
        }
        MultiPatternRule {
            name: name.to_string(),
            srcs,
            dsts,
        }
    }
}

/// The multi-pattern rule set used by TENSAT: merging parallel `matmul`s or
/// `conv`s that share an operand into a single wider operator (paper
/// Figures 2, 8, 9 and the generalisations mentioned in the appendix).
pub fn multi_rules() -> Vec<MultiPatternRule> {
    vec![
        // Two matmuls sharing the data input -> one matmul over concatenated
        // weights (paper Fig. 2 / Fig. 8).
        MultiPatternRule::new(
            "merge-matmuls-shared-lhs",
            &["(matmul ?act ?x ?w1)", "(matmul ?act ?x ?w2)"],
            &[
                "(split0 (split 1 (matmul ?act ?x (concat2 1 ?w1 ?w2))))",
                "(split1 (split 1 (matmul ?act ?x (concat2 1 ?w1 ?w2))))",
            ],
        ),
        // Two matmuls sharing the weight -> one matmul over concatenated
        // data rows.
        MultiPatternRule::new(
            "merge-matmuls-shared-rhs",
            &["(matmul ?act ?x1 ?w)", "(matmul ?act ?x2 ?w)"],
            &[
                "(split0 (split 0 (matmul ?act (concat2 0 ?x1 ?x2) ?w)))",
                "(split1 (split 0 (matmul ?act (concat2 0 ?x1 ?x2) ?w)))",
            ],
        ),
        // Two convolutions sharing the input -> one convolution over
        // concatenated output channels (paper Fig. 9).
        MultiPatternRule::new(
            "merge-convs-shared-input",
            &[
                "(conv ?sh ?sw ?p ?act ?x ?w1)",
                "(conv ?sh ?sw ?p ?act ?x ?w2)",
            ],
            &[
                "(split0 (split 1 (conv ?sh ?sw ?p ?act ?x (concat2 0 ?w1 ?w2))))",
                "(split1 (split 1 (conv ?sh ?sw ?p ?act ?x (concat2 0 ?w1 ?w2))))",
            ],
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_set_is_well_formed() {
        let rules = multi_rules();
        assert_eq!(rules.len(), 3);
        for r in &rules {
            assert_eq!(r.srcs.len(), r.dsts.len());
            assert!(r.srcs.len() >= 2);
        }
    }

    #[test]
    #[should_panic]
    fn unbound_target_variable_panics() {
        MultiPatternRule::new(
            "bad",
            &["(matmul ?act ?x ?w1)", "(matmul ?act ?x ?w2)"],
            &["?x", "?nope"],
        );
    }

    #[test]
    #[should_panic]
    fn mismatched_lengths_panic() {
        MultiPatternRule::new(
            "bad",
            &["(matmul ?act ?x ?w1)", "(matmul ?act ?x ?w2)"],
            &["?x"],
        );
    }
}
