//! Multi-pattern rewrite rules (paper §3.2 and §4).
//!
//! A multi-pattern rule has several source patterns that must match
//! *simultaneously* (with consistent variable bindings) and one target
//! pattern per source; each matched output class is unioned with the
//! corresponding instantiated target. The canonical example is the paper's
//! Figure 2: two `matmul`s sharing an input merge into one `matmul` over
//! concatenated weights, whose two halves are recovered with `split0` and
//! `split1`. Where a half ends is a size the sources fix without matching
//! it — the first weight's width — so a rule names it as an [`Extent`],
//! bound per match by [`bind_extents`].
//!
//! The application algorithm (Algorithm 1: canonicalize, search once, take
//! the Cartesian product of matches, check compatibility) lives in
//! `tensat-core::explore`; this module defines the rule data and the rule
//! set.

use crate::parser::parse_pattern;
use tensat_egraph::{Pattern, Var};
use tensat_ir::{TensorData, TensorLang};

/// A target variable bound to the size of a source variable's value along
/// one axis: `var = dim(of, axis)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extent {
    /// The target variable the size is bound to.
    pub var: Var,
    /// The source variable whose value is measured.
    pub of: Var,
    /// The axis measured.
    pub axis: usize,
}

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
    /// The target variables no source binds, each a size of a source
    /// variable's value ([`bind_extents`]).
    pub extents: Vec<Extent>,
}

impl MultiPatternRule {
    /// Creates a rule from textual patterns; `extents` lists each
    /// `(var, of, axis)` with `?var = dim(?of, axis)` (names without `?`).
    ///
    /// # Panics
    ///
    /// Panics if the pattern lists have different lengths, any pattern
    /// fails to parse, an extent measures a variable no source binds, or a
    /// target uses a variable bound by neither a source nor an extent —
    /// rule definitions are static program data.
    pub fn new(name: &str, srcs: &[&str], dsts: &[&str], extents: &[(&str, &str, usize)]) -> Self {
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
        let extents: Vec<Extent> = extents
            .iter()
            .map(|&(var, of, axis)| {
                let (var, of) = (Var::new(var), Var::new(of));
                assert!(
                    src_vars.contains(&of),
                    "rule {name}: extent {var} measures unbound variable {of}"
                );
                Extent { var, of, axis }
            })
            .collect();
        for d in &dsts {
            for v in d.vars() {
                assert!(
                    src_vars.contains(&v) || extents.iter().any(|e| e.var == v),
                    "rule {name}: target uses unbound variable {v}"
                );
            }
        }
        MultiPatternRule {
            name: name.to_string(),
            srcs,
            dsts,
            extents,
        }
    }
}

/// Binds a rule's [`MultiPatternRule::extents`] for one match whose source
/// variables carry the data `data` reads: `out` is cleared and gets each
/// extent's variable with its size as [`TensorData::Scalar`], in rule
/// order. False when a measured value is not a tensor with that axis — no
/// target of the match can then be well typed.
///
/// The one place an extent is computed: the exploration engine, its
/// oracle and the rule verifier all bind through it.
pub fn bind_extents<'a>(
    extents: &[Extent],
    data: impl Fn(Var) -> Option<&'a TensorData>,
    out: &mut Vec<(Var, TensorData)>,
) -> bool {
    out.clear();
    for e in extents {
        match data(e.of)
            .and_then(TensorData::shape)
            .and_then(|s| s.get(e.axis))
        {
            Some(&size) => out.push((e.var, TensorData::Scalar(size))),
            None => return false,
        }
    }
    true
}

/// The multi-pattern rule set used by TENSAT: merging parallel `matmul`s or
/// `conv`s that share an operand into a single wider operator (paper
/// Figures 2, 8, 9 and the generalisations mentioned in the appendix).
pub fn multi_rules() -> Vec<MultiPatternRule> {
    vec![
        // Two matmuls sharing the data input -> one matmul over concatenated
        // weights (paper Fig. 2 / Fig. 8), cut where ?w1's columns end.
        MultiPatternRule::new(
            "merge-matmuls-shared-lhs",
            &["(matmul ?act ?x ?w1)", "(matmul ?act ?x ?w2)"],
            &[
                "(split0 1 ?n (matmul ?act ?x (concat2 1 ?w1 ?w2)))",
                "(split1 1 ?n (matmul ?act ?x (concat2 1 ?w1 ?w2)))",
            ],
            &[("n", "w1", 1)],
        ),
        // Two matmuls sharing the weight -> one matmul over concatenated
        // data rows, cut where ?x1's rows end.
        MultiPatternRule::new(
            "merge-matmuls-shared-rhs",
            &["(matmul ?act ?x1 ?w)", "(matmul ?act ?x2 ?w)"],
            &[
                "(split0 0 ?n (matmul ?act (concat2 0 ?x1 ?x2) ?w))",
                "(split1 0 ?n (matmul ?act (concat2 0 ?x1 ?x2) ?w))",
            ],
            &[("n", "x1", 0)],
        ),
        // Two convolutions sharing the input -> one convolution over
        // concatenated output channels (paper Fig. 9), cut where ?w1's
        // output channels end.
        MultiPatternRule::new(
            "merge-convs-shared-input",
            &[
                "(conv ?sh ?sw ?p ?act ?x ?w1)",
                "(conv ?sh ?sw ?p ?act ?x ?w2)",
            ],
            &[
                "(split0 1 ?n (conv ?sh ?sw ?p ?act ?x (concat2 0 ?w1 ?w2)))",
                "(split1 1 ?n (conv ?sh ?sw ?p ?act ?x (concat2 0 ?w1 ?w2)))",
            ],
            &[("n", "w1", 0)],
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
            &[],
        );
    }

    #[test]
    #[should_panic]
    fn extent_of_an_unbound_variable_panics() {
        MultiPatternRule::new(
            "bad",
            &["(matmul ?act ?x ?w1)", "(matmul ?act ?x ?w2)"],
            &["?x", "(split0 0 ?n ?x)"],
            &[("n", "nope", 0)],
        );
    }

    #[test]
    #[should_panic]
    fn mismatched_lengths_panic() {
        MultiPatternRule::new(
            "bad",
            &["(matmul ?act ?x ?w1)", "(matmul ?act ?x ?w2)"],
            &["?x"],
            &[],
        );
    }

    #[test]
    fn extents_read_the_measured_axis() {
        let rules = multi_rules();
        let w1 = TensorData::Tensor(tensat_ir::TensorInfo::new(vec![128, 64], true));
        let mut out = vec![];
        let data = |v: Var| (v == Var::new("w1")).then_some(&w1);
        assert!(bind_extents(&rules[0].extents, data, &mut out));
        assert_eq!(out, vec![(Var::new("n"), TensorData::Scalar(64))]);
        assert!(bind_extents(&rules[2].extents, data, &mut out));
        assert_eq!(out, vec![(Var::new("n"), TensorData::Scalar(128))]);
        // ?x1 has no data here: the match cannot be bound.
        assert!(!bind_extents(&rules[1].extents, data, &mut out));
        let scalar = TensorData::Scalar(3);
        assert!(!bind_extents(
            &rules[0].extents,
            |_| Some(&scalar),
            &mut out
        ));
    }
}
