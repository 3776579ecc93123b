//! Static soundness verification for the TENSAT rewrite-rule corpus.
//!
//! Equality saturation trusts its rules: an unsound rewrite silently
//! corrupts every e-class it touches and the extracted "optimized" graph
//! computes something else. This crate analyzes every shipped
//! [`TensorRewrite`] and [`MultiPatternRule`] **without running
//! saturation**, combining two passes:
//!
//! * **shape soundness** (`soundness`) — a symbolic abstract
//!   interpreter over [`tensat_ir::symbolic`] proves (or refutes, with a
//!   concrete counterexample binding) that the RHS preserves the output
//!   shape and validity for every binding of the LHS, falling back to
//!   exhaustive enumeration over a curated value universe for operators
//!   outside the linear symbolic domain;
//! * **well-formedness lints** (`lints`) — unbound RHS variables,
//!   rules whose two sides are identical up to renaming, and duplicate and
//!   subsumed rules across the corpus.
//!
//! The `verify_rules` binary prints the per-rule report for the shipped
//! corpus and exits nonzero on any error, which is how CI gates rule
//! changes. `tensat-core` runs [`verify_corpus`] at `Optimizer`
//! construction time when `TENSAT_VERIFY_RULES=1` is set.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod lints;
mod soundness;
pub mod universe;

use std::fmt;
use tensat_egraph::Pattern;
use tensat_ir::TensorLang;
use tensat_rules::{multi_rules, single_rules, MultiPatternRule, TensorRewrite};

pub use soundness::Counterexample;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but not unsound: condition-blocked shape divergence,
    /// duplicate or subsumed rules.
    Warning,
    /// The rule is unsound, dead, or malformed; the corpus must not ship
    /// with it.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// A single verifier finding.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Error or warning.
    pub severity: Severity,
    /// A stable machine-readable code (`unsound-shape`, `dead-rule`,
    /// `unbound-rhs-var`, ...) for tests to pin against.
    pub code: &'static str,
    /// The human-readable explanation, naming the offending variable and
    /// a concrete counterexample where one exists.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}/{}] {}", self.severity, self.code, self.message)
    }
}

/// Everything the analyses need to know about one rule, independent of
/// whether it arrived as a [`TensorRewrite`], a [`MultiPatternRule`] or a
/// raw pattern pair.
pub(crate) struct RuleSpec<'a> {
    /// Source (LHS) patterns; one for single rules.
    pub sources: Vec<&'a Pattern<TensorLang>>,
    /// Target (RHS) patterns, paired with sources by index (single rules
    /// and symmetric multi rules) .
    pub targets: Vec<&'a Pattern<TensorLang>>,
    /// Whether a runtime [`tensat_egraph::Condition`] filters matches
    /// before application (shape-divergent bindings are then blocked
    /// rather than unsound).
    pub conditional: bool,
}

/// The verification outcome for one rule.
#[derive(Debug, Clone)]
pub struct RuleReport {
    /// The rule's name.
    pub name: String,
    /// One-line analysis summary (method, case counts, live witness).
    pub summary: String,
    /// All findings, errors first.
    pub diagnostics: Vec<Diagnostic>,
}

impl RuleReport {
    /// True if any finding is an [`Severity::Error`].
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }
}

impl fmt::Display for RuleReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let status = if self.has_errors() {
            "FAIL"
        } else if self.diagnostics.is_empty() {
            "ok"
        } else {
            "warn"
        };
        writeln!(f, "{:4} {}", status, self.name)?;
        writeln!(f, "       {}", self.summary)?;
        for d in &self.diagnostics {
            writeln!(f, "       {d}")?;
        }
        Ok(())
    }
}

/// The verification outcome for a whole rule corpus.
#[derive(Debug, Clone, Default)]
pub struct CorpusReport {
    /// Per-rule reports, in corpus order.
    pub rules: Vec<RuleReport>,
    /// Corpus-level findings (duplicates, subsumption).
    pub corpus: Vec<Diagnostic>,
}

impl CorpusReport {
    fn count(&self, sev: Severity) -> usize {
        self.rules
            .iter()
            .flat_map(|r| &r.diagnostics)
            .chain(&self.corpus)
            .filter(|d| d.severity == sev)
            .count()
    }

    /// Total number of error findings across rules and corpus lints.
    pub fn error_count(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Total number of warning findings across rules and corpus lints.
    pub fn warning_count(&self) -> usize {
        self.count(Severity::Warning)
    }

    /// The report for a rule by name, if present.
    pub fn rule(&self, name: &str) -> Option<&RuleReport> {
        self.rules.iter().find(|r| r.name == name)
    }
}

impl fmt::Display for CorpusReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in &self.rules {
            write!(f, "{r}")?;
        }
        if !self.corpus.is_empty() {
            writeln!(f, "corpus-level findings:")?;
            for d in &self.corpus {
                writeln!(f, "       {d}")?;
            }
        }
        writeln!(
            f,
            "{} rules verified: {} errors, {} warnings",
            self.rules.len(),
            self.error_count(),
            self.warning_count()
        )
    }
}

fn run_spec(name: &str, spec: &RuleSpec) -> RuleReport {
    let mut diags = lints::check_rule_shape(&spec.sources, &spec.targets);

    let unbound = lints::unbound_target_vars(&spec.sources, &spec.targets);
    for v in &unbound {
        diags.push(Diagnostic {
            severity: Severity::Error,
            code: "unbound-rhs-var",
            message: format!(
                "variable {v} is used on the RHS but bound by no LHS pattern — applying the \
                 rule would instantiate it out of thin air"
            ),
        });
    }

    // With unbound variables the abstract interpretation cannot evaluate
    // the targets; the structural error above already fails the rule.
    let summary = if unbound.is_empty() {
        let (sound_diags, summary) = soundness::check_soundness(spec);
        diags.extend(sound_diags);
        summary
    } else {
        "skipped (unbound RHS variables)".to_string()
    };

    diags.sort_by_key(|d| std::cmp::Reverse(d.severity));
    RuleReport {
        name: name.to_string(),
        summary,
        diagnostics: diags,
    }
}

/// Verifies one single-pattern rewrite: structural lints and
/// shape-soundness analysis.
pub fn verify_rewrite(rule: &TensorRewrite) -> RuleReport {
    let spec = RuleSpec {
        sources: vec![&rule.searcher],
        targets: vec![&rule.applier],
        conditional: rule.condition.is_some(),
    };
    run_spec(&rule.name, &spec)
}

/// Verifies one multi-pattern rule. The sources and targets are paired by
/// index (the corpus rules are all source-i-rewrites-to-target-i shaped).
pub fn verify_multi_rule(rule: &MultiPatternRule) -> RuleReport {
    let spec = RuleSpec {
        sources: rule.srcs.iter().collect(),
        targets: rule.dsts.iter().collect(),
        // Multi-pattern applications always run the shape condition per
        // target before unioning.
        conditional: true,
    };
    run_spec(&rule.name, &spec)
}

/// Verifies a raw pattern pair that never went through
/// [`TensorRewrite`] construction (which would panic on unbound RHS
/// variables — this entry point reports them as diagnostics instead,
/// which is what mutation tests need).
pub fn verify_patterns(
    name: &str,
    sources: &[Pattern<TensorLang>],
    targets: &[Pattern<TensorLang>],
    conditional: bool,
) -> RuleReport {
    let spec = RuleSpec {
        sources: sources.iter().collect(),
        targets: targets.iter().collect(),
        conditional,
    };
    run_spec(name, &spec)
}

/// Verifies a full corpus: every rule individually, plus cross-rule
/// duplicate/subsumption detection.
pub fn verify_corpus(singles: &[TensorRewrite], multis: &[MultiPatternRule]) -> CorpusReport {
    let mut report = CorpusReport::default();
    for rule in singles {
        report.rules.push(verify_rewrite(rule));
    }
    for rule in multis {
        report.rules.push(verify_multi_rule(rule));
    }

    // Duplicates: identical alpha-canonical rule text.
    let keys: Vec<(String, String)> = singles
        .iter()
        .map(|r| {
            (
                r.name.clone(),
                lints::joint_canonical(&[&r.searcher], &[&r.applier]),
            )
        })
        .chain(multis.iter().map(|r| {
            (
                r.name.clone(),
                lints::joint_canonical(
                    &r.srcs.iter().collect::<Vec<_>>(),
                    &r.dsts.iter().collect::<Vec<_>>(),
                ),
            )
        }))
        .collect();
    for (i, (name_a, key_a)) in keys.iter().enumerate() {
        for (name_b, key_b) in &keys[i + 1..] {
            if key_a == key_b {
                report.corpus.push(Diagnostic {
                    severity: Severity::Warning,
                    code: "duplicate-rule",
                    message: format!(
                        "rules `{name_a}` and `{name_b}` are identical up to variable renaming"
                    ),
                });
            }
        }
    }

    // Subsumption among single rules: a strictly more general rule makes
    // the specialized one redundant. (Exact duplicates are reported above,
    // not repeated here.)
    for a in singles {
        for b in singles {
            if a.name == b.name {
                continue;
            }
            let dup = lints::joint_canonical(&[&a.searcher], &[&a.applier])
                == lints::joint_canonical(&[&b.searcher], &[&b.applier]);
            if !dup && lints::subsumes((&a.searcher, &a.applier), (&b.searcher, &b.applier)) {
                report.corpus.push(Diagnostic {
                    severity: Severity::Warning,
                    code: "subsumed-rule",
                    message: format!(
                        "rule `{}` is an instance of the more general `{}` and never \
                         contributes a new equality",
                        b.name, a.name
                    ),
                });
            }
        }
    }

    report
}

/// Verifies the rule corpus this workspace ships
/// ([`tensat_rules::single_rules`] + [`tensat_rules::multi_rules`]).
pub fn verify_shipped_corpus() -> CorpusReport {
    verify_corpus(&single_rules(), &multi_rules())
}
