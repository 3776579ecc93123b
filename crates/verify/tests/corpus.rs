//! Regression tests pinning the verifier's verdict on the shipped rule
//! corpus: no errors, no dead rules, and exactly the known, understood
//! warnings. A rule edit that introduces an unsound or dead rule — or a
//! new reliance on the runtime shape condition — fails here before it can
//! ship.

use tensat_verify::{verify_shipped_corpus, Severity};

/// The rules known (and proven, see the per-rule analysis summaries) to
/// produce shape-divergent bindings that only the runtime shape condition
/// blocks: concatenating a *batched* (rank-3) matmul operand changes how
/// the batch and row dimensions compose, so these rules are sound only
/// because every application re-checks shapes. `double-transpose` is the
/// fifth: transposing twice by a non-involutive permutation (`?p =
/// "1_2_0"`) does not give `?x` back, and only its involution condition
/// keeps that binding from firing.
const KNOWN_CONDITION_RELIANT: &[&str] = &[
    "concat-matmul",
    "concat-matmul-rev",
    "batch-matmul-add",
    "batch-matmul-add-rev",
    "double-transpose",
];

#[test]
fn shipped_corpus_has_no_errors() {
    let report = verify_shipped_corpus();
    assert_eq!(
        report.error_count(),
        0,
        "shipped corpus must verify clean:\n{report}"
    );
}

#[test]
fn every_shipped_rule_has_a_live_witness() {
    let report = verify_shipped_corpus();
    for rule in &report.rules {
        assert!(
            rule.summary.contains("live witness:"),
            "rule `{}` has no confirmed fireable binding: {}",
            rule.name,
            rule.summary
        );
    }
}

#[test]
fn warnings_are_exactly_the_known_condition_reliant_rules() {
    let report = verify_shipped_corpus();
    let mut warned: Vec<&str> = report
        .rules
        .iter()
        .filter(|r| {
            r.diagnostics
                .iter()
                .any(|d| d.severity == Severity::Warning)
        })
        .map(|r| r.name.as_str())
        .collect();
    warned.sort_unstable();
    let mut expected = KNOWN_CONDITION_RELIANT.to_vec();
    expected.sort_unstable();
    assert_eq!(
        warned, expected,
        "set of warned rules changed — new warnings need the same scrutiny \
         these five got:\n{report}"
    );
    for rule in &report.rules {
        for d in &rule.diagnostics {
            assert_eq!(
                d.code, "divergence-blocked",
                "unexpected finding kind on `{}`: {d}",
                rule.name
            );
        }
    }
}

#[test]
fn corpus_has_no_duplicate_or_subsumed_rules() {
    let report = verify_shipped_corpus();
    assert!(
        report.corpus.is_empty(),
        "corpus-level findings (duplicates / subsumption) must stay \
         empty:\n{report}"
    );
}

#[test]
fn corpus_covers_every_shipped_rule() {
    let report = verify_shipped_corpus();
    let singles = tensat_rules::single_rules().len();
    let multis = tensat_rules::multi_rules().len();
    assert_eq!(report.rules.len(), singles + multis);
}
