//! The `TENSAT_VERIFY_RULES=1` registration-time gate: constructing an
//! [`Optimizer`] with an unsound rule must panic with the verifier's
//! report, and the shipped rule set must construct cleanly.
//!
//! Lives in its own integration-test binary: the gate caches the
//! environment variable on first read, so the variable must be set before
//! *any* optimizer is constructed in the process.

use tensat_core::{Optimizer, OptimizerConfig};
use tensat_egraph::Rewrite;
use tensat_rules::parse_pattern;

#[test]
fn registration_gate_rejects_unsound_rules_and_accepts_shipped_ones() {
    std::env::set_var("TENSAT_VERIFY_RULES", "1");

    // The shipped corpus passes the gate.
    let _ = Optimizer::new(OptimizerConfig::default());

    // An unconditional shape-changing rule does not. (The rule is built
    // inside the closure: rewrites hold `dyn Fn` conditions, which are
    // not `UnwindSafe` to borrow across the catch boundary.)
    let result = std::panic::catch_unwind(|| {
        let bad = Rewrite::new(
            "ewadd-to-concat",
            parse_pattern("(ewadd ?x ?y)").unwrap(),
            parse_pattern("(concat2 0 ?x ?y)").unwrap(),
        );
        Optimizer::with_rules(OptimizerConfig::default(), vec![bad], vec![])
    });
    let err = result.expect_err("unsound rule must be rejected at registration");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(
        msg.contains("failed static verification") && msg.contains("unsound-shape"),
        "unexpected panic message: {msg}"
    );
}
