//! Pinning test for the environment-variable overrides: `TENSAT_EXTRACTOR`
//! and `TENSAT_EXPLORER` are parsed *uncached* on every call, by design.
//!
//! Caching (e.g. a `OnceLock`) would read marginally faster, but these
//! overrides exist for harnesses and tests that vary the strategy *within
//! one process* — the forced-smoke CI jobs and the bench binaries re-read
//! them between runs, and a cached value would silently pin the first
//! reading. This test pins the uncached contract: a second call observes a
//! changed variable. If someone adds caching, this fails and the doc
//! comments on [`ExtractionMode::from_env`] / [`ExplorationMode::from_env`] need
//! rewriting along with the harnesses that rely on per-run variation.
//!
//! Everything lives in ONE `#[test]` because environment variables are
//! process-global and the libtest harness runs `#[test]` functions
//! concurrently — splitting these assertions across tests would race.

use tensat_core::{ExplorationMode, ExtractionMode};
use tensat_egraph::search_threads_from_env;

#[test]
fn env_overrides_are_read_uncached() {
    // Start from a clean slate regardless of the invoking shell.
    std::env::remove_var("TENSAT_EXTRACTOR");
    std::env::remove_var("TENSAT_EXPLORER");
    std::env::remove_var("TENSAT_SEARCH_THREADS");

    // Unset → None.
    assert_eq!(ExtractionMode::from_env(), None);
    assert_eq!(ExplorationMode::from_env(), None);
    assert_eq!(search_threads_from_env(), None);

    // Set → parsed; a *second* call after mutation must observe the new
    // value (the uncached contract this test pins).
    std::env::set_var("TENSAT_EXTRACTOR", "dag");
    assert_eq!(ExtractionMode::from_env(), Some(ExtractionMode::GreedyDag));
    std::env::set_var("TENSAT_EXTRACTOR", "ilp");
    assert_eq!(ExtractionMode::from_env(), Some(ExtractionMode::Ilp));
    std::env::set_var("TENSAT_EXTRACTOR", "GREEDY");
    assert_eq!(ExtractionMode::from_env(), Some(ExtractionMode::Greedy));
    // Unrecognized names are None, not a panic (harness typos degrade to
    // the configured default).
    std::env::set_var("TENSAT_EXTRACTOR", "simulated-annealing");
    assert_eq!(ExtractionMode::from_env(), None);
    // Both strategy overrides are trimmed before parsing (a trailing
    // newline from `$(cat ...)` must not fall back to the default);
    // whitespace-only counts as unset.
    std::env::set_var("TENSAT_EXTRACTOR", "dag\n");
    assert_eq!(ExtractionMode::from_env(), Some(ExtractionMode::GreedyDag));
    std::env::set_var("TENSAT_EXTRACTOR", " ilp ");
    assert_eq!(ExtractionMode::from_env(), Some(ExtractionMode::Ilp));
    std::env::set_var("TENSAT_EXTRACTOR", "   ");
    assert_eq!(ExtractionMode::from_env(), None);
    std::env::remove_var("TENSAT_EXTRACTOR");
    assert_eq!(ExtractionMode::from_env(), None);

    std::env::set_var("TENSAT_EXPLORER", "  guided  ");
    assert_eq!(ExplorationMode::from_env(), Some(ExplorationMode::Guided));
    std::env::set_var("TENSAT_EXPLORER", "taso");
    assert_eq!(ExplorationMode::from_env(), Some(ExplorationMode::Taso));
    std::env::set_var("TENSAT_EXPLORER", "   ");
    assert_eq!(ExplorationMode::from_env(), None);
    std::env::remove_var("TENSAT_EXPLORER");
    assert_eq!(ExplorationMode::from_env(), None);

    // Thread-count overrides share the same uncached contract (the doc
    // comments on the strategy overrides cite them as the precedent).
    std::env::set_var("TENSAT_SEARCH_THREADS", "4");
    assert_eq!(search_threads_from_env(), Some(4));
    std::env::set_var("TENSAT_SEARCH_THREADS", "2");
    assert_eq!(search_threads_from_env(), Some(2));
    std::env::set_var("TENSAT_SEARCH_THREADS", "0");
    assert_eq!(search_threads_from_env(), None);
    std::env::set_var("TENSAT_SEARCH_THREADS", "many");
    assert_eq!(search_threads_from_env(), None);
    std::env::remove_var("TENSAT_SEARCH_THREADS");
    assert_eq!(search_threads_from_env(), None);
}
