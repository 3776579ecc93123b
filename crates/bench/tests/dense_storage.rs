//! Acceptance tests of the dense slot-indexed e-graph storage on the real
//! benchmark models: the refactor must be observationally invisible.
//!
//! On every BENCHMARKS model, the compiled machine search equals the
//! legacy recursive oracle (`Pattern::search_naive`) for every rule on the
//! explored e-graph, and the storage passes the exhaustive invariant
//! validator ([`tensat_egraph::EGraph::check_invariants`]) — also after
//! exploration saturates a model with the single-pattern rules. A
//! second case repeats the machine-vs-oracle check, for every rule, on the
//! one model whose classes grow to hundreds of nodes (NasNet-A at
//! `blocks: 4`) — where the machine's range lookup inside `Bind` visits a
//! small part of a class and the oracle scans all of it.
//!
//! (The dev container is single-core, so equality — not wall-clock — is
//! the proof; pure-search speed is tracked by the `ematch_*` benches and
//! the `bench_report` bin.)

use std::collections::{BTreeMap, BTreeSet};
use tensat_core::{CycleFilter, ExplorationConfig, StopReason};
use tensat_egraph::{Id, SearchMatches, Var};
use tensat_ir::{TensorAnalysis, TensorEGraph};
use tensat_models::{build_benchmark, ModelScale, BENCHMARKS};
use tensat_rules::single_rules;

/// Canonical set form of a match list (class identity collapsed to the
/// canonical id *within one e-graph*).
fn normalize(
    eg: &TensorEGraph,
    matches: &[SearchMatches],
) -> BTreeMap<Id, BTreeSet<Vec<(Var, Id)>>> {
    let mut out: BTreeMap<Id, BTreeSet<Vec<(Var, Id)>>> = BTreeMap::new();
    for m in matches {
        let substs = out.entry(eg.find(m.eclass)).or_default();
        for row in m.substs.rows() {
            let vars = m.substs.vars().iter().copied();
            let mut bindings: Vec<(Var, Id)> =
                vars.zip(row.iter().map(|&id| eg.find(id))).collect();
            bindings.sort();
            substs.insert(bindings);
        }
    }
    out
}

/// Machine search must agree with the naive oracle for every rule on every
/// explored benchmark model, and the dense storage must validate.
#[test]
fn machine_equals_naive_oracle_on_every_benchmark_model() {
    let rules = single_rules();
    for name in BENCHMARKS {
        let graph = build_benchmark(name, ModelScale::tiny());
        let mut eg = TensorEGraph::new(TensorAnalysis);
        let root = eg.add_expr(&graph);
        eg.rebuild();
        tensat_core::explore(
            &mut eg,
            root,
            &rules,
            &[],
            &ExplorationConfig {
                max_iter: 1,
                node_limit: 5_000,
                search_threads: 1,
                ..Default::default()
            },
        );
        eg.check_invariants();
        for rule in &rules {
            let machine = rule.searcher.search(&eg);
            let naive = rule.searcher.search_naive(&eg);
            assert_eq!(
                normalize(&eg, &machine),
                normalize(&eg, &naive),
                "model {name} rule {}: machine diverged from the naive oracle",
                rule.name
            );
        }
    }
    // The exploration loop drives the same storage to saturation on real
    // models (a subset keeps this inside the suite's time budget).
    for name in ["NasRNN", "BERT", "SqueezeNet"] {
        let graph = build_benchmark(name, ModelScale::tiny());
        let mut eg = TensorEGraph::new(TensorAnalysis);
        let root = eg.add_expr(&graph);
        eg.rebuild();
        let stats = tensat_core::explore(
            &mut eg,
            root,
            &rules,
            &[],
            &ExplorationConfig {
                max_iter: 8,
                node_limit: 20_000,
                cycle_filter: CycleFilter::Off,
                search_threads: 1,
                ..Default::default()
            },
        );
        assert_eq!(
            stats.stop_reason,
            Some(StopReason::Saturated),
            "model {name}"
        );
        eg.check_invariants();
    }
}

/// Node limit of the big-class differential below: the size at which
/// NasNet-A's largest classes hold hundreds of nodes while the oracle,
/// which scans whole classes per enclosing alternative (cubic on
/// `concat-conv`), still finishes in about a second unoptimized.
const NASNET_NODE_LIMIT: usize = 10_000;

/// The machine's `Bind` finds its nodes by binary search in the sorted
/// class; the models above, one iteration in, have no class big enough for
/// that to differ from a scan. NasNet-A at `blocks: 4` does (its
/// separable-conv outputs collapse into a few classes of hundreds of
/// nodes): every rule's machine search must equal the naive whole-class
/// scan — same classes in the same order, same substitutions (bindings
/// sorted per substitution, as the two matchers number variables
/// differently).
#[test]
fn machine_search_equals_naive_on_big_nasnet_classes_for_every_rule() {
    fn sorted_bindings(m: &SearchMatches) -> Vec<Vec<(Var, Id)>> {
        let mut substs: Vec<Vec<_>> = m
            .substs
            .rows()
            .map(|row| {
                let vars = m.substs.vars().iter().copied();
                let mut bindings: Vec<_> = vars.zip(row.iter().copied()).collect();
                bindings.sort();
                bindings
            })
            .collect();
        substs.sort();
        substs
    }

    let (eg, _) = tensat_bench::nasnet_egraph(NASNET_NODE_LIMIT);
    let largest = eg.classes().map(|c| c.len()).max().unwrap_or(0);
    assert!(
        largest >= 256,
        "expected a class of hundreds of nodes, largest holds {largest}"
    );
    let mut total_matches = 0usize;
    for rule in &single_rules() {
        let machine = rule.searcher.search(&eg);
        let naive = rule.searcher.search_naive(&eg);
        assert_eq!(
            machine.iter().map(|m| m.eclass).collect::<Vec<_>>(),
            naive.iter().map(|m| m.eclass).collect::<Vec<_>>(),
            "rule {}: matched classes differ",
            rule.name
        );
        for (m, n) in machine.iter().zip(&naive) {
            assert_eq!(
                sorted_bindings(m),
                sorted_bindings(n),
                "rule {} class {}: substitutions differ",
                rule.name,
                m.eclass
            );
            total_matches += m.substs.len();
        }
    }
    assert!(
        total_matches > 1_000,
        "expected a substantive workload, saw {total_matches} substitutions"
    );
}
