//! Differential proptests of analysis-guided (guarded) e-matching on the
//! real benchmark models (paper §6.1): for every BENCHMARKS model and every
//! single-pattern rule,
//!
//! 1. guarded search = unguarded search post-filtered by the rule's guard
//!    predicates, *bit-identically* (same class order, same substitution
//!    order);
//! 2. filtering both by the legacy post-match [`Condition`] yields the same
//!    surviving applications — the guards are a sound approximation of the
//!    condition, so pushing them into the machine changes *when* dead
//!    bindings die, never *which* applications fire;
//! 3. parallel guarded search is bit-identical to sequential guarded search
//!    for 1–8 threads.
//!
//! A fourth case checks the unguarded machine against the naive oracle, for
//! every rule, on the one model whose classes grow to hundreds of nodes
//! (NasNet-A at `blocks: 4`) — where the machine's range lookup inside
//! `Bind` visits a small part of a class and the oracle scans all of it.
//!
//! The e-graphs are grown by one exploration iteration first so classes
//! hold multiple nodes, as they do during saturation. The dev container is
//! single-core, so these equivalences — not wall-clock numbers — are the
//! correctness story for the guard machinery.
//!
//! [`Condition`]: tensat_egraph::Condition

use proptest::prelude::*;
use std::sync::OnceLock;
use tensat_core::{explore, CycleFilter, ExplorationConfig};
use tensat_egraph::{SearchMatches, Subst};
use tensat_ir::{TensorAnalysis, TensorEGraph};
use tensat_models::{build_benchmark, ModelScale, BENCHMARKS};
use tensat_rules::{single_rules, TensorRewrite};

/// One explored e-graph per benchmark model, built once and shared
/// read-only across all proptest cases (search never mutates).
fn model_egraphs() -> &'static Vec<(&'static str, TensorEGraph)> {
    static CELL: OnceLock<Vec<(&'static str, TensorEGraph)>> = OnceLock::new();
    CELL.get_or_init(|| {
        let rules = single_rules();
        BENCHMARKS
            .iter()
            .map(|name| {
                let graph = build_benchmark(name, ModelScale::default());
                let mut eg = TensorEGraph::new(TensorAnalysis);
                let root = eg.add_expr(&graph);
                eg.rebuild();
                explore(
                    &mut eg,
                    root,
                    &rules,
                    &[],
                    &ExplorationConfig {
                        max_iter: 1,
                        node_limit: 10_000,
                        search_threads: 1,
                        cycle_filter: CycleFilter::Efficient,
                        ..Default::default()
                    },
                );
                (*name, eg)
            })
            .collect()
    })
}

fn rules() -> &'static Vec<TensorRewrite> {
    static CELL: OnceLock<Vec<TensorRewrite>> = OnceLock::new();
    CELL.get_or_init(single_rules)
}

/// Post-filters a match list by a rule's guard predicates — the reference
/// semantics the guarded machine must reproduce bit-identically.
fn filter_by_guards(
    eg: &TensorEGraph,
    rule: &TensorRewrite,
    matches: &[SearchMatches],
) -> Vec<SearchMatches> {
    let Some(guarded) = rule.guarded_program() else {
        return matches.to_vec();
    };
    let vars = guarded.program().guard_vars();
    let preds = guarded.guards();
    matches
        .iter()
        .filter_map(|m| {
            let substs: Vec<Subst> = m
                .substs
                .iter()
                .filter(|s| {
                    vars.iter().zip(preds).all(|(v, g)| match s.get(*v) {
                        // Recompute the kind tag from the data (rather than
                        // reading the e-graph's side table), so a stale tag
                        // table would surface as a divergence here.
                        Some(id) => {
                            let data = &eg.eclass(id).data;
                            g.check(data.kind_tag(), data)
                        }
                        None => true,
                    })
                })
                .cloned()
                .collect();
            (!substs.is_empty()).then_some(SearchMatches {
                eclass: m.eclass,
                substs,
            })
        })
        .collect()
}

/// Post-filters a match list by the rule's legacy post-match condition
/// (`None` = unconditional).
fn filter_by_condition(
    eg: &TensorEGraph,
    rule: &TensorRewrite,
    matches: &[SearchMatches],
) -> Vec<SearchMatches> {
    matches
        .iter()
        .filter_map(|m| {
            let substs: Vec<Subst> = m
                .substs
                .iter()
                .filter(|s| match &rule.condition {
                    Some(cond) => cond(eg, m.eclass, s),
                    None => true,
                })
                .cloned()
                .collect();
            (!substs.is_empty()).then_some(SearchMatches {
                eclass: m.eclass,
                substs,
            })
        })
        .collect()
}

proptest! {
    /// The acceptance property of the guard tentpole, checked on every
    /// BENCHMARKS model with a randomly drawn rule and thread count.
    #[test]
    fn guarded_search_is_equivalent_on_benchmark_models(
        model_idx in 0usize..BENCHMARKS.len(),
        rule_pick in any::<usize>(),
        n_threads in 1usize..=8,
    ) {
        let (name, eg) = &model_egraphs()[model_idx];
        let rules = rules();
        let rule = &rules[rule_pick % rules.len()];

        let unguarded = rule.searcher.search(eg);
        let guarded = rule.search(eg);

        // (1) Guarded search = unguarded search filtered by the guard
        // predicates, bit for bit.
        prop_assert_eq!(
            &guarded,
            &filter_by_guards(eg, rule, &unguarded),
            "model {} rule {}: guarded != filtered unguarded", name, &rule.name
        );

        // (2) The legacy condition accepts the same applications either
        // way: guards only remove matches the condition rejects.
        prop_assert_eq!(
            filter_by_condition(eg, rule, &guarded),
            filter_by_condition(eg, rule, &unguarded),
            "model {} rule {}: guards changed the surviving applications", name, &rule.name
        );

        // (3) Parallel guarded search is bit-identical to sequential.
        if let Some(program) = rule.guarded_program() {
            prop_assert_eq!(
                program.search_parallel(eg, n_threads),
                guarded,
                "model {} rule {}: parallel ({} threads) diverged", name, &rule.name, n_threads
            );
        }
    }
}

/// Exhaustive (non-random) sweep: every model x every rule once, so a
/// regression in a rarely drawn rule cannot hide behind the sampler. Also
/// asserts the workload is substantive — the explored e-graphs produce
/// matches, and every rule carries guards.
#[test]
fn guarded_search_matches_filtered_search_for_every_model_and_rule() {
    let mut total_matches = 0usize;
    for (name, eg) in model_egraphs() {
        assert!(
            eg.total_number_of_nodes() > 10,
            "model {name}: e-graph unexpectedly trivial"
        );
        for rule in rules() {
            assert!(
                rule.guarded_program().is_some(),
                "rule {} lost its guards",
                rule.name
            );
            let unguarded = rule.searcher.search(eg);
            let guarded = rule.search(eg);
            total_matches += unguarded.iter().map(|m| m.substs.len()).sum::<usize>();
            assert_eq!(
                guarded,
                filter_by_guards(eg, rule, &unguarded),
                "model {name} rule {}",
                rule.name
            );
            assert_eq!(
                filter_by_condition(eg, rule, &guarded),
                filter_by_condition(eg, rule, &unguarded),
                "model {name} rule {}",
                rule.name
            );
        }
    }
    assert!(
        total_matches > 100,
        "expected a substantive e-matching workload, saw {total_matches} substitutions"
    );
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
    fn sorted_bindings(m: &SearchMatches) -> Vec<Vec<(tensat_egraph::Var, tensat_egraph::Id)>> {
        let mut substs: Vec<Vec<_>> = m
            .substs
            .iter()
            .map(|s| {
                let mut bindings: Vec<_> = s.iter().collect();
                bindings.sort();
                bindings
            })
            .collect();
        substs.sort();
        substs
    }

    let eg = tensat_bench::nasnet_egraph(NASNET_NODE_LIMIT);
    let largest = eg.classes().map(|c| c.len()).max().unwrap_or(0);
    assert!(
        largest >= 256,
        "expected a class of hundreds of nodes, largest holds {largest}"
    );
    let mut total_matches = 0usize;
    for rule in rules() {
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
