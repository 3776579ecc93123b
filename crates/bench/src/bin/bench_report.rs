//! `bench-report`: times e-matching search and greedy extraction on the
//! big-class e-graph ([`tensat_bench::nasnet_egraph`], NasNet-A at
//! `blocks: 4`, 30 000 e-nodes) and emits a machine-readable
//! `BENCH_egraph.json` so CI can archive the trajectory across PRs.
//!
//! The `rule_search` section is the per-rule view of one search sweep: for
//! every single-pattern rule its candidate classes, matches, best-of-rounds
//! microseconds and ns/match, slowest rule first. A rule whose ns/match is
//! orders of magnitude above the others is searching super-linearly — the
//! table that found the whole-class scan inside `Bind` (`concat-conv` at
//! 33 µs/match).
//!
//! The `extraction_big` row times greedy extraction on the same e-graph —
//! the DAG pass, the tree pass, and [`extract_greedy_dag`], which runs both
//! — and records how full the DAG pass's reach sets are: members in all,
//! the largest set, and the slots a set could hold. The sets are sorted
//! lists because they hold well under 1/32 of the slots; this is the row
//! that says whether they still do.

use std::io::Write;
use std::time::Instant;
use tensat_core::extract_greedy_dag;
use tensat_egraph::{DagExtractor, Extractor, Id, SearchSnapshot};
use tensat_ir::{CostModel, TensorEGraph};
use tensat_rules::{single_rules, TensorRewrite};

/// Timing rounds per extraction pass (best is kept): the minimum is the
/// noise-robust statistic for a CPU-bound pass on a busy container.
const ROUNDS: usize = 9;

/// Node limit of the per-rule search table's e-graph: the repo benchmark's
/// `nasnet_search` size.
const RULE_SEARCH_NODE_LIMIT: usize = 30_000;

/// Timing rounds per rule for the per-rule search table (best is kept).
const RULE_SEARCH_ROUNDS: usize = 3;

/// The `rule_search` JSON section: one search per single-pattern rule on
/// the NasNet-A `blocks: 4` e-graph, slowest rule first. Each rule is
/// searched on its own against one search snapshot of the e-graph, as the
/// exploration loop searches it, so the times leave the snapshot out.
fn rule_search_section(rules: &[TensorRewrite], eg: &TensorEGraph) -> String {
    let programs: Vec<_> = rules.iter().map(|rule| rule.searcher.program()).collect();
    let snapshot = SearchSnapshot::new(eg, &programs);
    let mut rows: Vec<(&str, usize, usize, u128)> = rules
        .iter()
        .enumerate()
        .map(|(i, rule)| {
            let candidates = snapshot.candidates(i).len();
            let mut matches = 0;
            let mut best = u128::MAX;
            for _ in 0..RULE_SEARCH_ROUNDS {
                let start = Instant::now();
                let found = std::hint::black_box(snapshot.search(eg, i));
                best = best.min(start.elapsed().as_nanos());
                matches = found.iter().map(|m| m.substs.len()).sum();
            }
            (rule.name.as_str(), candidates, matches, best)
        })
        .collect();
    rows.sort_by_key(|&(_, _, _, ns)| std::cmp::Reverse(ns));

    eprintln!("[bench-report] per-rule search, NasNet-A blocks 4:");
    eprintln!(
        "  {:<28} {:>10} {:>9} {:>10} {:>9}",
        "rule", "candidates", "matches", "us", "ns/match"
    );
    let largest_class = eg.classes().map(|c| c.len()).max().unwrap_or(0);
    let mut out = format!(
        "  \"rule_search\": {{\n    \"model\": \"NasNet-A\",\n    \"blocks\": 4,\n    \
         \"enodes\": {},\n    \"eclasses\": {},\n    \"largest_class\": {largest_class},\n    \
         \"rules\": [\n",
        eg.total_number_of_nodes(),
        eg.number_of_classes(),
    );
    for (ri, (name, candidates, matches, ns)) in rows.iter().enumerate() {
        let us = *ns as f64 / 1e3;
        let ns_per_match = *ns as f64 / (*matches).max(1) as f64;
        eprintln!("  {name:<28} {candidates:>10} {matches:>9} {us:>10.1} {ns_per_match:>9.0}");
        out.push_str(&format!(
            "      {{ \"rule\": \"{name}\", \"candidate_classes\": {candidates}, \
             \"matches\": {matches}, \"us\": {us:.1}, \"ns_per_match\": {ns_per_match:.0} }}{}\n",
            if ri + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("    ]\n  },\n");
    out
}

/// The `extraction_big` JSON row: greedy extraction on the NasNet-A
/// `blocks: 4` e-graph, best of [`ROUNDS`] per pass, and the density of the
/// DAG pass's reach sets.
fn extraction_big_section(eg: &TensorEGraph, root: Id) -> String {
    let model = CostModel::default();
    let dag_pass = || DagExtractor::new(eg, &model);
    let best_ms = |pass: &dyn Fn()| {
        let rounds = (0..ROUNDS).map(|_| {
            let start = Instant::now();
            pass();
            start.elapsed()
        });
        rounds.min().expect("ROUNDS > 0").as_secs_f64() * 1e3
    };
    let dag_pass_ms = best_ms(&|| {
        std::hint::black_box(dag_pass().find_best(root));
    });
    let tree_pass_ms = best_ms(&|| {
        let tree = Extractor::new(eg, &model);
        std::hint::black_box(tree.find_best(root));
    });
    let greedy_dag_ms = best_ms(&|| {
        std::hint::black_box(extract_greedy_dag(eg, root, &model).expect("extraction succeeds"));
    });

    let dag = dag_pass();
    let reach: Vec<usize> = eg.classes().filter_map(|c| dag.reach_len(c.id)).collect();
    let members: usize = reach.iter().sum();
    let largest = reach.iter().max().copied().unwrap_or(0);
    let slots = eg.num_slots();
    eprintln!(
        "[bench-report] extraction, NasNet-A blocks 4: DAG pass {dag_pass_ms:.1} ms, tree pass \
         {tree_pass_ms:.1} ms, extract_greedy_dag {greedy_dag_ms:.1} ms; reach sets: {members} \
         members in {} sets (largest {largest}) over {slots} slots",
        reach.len(),
    );
    format!(
        "  \"extraction_big\": {{ \"model\": \"NasNet-A\", \"blocks\": 4, \"enodes\": {}, \
         \"dag_pass_ms\": {dag_pass_ms:.2}, \"tree_pass_ms\": {tree_pass_ms:.2}, \
         \"greedy_dag_ms\": {greedy_dag_ms:.2}, \"reach_members\": {members}, \
         \"reach_largest\": {largest}, \"slots\": {slots} }}\n",
        eg.total_number_of_nodes(),
    )
}

fn main() {
    let rules = single_rules();
    let mut out = format!("{{\n  \"bench\": \"ematch\",\n  \"rounds\": {ROUNDS},\n");
    eprintln!("[bench-report] growing NasNet-A (blocks 4) to {RULE_SEARCH_NODE_LIMIT} e-nodes...");
    let (big, big_root) = tensat_bench::nasnet_egraph(RULE_SEARCH_NODE_LIMIT);
    out.push_str(&rule_search_section(&rules, &big));
    out.push_str(&extraction_big_section(&big, big_root));
    out.push_str("}\n");

    let path = "BENCH_egraph.json";
    let mut f = std::fs::File::create(path).expect("create BENCH_egraph.json");
    f.write_all(out.as_bytes()).expect("write report");
    println!("[bench-report] wrote {path}");
}
