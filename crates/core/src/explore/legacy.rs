//! The pre-seam monolithic exploration loop, kept as a differential
//! oracle — the same role [`Pattern::search_naive`] plays for the
//! compiled e-matching machine: one function, the in-place apply loop, no
//! shared state with the engine. Its stop rule is the engine's (the
//! iteration whose apply phase `node_limit` cuts is the last), written
//! here with plain locals. The seam refactor
//! ([`Saturate`](super::Saturate) over
//! [`ExplorationContext`](super::ExplorationContext)) is proven
//! bit-identical to this function on random e-graphs and every
//! `BENCHMARKS` model by `crates/bench/tests/exploration_strategies.rs`;
//! nothing in production calls it.
//!
//! The apply machinery (`skip_for_cycles`, `apply_multi_rule`,
//! `cartesian`, `apply_combo`) is duplicated privately rather than shared
//! with the engine, so a regression in the restructured control flow
//! cannot silently rewrite the oracle it is checked against. In
//! particular the multi-pattern product here renames, merges and compares
//! owned substitutions, where the engine's walks match rows through a
//! compiled plan. Only canonicalization is shared.
//!
//! [`Pattern::search_naive`]: tensat_egraph::Pattern::search_naive

use super::{canonicalize_pattern, CycleFilter, ExplorationConfig, ExplorationStats, StopReason};
use crate::cycles::{remove_all_cycles, would_create_cycle, DescendantsMap};
use std::collections::HashMap;
use std::time::Instant;
use tensat_egraph::{search_all_parallel, Id, Pattern, Subst, Var};
use tensat_ir::{TensorEGraph, TensorLang};
use tensat_rules::{bind_extents, pattern_data_with, MultiPatternRule, TensorRewrite};

/// Runs the exploration phase on an e-graph already seeded with the input
/// graph — the pre-seam saturate-all implementation. Returns statistics;
/// the e-graph is grown in place.
pub fn explore_monolithic(
    egraph: &mut TensorEGraph,
    root: Id,
    single_rules: &[TensorRewrite],
    multi_rules: &[MultiPatternRule],
    config: &ExplorationConfig,
) -> ExplorationStats {
    let start = Instant::now();
    let mut stats = ExplorationStats::default();
    egraph.rebuild();

    // Canonicalize multi-pattern sources and deduplicate them (Algorithm 1,
    // lines 1–8).
    let mut unique_patterns: Vec<Pattern<TensorLang>> = vec![];
    let mut pattern_index: HashMap<String, usize> = HashMap::new();
    let compiled: Vec<MultiRuleCompiled> = multi_rules
        .iter()
        .map(|rule| {
            let srcs = rule
                .srcs
                .iter()
                .map(|src| {
                    let (canon, originals) = canonicalize_pattern(src);
                    let back: HashMap<Var, Var> = canon.vars().into_iter().zip(originals).collect();
                    let key = canon.to_string();
                    let idx = *pattern_index.entry(key).or_insert_with(|| {
                        unique_patterns.push(canon.clone());
                        unique_patterns.len() - 1
                    });
                    (idx, back)
                })
                .collect();
            MultiRuleCompiled {
                rule: rule.clone(),
                srcs,
            }
        })
        .collect();
    // The deduplicated canonical sources are searched once per iteration:
    // compile their e-matching programs before the loop starts.
    for pattern in &unique_patterns {
        pattern.precompile();
    }

    // The node or time limit, if the e-graph or the clock has reached it.
    let limit_reached = |egraph: &TensorEGraph| {
        if egraph.total_number_of_nodes() >= config.node_limit {
            Some(StopReason::NodeLimit(config.node_limit))
        } else if start.elapsed() >= config.time_limit {
            Some(StopReason::TimeLimit(config.time_limit))
        } else {
            None
        }
    };

    for iter in 0..config.max_iter {
        stats.stop_reason = limit_reached(egraph);
        if stats.stop_reason.is_some() {
            break;
        }
        let nodes_before = egraph.total_number_of_nodes();
        let unions_before = egraph.union_count();

        // Descendants map for the efficient pre-filter (Algorithm 2, line 3).
        let mut desc = match config.cycle_filter {
            CycleFilter::Efficient => Some(DescendantsMap::compute(egraph)),
            _ => None,
        };

        // --- search phase ---------------------------------------------------
        let do_multi = iter < config.k_multi;
        let mut searchers: Vec<&Pattern<TensorLang>> =
            single_rules.iter().map(|rw| &rw.searcher).collect();
        if do_multi {
            searchers.extend(&unique_patterns);
        }
        let mut single_matches = search_all_parallel(&searchers, egraph, config.search_threads);
        let multi_matches = single_matches.split_off(single_rules.len());

        // --- apply single-pattern rules --------------------------------------
        'single_apply: for (rw, matches) in single_rules.iter().zip(&single_matches) {
            for m in matches {
                // Owned substitutions, one per row: the oracle does not
                // share the engine's scratch refill.
                for subst in m.substs.iter() {
                    if egraph.total_number_of_nodes() >= config.node_limit
                        || start.elapsed() >= config.time_limit
                    {
                        break 'single_apply;
                    }
                    if let Some(cond) = &rw.condition {
                        if !cond(egraph, m.eclass, &subst) {
                            continue;
                        }
                    }
                    if skip_for_cycles(
                        egraph,
                        config.cycle_filter,
                        &mut desc,
                        m.eclass,
                        &rw.applier,
                        &subst,
                    ) {
                        continue;
                    }
                    rw.applier.apply_one(egraph, m.eclass, &subst);
                }
            }
        }

        // --- apply multi-pattern rules (first k_multi iterations only) ------
        if iter < config.k_multi {
            for mrule in &compiled {
                apply_multi_rule(egraph, mrule, &multi_matches, config, &mut desc, start);
                if egraph.total_number_of_nodes() >= config.node_limit
                    || start.elapsed() >= config.time_limit
                {
                    break;
                }
            }
        }

        // A limit that stopped the apply phase ends the run, whatever the
        // rebuild's deduplication leaves of the node count.
        let apply_limit = limit_reached(egraph);

        egraph.rebuild();

        // Post-processing: resolve cycles that slipped past the pre-filter
        // (Algorithm 2, lines 10–18).
        if config.cycle_filter == CycleFilter::Efficient {
            stats.filtered_nodes += remove_all_cycles(egraph, root);
        }

        stats.iterations = iter + 1;
        stats
            .nodes_per_iteration
            .push(egraph.total_number_of_nodes());

        let changed =
            egraph.total_number_of_nodes() != nodes_before || egraph.union_count() != unions_before;
        if !changed {
            stats.saturated = true;
            stats.stop_reason = Some(StopReason::Saturated);
            break;
        }
        if apply_limit.is_some() {
            stats.stop_reason = apply_limit;
            break;
        }
        if iter + 1 == config.max_iter {
            stats.stop_reason = Some(StopReason::IterationLimit(config.max_iter));
        }
    }

    stats.enodes = egraph.total_number_of_nodes();
    stats.eclasses = egraph.number_of_classes();
    stats.time = start.elapsed();
    stats
}

/// Returns true if the candidate application must be skipped because it
/// would create a cycle under the configured filtering mode.
fn skip_for_cycles(
    egraph: &TensorEGraph,
    filter: CycleFilter,
    desc: &mut Option<DescendantsMap>,
    matched: Id,
    target: &Pattern<TensorLang>,
    subst: &Subst,
) -> bool {
    match filter {
        CycleFilter::Off => false,
        CycleFilter::Efficient => {
            let desc = desc
                .as_ref()
                .expect("descendants map exists in efficient mode");
            would_create_cycle(egraph, desc, matched, target, subst)
        }
        CycleFilter::Vanilla => {
            let fresh = DescendantsMap::compute(egraph);
            would_create_cycle(egraph, &fresh, matched, target, subst)
        }
    }
}

/// A multi-pattern rule with its sources resolved into the deduplicated
/// canonical pattern list the oracle searches once per iteration.
struct MultiRuleCompiled {
    rule: MultiPatternRule,
    /// For each source pattern: index into the unique canonical pattern
    /// list and the canonical→original variable map.
    srcs: Vec<(usize, HashMap<Var, Var>)>,
}

/// Translates a substitution over canonical variables back to the original
/// variables of a rule (Algorithm 1, `DECANONICAL`).
fn decanonicalize_subst(subst: &Subst, back: &HashMap<Var, Var>) -> Subst {
    let mut out = Subst::new();
    for (var, id) in subst.iter() {
        let original = back.get(&var).copied().unwrap_or(var);
        out.insert(original, id);
    }
    out
}

/// Merges two substitutions, returning `None` if they disagree on a shared
/// variable (Algorithm 1, `COMPATIBLE`).
fn merge_substs(egraph: &TensorEGraph, a: &Subst, b: &Subst) -> Option<Subst> {
    let mut out = a.clone();
    for (var, id) in b.iter() {
        match out.get(var) {
            Some(existing) if egraph.find(existing) != egraph.find(id) => return None,
            Some(_) => {}
            None => {
                out.insert(var, id);
            }
        }
    }
    Some(out)
}

/// True if two substitutions bind the same variables to the same e-classes
/// modulo the union-find: a union made by an earlier application can leave
/// two equal bindings with different raw ids.
fn substs_equal_canonical(egraph: &TensorEGraph, a: &Subst, b: &Subst) -> bool {
    a.len() == b.len()
        && a.iter().all(
            |(var, id)| matches!(b.get(var), Some(other) if egraph.find(other) == egraph.find(id)),
        )
}

/// One source's matches: its unique pattern index, and per match the root
/// class, the canonical substitution and the decanonicalized one.
type SourceMatches = (usize, Vec<(Id, Subst, Subst)>);

fn apply_multi_rule(
    egraph: &mut TensorEGraph,
    mrule: &MultiRuleCompiled,
    all_matches: &[Vec<tensat_egraph::SearchMatches>],
    config: &ExplorationConfig,
    desc: &mut Option<DescendantsMap>,
    start: Instant,
) {
    // Flat match lists per source pattern, canonical and decanonicalized.
    let per_src: Vec<SourceMatches> = mrule
        .srcs
        .iter()
        .map(|(idx, back)| {
            let entries = all_matches[*idx]
                .iter()
                .flat_map(|m| {
                    m.substs.iter().map(move |s| {
                        let original = decanonicalize_subst(&s, back);
                        (m.eclass, s, original)
                    })
                })
                .collect();
            (*idx, entries)
        })
        .collect();

    // Cartesian product over the source patterns (Algorithm 1, line 16).
    // A combination entry is `(pattern, class, canonical, decanonicalized)`.
    let mut combo: Vec<(usize, Id, Subst, Subst)> = Vec::with_capacity(per_src.len());
    cartesian(egraph, mrule, &per_src, 0, &mut combo, config, desc, start);
}

#[allow(clippy::too_many_arguments)]
fn cartesian(
    egraph: &mut TensorEGraph,
    mrule: &MultiRuleCompiled,
    per_src: &[SourceMatches],
    depth: usize,
    combo: &mut Vec<(usize, Id, Subst, Subst)>,
    config: &ExplorationConfig,
    desc: &mut Option<DescendantsMap>,
    start: Instant,
) {
    if egraph.total_number_of_nodes() >= config.node_limit || start.elapsed() >= config.time_limit {
        return;
    }
    if depth == per_src.len() {
        apply_combo(egraph, mrule, combo, config, desc);
        return;
    }
    let (pattern, entries) = &per_src[depth];
    for (eclass, canonical, subst) in entries {
        // The same match picked twice: same unique pattern, same class and
        // same canonical binding.
        if combo.iter().any(|(p, c, s, _)| {
            p == pattern
                && egraph.find(*c) == egraph.find(*eclass)
                && substs_equal_canonical(egraph, s, canonical)
        }) {
            continue;
        }
        combo.push((*pattern, *eclass, canonical.clone(), subst.clone()));
        cartesian(
            egraph,
            mrule,
            per_src,
            depth + 1,
            combo,
            config,
            desc,
            start,
        );
        combo.pop();
        if egraph.total_number_of_nodes() >= config.node_limit {
            return;
        }
    }
}

fn apply_combo(
    egraph: &mut TensorEGraph,
    mrule: &MultiRuleCompiled,
    combo: &[(usize, Id, Subst, Subst)],
    config: &ExplorationConfig,
    desc: &mut Option<DescendantsMap>,
) {
    // Check compatibility at shared variables and build the merged binding.
    let mut merged = Subst::new();
    for (_, _, _, subst) in combo {
        match merge_substs(egraph, &merged, subst) {
            Some(m) => merged = m,
            None => return,
        }
    }
    // Bind the extents; their `Num` classes are added on application.
    let mut sizes = vec![];
    let class_data = |v| merged.get(v).map(|class| &egraph.eclass(class).data);
    if !bind_extents(&mrule.rule.extents, class_data, &mut sizes) {
        return;
    }
    let data = |v| match sizes.iter().find(|(u, _)| *u == v) {
        Some((_, d)) => Some(d),
        None => class_data(v),
    };
    // Shape check every target, and make sure output shapes match the
    // matched classes.
    for ((_, matched, _, _), dst) in combo.iter().zip(&mrule.rule.dsts) {
        let target_data = pattern_data_with(dst, &data);
        if !target_data.iter().all(|d| d.is_valid()) {
            return;
        }
        let out_shape = target_data
            .last()
            .and_then(|d| d.shape().map(|s| s.to_vec()));
        let class_shape = egraph.eclass(*matched).data.shape().map(|s| s.to_vec());
        if let (Some(a), Some(b)) = (class_shape, out_shape) {
            if a != b {
                return;
            }
        }
    }
    // Cycle pre-filtering per target.
    for ((_, matched, _, _), dst) in combo.iter().zip(&mrule.rule.dsts) {
        if skip_for_cycles(egraph, config.cycle_filter, desc, *matched, dst, &merged) {
            return;
        }
    }
    // Apply: union each matched class with its instantiated target.
    for (var, size) in sizes {
        let size = size.as_scalar().expect("an extent is a scalar");
        merged.insert(var, egraph.add(TensorLang::Num(size)));
    }
    for ((_, matched, _, _), dst) in combo.iter().zip(&mrule.rule.dsts) {
        dst.apply_one(egraph, *matched, &merged);
    }
}
