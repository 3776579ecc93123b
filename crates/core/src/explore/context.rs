//! The shared exploration engine: one [`ExplorationContext`] holds the
//! compiled single- and multi-pattern rule programs, the deduplicated
//! canonical multi sources, the cycle filter, and the run's budget clock.
//! Every
//! [`ExplorationStrategy`](super::ExplorationStrategy) drives the same
//! search/apply machinery through it — [`Saturate`](super::Saturate) as
//! whole iterations ([`ExplorationContext::run_iteration`]),
//! [`Guided`](super::Guided) as per-rule budgeted batches on snapshot
//! states.

use super::{
    canonicalize_pattern, decanonicalize_subst, merge_substs, substs_equal_canonical, CycleFilter,
    ExplorationConfig, ExplorationStats, MultiRuleCompiled, StopReason,
};
use crate::cycles::{remove_all_cycles, would_create_cycle, DescendantsMap};
use std::cell::Cell;
use std::collections::HashMap;
use std::time::{Duration, Instant};
use tensat_egraph::{search_all_parallel, Id, Pattern, SearchMatches, Subst};
use tensat_ir::{TensorEGraph, TensorLang};
use tensat_rules::{pattern_data, MultiPatternRule, TensorRewrite};

/// Everything a strategy needs to explore: the root, the rules with their
/// compiled programs, the configuration, and the budget clock (started
/// when the context is built, i.e. when exploration begins).
pub struct ExplorationContext<'a> {
    root: Id,
    single_rules: &'a [TensorRewrite],
    config: &'a ExplorationConfig,
    /// Multi rules with sources resolved into `unique_patterns`.
    compiled: Vec<MultiRuleCompiled>,
    /// Deduplicated canonical multi-pattern sources (Algorithm 1, lines
    /// 1–8), precompiled.
    unique_patterns: Vec<Pattern<TensorLang>>,
    start: Instant,
    /// Set once an iteration's apply phase has run into `node_limit` (see
    /// [`ExplorationContext::over_budget`]). Read before the rebuild's
    /// deduplication can pull the node count back under the limit.
    node_limit_cut: Cell<bool>,
}

impl<'a> ExplorationContext<'a> {
    /// Compiles the rule programs: canonicalizes and deduplicates the
    /// multi-pattern sources, compiles them, and starts the budget clock.
    pub(crate) fn new(
        root: Id,
        single_rules: &'a [TensorRewrite],
        multi_rules: &[MultiPatternRule],
        config: &'a ExplorationConfig,
    ) -> Self {
        let start = Instant::now();
        let mut unique_patterns: Vec<Pattern<TensorLang>> = vec![];
        let mut pattern_index: HashMap<String, usize> = HashMap::new();
        let compiled: Vec<MultiRuleCompiled> = multi_rules
            .iter()
            .map(|rule| {
                let srcs = rule
                    .srcs
                    .iter()
                    .map(|src| {
                        let (canon, back) = canonicalize_pattern(src);
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
        // The deduplicated canonical sources are searched once per
        // iteration: compile their e-matching programs before any strategy
        // starts.
        for pattern in &unique_patterns {
            pattern.precompile();
        }
        ExplorationContext {
            root,
            single_rules,
            config,
            compiled,
            unique_patterns,
            start,
            node_limit_cut: Cell::new(false),
        }
    }

    /// The root e-class exploration optimizes for.
    pub fn root(&self) -> Id {
        self.root
    }

    /// The exploration configuration.
    pub fn config(&self) -> &ExplorationConfig {
        self.config
    }

    /// The single-pattern rule set.
    pub fn single_rules(&self) -> &[TensorRewrite] {
        self.single_rules
    }

    /// Number of multi-pattern rules (indexable by
    /// [`ExplorationContext::apply_multi_budgeted`]).
    pub fn multi_rule_count(&self) -> usize {
        self.compiled.len()
    }

    /// Wall-clock time since exploration began.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// True once the time or node budget is exhausted — the check of
    /// Algorithm 1, asked at every iteration boundary and, inside
    /// [`ExplorationContext::run_iteration`], before every application.
    ///
    /// The node budget is spent when the e-graph holds `node_limit`
    /// e-nodes **or an earlier iteration's apply phase was cut by the
    /// limit**: the rebuild that follows deduplicates, so the count usually
    /// drops back under the limit, and an iteration started from there
    /// would re-search the whole e-graph to add the few hundred e-nodes of
    /// headroom the deduplication freed. The iteration the limit cuts is
    /// therefore the last one, for every loop built over `over_budget` and
    /// `run_iteration`.
    pub fn over_budget(&self, egraph: &TensorEGraph) -> bool {
        self.node_limit_cut.get()
            || self.elapsed() >= self.config.time_limit
            || egraph.total_number_of_nodes() >= self.config.node_limit
    }

    /// Fills in the final-state fields of `stats`: e-node/e-class counts,
    /// total time and — unless `run_iteration` already recorded a limit
    /// that ended the loop — why the run stopped. Strategies call this
    /// once before returning.
    pub fn finish(&self, egraph: &TensorEGraph, stats: &mut ExplorationStats) {
        stats.enodes = egraph.total_number_of_nodes();
        stats.eclasses = egraph.number_of_classes();
        stats.time = self.elapsed();
        if stats.saturated {
            stats.stop_reason = Some(StopReason::Saturated);
        } else if stats.stop_reason.is_none() {
            // No iteration ended the run: a limit was already spent at an
            // iteration boundary (or, for strategies with a loop of their
            // own, when they gave up), or the strategy stopped by a rule
            // of its own and there is nothing to report.
            stats.stop_reason = self.limit_reached(stats.enodes);
        }
    }

    /// The node or time limit, if `enodes` e-nodes or the elapsed time
    /// have reached it; the node limit wins when both have.
    fn limit_reached(&self, enodes: usize) -> Option<StopReason> {
        if enodes >= self.config.node_limit {
            Some(StopReason::NodeLimit(self.config.node_limit))
        } else if self.elapsed() >= self.config.time_limit {
            Some(StopReason::TimeLimit(self.config.time_limit))
        } else {
            None
        }
    }

    /// One full engine iteration — Algorithm 1's loop body: batched
    /// search of every rule against the iteration-start e-graph,
    /// apply all single-pattern matches, apply multi-pattern combinations
    /// (first `k_multi` iterations only), rebuild, and resolve cycles.
    /// Updates `stats` and returns whether the e-graph changed (`false`
    /// means saturation).
    ///
    /// Both budgets are asked before every application. If the apply
    /// phase ends with the node limit reached, this iteration is the last:
    /// [`ExplorationContext::over_budget`] reports true from then on,
    /// whatever the rebuild leaves, and `stats.stop_reason` says
    /// `NodeLimit`. `stats.stop_reason` is likewise set when the time
    /// limit passed during the iteration or `iter` was the last one
    /// `max_iter` allows, and cleared otherwise.
    pub fn run_iteration(
        &self,
        egraph: &mut TensorEGraph,
        iter: usize,
        stats: &mut ExplorationStats,
    ) -> bool {
        let config = self.config;
        let nodes_before = egraph.total_number_of_nodes();
        let unions_before = egraph.union_count();

        let desc = self.prefilter_map(egraph, stats);

        // --- search phase ---------------------------------------------------
        // All matches — single-pattern and multi-pattern alike — are
        // collected against the iteration-start e-graph, which is clean
        // (rebuilt at the end of the previous iteration): pattern search
        // requires a clean e-graph for the operator index and congruence
        // invariant to hold. This mirrors Algorithm 1, which gathers every
        // match before applying any substitution.
        let do_multi = iter < config.k_multi;

        let search_start = Instant::now();
        let (single_matches, multi_matches) = self.search_state(egraph, do_multi);
        // Flatten the multi match lists into `(root class, canonical
        // substitution)` entries in search order.
        let multi_flat: Vec<Vec<(Id, Subst)>> = multi_matches
            .iter()
            .map(|ms| flatten_matches(ms).collect())
            .collect();
        stats.search_time += search_start.elapsed();

        // --- apply single-pattern rules ---------------------------------------
        let apply_start = Instant::now();
        let within_budget = |egraph: &TensorEGraph| !self.over_budget(egraph);
        for (rw, matches) in self.single_rules.iter().zip(&single_matches) {
            if self.apply_single(egraph, rw, matches, desc.as_ref(), within_budget) {
                break;
            }
        }

        // --- apply multi-pattern rules (first k_multi iterations only) ------
        if do_multi {
            for mrule in &self.compiled {
                apply_multi_rule(
                    egraph,
                    mrule,
                    &multi_flat,
                    config.cycle_filter,
                    desc.as_ref(),
                    &within_budget,
                );
                if self.over_budget(egraph) {
                    break;
                }
            }
        }
        stats.apply_time += apply_start.elapsed();
        record_prefilter(desc.as_ref(), stats);

        // Which limit, if any, stopped the apply phase — read before the
        // rebuild's deduplication can pull the node count back under its
        // limit.
        let limit = self.limit_reached(egraph.total_number_of_nodes());
        if matches!(limit, Some(StopReason::NodeLimit(_))) {
            self.node_limit_cut.set(true);
        }

        let rebuild_start = Instant::now();
        egraph.rebuild();

        // Post-processing: resolve cycles that slipped past the pre-filter
        // (Algorithm 2, lines 10–18).
        if config.cycle_filter == CycleFilter::Efficient {
            stats.filtered_nodes += remove_all_cycles(egraph, self.root);
        }
        stats.rebuild_time += rebuild_start.elapsed();

        stats.iterations = iter + 1;
        stats
            .nodes_per_iteration
            .push(egraph.total_number_of_nodes());
        stats.stop_reason = limit.or_else(|| {
            (iter + 1 >= config.max_iter).then_some(StopReason::IterationLimit(config.max_iter))
        });

        egraph.total_number_of_nodes() != nodes_before || egraph.union_count() != unions_before
    }

    /// Batched search of every single-pattern rule — and, when
    /// `include_multi`, every deduplicated canonical multi-pattern source
    /// — against a clean e-graph. Returns `(single, multi)` match lists in
    /// rule/source order.
    ///
    /// Every searcher goes through one batch of the sharded search driver,
    /// so a hot rule's candidate chunks spread over all `search_threads`
    /// threads; with 1 thread the driver is the sequential machine
    /// verbatim, and the match lists are bit-identical either way, so
    /// every strategy stays deterministic.
    pub fn search_state(
        &self,
        egraph: &TensorEGraph,
        include_multi: bool,
    ) -> (Vec<Vec<SearchMatches>>, Vec<Vec<SearchMatches>>) {
        let mut searchers: Vec<&Pattern<TensorLang>> =
            self.single_rules.iter().map(|rw| &rw.searcher).collect();
        if include_multi {
            searchers.extend(&self.unique_patterns);
        }
        let mut single = search_all_parallel(&searchers, egraph, self.config.search_threads);
        let multi = single.split_off(self.single_rules.len());
        (single, multi)
    }

    /// Applies one single-pattern rule's match batch to a candidate state
    /// under a *hard* node budget: an application is attempted only while
    /// the e-graph plus the applier's worst-case growth (its AST size)
    /// stays within `budget`, so the state never exceeds it. Rebuilds and
    /// cycle-filters afterwards, leaving the state clean for scoring. Adds
    /// the descendants-map time to `stats.prefilter_time` and what the map
    /// was asked to `stats.prefilter_{queries, walks, rejected}`.
    pub fn apply_single_budgeted(
        &self,
        egraph: &mut TensorEGraph,
        rule_index: usize,
        matches: &[SearchMatches],
        budget: usize,
        stats: &mut ExplorationStats,
    ) {
        let rw = &self.single_rules[rule_index];
        // Worst-case e-nodes one application can add: every pattern node
        // is new. (Variables instantiate to existing classes, so this
        // over-estimates — which only makes the budget check stricter.)
        let headroom = rw.applier.ast.len();
        let desc = self.prefilter_map(egraph, stats);
        // The budget is asked before every application and one application
        // adds at most `headroom` nodes — so the budget stays hard.
        self.apply_single(egraph, rw, matches, desc.as_ref(), |egraph| {
            egraph.total_number_of_nodes() + headroom <= budget
                && self.elapsed() < self.config.time_limit
        });
        record_prefilter(desc.as_ref(), stats);
        self.seal_state(egraph);
    }

    /// Applies one multi-pattern rule's Cartesian combinations to a
    /// candidate state under a hard node budget (same contract as
    /// [`ExplorationContext::apply_single_budgeted`]): a combination is
    /// attempted only while the e-graph plus the rule's total target size
    /// stays within `budget`, so no application can push the state past
    /// it. `multi_matches` is indexed by unique canonical source, as
    /// returned by [`ExplorationContext::search_state`].
    pub fn apply_multi_budgeted(
        &self,
        egraph: &mut TensorEGraph,
        rule_index: usize,
        multi_matches: &[Vec<SearchMatches>],
        budget: usize,
        stats: &mut ExplorationStats,
    ) {
        let mrule = &self.compiled[rule_index];
        let headroom: usize = mrule.rule.dsts.iter().map(|d| d.ast.len()).sum();
        if headroom > budget {
            // No combination fits: nothing to snapshot, apply or seal.
            return;
        }
        let desc = self.prefilter_map(egraph, stats);
        let flat: Vec<Vec<(Id, Subst)>> = multi_matches
            .iter()
            .map(|ms| flatten_matches(ms).collect())
            .collect();
        // Asked before every combination, and one combination adds at most
        // `headroom` nodes — so the budget stays hard.
        let keep_going = |egraph: &TensorEGraph| {
            egraph.total_number_of_nodes() + headroom <= budget
                && self.elapsed() < self.config.time_limit
        };
        let filter = self.config.cycle_filter;
        apply_multi_rule(egraph, mrule, &flat, filter, desc.as_ref(), &keep_going);
        record_prefilter(desc.as_ref(), stats);
        self.seal_state(egraph);
    }

    /// Applies one single-pattern rule's matches through the one apply
    /// loop ([`tensat_egraph::Rewrite::apply_while`]): per candidate ask
    /// `keep_going`, evaluate the rule's condition, ask the cycle
    /// pre-filter, apply in place. Returns whether `keep_going` cut the
    /// loop short.
    fn apply_single(
        &self,
        egraph: &mut TensorEGraph,
        rw: &TensorRewrite,
        matches: &[SearchMatches],
        desc: Option<&DescendantsMap>,
        keep_going: impl Fn(&TensorEGraph) -> bool,
    ) -> bool {
        let filter = self.config.cycle_filter;
        rw.apply_while(egraph, matches, keep_going, |egraph, eclass, subst| {
            !skip_for_cycles(egraph, filter, desc, eclass, &rw.applier, subst)
        })
        .1
    }

    /// The descendants map for the efficient pre-filter (Algorithm 2,
    /// line 3), computed on the clean batch-start e-graph and timed into
    /// `stats.prefilter_time`; `None` in the other filtering modes.
    fn prefilter_map(
        &self,
        egraph: &TensorEGraph,
        stats: &mut ExplorationStats,
    ) -> Option<DescendantsMap> {
        if self.config.cycle_filter != CycleFilter::Efficient {
            return None;
        }
        let start = Instant::now();
        let desc = DescendantsMap::compute(egraph);
        stats.prefilter_time += start.elapsed();
        Some(desc)
    }

    /// Rebuilds a candidate state and resolves cycles, restoring the
    /// invariants scoring and the next search step rely on.
    fn seal_state(&self, egraph: &mut TensorEGraph) {
        egraph.rebuild();
        if self.config.cycle_filter == CycleFilter::Efficient {
            remove_all_cycles(egraph, self.root);
        }
    }
}

/// Flattens one source pattern's match list into `(root class, canonical
/// substitution)` entries in search order — owned substitutions, which the
/// multi-pattern product renames, merges and keeps on its combination
/// stack.
fn flatten_matches(matches: &[SearchMatches]) -> impl Iterator<Item = (Id, Subst)> + '_ {
    matches
        .iter()
        .flat_map(|m| m.substs.iter().map(move |s| (m.eclass, s)))
}

/// Adds what the pre-filter's map was asked during one apply phase to the
/// run's counters.
fn record_prefilter(desc: Option<&DescendantsMap>, stats: &mut ExplorationStats) {
    if let Some(desc) = desc {
        stats.prefilter_queries += desc.queries();
        stats.prefilter_walks += desc.walks();
        stats.prefilter_rejected += desc.rejected();
    }
}

/// Returns true if the candidate application must be skipped because it
/// would create a cycle under the configured filtering mode.
fn skip_for_cycles(
    egraph: &TensorEGraph,
    filter: CycleFilter,
    desc: Option<&DescendantsMap>,
    matched: Id,
    target: &Pattern<TensorLang>,
    subst: &Subst,
) -> bool {
    match filter {
        CycleFilter::Off => false,
        CycleFilter::Efficient => {
            let desc = desc.expect("descendants map exists in efficient mode");
            would_create_cycle(egraph, desc, matched, target, subst)
        }
        CycleFilter::Vanilla => {
            // Vanilla filtering recomputes reachability for every candidate:
            // a full pass over the e-graph per check (paper §5.2).
            let fresh = DescendantsMap::compute(egraph);
            would_create_cycle(egraph, &fresh, matched, target, subst)
        }
    }
}

fn apply_multi_rule(
    egraph: &mut TensorEGraph,
    mrule: &MultiRuleCompiled,
    all_matches: &[Vec<(Id, Subst)>],
    filter: CycleFilter,
    desc: Option<&DescendantsMap>,
    keep_going: &impl Fn(&TensorEGraph) -> bool,
) {
    // Decanonicalized flat match lists per source pattern.
    let per_src: Vec<Vec<(Id, Subst)>> = mrule
        .srcs
        .iter()
        .map(|(idx, back)| {
            all_matches[*idx]
                .iter()
                .map(|(eclass, subst)| (*eclass, decanonicalize_subst(subst, back)))
                .collect()
        })
        .collect();

    // Cartesian product over the source patterns (Algorithm 1, line 16).
    // All current rules have exactly two sources; the generic recursion
    // handles more.
    let mut combo: Vec<(Id, Subst)> = Vec::with_capacity(per_src.len());
    cartesian(
        egraph, mrule, &per_src, &mut combo, filter, desc, keep_going,
    );
}

/// Extends `combo` — one match per source pattern so far — by every match
/// of the next source, and applies each complete combination. `keep_going`
/// is asked before every extension, so also right before every
/// application.
fn cartesian(
    egraph: &mut TensorEGraph,
    mrule: &MultiRuleCompiled,
    per_src: &[Vec<(Id, Subst)>],
    combo: &mut Vec<(Id, Subst)>,
    filter: CycleFilter,
    desc: Option<&DescendantsMap>,
    keep_going: &impl Fn(&TensorEGraph) -> bool,
) {
    let depth = combo.len();
    if depth == per_src.len() {
        apply_combo(egraph, mrule, combo, filter, desc);
        return;
    }
    for (eclass, subst) in &per_src[depth] {
        if !keep_going(egraph) {
            return;
        }
        if mrule.rule.skip_identical
            && combo.iter().any(|(c, s)| {
                egraph.find(*c) == egraph.find(*eclass) && substs_equal_canonical(egraph, s, subst)
            })
        {
            continue;
        }
        combo.push((*eclass, subst.clone()));
        cartesian(egraph, mrule, per_src, combo, filter, desc, keep_going);
        combo.pop();
    }
}

fn apply_combo(
    egraph: &mut TensorEGraph,
    mrule: &MultiRuleCompiled,
    combo: &[(Id, Subst)],
    filter: CycleFilter,
    desc: Option<&DescendantsMap>,
) {
    // Check compatibility at shared variables and build the merged binding.
    let mut merged = Subst::new();
    for (_, subst) in combo {
        match merge_substs(egraph, &merged, subst) {
            Some(m) => merged = m,
            None => return,
        }
    }
    // Shape check every target, and make sure output shapes match the
    // matched classes.
    for ((matched, _), dst) in combo.iter().zip(&mrule.rule.dsts) {
        let target_data = pattern_data(egraph, dst, &merged);
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
    for ((matched, _), dst) in combo.iter().zip(&mrule.rule.dsts) {
        if skip_for_cycles(egraph, filter, desc, *matched, dst, &merged) {
            return;
        }
    }
    // Apply: union each matched class with its instantiated target.
    for ((matched, _), dst) in combo.iter().zip(&mrule.rule.dsts) {
        dst.apply_one(egraph, *matched, &merged);
    }
}
