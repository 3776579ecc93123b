//! The shared exploration engine: one [`ExplorationContext`] holds the
//! compiled single- and multi-pattern rule programs, the deduplicated
//! canonical multi sources, the cycle filter, and the run's budget clock.
//! The loop body exists once: the cycle pre-filter's descendants map of a
//! clean e-graph, the rules' [`Action`]s applied behind it, and a seal
//! (rebuild, cycle post-filter). [`Saturate`](super::Saturate) runs it as
//! whole iterations ([`ExplorationContext::run_iteration`]), every rule
//! behind one map; [`Guided`](super::Guided) applies one action to each
//! clone of a state, under a hard node budget, every clone behind the
//! state's one map.

use super::{canonicalize_pattern, CycleFilter, ExplorationStats, StopReason};
use crate::cycles::{remove_all_cycles, would_create_cycle, DescendantsMap};
use crate::OptimizerConfig;
use std::cell::Cell;
use std::collections::HashMap;
use std::time::Instant;
use tensat_egraph::{search_all_parallel, Id, Pattern, SearchMatches, Subst, Var};
use tensat_ir::{TensorData, TensorEGraph, TensorLang};
use tensat_rules::{bind_extents, target_fits, Extent, MultiPatternRule, TensorRewrite};

/// Everything a strategy needs to explore: the root, the rules with their
/// compiled programs, the configuration, and the budget clock (started
/// when the context is built, i.e. when exploration begins).
pub struct ExplorationContext<'a> {
    root: Id,
    single_rules: &'a [TensorRewrite],
    config: &'a OptimizerConfig,
    /// One product plan per multi rule, over `unique_patterns`.
    plans: Vec<MultiPlan>,
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
        config: &'a OptimizerConfig,
    ) -> Self {
        let start = Instant::now();
        let mut unique_patterns: Vec<Pattern<TensorLang>> = vec![];
        let mut pattern_index: HashMap<String, usize> = HashMap::new();
        let plans: Vec<MultiPlan> = multi_rules
            .iter()
            .map(|rule| MultiPlan::compile(rule, &mut unique_patterns, &mut pattern_index))
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
            plans,
            unique_patterns,
            start,
            node_limit_cut: Cell::new(false),
        }
    }

    /// The root e-class exploration optimizes for.
    pub(crate) fn root(&self) -> Id {
        self.root
    }

    /// The exploration configuration.
    pub fn config(&self) -> &OptimizerConfig {
        self.config
    }

    /// The single-pattern rule set.
    pub fn single_rules(&self) -> &[TensorRewrite] {
        self.single_rules
    }

    /// Number of multi-pattern rules ([`Action::Multi`] indexes them).
    pub(crate) fn multi_rule_count(&self) -> usize {
        self.plans.len()
    }

    /// True once `exploration_time_limit` has passed since exploration
    /// began.
    pub(crate) fn out_of_time(&self) -> bool {
        self.start.elapsed() >= self.config.exploration_time_limit
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
            || self.out_of_time()
            || egraph.total_number_of_nodes() >= self.config.node_limit
    }

    /// Fills in the final-state fields of `stats`: e-node/e-class counts,
    /// the e-nodes on the cycle filter list, total time and — unless
    /// `run_iteration` already recorded a limit that ended the loop — why
    /// the run stopped. Strategies call this once before returning.
    pub fn finish(&self, egraph: &TensorEGraph, stats: &mut ExplorationStats) {
        stats.enodes = egraph.total_number_of_nodes();
        stats.eclasses = egraph.number_of_classes();
        stats.filtered_nodes = egraph.filtered_count();
        stats.time = self.start.elapsed();
        if stats.saturated {
            stats.stop_reason = Some(StopReason::Saturated);
        } else if stats.stop_reason.is_none() {
            // No iteration ended the run: a limit was already spent at an
            // iteration boundary (or, for `Guided`, before it started),
            // or the strategy stopped by a rule of its own and there is
            // nothing to report.
            stats.stop_reason = self.limit_reached(stats.enodes);
        }
    }

    /// The node or time limit, if `enodes` e-nodes or the elapsed time
    /// have reached it; the node limit wins when both have.
    fn limit_reached(&self, enodes: usize) -> Option<StopReason> {
        if enodes >= self.config.node_limit {
            Some(StopReason::NodeLimit(self.config.node_limit))
        } else if self.out_of_time() {
            Some(StopReason::TimeLimit(self.config.exploration_time_limit))
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
    ///
    /// The iteration's working sets die with their last reader, before
    /// the rebuild: a single-pattern rule's match list once that rule has
    /// been applied (the rest at a budget cut), the multi-pattern lists
    /// after the multi-pattern loop, and the pre-filter's descendants map
    /// at the end of the apply phase.
    pub fn run_iteration(
        &self,
        egraph: &mut TensorEGraph,
        iter: usize,
        stats: &mut ExplorationStats,
    ) -> bool {
        let config = self.config;
        let nodes_before = egraph.total_number_of_nodes();
        let unions_before = egraph.union_count();
        let do_multi = iter < config.k_multi;
        let within_budget = |egraph: &TensorEGraph| !self.over_budget(egraph);
        // All matches — single-pattern and multi-pattern alike — are
        // collected against the iteration-start e-graph, which is clean
        // (rebuilt at the end of the previous iteration): pattern search
        // requires a clean e-graph for the operator index and congruence
        // invariant to hold. This mirrors Algorithm 1, which gathers every
        // match before applying any substitution. The rules are applied in
        // order — single-pattern, then multi-pattern — until the budget is
        // spent.
        let map = self.prefilter_map(egraph, stats);
        let desc = map.as_ref();
        let (single, multi) = self.search_state(egraph, do_multi, stats);
        let start = Instant::now();
        for (rule, matches) in single.into_iter().enumerate() {
            let matches = std::slice::from_ref(&matches);
            self.apply_action(egraph, Action::Single(rule), matches, desc, within_budget);
            if self.over_budget(egraph) {
                break;
            }
        }
        if do_multi {
            for rule in 0..self.plans.len() {
                self.apply_action(egraph, Action::Multi(rule), &multi, desc, within_budget);
                if self.over_budget(egraph) {
                    break;
                }
            }
        }
        drop(multi);
        stats.apply_time += start.elapsed();
        self.retire_prefilter_map(map, stats);

        // Which limit, if any, stopped the apply phase — read before the
        // rebuild's deduplication can pull the node count back under its
        // limit.
        let limit = self.limit_reached(egraph.total_number_of_nodes());
        if matches!(limit, Some(StopReason::NodeLimit(_))) {
            self.node_limit_cut.set(true);
        }
        self.seal(egraph, stats);

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
    /// — against a clean e-graph, timed into `stats.search_time`. Returns
    /// `(single, multi)` match lists in rule/source order.
    ///
    /// Every searcher goes through one batch of the sharded search driver,
    /// so a hot rule's candidate chunks spread over all `search_threads`
    /// threads; with 1 thread the driver is the sequential machine
    /// verbatim, and the match lists are bit-identical either way, so
    /// every strategy stays deterministic.
    pub(crate) fn search_state(
        &self,
        egraph: &TensorEGraph,
        include_multi: bool,
        stats: &mut ExplorationStats,
    ) -> (Vec<Vec<SearchMatches>>, Vec<Vec<SearchMatches>>) {
        let start = Instant::now();
        let mut searchers: Vec<&Pattern<TensorLang>> =
            self.single_rules.iter().map(|rw| &rw.searcher).collect();
        if include_multi {
            searchers.extend(&self.unique_patterns);
        }
        let mut single = search_all_parallel(&searchers, egraph, self.config.search_threads);
        let multi = single.split_off(self.single_rules.len());
        stats.search_time += start.elapsed();
        (single, multi)
    }

    /// The cycle pre-filter's descendants map of the clean `egraph`
    /// (Algorithm 2, lines 3–9) in efficient mode, timed into
    /// `stats.prefilter_time`: what every union of an apply phase on
    /// `egraph`, or on a clone of it, is checked against.
    pub(crate) fn prefilter_map(
        &self,
        egraph: &TensorEGraph,
        stats: &mut ExplorationStats,
    ) -> Option<DescendantsMap> {
        (self.config.cycle_filter == CycleFilter::Efficient).then(|| {
            let start = Instant::now();
            let desc = DescendantsMap::compute(egraph);
            stats.prefilter_time += start.elapsed();
            desc
        })
    }

    /// Adds what `desc` was asked to `stats.prefilter_{queries, walks,
    /// rejected}` and drops it: the end of the apply phases it served.
    pub(crate) fn retire_prefilter_map(
        &self,
        desc: Option<DescendantsMap>,
        stats: &mut ExplorationStats,
    ) {
        if let Some(desc) = desc {
            stats.prefilter_queries += desc.queries();
            stats.prefilter_walks += desc.walks();
            stats.prefilter_rejected += desc.rejected();
        }
    }

    /// Applies `action`'s matches in place — `matches` holds its rule's
    /// one list for [`Action::Single`], every unique source's (as
    /// [`ExplorationContext::search_state`] returns them) for
    /// [`Action::Multi`] — asking `keep_going` before every application
    /// and the cycle pre-filter (`desc` in efficient mode) before every
    /// union. A single-pattern rule runs through the one apply loop
    /// ([`tensat_egraph::Rewrite::apply_while`]): per candidate ask
    /// `keep_going`, evaluate the rule's condition, ask the pre-filter,
    /// apply.
    pub(crate) fn apply_action(
        &self,
        egraph: &mut TensorEGraph,
        action: Action,
        matches: &[Vec<SearchMatches>],
        desc: Option<&DescendantsMap>,
        keep_going: impl Fn(&TensorEGraph) -> bool,
    ) {
        let filter = self.config.cycle_filter;
        match action {
            Action::Single(rule) => {
                let rw = &self.single_rules[rule];
                rw.apply_while(egraph, &matches[0], keep_going, |egraph, eclass, subst| {
                    !skip_for_cycles(egraph, filter, desc, eclass, &rw.applier, subst)
                });
            }
            Action::Multi(rule) => {
                self.plans[rule].apply(egraph, matches, filter, desc, &keep_going)
            }
        }
    }

    /// The most e-nodes one application of `action` can add: every node of
    /// its right-hand side(s) new. (Variables instantiate to existing
    /// classes, so this over-estimates, which only makes a budget checked
    /// against it stricter.)
    pub(crate) fn headroom(&self, action: Action) -> usize {
        match action {
            Action::Single(rule) => self.single_rules[rule].applier.ast.len(),
            Action::Multi(rule) => self.plans[rule].dsts.iter().map(|d| d.ast.len()).sum(),
        }
    }

    /// Rebuilds the e-graph and resolves the cycles that slipped past the
    /// pre-filter (Algorithm 2, lines 10–18), restoring the invariants the
    /// next search and [`Guided`](super::Guided)'s scoring rely on; timed
    /// into `stats.rebuild_time`.
    pub(crate) fn seal(&self, egraph: &mut TensorEGraph, stats: &mut ExplorationStats) {
        let start = Instant::now();
        egraph.rebuild();
        if self.config.cycle_filter == CycleFilter::Efficient {
            remove_all_cycles(egraph, self.root);
        }
        stats.rebuild_time += start.elapsed();
    }
}

/// A rule of the context as the unit an apply phase applies: a
/// single-pattern rule's match batch, or a multi-pattern rule's Cartesian
/// combinations (each indexes its rule list).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Action {
    Single(usize),
    Multi(usize),
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

/// A multi-pattern rule compiled against the context's unique canonical
/// sources, so that its product (Algorithm 1, lines 16–17) reads their match
/// rows in place.
struct MultiPlan {
    /// The target patterns, one per source.
    dsts: Vec<Pattern<TensorLang>>,
    /// The target variables the rule binds to sizes of source values.
    extents: Vec<Extent>,
    /// The rule's variables, one slot each, in first-occurrence order.
    vars: Vec<Var>,
    srcs: Vec<PlanSource>,
}

/// One source of a [`MultiPlan`].
struct PlanSource {
    /// Index of the unique canonical pattern the source searches.
    pattern: usize,
    /// The slot of each canonical variable of that pattern.
    slots: Vec<(Var, usize)>,
    /// The first slot no earlier source binds: the slots below it are only
    /// checked against the binding an earlier source wrote.
    first_new: usize,
}

impl MultiPlan {
    /// Compiles `rule`, adding each source's canonical pattern to `unique`
    /// unless an alpha-equivalent one is there (Algorithm 1, lines 1–8).
    fn compile(
        rule: &MultiPatternRule,
        unique: &mut Vec<Pattern<TensorLang>>,
        index: &mut HashMap<String, usize>,
    ) -> Self {
        let mut vars: Vec<Var> = vec![];
        let mut srcs = vec![];
        for src in &rule.srcs {
            let (canon, originals) = canonicalize_pattern(src);
            let pattern = *index.entry(canon.to_string()).or_insert_with(|| {
                unique.push(canon.clone());
                unique.len() - 1
            });
            let (first_new, mut slots) = (vars.len(), vec![]);
            // `vars()` lists `?c0, ?c1, ..` in order, as `originals` does.
            for (canonical, original) in canon.vars().into_iter().zip(originals) {
                let slot = vars.iter().position(|&v| v == original);
                let slot = slot.unwrap_or(vars.len());
                if slot == vars.len() {
                    vars.push(original);
                }
                slots.push((canonical, slot));
            }
            srcs.push(PlanSource {
                pattern,
                slots,
                first_new,
            });
        }
        MultiPlan {
            dsts: rule.dsts.clone(),
            extents: rule.extents.clone(),
            vars,
            srcs,
        }
    }

    /// Applies every compatible combination of the sources' matches
    /// (`matches` is indexed by unique canonical pattern, as
    /// [`ExplorationContext::search_state`] returns it), asking
    /// `keep_going` before every extension.
    fn apply(
        &self,
        egraph: &mut TensorEGraph,
        matches: &[Vec<SearchMatches>],
        filter: CycleFilter,
        desc: Option<&DescendantsMap>,
        keep_going: &impl Fn(&TensorEGraph) -> bool,
    ) {
        let mut levels = vec![];
        for PlanSource { pattern, slots, .. } in &self.srcs {
            let Some(first) = matches[*pattern].first() else {
                return; // A source without a match: no combination.
            };
            // The slot each column binds, in the rows' own column order.
            let slot = |var: &Var| slots.iter().find(|(c, _)| c == var).map(|&(_, s)| s);
            let columns = first.substs.vars().iter().map(slot);
            let columns = columns.collect::<Option<_>>().expect("a source variable");
            levels.push((matches[*pattern].as_slice(), columns));
        }
        let mut product = Product {
            plan: self,
            levels,
            binding: vec![Id::default(); self.vars.len()],
            picked: Vec::with_capacity(self.srcs.len()),
            subst: Subst::new(),
            sizes: Vec::with_capacity(self.extents.len()),
            filter,
            desc,
            keep_going,
        };
        product.walk(egraph);
    }
}

/// One plan's Cartesian product, walked depth-first over the match rows in
/// search order. A level writes the slots its source binds first into one
/// binding array and checks the others, so a combination that disagrees
/// on a shared variable is cut at the level that shows it.
struct Product<'a, K> {
    plan: &'a MultiPlan,
    /// Per source: its match lists, and the slot each row column binds.
    levels: Vec<(&'a [SearchMatches], Vec<usize>)>,
    /// Slot -> bound class, valid for the slots the picked levels bind.
    binding: Vec<Id>,
    /// The matched class and row picked at each level so far.
    picked: Vec<(Id, &'a [Id])>,
    /// The binding of the combination being applied, overwritten in place.
    subst: Subst,
    /// The extents of that combination, overwritten in place.
    sizes: Vec<(Var, TensorData)>,
    filter: CycleFilter,
    desc: Option<&'a DescendantsMap>,
    keep_going: &'a K,
}

impl<'a, K: Fn(&TensorEGraph) -> bool> Product<'a, K> {
    fn walk(&mut self, egraph: &mut TensorEGraph) {
        let depth = self.picked.len();
        if depth == self.levels.len() {
            return self.apply(egraph);
        }
        let matches: &'a [SearchMatches] = self.levels[depth].0;
        for m in matches {
            for row in m.substs.rows() {
                if !(self.keep_going)(egraph) {
                    return;
                }
                if self.picked_already(egraph, depth, m.eclass, row)
                    || !self.bind(egraph, depth, row)
                {
                    continue;
                }
                self.picked.push((m.eclass, row));
                self.walk(egraph);
                self.picked.pop();
            }
        }
    }

    /// The self-merge guard: true if an earlier level searched the same
    /// unique pattern and picked this very match — class and row equal
    /// modulo `find`.
    fn picked_already(&self, egraph: &TensorEGraph, depth: usize, class: Id, row: &[Id]) -> bool {
        let same = |a: &Id, b: &Id| egraph.find(*a) == egraph.find(*b);
        let pattern = self.plan.srcs[depth].pattern;
        (self.picked.iter().zip(&self.plan.srcs)).any(|(&(c, r), src)| {
            src.pattern == pattern && same(&c, &class) && r.iter().zip(row).all(|(a, b)| same(a, b))
        })
    }

    /// Writes `row` into the slots level `depth` binds first and checks it
    /// against the others (Algorithm 1, `COMPATIBLE`): false if a shared
    /// slot disagrees modulo `find`.
    fn bind(&mut self, egraph: &TensorEGraph, depth: usize, row: &[Id]) -> bool {
        let first_new = self.plan.srcs[depth].first_new;
        for (&slot, &id) in self.levels[depth].1.iter().zip(row) {
            if slot >= first_new {
                self.binding[slot] = id;
            } else if egraph.find(self.binding[slot]) != egraph.find(id) {
                return false;
            }
        }
        true
    }

    /// Applies the complete combination: every target, its extents bound,
    /// must fit its matched class and pass the cycle pre-filter; then each
    /// extent gets its `Num` class and each matched class is unioned with
    /// its instantiated target.
    fn apply(&mut self, egraph: &mut TensorEGraph) {
        for (&var, &id) in self.plan.vars.iter().zip(&self.binding) {
            self.subst.insert(var, id);
        }
        let (subst, sizes) = (&self.subst, &mut self.sizes);
        let class_data = |v| subst.get(v).map(|class| &egraph.eclass(class).data);
        if !bind_extents(&self.plan.extents, class_data, sizes) {
            return;
        }
        let (filter, desc, sizes) = (self.filter, self.desc, &*sizes);
        let targets = || (self.picked.iter().map(|&(class, _)| class)).zip(&self.plan.dsts);
        // An extent has no class yet, so the pre-filter skips it: a `Num`
        // leaf cannot close a cycle.
        if !targets().all(|(matched, dst)| target_fits(egraph, dst, matched, subst, sizes))
            || targets()
                .any(|(matched, dst)| skip_for_cycles(egraph, filter, desc, matched, dst, subst))
        {
            return;
        }
        for (var, size) in &self.sizes {
            let size = size.as_scalar().expect("an extent is a scalar");
            self.subst.insert(*var, egraph.add(TensorLang::Num(size)));
        }
        for (matched, dst) in targets() {
            dst.apply_one(egraph, matched, &self.subst);
        }
    }
}
