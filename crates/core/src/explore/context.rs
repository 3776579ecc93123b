//! The exploration engine: one [`ExplorationContext`] holds the compiled
//! single- and multi-pattern rule programs, the deduplicated canonical
//! multi sources, the cycle filter, and the run's budget clock, and runs
//! Algorithm 1's loop body once per [`ExplorationContext::run_iteration`]:
//! the cycle pre-filter's descendants map and the search snapshot of the
//! clean e-graph, every rule searched against that snapshot right before
//! it is applied behind that map, and a seal (rebuild, cycle post-filter).
//! [`Saturate`](super::Saturate) is the loop around it.

use super::{canonicalize_pattern, CycleFilter, ExplorationStats, StopReason};
use crate::cycles::{remove_all_cycles, would_create_cycle, DescendantsMap};
use crate::OptimizerConfig;
use std::cell::Cell;
use std::collections::HashMap;
use std::time::Instant;
use tensat_egraph::{Id, Pattern, SearchMatches, SearchSnapshot, Subst, Var};
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

    /// The exploration configuration.
    pub fn config(&self) -> &OptimizerConfig {
        self.config
    }

    /// The single-pattern rule set.
    pub fn single_rules(&self) -> &[TensorRewrite] {
        self.single_rules
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
        self.node_limit_cut.get() || self.limit_reached(egraph.total_number_of_nodes()).is_some()
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
            // iteration boundary, or no iteration ran and there is nothing
            // to report.
            stats.stop_reason = self.limit_reached(stats.enodes);
        }
    }

    /// The node or time limit, if `enodes` e-nodes or the elapsed time
    /// have reached it; the node limit wins when both have.
    fn limit_reached(&self, enodes: usize) -> Option<StopReason> {
        if enodes >= self.config.node_limit {
            Some(StopReason::NodeLimit(self.config.node_limit))
        } else if self.start.elapsed() >= self.config.exploration_time_limit {
            Some(StopReason::TimeLimit(self.config.exploration_time_limit))
        } else {
            None
        }
    }

    /// One full engine iteration — Algorithm 1's loop body: search and
    /// apply each single-pattern rule in turn, search the multi-pattern
    /// sources and apply their combinations (first `k_multi` iterations
    /// only), rebuild, and resolve cycles. Every search reads one
    /// [`SearchSnapshot`] of the iteration-start e-graph, so every match is
    /// one Algorithm 1 would have gathered before applying anything; what
    /// changes is that a rule is searched only if the budget is left to
    /// apply it. Updates `stats` and returns whether the e-graph changed
    /// (`false` means saturation).
    ///
    /// Both budgets are asked before every search and every application.
    /// If the apply
    /// phase ends with the node limit reached, this iteration is the last:
    /// [`ExplorationContext::over_budget`] reports true from then on,
    /// whatever the rebuild leaves, and `stats.stop_reason` says
    /// `NodeLimit`. `stats.stop_reason` is likewise set when the time
    /// limit passed during the iteration or `iter` was the last one
    /// `max_iter` allows, and cleared otherwise.
    ///
    /// The iteration's working sets die with their last reader, before
    /// the rebuild: a single-pattern rule's match list once that rule has
    /// been applied, the multi-pattern lists after the multi-pattern loop,
    /// and the search snapshot and the pre-filter's descendants map at the
    /// end of the apply phase.
    pub fn run_iteration(
        &self,
        egraph: &mut TensorEGraph,
        iter: usize,
        stats: &mut ExplorationStats,
    ) -> bool {
        let config = self.config;
        let filter = config.cycle_filter;
        let nodes_before = egraph.total_number_of_nodes();
        let unions_before = egraph.union_count();
        let do_multi = iter < config.k_multi;
        let within_budget = |egraph: &TensorEGraph| !self.over_budget(egraph);

        // The cycle pre-filter's descendants map of the clean e-graph
        // (Algorithm 2, lines 3–9) in efficient mode: what every union of
        // the apply phase is checked against.
        let desc = (filter == CycleFilter::Efficient).then(|| {
            let start = Instant::now();
            let desc = DescendantsMap::compute(egraph);
            stats.prefilter_time += start.elapsed();
            desc
        });

        // What every search of the iteration reads: the search snapshot of
        // the clean iteration-start e-graph (rebuilt at the end of the
        // previous iteration), for the single-pattern searchers and, in
        // the first `k_multi` iterations, the multi-pattern sources after
        // them.
        let start = Instant::now();
        let singles = self.single_rules.len();
        let mut programs: Vec<_> = self
            .single_rules
            .iter()
            .map(|rw| rw.searcher.program())
            .collect();
        if do_multi {
            programs.extend(self.unique_patterns.iter().map(Pattern::program));
        }
        let snapshot = SearchSnapshot::new(egraph, &programs);
        stats.search_time += start.elapsed();
        // Searches program `i` against the snapshot, timing the search and
        // counting its rows.
        let search = |egraph: &TensorEGraph, i, stats: &mut ExplorationStats| {
            let start = Instant::now();
            let found = snapshot.search(egraph, i);
            stats.search_time += start.elapsed();
            stats.rows_searched += found.iter().map(|m| m.substs.len()).sum::<usize>();
            found
        };

        // The rules are applied in order — single-pattern, then
        // multi-pattern — until the budget is spent, each searched right
        // before it is applied, so a rule the budget cuts off is never
        // searched. Every search reads the snapshot, so every match is one
        // of the iteration-start e-graph's, as in Algorithm 1, which
        // gathers every match before applying any substitution; only a
        // rule's own match list lives through its apply. A single-pattern
        // rule runs through the one apply loop
        // ([`tensat_egraph::Rewrite::apply_while`]): per candidate ask the
        // budget, evaluate the rule's condition, ask the pre-filter, apply.
        let mut apply_time = std::time::Duration::ZERO;
        for (i, rw) in self.single_rules.iter().enumerate() {
            if self.over_budget(egraph) {
                break;
            }
            let matches = search(egraph, i, stats);
            let start = Instant::now();
            rw.apply_while(egraph, &matches, within_budget, |egraph, eclass, subst| {
                !skip_for_cycles(egraph, filter, desc.as_ref(), eclass, &rw.applier, subst)
            });
            apply_time += start.elapsed();
        }
        // Each multi-pattern source is searched once, and only if the
        // budget is left to apply them.
        if do_multi && !self.over_budget(egraph) {
            let multi: Vec<_> = (singles..programs.len())
                .map(|i| search(egraph, i, stats))
                .collect();
            let start = Instant::now();
            for plan in &self.plans {
                plan.apply(egraph, &multi, filter, desc.as_ref(), &within_budget);
                if self.over_budget(egraph) {
                    break;
                }
            }
            apply_time += start.elapsed();
        }
        drop(snapshot);
        stats.apply_time += apply_time;
        if let Some(desc) = desc {
            stats.prefilter_queries += desc.queries();
            stats.prefilter_walks += desc.walks();
            stats.prefilter_rejected += desc.rejected();
        }

        // Which limit, if any, stopped the apply phase — read before the
        // rebuild's deduplication can pull the node count back under its
        // limit.
        let limit = self.limit_reached(egraph.total_number_of_nodes());
        if matches!(limit, Some(StopReason::NodeLimit(_))) {
            self.node_limit_cut.set(true);
        }
        // The seal: rebuild, and resolve the cycles that slipped past the
        // pre-filter (Algorithm 2, lines 10–18), restoring the invariants
        // the next search relies on.
        let start = Instant::now();
        egraph.rebuild();
        if filter == CycleFilter::Efficient {
            remove_all_cycles(egraph, self.root);
        }
        stats.rebuild_time += start.elapsed();

        stats.iterations = iter + 1;
        stats
            .nodes_per_iteration
            .push(egraph.total_number_of_nodes());
        stats.stop_reason = limit.or_else(|| {
            (iter + 1 >= config.max_iter).then_some(StopReason::IterationLimit(config.max_iter))
        });

        egraph.total_number_of_nodes() != nodes_before || egraph.union_count() != unions_before
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
    /// (`matches` is indexed by unique canonical pattern, in
    /// `unique_patterns` order), asking `keep_going` before every
    /// extension.
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

#[cfg(test)]
mod tests {
    use super::super::{explore, StopReason};
    use super::*;
    use tensat_ir::{GraphBuilder, TensorAnalysis};
    use tensat_rules::multi_rules;

    /// A match is never merged with itself: one `matmul`, and separately
    /// one `conv`, explored with the multi-pattern rules alone leave the
    /// e-graph as it was. A guard that compared the sources' renamed
    /// bindings (`?w1` against `?w2`) would never fire, and each op would
    /// grow a `concat2 ?w ?w` and an operator twice as wide.
    #[test]
    fn a_lone_matmul_or_conv_is_never_merged_with_itself() {
        use tensat_ir::{Activation, Padding};
        let mut g = GraphBuilder::new();
        let x = g.input("x", &[64, 256]);
        let w = g.weight("w", &[256, 128]);
        let matmul = g.matmul(x, w);
        let matmul = g.finish(&[matmul]);
        let mut g = GraphBuilder::new();
        let x = g.input("x", &[1, 64, 28, 28]);
        let w = g.weight("w", &[64, 64, 3, 3]);
        let conv = g.conv(x, w, (1, 1), Padding::Same, Activation::Relu);
        let conv = g.finish(&[conv]);
        for graph in [matmul, conv] {
            let mut eg = TensorEGraph::new(TensorAnalysis);
            let root = eg.add_expr(&graph);
            eg.rebuild();
            let seed = eg.total_number_of_nodes();
            let config = OptimizerConfig {
                k_multi: 1,
                ..Default::default()
            };
            let stats = explore(&mut eg, root, &[], &multi_rules(), &config);
            assert_eq!(eg.total_number_of_nodes(), seed, "{graph}");
            assert_eq!(stats.stop_reason, Some(StopReason::Saturated), "{graph}");
        }
    }

    /// Builds `relu(p)` and `second(q)` over two 8x8 inputs, searches
    /// `rule`'s sources, unites the pairs `unions` names (indices into `[p,
    /// q, relu(p), second(q)]`) as an earlier application of the iteration
    /// would, applies the rule's combinations through [`MultiPlan::apply`],
    /// rebuilds and counts `sigmoid` e-nodes.
    fn sigmoids_after(
        second: fn([Id; 1]) -> TensorLang,
        rule: MultiPatternRule,
        unions: &[(usize, usize)],
    ) -> usize {
        let mut eg = TensorEGraph::new(TensorAnalysis);
        let mut input = |name| {
            let name = eg.add(TensorLang::Str(tensat_ir::encode_identifier(name, &[8, 8])));
            eg.add(TensorLang::Input([name]))
        };
        let (p, q) = (input("p"), input("q"));
        let classes = [p, q, eg.add(TensorLang::Relu([p])), eg.add(second([q]))];
        eg.rebuild();
        let config = OptimizerConfig {
            cycle_filter: CycleFilter::Off,
            ..Default::default()
        };
        let rules = [rule];
        let ctx = ExplorationContext::new(classes[2], &[], &rules, &config);
        let matches: Vec<_> = ctx.unique_patterns.iter().map(|p| p.search(&eg)).collect();
        for &(a, b) in unions {
            eg.union(classes[a], classes[b]);
        }
        ctx.plans[0].apply(&mut eg, &matches, CycleFilter::Off, None, &|_| true);
        eg.rebuild();
        let sigmoid = |n: &&TensorLang| matches!(n, TensorLang::Sigmoid(_));
        eg.classes()
            .map(|c| eg.enodes(c).filter(sigmoid).count())
            .sum()
    }

    /// The row product compares shared columns modulo `find` when it
    /// combines, not when it searched: `relu ?x` and `tanh ?x` bind `?x` to
    /// different inputs, and a union made between search and apply makes
    /// them agree, so the combination applies.
    #[test]
    fn a_union_after_the_search_makes_shared_columns_agree() {
        let srcs = ["(relu ?x)", "(tanh ?x)"];
        let rule =
            || MultiPatternRule::new("same-input", &srcs, &["(relu ?x)", "(sigmoid ?x)"], &[]);
        assert_eq!(sigmoids_after(TensorLang::Tanh, rule(), &[]), 0);
        assert_eq!(sigmoids_after(TensorLang::Tanh, rule(), &[(0, 1)]), 1);
    }

    /// The self-merge guard skips a match paired with itself, and a union
    /// made between search and apply can make two matches the same one.
    /// Apart, `(relu p, relu q)` and `(relu q, relu p)` apply; once the two
    /// `relu`s are one class over one input, none of the four pairs does.
    #[test]
    fn the_guard_skips_a_match_a_union_made_equal_to_another() {
        let (srcs, dsts) = (
            ["(relu ?x)", "(relu ?y)"],
            ["(relu ?x)", "(sigmoid (ewadd ?x ?y))"],
        );
        let rule = || MultiPatternRule::new("relu-pair", &srcs, &dsts, &[]);
        assert_eq!(sigmoids_after(TensorLang::Relu, rule(), &[]), 2);
        assert_eq!(
            sigmoids_after(TensorLang::Relu, rule(), &[(0, 1), (2, 3)]),
            0
        );
    }
}
