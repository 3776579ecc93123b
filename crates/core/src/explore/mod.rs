//! The exploration phase (paper §4) behind one seam: an
//! [`ExplorationStrategy`] trait over a shared [`ExplorationContext`]
//! holding the compiled single/multi rule programs, cycle filter, and
//! budget accounting.
//!
//! Three strategies ship through the seam:
//!
//! * [`Saturate`] — Algorithm 1's saturate-all loop, bit-identical to the
//!   pre-seam monolithic `explore()` (kept in [`legacy`] as the
//!   differential oracle). The iteration whose apply phase `node_limit`
//!   cuts is its last.
//! * [`Guided`] — a deterministic beam search (MCTS-lite) treating rule
//!   batches as actions, scoring candidate e-graph states by greedy-DAG
//!   extracted cost plus a node-growth penalty, and expanding only the
//!   top-k states via e-graph snapshot/replay. It enforces a *hard* node
//!   budget, so graphs whose saturation blows past `node_limit` stay
//!   optimizable with bounded memory.
//! * [`TasoBacktracking`] — the TASO-style sequential backtracking
//!   baseline (`tensat-taso`) run through the same seam, unioning its best
//!   trajectory graph back into the e-graph.
//!
//! [`explore`] dispatches on [`ExplorationConfig::mode`]
//! ([`ExplorationMode`]). A run is a function of the e-graph, the rules and
//! the configuration: nothing here reads the environment.

mod context;
mod guided;
pub mod legacy;
mod saturate;
mod taso;

pub use context::ExplorationContext;
pub use guided::{Guided, GuidedConfig};
pub use saturate::Saturate;
pub use taso::{TasoBacktracking, TasoConfig};

use std::collections::HashMap;
use std::time::Duration;
use tensat_egraph::{ENodeOrVar, Id, Pattern, RecExpr, Subst, Var};
use tensat_ir::{CostModel, TensorEGraph, TensorLang};
use tensat_rules::{MultiPatternRule, TensorRewrite};

/// The paper's exploration defaults (§6.1): the single source of truth
/// shared by [`ExplorationConfig::default`] and
/// [`OptimizerConfig::default`](crate::OptimizerConfig::default), so the
/// two configurations cannot silently drift.
pub mod defaults {
    use std::time::Duration;

    /// Iterations in which multi-pattern rules are applied (`k_multi`).
    pub const K_MULTI: usize = 1;
    /// Total iteration limit (`k_max`).
    pub const MAX_ITER: usize = 15;
    /// E-node limit (`N_max`).
    pub const NODE_LIMIT: usize = 50_000;
    /// Wall-clock limit for the whole exploration phase.
    pub const TIME_LIMIT: Duration = Duration::from_secs(60);
}

/// Which cycle-filtering algorithm to run during exploration (paper §5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CycleFilter {
    /// No filtering: the e-graph may contain cycles, and ILP extraction
    /// must use the cycle constraints.
    Off,
    /// Vanilla filtering: before every candidate application, recompute
    /// reachability over the whole e-graph (complexity `O(n_m · N)` per
    /// iteration).
    Vanilla,
    /// Efficient filtering: a descendants map computed once per iteration
    /// pre-filters candidates; a DFS post-processing pass resolves the few
    /// cycles that slip through (Algorithm 2).
    Efficient,
}

/// Which exploration strategy grows the e-graph — the exploration
/// counterpart of [`ExtractionMode`](crate::ExtractionMode).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExplorationMode {
    /// The saturate-all loop (Algorithm 1): apply every rule everywhere,
    /// every iteration. TENSAT's default configuration.
    Saturate,
    /// Guided beam search over rule-batch actions under a hard node
    /// budget, scored by greedy-DAG extracted cost (see [`Guided`]).
    Guided,
    /// The TASO-style sequential backtracking baseline (see
    /// [`TasoBacktracking`]).
    Taso,
}

impl ExplorationMode {
    /// The boxed strategy this mode dispatches to.
    pub fn strategy(&self) -> Box<dyn ExplorationStrategy> {
        match self {
            ExplorationMode::Saturate => Box::new(Saturate),
            ExplorationMode::Guided => Box::new(Guided),
            ExplorationMode::Taso => Box::new(TasoBacktracking),
        }
    }
}

/// Limits and options for the exploration phase.
#[derive(Debug, Clone)]
pub struct ExplorationConfig {
    /// Iterations in which multi-pattern rules are applied (`k_multi`).
    pub k_multi: usize,
    /// Total iteration limit (`k_max`).
    pub max_iter: usize,
    /// E-node limit (`N_max`). [`Saturate`] asks it before every
    /// application, so the e-graph overshoots it by at most the e-nodes
    /// one application adds (a 2 000 limit ends at 2 001 or 2 004 on some
    /// models), and the iteration whose apply phase it cuts is the last
    /// one — the final count may sit *below* the limit, because the
    /// rebuild closing that iteration deduplicates (NasNet-A at 30 000
    /// ends with 28 024 e-nodes). [`Guided`] enforces it as a hard budget
    /// no candidate state ever exceeds.
    pub node_limit: usize,
    /// Wall-clock limit for the whole exploration phase.
    pub time_limit: Duration,
    /// The cycle-filtering algorithm.
    pub cycle_filter: CycleFilter,
    /// Threads used by the e-matching search phase. `1` runs the sequential
    /// driver (exact pre-parallel behavior); larger values shard candidate
    /// classes across scoped threads with bit-identical match lists, so
    /// this only affects wall-clock time.
    pub search_threads: usize,
    /// Which exploration strategy [`explore`] dispatches to.
    pub mode: ExplorationMode,
    /// Cost model used by strategies that score candidate states
    /// ([`Guided`]'s rollout evaluator, [`TasoBacktracking`]'s search);
    /// [`Saturate`] never consults it.
    pub cost_model: CostModel,
    /// Parameters of the [`Guided`] strategy (used when `mode` is
    /// [`ExplorationMode::Guided`]).
    pub guided: GuidedConfig,
    /// Parameters of the [`TasoBacktracking`] baseline (used when `mode`
    /// is [`ExplorationMode::Taso`]).
    pub taso: TasoConfig,
}

impl Default for ExplorationConfig {
    /// The paper's defaults ([`defaults`]): `k_multi = 1`, `k_max = 15`,
    /// `N_max = 50 000`, saturate-all exploration, plus search parallelism
    /// from [`default_search_threads`].
    fn default() -> Self {
        ExplorationConfig {
            k_multi: defaults::K_MULTI,
            max_iter: defaults::MAX_ITER,
            node_limit: defaults::NODE_LIMIT,
            time_limit: defaults::TIME_LIMIT,
            cycle_filter: CycleFilter::Efficient,
            search_threads: default_search_threads(),
            mode: ExplorationMode::Saturate,
            cost_model: CostModel::default(),
            guided: GuidedConfig::default(),
            taso: TasoConfig::default(),
        }
    }
}

impl ExplorationConfig {
    /// Always 1: the apply phase is Algorithm 1's in-place loop and has no
    /// thread setting. Kept because the repo benchmark's own
    /// `labels_are_unique_and_threads_pinned` test calls it and nothing
    /// under `benchmark/` may change in a library PR; a later `benchmark`
    /// PR retires it.
    pub fn resolved_apply_threads(&self) -> usize {
        1
    }
}

/// The default search thread count: the machine's available parallelism
/// (1 if that cannot be determined). Match lists are bit-identical at
/// every thread count, so the machine decides how long a run takes, never
/// what it returns.
pub fn default_search_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Why an exploration run stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StopReason {
    /// No rewrite changed the e-graph: every represented rewriting has been
    /// found (the fixpoint the paper calls *saturation*).
    Saturated,
    /// The configured iteration limit was reached.
    IterationLimit(usize),
    /// The configured e-node limit was reached.
    NodeLimit(usize),
    /// The configured wall-clock time limit was reached.
    TimeLimit(Duration),
}

/// Statistics of one exploration run.
#[derive(Debug, Clone, Default)]
pub struct ExplorationStats {
    /// Number of iterations executed ([`Guided`]: beam steps;
    /// [`TasoBacktracking`]: graphs popped from the search queue).
    pub iterations: usize,
    /// Whether the run stopped because no action changed the e-graph
    /// (saturation for [`Saturate`]; beam convergence for [`Guided`]).
    /// Equals `stop_reason == Some(StopReason::Saturated)`.
    pub saturated: bool,
    /// Why the run stopped, filled in by
    /// [`ExplorationContext::run_iteration`] (a limit that makes the
    /// iteration the last one) and [`ExplorationContext::finish`]
    /// (saturation, or a limit already spent at an iteration boundary):
    /// `NodeLimit` when an apply phase was cut by
    /// [`ExplorationConfig::node_limit`], carrying the configured limit as
    /// the others do. `None` when a strategy with a loop of its own
    /// ([`Guided`], [`TasoBacktracking`]) stopped by its own rule with no
    /// limit spent, and when `max_iter` is 0.
    pub stop_reason: Option<StopReason>,
    /// Final number of e-nodes.
    pub enodes: usize,
    /// Final number of e-classes.
    pub eclasses: usize,
    /// Number of e-nodes placed on the cycle filter list.
    pub filtered_nodes: usize,
    /// Total wall-clock time of the exploration phase.
    pub time: Duration,
    /// Time spent in the e-matching search phase, summed over iterations.
    /// Filled in by [`Saturate`]'s engine iterations; strategies with no
    /// phase structure ([`Guided`], [`TasoBacktracking`]) leave it zero.
    pub search_time: Duration,
    /// Time spent building the descendants map for the cycle pre-filter
    /// ([`DescendantsMap::compute`](crate::cycles::DescendantsMap::compute),
    /// once per [`Saturate`] iteration and once per [`Guided`] action), so
    /// `search + apply + rebuild + prefilter` accounts for an engine
    /// iteration.
    pub prefilter_time: Duration,
    /// Reachability queries the efficient cycle pre-filter put to its
    /// descendants map
    /// ([`DescendantsMap::is_descendant`](crate::cycles::DescendantsMap::is_descendant)),
    /// summed over [`Saturate`] iterations and [`Guided`] actions. Zero in
    /// the other filtering modes, like `prefilter_time`: `Vanilla` builds
    /// and drops a map per candidate.
    pub prefilter_queries: usize,
    /// How many of those queries the map's component order could not
    /// answer, so it walked its snapshot of the class graph. The map keeps
    /// no memo between queries; this is the number that would justify one.
    pub prefilter_walks: usize,
    /// Applications the pre-filter vetoed
    /// ([`would_create_cycle`](crate::cycles::would_create_cycle) said
    /// yes), a variable bound to the matched class itself included.
    pub prefilter_rejected: usize,
    /// Time spent applying matches — side conditions, the cycle
    /// pre-filter's checks, instantiation and unions, single- and
    /// multi-pattern — summed over iterations (same caveat as
    /// `search_time`).
    pub apply_time: Duration,
    /// Time spent rebuilding and cycle-filtering, summed over iterations
    /// (same caveat as `search_time`).
    pub rebuild_time: Duration,
    /// E-node count after each iteration.
    pub nodes_per_iteration: Vec<usize>,
    /// Name of the strategy that produced these statistics (filled in by
    /// [`explore_with`]; empty for stats built elsewhere).
    pub strategy: &'static str,
}

/// The single exploration seam: every strategy grows an e-graph in place
/// from the compiled rule programs and budgets in a shared
/// [`ExplorationContext`], and reports [`ExplorationStats`] — so the
/// optimizer, the benches, and future strategies (e.g. learned policies)
/// all drive exploration the same way.
pub trait ExplorationStrategy: std::fmt::Debug {
    /// Short stable name used in reports.
    fn name(&self) -> &'static str;

    /// Grows the e-graph in place under the context's rules and budgets,
    /// returning run statistics.
    fn run(&self, egraph: &mut TensorEGraph, ctx: &ExplorationContext<'_>) -> ExplorationStats;
}

/// Runs the exploration phase on an e-graph already seeded with the input
/// graph, dispatching to the strategy selected by
/// [`ExplorationConfig::mode`]. Returns statistics; the e-graph is grown
/// in place.
pub fn explore(
    egraph: &mut TensorEGraph,
    root: Id,
    single_rules: &[TensorRewrite],
    multi_rules: &[MultiPatternRule],
    config: &ExplorationConfig,
) -> ExplorationStats {
    explore_with(
        config.mode.strategy().as_ref(),
        egraph,
        root,
        single_rules,
        multi_rules,
        config,
    )
}

/// Runs the exploration phase with an explicit strategy: compiles the rule
/// programs into an [`ExplorationContext`] and hands the e-graph to the
/// strategy. [`explore`] is this with the strategy picked by
/// [`ExplorationConfig::mode`].
pub fn explore_with(
    strategy: &dyn ExplorationStrategy,
    egraph: &mut TensorEGraph,
    root: Id,
    single_rules: &[TensorRewrite],
    multi_rules: &[MultiPatternRule],
    config: &ExplorationConfig,
) -> ExplorationStats {
    let ctx = ExplorationContext::new(root, single_rules, multi_rules, config);
    let mut stats = strategy.run(egraph, &ctx);
    stats.strategy = strategy.name();
    stats
}

/// Renames the variables of a pattern to canonical names (`?c0`, `?c1`, ...)
/// in first-occurrence order. Returns the canonical pattern and the map
/// from canonical to original variables (Algorithm 1, `CANONICAL`).
pub fn canonicalize_pattern(
    pattern: &Pattern<TensorLang>,
) -> (Pattern<TensorLang>, HashMap<Var, Var>) {
    let mut rename: HashMap<Var, Var> = HashMap::new(); // original -> canonical
    let mut back: HashMap<Var, Var> = HashMap::new(); // canonical -> original
    let mut ast = RecExpr::default();
    for (_, node) in pattern.ast.iter() {
        match node {
            ENodeOrVar::Var(v) => {
                let canonical = *rename.entry(*v).or_insert_with(|| {
                    let c = Var::new(format!("c{}", back.len()));
                    back.insert(c, *v);
                    c
                });
                ast.add(ENodeOrVar::Var(canonical));
            }
            ENodeOrVar::ENode(n) => {
                ast.add(ENodeOrVar::ENode(n.clone()));
            }
        }
    }
    (Pattern::new(ast), back)
}

/// Translates a substitution over canonical variables back to the original
/// variables of a rule (Algorithm 1, `DECANONICAL`).
pub fn decanonicalize_subst(subst: &Subst, back: &HashMap<Var, Var>) -> Subst {
    let mut out = Subst::new();
    for (var, id) in subst.iter() {
        let original = back.get(&var).copied().unwrap_or(var);
        out.insert(original, id);
    }
    out
}

/// Merges two substitutions, returning `None` if they disagree on a shared
/// variable (Algorithm 1, `COMPATIBLE`).
pub fn merge_substs(egraph: &TensorEGraph, a: &Subst, b: &Subst) -> Option<Subst> {
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
/// *modulo the union-find*. The derived `PartialEq` on [`Subst`] compares
/// raw `Id`s, which is too strict inside the apply loop: a union performed
/// by an earlier application can leave two equivalent bindings with
/// different (non-canonical) ids, letting them slip past the
/// `skip_identical` self-application guard.
pub(crate) fn substs_equal_canonical(egraph: &TensorEGraph, a: &Subst, b: &Subst) -> bool {
    a.len() == b.len()
        && a.iter().all(
            |(var, id)| matches!(b.get(var), Some(other) if egraph.find(other) == egraph.find(id)),
        )
}

/// A multi-pattern rule with its sources resolved into the deduplicated
/// canonical pattern list the engine searches once per iteration.
pub(crate) struct MultiRuleCompiled {
    pub(crate) rule: MultiPatternRule,
    /// For each source pattern: index into the unique canonical pattern
    /// list and the canonical→original variable map.
    pub(crate) srcs: Vec<(usize, HashMap<Var, Var>)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensat_ir::{GraphBuilder, TensorAnalysis};
    use tensat_rules::{multi_rules, parse_pattern, single_rules};

    fn two_matmul_graph() -> (TensorEGraph, Id) {
        let mut g = GraphBuilder::new();
        let x = g.input("x", &[64, 256]);
        let w1 = g.weight("w1", &[256, 128]);
        let w2 = g.weight("w2", &[256, 128]);
        let m1 = g.matmul(x, w1);
        let m2 = g.matmul(x, w2);
        let expr = g.finish(&[m1, m2]);
        let mut eg = TensorEGraph::new(TensorAnalysis);
        let root = eg.add_expr(&expr);
        eg.rebuild();
        (eg, root)
    }

    #[test]
    fn canonicalization_renames_consistently() {
        let p = parse_pattern("(matmul ?act ?x ?w1)").unwrap();
        let (canon, back) = canonicalize_pattern(&p);
        assert_eq!(canon.to_string(), "(matmul ?c0 ?c1 ?c2)");
        assert_eq!(back[&Var::new("c1")], Var::new("x"));
        // Two alpha-equivalent patterns canonicalize identically.
        let q = parse_pattern("(matmul ?a ?b ?c)").unwrap();
        let (canon_q, _) = canonicalize_pattern(&q);
        assert_eq!(canon.to_string(), canon_q.to_string());
        // Repeated variables keep their identity.
        let r = parse_pattern("(ewadd ?x ?x)").unwrap();
        let (canon_r, _) = canonicalize_pattern(&r);
        assert_eq!(canon_r.to_string(), "(ewadd ?c0 ?c0)");
    }

    #[test]
    fn merge_substs_detects_conflicts() {
        let (eg, root) = two_matmul_graph();
        let other = eg
            .classes()
            .map(|c| c.id)
            .find(|&c| eg.find(c) != eg.find(root))
            .unwrap();
        let mut a = Subst::new();
        a.insert(Var::new("x"), root);
        let mut b = Subst::new();
        b.insert(Var::new("x"), other);
        b.insert(Var::new("y"), root);
        assert!(merge_substs(&eg, &a, &b).is_none());
        let mut c = Subst::new();
        c.insert(Var::new("x"), root);
        c.insert(Var::new("z"), other);
        let merged = merge_substs(&eg, &a, &c).unwrap();
        assert_eq!(merged.len(), 2);
    }

    #[test]
    fn multi_pattern_rule_merges_parallel_matmuls() {
        let (mut eg, root) = two_matmul_graph();
        let config = ExplorationConfig {
            k_multi: 1,
            max_iter: 3,
            node_limit: 20_000,
            ..Default::default()
        };
        let stats = explore(&mut eg, root, &[], &multi_rules(), &config);
        assert!(stats.enodes > 10);
        assert_eq!(
            stats.saturated,
            stats.stop_reason == Some(StopReason::Saturated)
        );
        // The merged matmul over concatenated weights must now exist.
        let has_concat_matmul = eg
            .classes()
            .any(|c| c.iter().any(|n| matches!(n, TensorLang::Split0(_))));
        assert!(
            has_concat_matmul,
            "expected split0 node from the multi-pattern rule"
        );
    }

    #[test]
    fn exploration_saturates_on_trivial_graph() {
        let mut g = GraphBuilder::new();
        let x = g.input("x", &[4, 4]);
        let expr = g.finish(&[x]);
        let mut eg = TensorEGraph::new(TensorAnalysis);
        let root = eg.add_expr(&expr);
        eg.rebuild();
        let stats = explore(
            &mut eg,
            root,
            &single_rules(),
            &multi_rules(),
            &ExplorationConfig::default(),
        );
        assert!(stats.saturated);
        assert_eq!(stats.stop_reason, Some(StopReason::Saturated));
        assert!(stats.iterations <= 2);
        assert_eq!(stats.strategy, "saturate");
    }

    /// Regression test: the single-pattern apply loop only checked
    /// `node_limit`, never the wall-clock budget, so one large match batch
    /// blew straight through `time_limit`. A condition that sleeps 10 ms
    /// per candidate on a graph with 20 matches would run ~200 ms under the
    /// old code; with the in-loop check it must stop within a few sleeps of
    /// the 30 ms budget.
    #[test]
    fn time_limit_bounds_single_pattern_apply_batch() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        let mut g = GraphBuilder::new();
        let x = g.input("x", &[64, 256]);
        let mut outs = vec![];
        for i in 0..20 {
            let w = g.weight(&format!("w{i}"), &[256, 128]);
            outs.push(g.matmul(x, w));
        }
        let expr = g.finish(&outs);
        let mut eg = TensorEGraph::new(TensorAnalysis);
        let root = eg.add_expr(&expr);
        eg.rebuild();

        let condition_calls = Arc::new(AtomicUsize::new(0));
        let calls = condition_calls.clone();
        let slow_noop = TensorRewrite::new_conditional(
            "slow-noop",
            parse_pattern("(matmul ?act ?x ?w)").unwrap(),
            parse_pattern("(matmul ?act ?x ?w)").unwrap(),
            Arc::new(move |_, _, _| {
                calls.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(10));
                true
            }),
        );
        let config = ExplorationConfig {
            k_multi: 0,
            max_iter: 1,
            time_limit: Duration::from_millis(30),
            cycle_filter: CycleFilter::Off,
            ..Default::default()
        };
        explore(&mut eg, root, &[slow_noop], &[], &config);
        let calls = condition_calls.load(Ordering::SeqCst);
        assert!(calls >= 1, "the apply loop must have started");
        assert!(
            calls < 20,
            "apply batch ignored the time limit: all {calls} candidates ran"
        );
    }

    /// A balanced `ewadd` tree over `n_matches + 1` weights: `n_matches`
    /// inner nodes, i.e. that many pending matches of `(ewadd ?a ?b)`.
    fn balanced_ewadd_tree(n_matches: usize) -> (TensorEGraph, Id) {
        let mut g = GraphBuilder::new();
        let mut level: Vec<Id> = (0..=n_matches)
            .map(|i| g.weight(&format!("w{i}"), &[8, 8]))
            .collect();
        while level.len() > 1 {
            level = level
                .chunks(2)
                .map(|pair| match pair {
                    [a, b] => g.ewadd(*a, *b),
                    _ => pair[0],
                })
                .collect();
        }
        let expr = g.finish(&level);
        let mut eg = TensorEGraph::new(TensorAnalysis);
        let root = eg.add_expr(&expr);
        eg.rebuild();
        (eg, root)
    }

    /// Applies `rule`'s matches on a copy of `seed` through one of the
    /// engine's two entry points — a whole iteration, or [`Guided`]'s
    /// budgeted single-rule action (whose budget must stay hard) — with
    /// `budget` as the node limit, and returns the e-graph.
    fn apply_through(
        seed: &TensorEGraph,
        root: Id,
        rule: TensorRewrite,
        budget: usize,
        budgeted_action: bool,
    ) -> TensorEGraph {
        let rules = [rule];
        let config = ExplorationConfig {
            k_multi: 0,
            node_limit: budget,
            ..Default::default()
        };
        let ctx = ExplorationContext::new(root, &rules, &[], &config);
        let mut eg = seed.clone();
        let mut stats = ExplorationStats::default();
        if budgeted_action {
            let (matches, _) = ctx.search_state(&eg, false);
            ctx.apply_single_budgeted(&mut eg, 0, &matches[0], budget, &mut stats);
            assert!(eg.total_number_of_nodes() <= budget, "hard budget");
        } else {
            ctx.run_iteration(&mut eg, 0, &mut stats);
        }
        eg
    }

    /// Regression test: the apply phase once evaluated every side
    /// condition of the gathered batch before its first application, so
    /// when `node_limit` stopped it after a handful of applications all
    /// the other evaluations were thrown away. The loop asks the budget
    /// before every candidate, so a condition runs only for a candidate
    /// that is then applied or rejected: `evaluations <= commits +
    /// rejected` — through both entry points of the engine.
    #[test]
    fn budget_stop_evaluates_no_condition_it_does_not_apply() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        let n_matches = 4096;
        let (seed, root) = balanced_ewadd_tree(n_matches);
        let nodes_before = seed.total_number_of_nodes();
        let budget = nodes_before + 5;

        for budgeted_action in [false, true] {
            let evaluated = Arc::new(AtomicUsize::new(0));
            let rejected = Arc::new(AtomicUsize::new(0));
            let (evals, rejects) = (evaluated.clone(), rejected.clone());
            // Commutativity: every admitted application adds exactly
            // one e-node; every third candidate is rejected.
            let commute = TensorRewrite::new_conditional(
                "counting-commute",
                parse_pattern("(ewadd ?a ?b)").unwrap(),
                parse_pattern("(ewadd ?b ?a)").unwrap(),
                Arc::new(move |_, _, _| {
                    let admit = evals.fetch_add(1, Ordering::SeqCst) % 3 != 2;
                    if !admit {
                        rejects.fetch_add(1, Ordering::SeqCst);
                    }
                    admit
                }),
            );
            let eg = apply_through(&seed, root, commute, budget, budgeted_action);
            let commits = eg.total_number_of_nodes() - nodes_before;
            assert!((1..=5).contains(&commits), "commits: {commits}");
            let evaluated = evaluated.load(Ordering::SeqCst);
            let rejected = rejected.load(Ordering::SeqCst);
            assert!(
                evaluated <= commits + rejected,
                "budgeted_action={budgeted_action}: {evaluated} conditions evaluated \
                 for {commits} commits + {rejected} rejections ({n_matches} matches)"
            );
        }
    }

    /// Algorithm 1's contract: matches are applied one after another, in
    /// place, so a side condition sees the e-graph every earlier
    /// application of its own batch left. A commutativity rule whose
    /// condition admits only while the e-graph holds fewer than `seed + 3`
    /// e-nodes must therefore add exactly 3 — a driver that evaluated a
    /// run of conditions ahead of their applications would admit them all.
    #[test]
    fn a_condition_sees_every_earlier_application_of_its_batch() {
        use std::sync::Arc;

        let (seed, root) = balanced_ewadd_tree(4096);
        let nodes_before = seed.total_number_of_nodes();
        for budgeted_action in [false, true] {
            let commute = TensorRewrite::new_conditional(
                "commute-while-small",
                parse_pattern("(ewadd ?a ?b)").unwrap(),
                parse_pattern("(ewadd ?b ?a)").unwrap(),
                Arc::new(move |egraph, _, _| egraph.total_number_of_nodes() < nodes_before + 3),
            );
            let eg = apply_through(&seed, root, commute, usize::MAX, budgeted_action);
            assert_eq!(
                eg.total_number_of_nodes(),
                nodes_before + 3,
                "budgeted_action={budgeted_action}"
            );
        }
    }

    /// Regression test for the `skip_identical` guard: equivalent bindings
    /// whose raw ids differ (equal only modulo `find`) must count as
    /// identical once the classes are unioned.
    #[test]
    fn substs_equal_canonical_compares_modulo_find() {
        let mut eg = TensorEGraph::new(TensorAnalysis);
        let a = eg.add(TensorLang::Num(1));
        let b = eg.add(TensorLang::Num(2));
        let x = Var::new("x");
        let mut s1 = Subst::new();
        s1.insert(x, a);
        let mut s2 = Subst::new();
        s2.insert(x, b);
        // Distinct classes: neither raw nor canonical equality.
        assert_ne!(s1, s2);
        assert!(!substs_equal_canonical(&eg, &s1, &s2));
        // Union the classes mid-iteration (no rebuild, as in the apply
        // loop): raw ids still differ — the derived PartialEq the old guard
        // used says "different" — but canonically they are the same binding.
        eg.union(a, b);
        assert_ne!(s1, s2, "raw ids still differ after the union");
        assert!(substs_equal_canonical(&eg, &s1, &s2));
        // Different variable sets never compare equal.
        let mut s3 = Subst::new();
        s3.insert(Var::new("y"), a);
        assert!(!substs_equal_canonical(&eg, &s1, &s3));
        let mut s4 = s1.clone();
        s4.insert(Var::new("y"), a);
        assert!(!substs_equal_canonical(&eg, &s1, &s4));
    }

    #[test]
    fn node_limit_is_respected() {
        let (mut eg, root) = two_matmul_graph();
        let config = ExplorationConfig {
            k_multi: 3,
            max_iter: 10,
            node_limit: 60,
            ..Default::default()
        };
        let stats = explore(&mut eg, root, &single_rules(), &multi_rules(), &config);
        // The limit is asked before every application, so the overshoot is
        // what one application adds: a handful of e-nodes.
        assert_eq!(stats.stop_reason, Some(StopReason::NodeLimit(60)));
        assert!(!stats.saturated);
        assert!(eg.total_number_of_nodes() < 60 + 20);
    }

    /// The iteration whose apply phase `node_limit` cuts is the last one,
    /// although the rebuild closing it deduplicates the e-graph back under
    /// the limit: `nodes_per_iteration` follows the unlimited run up to
    /// the cut iteration and has no entry after it, and a loop written by
    /// hand over `over_budget` / `run_iteration` (the benchmark's traced
    /// loop is one) stops where `Saturate` does.
    #[test]
    fn no_iteration_follows_the_one_node_limit_cuts() {
        // A left-leaning `ewadd` chain over six weights: associativity and
        // commutativity multiply it past 300 e-nodes in three iterations.
        let mut g = GraphBuilder::new();
        let mut sum = g.weight("w0", &[8, 8]);
        for i in 1..6 {
            let w = g.weight(&format!("w{i}"), &[8, 8]);
            sum = g.ewadd(sum, w);
        }
        let expr = g.finish(&[sum]);
        let config = |node_limit, max_iter| ExplorationConfig {
            max_iter,
            node_limit,
            search_threads: 1,
            ..Default::default()
        };
        let (singles, multis) = (single_rules(), multi_rules());
        let seeded = || {
            let mut eg = TensorEGraph::new(TensorAnalysis);
            let root = eg.add_expr(&expr);
            eg.rebuild();
            (eg, root)
        };
        let run = |config: &ExplorationConfig| {
            let (mut eg, root) = seeded();
            explore(&mut eg, root, &singles, &multis, config)
        };

        const LIMIT: usize = 300;
        let cut = run(&config(LIMIT, 10));
        assert_eq!(cut.stop_reason, Some(StopReason::NodeLimit(LIMIT)));
        assert!(!cut.saturated);
        assert!(
            cut.enodes < LIMIT,
            "the fixture must end under the limit, where a loop that only \
             compares the node count would go on: {} e-nodes",
            cut.enodes
        );
        assert_eq!(cut.nodes_per_iteration.len(), cut.iterations);

        // The limit bound in the last iteration and in none before it.
        let free = run(&config(usize::MAX, cut.iterations));
        assert_eq!(
            free.stop_reason,
            Some(StopReason::IterationLimit(cut.iterations))
        );
        let last = cut.iterations - 1;
        assert!(last > 0);
        assert_eq!(
            cut.nodes_per_iteration[..last],
            free.nodes_per_iteration[..last]
        );
        assert!(cut.nodes_per_iteration[last] < free.nodes_per_iteration[last]);

        let limited = config(LIMIT, 10);
        let (mut eg, root) = seeded();
        let ctx = ExplorationContext::new(root, &singles, &multis, &limited);
        let mut stats = ExplorationStats::default();
        let mut iter = 0;
        while !ctx.over_budget(&eg) {
            ctx.run_iteration(&mut eg, iter, &mut stats);
            iter += 1;
        }
        ctx.finish(&eg, &mut stats);
        assert!(eg.total_number_of_nodes() < LIMIT);
        assert_eq!(
            (
                stats.iterations,
                stats.nodes_per_iteration,
                stats.stop_reason
            ),
            (cut.iterations, cut.nodes_per_iteration, cut.stop_reason)
        );
    }

    #[test]
    fn exploration_with_filtering_leaves_no_cycles() {
        let (mut eg, root) = two_matmul_graph();
        let config = ExplorationConfig {
            k_multi: 2,
            max_iter: 4,
            node_limit: 5_000,
            cycle_filter: CycleFilter::Efficient,
            ..Default::default()
        };
        explore(&mut eg, root, &single_rules(), &multi_rules(), &config);
        assert!(crate::cycles::find_cycles(&eg, root).is_empty());
    }

    #[test]
    fn more_multi_iterations_grow_the_egraph() {
        let sizes: Vec<usize> = [0usize, 1, 2]
            .iter()
            .map(|&k| {
                let (mut eg, root) = two_matmul_graph();
                let config = ExplorationConfig {
                    k_multi: k,
                    max_iter: 4,
                    node_limit: 10_000,
                    ..Default::default()
                };
                explore(&mut eg, root, &single_rules(), &multi_rules(), &config);
                eg.total_number_of_nodes()
            })
            .collect();
        assert!(
            sizes[1] > sizes[0],
            "k_multi=1 should grow beyond k_multi=0: {sizes:?}"
        );
        assert!(
            sizes[2] >= sizes[1],
            "k_multi=2 should not shrink: {sizes:?}"
        );

        // Every multi iteration searches afresh: `tanh-grow` creates a new
        // tanh binding per iteration, and pairing it with the (unchanged)
        // relu match is a new combination that must fire — one sigmoid per
        // multi iteration, not only the first iteration's.
        let fired = |k_multi: usize| {
            let mut g = GraphBuilder::new();
            let p = g.input("p", &[8, 8]);
            let q = g.input("q", &[8, 8]);
            let (r, t) = (g.relu(p), g.tanh(q));
            let mut eg = TensorEGraph::new(TensorAnalysis);
            let root = eg.add_expr(&g.finish(&[r, t]));
            eg.rebuild();
            let grow = tensat_rules::rw("tanh-grow", "(tanh ?y)", "(tanh (ewmul ?y ?y))");
            let pair = MultiPatternRule::new(
                "relu-tanh-pair",
                &["(relu ?x)", "(tanh ?y)"],
                &["(relu ?x)", "(sigmoid (ewadd ?x ?y))"],
            );
            let config = ExplorationConfig {
                k_multi,
                max_iter: 4,
                node_limit: 5_000,
                ..Default::default()
            };
            explore(&mut eg, root, &[grow], &[pair], &config);
            let witness = parse_pattern("(sigmoid (ewadd ?x ?y))").unwrap();
            let ms = witness.search(&eg);
            ms.iter().map(|m| m.substs.len()).sum::<usize>()
        };
        assert_eq!(fired(1), 1);
        assert_eq!(fired(3), 3);
    }

    /// The seam tags stats with the strategy that produced them, for any
    /// strategy — including a custom one implemented outside this crate.
    #[test]
    fn explore_with_runs_custom_strategies() {
        /// A strategy that does nothing but prove the seam is open.
        #[derive(Debug)]
        struct Noop;
        impl ExplorationStrategy for Noop {
            fn name(&self) -> &'static str {
                "noop"
            }
            fn run(
                &self,
                egraph: &mut TensorEGraph,
                ctx: &ExplorationContext<'_>,
            ) -> ExplorationStats {
                let mut stats = ExplorationStats::default();
                egraph.rebuild();
                ctx.finish(egraph, &mut stats);
                stats
            }
        }
        let (mut eg, root) = two_matmul_graph();
        let nodes = eg.total_number_of_nodes();
        let stats = explore_with(
            &Noop,
            &mut eg,
            root,
            &single_rules(),
            &multi_rules(),
            &ExplorationConfig::default(),
        );
        assert_eq!(stats.strategy, "noop");
        assert_eq!(stats.enodes, nodes, "noop strategy must not grow the graph");
        assert!(stats.time >= Duration::ZERO);
    }
}
