//! The [`Runner`]: drives equality saturation until saturation or a limit
//! is hit, recording per-iteration statistics.

use crate::{search_all_parallel, Analysis, EGraph, Language, RecExpr, Rewrite, SearchMatches};
use std::fmt::Debug;
use std::time::{Duration, Instant};

/// Reads the `TENSAT_SEARCH_THREADS` environment variable: the number of
/// threads the e-matching search phase should use. Returns `None` when the
/// variable is unset or does not parse to a positive integer.
///
/// [`Runner`] consults this at construction (so CI can force the parallel
/// search path without code changes), as does
/// `tensat_core::ExplorationConfig`'s default.
pub fn search_threads_from_env() -> Option<usize> {
    parse_thread_count(&std::env::var("TENSAT_SEARCH_THREADS").ok()?)
}

fn parse_thread_count(raw: &str) -> Option<usize> {
    raw.trim().parse().ok().filter(|&n| n >= 1)
}

/// Why the runner stopped.
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

/// Statistics for one exploration iteration.
#[derive(Debug, Clone)]
pub struct Iteration {
    /// Number of rewrite applications that changed the e-graph.
    pub applied: usize,
    /// Total matches found (before conditions and deduplication by union).
    pub total_matches: usize,
    /// E-nodes in the e-graph after this iteration.
    pub egraph_nodes: usize,
    /// E-classes in the e-graph after this iteration.
    pub egraph_classes: usize,
    /// Time spent searching for matches.
    pub search_time: Duration,
    /// Time spent applying matches.
    pub apply_time: Duration,
    /// Time spent rebuilding.
    pub rebuild_time: Duration,
}

/// Configuration and state for running equality saturation.
///
/// Mirrors egg's `Runner`: construct, configure limits with the builder
/// methods, seed the e-graph with expressions, then call [`Runner::run`].
///
/// # Examples
///
/// ```
/// use tensat_egraph::{Runner, Rewrite, Pattern, RecExpr, ENodeOrVar, Var, Symbol, AstSize, Extractor};
/// use tensat_egraph::doctest_lang::SimpleMath as Math;
/// // (* ?x 2) => (<< ?x 1)
/// let mut lhs = RecExpr::default();
/// let x = lhs.add(ENodeOrVar::Var(Var::new("x")));
/// let two = lhs.add(ENodeOrVar::ENode(Math::Num(2)));
/// lhs.add(ENodeOrVar::ENode(Math::Mul([x, two])));
/// let mut rhs = RecExpr::default();
/// let x2 = rhs.add(ENodeOrVar::Var(Var::new("x")));
/// let one = rhs.add(ENodeOrVar::ENode(Math::Num(1)));
/// rhs.add(ENodeOrVar::ENode(Math::Shl([x2, one])));
/// let rw: Rewrite<Math, ()> = Rewrite::new("strength", Pattern::new(lhs), Pattern::new(rhs));
///
/// let mut start = RecExpr::default();
/// let a = start.add(Math::Sym(Symbol::new("a")));
/// let t = start.add(Math::Num(2));
/// start.add(Math::Mul([a, t]));
///
/// let mut runner = Runner::new(()).with_expr(&start);
/// runner.run(&[rw]);
/// assert!(runner.stop_reason.is_some());
/// ```
pub struct Runner<L: Language, N: Analysis<L>> {
    /// The e-graph being grown.
    pub egraph: EGraph<L, N>,
    /// Ids of the root classes of the seeded expressions, in seeding order.
    pub roots: Vec<crate::Id>,
    /// Per-iteration statistics, filled in by [`Runner::run`].
    pub iterations: Vec<Iteration>,
    /// Why the run stopped (set by [`Runner::run`]).
    pub stop_reason: Option<StopReason>,
    iter_limit: usize,
    node_limit: usize,
    time_limit: Duration,
    search_threads: usize,
}

impl<L: Language, N: Analysis<L>> Runner<L, N> {
    /// Creates a runner with an empty e-graph and default limits
    /// (30 iterations, 10 000 e-nodes, 5 seconds). The search thread count
    /// defaults to the `TENSAT_SEARCH_THREADS` environment variable if set
    /// (see [`search_threads_from_env`]), otherwise 1 (sequential).
    pub fn new(analysis: N) -> Self {
        Self::with_egraph(EGraph::new(analysis))
    }

    /// Wraps an already-populated e-graph (defaults as for [`Runner::new`]).
    pub fn with_egraph(egraph: EGraph<L, N>) -> Self {
        Runner {
            egraph,
            roots: vec![],
            iterations: vec![],
            stop_reason: None,
            iter_limit: 30,
            node_limit: 10_000,
            time_limit: Duration::from_secs(5),
            search_threads: search_threads_from_env().unwrap_or(1),
        }
    }

    /// Adds an expression to the e-graph and records its root.
    pub fn with_expr(mut self, expr: &RecExpr<L>) -> Self {
        let root = self.egraph.add_expr(expr);
        self.egraph.rebuild();
        self.roots.push(root);
        self
    }

    /// Sets the iteration limit.
    pub fn with_iter_limit(mut self, limit: usize) -> Self {
        self.iter_limit = limit;
        self
    }

    /// Sets the e-node limit.
    pub fn with_node_limit(mut self, limit: usize) -> Self {
        self.node_limit = limit;
        self
    }

    /// Sets the wall-clock time limit.
    pub fn with_time_limit(mut self, limit: Duration) -> Self {
        self.time_limit = limit;
        self
    }

    /// Sets the number of threads used by the e-matching search phase.
    /// `1` (the default unless `TENSAT_SEARCH_THREADS` is set) runs the
    /// sequential driver; larger values shard candidate classes across
    /// scoped threads via [`crate::search_all_parallel`] with bit-identical
    /// results, so this only changes wall-clock time, never the outcome.
    pub fn with_search_threads(mut self, n_threads: usize) -> Self {
        self.search_threads = n_threads.max(1);
        self
    }
}

impl<L, N> Runner<L, N>
where
    L: Language + Send + Sync,
    N: Analysis<L> + Sync,
    N::Data: Sync,
{
    /// Runs equality saturation with the given rewrites until saturation or
    /// a limit is reached. Returns the stop reason.
    ///
    /// Each iteration searches every rule against the iteration-start
    /// e-graph — sharded across [`Runner::with_search_threads`] threads,
    /// bit-identical to the sequential search at any count — then applies
    /// the matches in place, rule by rule ([`Rewrite::apply_while`]), asking
    /// both limits — nodes and wall-clock — before every application, and
    /// rebuilds.
    ///
    /// (The `Sync` bounds let the search shard the read-only e-graph
    /// across threads; every [`Language`] and [`Analysis`] in this
    /// workspace is plain data and satisfies them. A non-`Sync` language or
    /// analysis can still saturate via [`Runner::run_sequential`].)
    pub fn run(&mut self, rewrites: &[Rewrite<L, N>]) -> StopReason {
        let n_threads = self.search_threads;
        self.run_with_search(rewrites, |egraph, rewrites| {
            // The batch driver dispatches itself: with one thread it is
            // the per-pattern sequential search verbatim.
            let searchers: Vec<_> = rewrites.iter().map(|rw| &rw.searcher).collect();
            search_all_parallel(&searchers, egraph, n_threads)
        })
    }
}

/// One full-batch sequential search: the pre-parallel search phase.
fn sequential_search<L: Language, N: Analysis<L>>(
    egraph: &EGraph<L, N>,
    rewrites: &[Rewrite<L, N>],
) -> Vec<Vec<SearchMatches>> {
    rewrites.iter().map(|rw| rw.search(egraph)).collect()
}

impl<L: Language, N: Analysis<L>> Runner<L, N> {
    /// Like [`Runner::run`] with one search thread, but without the `Sync`
    /// bounds: languages or analyses containing non-`Sync` data (e.g. `Rc`
    /// caches) can still run equality saturation — they just cannot shard
    /// the search across threads. [`Runner::with_search_threads`] is
    /// ignored here.
    pub fn run_sequential(&mut self, rewrites: &[Rewrite<L, N>]) -> StopReason {
        self.run_with_search(rewrites, sequential_search)
    }

    /// The saturation loop, parameterized over the search phase (the one
    /// part that needs `Sync` to parallelize).
    fn run_with_search(
        &mut self,
        rewrites: &[Rewrite<L, N>],
        search: impl Fn(&EGraph<L, N>, &[Rewrite<L, N>]) -> Vec<Vec<SearchMatches>>,
    ) -> StopReason {
        let start = Instant::now();
        let (node_limit, time_limit) = (self.node_limit, self.time_limit);
        let keep_going = move |egraph: &EGraph<L, N>| {
            egraph.total_number_of_nodes() < node_limit && start.elapsed() < time_limit
        };
        self.egraph.rebuild();
        let reason = loop {
            if self.iterations.len() >= self.iter_limit {
                break StopReason::IterationLimit(self.iter_limit);
            }
            if self.egraph.total_number_of_nodes() >= self.node_limit {
                break StopReason::NodeLimit(self.node_limit);
            }
            if start.elapsed() >= self.time_limit {
                break StopReason::TimeLimit(self.time_limit);
            }

            let search_start = Instant::now();
            let all_matches = search(&self.egraph, rewrites);
            let search_time = search_start.elapsed();
            let total_matches: usize = all_matches
                .iter()
                .flat_map(|ms| ms.iter().map(|m| m.substs.len()))
                .sum();

            let nodes_before = self.egraph.total_number_of_nodes();
            let unions_before = self.egraph.union_count();

            let apply_start = Instant::now();
            let mut applied = 0;
            let mut stopped = false;
            for (rw, matches) in rewrites.iter().zip(&all_matches) {
                let (n, cut) =
                    rw.apply_while(&mut self.egraph, matches, &keep_going, |_, _, _| true);
                applied += n;
                if cut {
                    stopped = true;
                    break;
                }
            }
            let apply_time = apply_start.elapsed();
            // Which limit cut the batch short, read before the rebuild's
            // deduplication can pull the node count back under its limit.
            let limit_hit = stopped.then(|| {
                if self.egraph.total_number_of_nodes() >= node_limit {
                    StopReason::NodeLimit(node_limit)
                } else {
                    StopReason::TimeLimit(time_limit)
                }
            });

            let rebuild_start = Instant::now();
            self.egraph.rebuild();
            let rebuild_time = rebuild_start.elapsed();

            self.iterations.push(Iteration {
                applied,
                total_matches,
                egraph_nodes: self.egraph.total_number_of_nodes(),
                egraph_classes: self.egraph.number_of_classes(),
                search_time,
                apply_time,
                rebuild_time,
            });

            if let Some(reason) = limit_hit {
                break reason;
            }
            let changed = self.egraph.total_number_of_nodes() != nodes_before
                || self.egraph.union_count() != unions_before;
            if !changed {
                break StopReason::Saturated;
            }
        };
        self.stop_reason = Some(reason.clone());
        reason
    }
}

impl<L: Language, N: Analysis<L>> Runner<L, N> {
    /// Total time spent across recorded iterations.
    pub fn total_time(&self) -> Duration {
        self.iterations
            .iter()
            .map(|i| i.search_time + i.apply_time + i.rebuild_time)
            .sum()
    }
}

impl<L: Language, N: Analysis<L>> Debug for Runner<L, N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runner")
            .field("egraph", &self.egraph)
            .field("iterations", &self.iterations.len())
            .field("stop_reason", &self.stop_reason)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::language::test_lang::Math;
    use crate::{AstSize, ENodeOrVar, Extractor, Pattern, Symbol, Var};

    fn var(v: &str) -> ENodeOrVar<Math> {
        ENodeOrVar::Var(Var::new(v))
    }
    fn node(n: Math) -> ENodeOrVar<Math> {
        ENodeOrVar::ENode(n)
    }

    fn pattern(build: impl FnOnce(&mut RecExpr<ENodeOrVar<Math>>)) -> Pattern<Math> {
        let mut ast = RecExpr::default();
        build(&mut ast);
        Pattern::new(ast)
    }

    /// The rules needed to prove (/ (* a 2) 2) == a from the paper's §2
    /// running example.
    fn rules() -> Vec<Rewrite<Math, ()>> {
        vec![
            // (* ?x 2) => (<< ?x 1)
            Rewrite::new(
                "strength-reduce",
                pattern(|p| {
                    let x = p.add(var("x"));
                    let two = p.add(node(Math::Num(2)));
                    p.add(node(Math::Mul([x, two])));
                }),
                pattern(|p| {
                    let x = p.add(var("x"));
                    let one = p.add(node(Math::Num(1)));
                    p.add(node(Math::Shl([x, one])));
                }),
            ),
            // (/ (* ?x ?y) ?y) => ?x
            Rewrite::new(
                "cancel-div",
                pattern(|p| {
                    let x = p.add(var("x"));
                    let y = p.add(var("y"));
                    let m = p.add(node(Math::Mul([x, y])));
                    let y2 = p.add(var("y"));
                    p.add(node(Math::Div([m, y2])));
                }),
                pattern(|p| {
                    p.add(var("x"));
                }),
            ),
        ]
    }

    fn start_expr() -> RecExpr<Math> {
        let mut e = RecExpr::default();
        let a = e.add(Math::Sym(Symbol::new("a")));
        let two = e.add(Math::Num(2));
        let m = e.add(Math::Mul([a, two]));
        e.add(Math::Div([m, two]));
        e
    }

    #[test]
    fn proves_paper_motivating_example() {
        // Even after strength reduction "hides" the (* a 2), the e-graph
        // still proves (/ (* a 2) 2) == a because nothing is destroyed.
        let mut runner = Runner::new(()).with_expr(&start_expr());
        let reason = runner.run(&rules());
        assert_eq!(reason, StopReason::Saturated);
        let root = runner.roots[0];
        let ex = Extractor::new(&runner.egraph, AstSize);
        let (cost, best) = ex.find_best(root).unwrap();
        assert_eq!(cost, 1);
        assert_eq!(best.to_string(), "a");
    }

    #[test]
    fn respects_iteration_limit() {
        let mut runner = Runner::new(()).with_expr(&start_expr()).with_iter_limit(0);
        let reason = runner.run(&rules());
        assert_eq!(reason, StopReason::IterationLimit(0));
        assert!(runner.iterations.is_empty());
    }

    #[test]
    fn respects_node_limit() {
        let mut runner = Runner::new(()).with_expr(&start_expr()).with_node_limit(1);
        let reason = runner.run(&rules());
        assert_eq!(reason, StopReason::NodeLimit(1));
    }

    #[test]
    fn respects_time_limit() {
        let mut runner = Runner::new(())
            .with_expr(&start_expr())
            .with_time_limit(Duration::from_secs(0));
        let reason = runner.run(&rules());
        assert_eq!(reason, StopReason::TimeLimit(Duration::from_secs(0)));
    }

    #[test]
    fn iteration_stats_are_recorded() {
        let mut runner = Runner::new(()).with_expr(&start_expr());
        runner.run(&rules());
        assert!(!runner.iterations.is_empty());
        let first = &runner.iterations[0];
        assert!(first.applied > 0);
        assert!(first.egraph_nodes >= 4);
        assert!(first.egraph_classes >= 3);
        // A real run does measurable search/apply/rebuild work, so the
        // recorded per-phase times must actually be populated.
        assert!(runner.total_time() > Duration::ZERO);
    }

    /// `n` distinct `(* v_i 2)` terms chained into one root: `n` pending
    /// matches of the strength-reduction rule in the first iteration.
    fn many_muls_expr(n: usize) -> RecExpr<Math> {
        let mut e = RecExpr::default();
        let two = e.add(Math::Num(2));
        let mut outs = vec![];
        for i in 0..n {
            let s = e.add(Math::Sym(Symbol::new(format!("v{i}"))));
            outs.push(e.add(Math::Mul([s, two])));
        }
        // Chain the outputs together so the expression is single-rooted.
        let mut acc = outs[0];
        for &o in &outs[1..] {
            acc = e.add(Math::Add([acc, o]));
        }
        e
    }

    /// The node limit must bound e-graph growth *within* an iteration, not
    /// only between iterations: with many matches queued, the old
    /// once-per-iteration check overshot `node_limit` by the whole match
    /// batch. The capped apply loop stops within one application's worth of
    /// nodes (here the applier `(<< ?x 1)` adds at most 2 per application).
    #[test]
    fn node_limit_overshoot_is_bounded() {
        let e = many_muls_expr(50);

        let strength: Rewrite<Math, ()> = Rewrite::new(
            "strength-reduce",
            pattern(|p| {
                let x = p.add(var("x"));
                let two = p.add(node(Math::Num(2)));
                p.add(node(Math::Mul([x, two])));
            }),
            pattern(|p| {
                let x = p.add(var("x"));
                let one = p.add(node(Math::Num(1)));
                p.add(node(Math::Shl([x, one])));
            }),
        );

        let runner = Runner::new(()).with_expr(&e);
        let limit = runner.egraph.total_number_of_nodes() + 5;
        let mut runner = Runner::with_egraph(runner.egraph).with_node_limit(limit);
        let reason = runner.run(&[strength]);
        assert_eq!(reason, StopReason::NodeLimit(limit));
        // 50 pending matches would previously have overshot by ~50+ nodes;
        // now at most one application (2 nodes) past the limit.
        assert!(
            runner.egraph.total_number_of_nodes() <= limit + 2,
            "overshoot too large: {} nodes vs limit {}",
            runner.egraph.total_number_of_nodes(),
            limit
        );
        // The partial iteration is still recorded with populated stats.
        assert_eq!(runner.iterations.len(), 1);
    }

    /// Regression test: the apply phase only checked `node_limit`, never
    /// the wall-clock budget, so one large batch with a slow condition ran
    /// past `time_limit` until the next iteration boundary. A condition
    /// that sleeps 10 ms per candidate on 40 pending matches ran all 40
    /// (~400 ms) under the old code; with the in-loop check the run must
    /// stop within a few sleeps of the 30 ms budget and report
    /// `TimeLimit` — through `run` and through the non-`Sync`
    /// `run_sequential`.
    #[test]
    fn time_limit_bounds_the_apply_batch() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        let time_limit = Duration::from_millis(30);
        let run = |sequential: bool| {
            let calls = Arc::new(AtomicUsize::new(0));
            let counter = calls.clone();
            let strength = rules().swap_remove(0);
            let slow = Rewrite::new_conditional(
                "slow-strength-reduce",
                strength.searcher,
                strength.applier,
                Arc::new(move |_, _, _| {
                    counter.fetch_add(1, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(10));
                    true
                }),
            );
            let mut runner = Runner::new(())
                .with_expr(&many_muls_expr(40))
                .with_time_limit(time_limit);
            let reason = if sequential {
                runner.run_sequential(&[slow])
            } else {
                runner.run(&[slow])
            };
            (reason, calls.load(Ordering::SeqCst))
        };
        for sequential in [false, true] {
            let (reason, calls) = run(sequential);
            assert_eq!(
                reason,
                StopReason::TimeLimit(time_limit),
                "sequential={sequential}"
            );
            assert!(calls >= 1, "the apply loop must have started");
            assert!(
                calls < 40,
                "apply batch ignored the time limit (sequential={sequential}): \
                 all {calls} candidates ran"
            );
        }
    }

    /// Parallel search is bit-identical to sequential search, so a run with
    /// threads must reach the same fixpoint via the same iteration history.
    #[test]
    fn parallel_search_run_matches_sequential_run() {
        let mut sequential = Runner::new(())
            .with_expr(&start_expr())
            .with_search_threads(1);
        let mut parallel = Runner::new(())
            .with_expr(&start_expr())
            .with_search_threads(4);
        assert_eq!(sequential.run(&rules()), StopReason::Saturated);
        assert_eq!(parallel.run(&rules()), StopReason::Saturated);
        assert_eq!(sequential.iterations.len(), parallel.iterations.len());
        for (s, p) in sequential.iterations.iter().zip(&parallel.iterations) {
            assert_eq!(s.applied, p.applied);
            assert_eq!(s.total_matches, p.total_matches);
            assert_eq!(s.egraph_nodes, p.egraph_nodes);
            assert_eq!(s.egraph_classes, p.egraph_classes);
        }
        let ex = Extractor::new(&parallel.egraph, AstSize);
        let (cost, best) = ex.find_best(parallel.roots[0]).unwrap();
        assert_eq!((cost, best.to_string().as_str()), (1, "a"));
    }

    #[test]
    fn thread_count_env_parsing() {
        // Exercise the TENSAT_SEARCH_THREADS parser directly rather than
        // via `set_var` (tests run concurrently; mutating the environment
        // would race with other `Runner::new` calls reading it).
        assert_eq!(parse_thread_count("4"), Some(4));
        assert_eq!(parse_thread_count(" 16\n"), Some(16));
        assert_eq!(parse_thread_count("0"), None, "0 threads is rejected");
        assert_eq!(parse_thread_count("auto"), None);
        assert_eq!(parse_thread_count(""), None);
    }

    /// `run_sequential` must keep working for non-`Sync` analyses (the
    /// `Sync` bounds on `run` exist only for the sharded search phase).
    #[test]
    fn non_sync_analysis_can_run_sequentially() {
        use crate::DidMerge;
        use std::rc::Rc;

        /// Analysis whose data is an `Rc` — deliberately not `Sync`.
        #[derive(Clone, Default)]
        struct RcAnalysis;
        impl Analysis<Math> for RcAnalysis {
            type Data = Rc<usize>;
            fn make(_egraph: &EGraph<Math, Self>, enode: &Math) -> Self::Data {
                Rc::new(enode.children().len())
            }
            fn merge(&mut self, _to: &mut Self::Data, _from: Self::Data) -> DidMerge {
                DidMerge(false, false)
            }
        }

        let comm: Rewrite<Math, RcAnalysis> = Rewrite::new(
            "commute-add",
            pattern(|p| {
                let x = p.add(var("x"));
                let y = p.add(var("y"));
                p.add(node(Math::Add([x, y])));
            }),
            pattern(|p| {
                let y = p.add(var("y"));
                let x = p.add(var("x"));
                p.add(node(Math::Add([y, x])));
            }),
        );
        let mut e = RecExpr::default();
        let a = e.add(Math::Sym(Symbol::new("a")));
        let b = e.add(Math::Sym(Symbol::new("b")));
        e.add(Math::Add([a, b]));
        let mut runner = Runner::new(RcAnalysis).with_expr(&e);
        assert_eq!(runner.run_sequential(&[comm]), StopReason::Saturated);
    }

    #[test]
    fn commutativity_saturates() {
        // x + y => y + x on a tiny graph saturates quickly rather than
        // looping forever.
        let comm: Rewrite<Math, ()> = Rewrite::new(
            "commute-add",
            pattern(|p| {
                let x = p.add(var("x"));
                let y = p.add(var("y"));
                p.add(node(Math::Add([x, y])));
            }),
            pattern(|p| {
                let y = p.add(var("y"));
                let x = p.add(var("x"));
                p.add(node(Math::Add([y, x])));
            }),
        );
        let mut e = RecExpr::default();
        let a = e.add(Math::Sym(Symbol::new("a")));
        let b = e.add(Math::Sym(Symbol::new("b")));
        e.add(Math::Add([a, b]));
        let mut runner = Runner::new(()).with_expr(&e);
        let reason = runner.run(&[comm]);
        assert_eq!(reason, StopReason::Saturated);
        assert!(runner.iterations.len() <= 3);
    }
}
