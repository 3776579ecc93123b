//! Rewrite rules: a searcher pattern, an applier pattern, and an optional
//! side condition (used by TENSAT for shape checking).

use crate::machine::Program;
use crate::pattern::ENodeOrVar;
use crate::{Analysis, EGraph, Id, Language, Pattern, SearchMatches, Subst};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// A side condition evaluated on each match before the rewrite is applied.
///
/// Receives the e-graph, the e-class the left-hand side matched in, and the
/// substitution; returns true if the rewrite may fire. TENSAT uses this for
/// tensor shape checking (paper §4). It is the only place a match is
/// judged on anything but structure: search gathers every structural match
/// and the condition decides at apply time, as in the paper's Algorithm 1.
pub type Condition<L, N> = Arc<dyn Fn(&EGraph<L, N>, Id, &Subst) -> bool + Send + Sync>;

/// A single-pattern rewrite rule `lhs => rhs` with an optional condition.
///
/// Multi-pattern rules (several simultaneous left-hand sides, paper §4
/// Algorithm 1) are built on top of these primitives in `tensat-core`.
#[derive(Clone)]
pub struct Rewrite<L: Language, N: Analysis<L>> {
    /// Human-readable rule name (used in reports and iteration stats).
    pub name: String,
    /// The pattern searched for.
    pub searcher: Pattern<L>,
    /// The pattern instantiated and unioned with each match.
    pub applier: Pattern<L>,
    /// Optional side condition; `None` means always applicable.
    pub condition: Option<Condition<L, N>>,
}

impl<L: Language, N: Analysis<L>> fmt::Debug for Rewrite<L, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Rewrite")
            .field("name", &self.name)
            .field("searcher", &self.searcher.to_string())
            .field("applier", &self.applier.to_string())
            .field("conditional", &self.condition.is_some())
            .finish()
    }
}

impl<L: Language, N: Analysis<L>> Rewrite<L, N> {
    /// Creates an unconditional rewrite.
    ///
    /// # Panics
    ///
    /// Panics if the right-hand side uses a variable that does not occur on
    /// the left-hand side.
    pub fn new(name: impl Into<String>, searcher: Pattern<L>, applier: Pattern<L>) -> Self {
        let lhs_vars = searcher.vars();
        for v in applier.vars() {
            assert!(
                lhs_vars.contains(&v),
                "rewrite right-hand side uses unbound variable {v}"
            );
        }
        Rewrite {
            name: name.into(),
            searcher,
            applier,
            condition: None,
        }
    }

    /// Creates a conditional rewrite.
    pub fn new_conditional(
        name: impl Into<String>,
        searcher: Pattern<L>,
        applier: Pattern<L>,
        condition: Condition<L, N>,
    ) -> Self {
        let mut rw = Self::new(name, searcher, applier);
        rw.condition = Some(condition);
        rw
    }

    /// The compiled searcher program, in the shape the batch search
    /// drivers take (see [`crate::search_all_guarded_parallel`]). The name
    /// is historical — it once returned a `(program, guard table)` pair —
    /// and is kept because the repo benchmark (`benchmark/src/trace.rs`)
    /// calls it.
    pub fn searcher_query(&self) -> &Program<L> {
        self.searcher.program()
    }

    /// Searches the e-graph for matches of the left-hand side.
    pub fn search(&self, egraph: &EGraph<L, N>) -> Vec<SearchMatches> {
        self.searcher.search(egraph)
    }

    /// Applies the rewrite to the given matches, returning the number of
    /// applications that changed the e-graph (i.e. caused a union).
    pub fn apply(&self, egraph: &mut EGraph<L, N>, matches: &[SearchMatches]) -> usize {
        self.apply_capped(egraph, matches, usize::MAX).0
    }

    /// Like [`Rewrite::apply`], but checks the e-graph's total node count
    /// against `node_limit` before every application and stops as soon as
    /// the limit is reached (the check is O(1)). Returns the number of
    /// effective applications and whether the limit cut the loop short; a
    /// single application can overshoot the limit by at most the applier
    /// pattern's size.
    pub fn apply_capped(
        &self,
        egraph: &mut EGraph<L, N>,
        matches: &[SearchMatches],
        node_limit: usize,
    ) -> (usize, bool) {
        self.apply_while(egraph, matches, |eg| {
            eg.total_number_of_nodes() < node_limit
        })
    }

    /// The in-place apply loop: asks `keep_going` before every candidate
    /// (before its condition runs) and stops at the first refusal. Returns
    /// the number of applications that caused a union and whether
    /// `keep_going` cut the loop short. This is the sequential reference
    /// [`apply_windowed`] is proven bit-identical against.
    pub fn apply_while(
        &self,
        egraph: &mut EGraph<L, N>,
        matches: &[SearchMatches],
        mut keep_going: impl FnMut(&EGraph<L, N>) -> bool,
    ) -> (usize, bool) {
        let mut changed = 0;
        for m in matches {
            for subst in &m.substs {
                if !keep_going(egraph) {
                    return (changed, true);
                }
                if let Some(cond) = &self.condition {
                    if !cond(egraph, m.eclass, subst) {
                        continue;
                    }
                }
                let (_, did) = self.applier.apply_one(egraph, m.eclass, subst);
                if did {
                    changed += 1;
                }
            }
        }
        (changed, false)
    }

    /// Searches and applies in one step, returning the number of effective
    /// applications. Does not rebuild.
    pub fn run(&self, egraph: &mut EGraph<L, N>) -> usize {
        let matches = self.search(egraph);
        self.apply(egraph, &matches)
    }

    /// Stages one application against a *read-only* e-graph: evaluates the
    /// side condition and, if it passes, symbolically instantiates the
    /// right-hand side into a [`StagedApp`] without mutating anything.
    /// Returns `None` when the condition rejects the match. `base` is the
    /// planned-id origin (see [`StagedApp`]).
    fn stage(
        &self,
        egraph: &EGraph<L, N>,
        eclass: Id,
        subst: &Subst,
        base: usize,
    ) -> Option<StagedApp<L>> {
        if let Some(cond) = &self.condition {
            if !cond(egraph, eclass, subst) {
                return None;
            }
        }
        Some(self.applier.stage(eclass, subst, base))
    }
}

/// One staged rewrite application: the right-hand side instantiated
/// *symbolically* (no e-graph mutation, no memo probes) plus the union
/// request. [`apply_windowed`] builds these and shows each one to its
/// `admit` hook before committing it.
///
/// Children of the staged e-nodes use a *planned-id* encoding relative to
/// `base`, the e-graph's [`EGraph::id_space_size`] when the application's
/// window was staged: every id the e-graph had then is below `base`, so an
/// id below it names an existing e-class (taken verbatim from the
/// substitution) and `base + k` names the `k`-th entry of `adds` within
/// this same application, without ambiguity. Committing resolves planned
/// ids to the real ids [`EGraph::add`] returns.
#[derive(Debug, Clone)]
pub struct StagedApp<L> {
    /// The instantiated right-hand-side e-nodes, in applier AST order
    /// (children before parents). Committing replays one [`EGraph::add`]
    /// per entry, in order.
    pub adds: Vec<L>,
    /// The e-class the left-hand side matched in; committing unions it
    /// with the resolved `root`.
    pub eclass: Id,
    /// The root of the instantiated right-hand side, in planned-id
    /// encoding.
    pub root: Id,
    /// The e-classes the substitution bound to the applier's variables,
    /// one entry per variable *occurrence* in the applier AST (raw ids;
    /// canonicalize at commit time). Cycle filters use these to run their
    /// leaf-reaches-root check against the evolving e-graph at commit
    /// time, exactly where the in-place apply loop ran it.
    pub bound: Vec<Id>,
}

impl<L: Language> Pattern<L> {
    /// Symbolically instantiates the pattern as a rewrite right-hand side
    /// under `subst`, producing a [`StagedApp`] instead of mutating an
    /// e-graph — the staging half of [`Pattern::apply_one`].
    ///
    /// # Panics
    ///
    /// Panics if a pattern variable is unbound in `subst` (as
    /// [`Pattern::instantiate`] would).
    fn stage(&self, eclass: Id, subst: &Subst, base: usize) -> StagedApp<L> {
        let mut ids: Vec<Id> = Vec::with_capacity(self.ast.len());
        let mut adds: Vec<L> = Vec::new();
        let mut bound: Vec<Id> = Vec::new();
        for (_, node) in self.ast.iter() {
            let id = match node {
                ENodeOrVar::Var(v) => {
                    let b = subst
                        .get(*v)
                        .unwrap_or_else(|| panic!("unbound pattern variable {v}"));
                    bound.push(b);
                    b
                }
                ENodeOrVar::ENode(n) => {
                    let planned = Id::from(base + adds.len());
                    adds.push(n.map_children(|c| ids[usize::from(c)]));
                    planned
                }
            };
            ids.push(id);
        }
        StagedApp {
            adds,
            eclass,
            root: *ids.last().expect("pattern is non-empty"),
            bound,
        }
    }
}

/// Work chunks per worker within one window of [`apply_windowed`]: more
/// chunks than threads so workers load-balance when condition costs are
/// skewed across the window (same rationale as the sharded search driver).
const CHUNKS_PER_THREAD: usize = 8;

/// Candidates per chunk of a full multi-threaded window: enough staging
/// work per worker (`CHUNKS_PER_THREAD * CHUNK_LEN` candidates at roughly
/// a microsecond each) to pay for spawning it.
const CHUNK_LEN: usize = 32;

/// The worker count [`apply_windowed`] actually uses for `n_threads`: the
/// same clamp as the search driver, never more workers than the machine
/// can run.
fn apply_workers(n_threads: usize) -> usize {
    let max_workers = std::thread::available_parallelism().map_or(4, |n| n.get() * 4);
    n_threads.clamp(1, max_workers)
}

/// The number of candidates [`apply_windowed`] stages ahead of its commit
/// pass at `n_threads` apply threads: one at a single thread (the in-place
/// loop), `workers * CHUNKS_PER_THREAD * CHUNK_LEN` otherwise. When a
/// budget stops the batch, at most this many conditions were evaluated for
/// nothing.
pub fn apply_window_len(n_threads: usize) -> usize {
    match apply_workers(n_threads) {
        1 => 1,
        workers => workers * CHUNKS_PER_THREAD * CHUNK_LEN,
    }
}

/// What [`apply_windowed`] did with a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ApplyOutcome {
    /// Effective applications: commits that added an e-node or performed a
    /// union that changed something.
    pub applied: usize,
    /// True when `keep_going` refused a candidate, i.e. the batch was cut
    /// short by the caller's budget.
    pub stopped: bool,
}

/// One candidate application: rule index in the batch, matched class,
/// substitution.
type Candidate<'a> = (usize, Id, &'a Subst);

/// The apply phase: walks a gathered match batch — `(rule, match list)`
/// pairs, in apply order — in *windows* of [`apply_window_len`] candidates.
/// Each window is staged against the read-only e-graph as committed so far
/// (side conditions evaluate and right-hand sides instantiate into
/// [`StagedApp`]s, sharded across `n_threads` scoped workers), then
/// committed sequentially in candidate order before the next window is
/// staged. Two caller hooks run on the commit pass:
///
/// * `keep_going(&egraph)` is asked before every candidate — at staging
///   time, so a budget that is already spent stages nothing, and again
///   right before the candidate's commit. The first refusal ends the batch
///   (`stopped`), so the work a budget stop wastes is bounded by one
///   window, not by the batch.
/// * `admit(&egraph, &app)` is asked before every commit and may veto the
///   application (TENSAT's cycle pre-filter); it sees the e-graph with
///   every earlier application already committed, exactly where the
///   in-place loop ran its check.
///
/// At one thread the window is a single candidate and this *is* the
/// in-place loop of [`Rewrite::apply_while`]: ask, evaluate the condition,
/// apply. At any thread count the committed `add`/`union` sequence — same
/// hashcons hits, union order, birth stamps and id assignment — equals
/// that loop's, because chunks partition the window contiguously and merge
/// in chunk order, commit order is candidate order, and each window's
/// planned ids start at the id-space size its staging saw. The one thing
/// that moves is *when* a side condition runs relative to the commits of
/// its own window: up to a window early. That is outcome-preserving for
/// conditions that are *batch-stable* — pure functions of the matched
/// classes whose verdict the adds and unions of the same batch do not flip
/// (TENSAT's shape checks qualify: rules only union shape-compatible
/// classes, so mid-batch merges never change a bound class's shape data).
/// The determinism test battery (proptests plus the all-benchmarks
/// differential suite) enforces the equivalence.
///
/// Does not rebuild. A wall-clock `keep_going` makes the *cut-off point*
/// nondeterministic, never the content committed before it.
///
/// # Panics
///
/// Debug-asserts the e-graph is clean on entry, like the search drivers:
/// matches are gathered on a clean e-graph.
pub fn apply_windowed<L, N>(
    batch: &[(&Rewrite<L, N>, &[SearchMatches])],
    egraph: &mut EGraph<L, N>,
    n_threads: usize,
    keep_going: impl Fn(&EGraph<L, N>) -> bool + Sync,
    admit: impl FnMut(&EGraph<L, N>, &StagedApp<L>) -> bool,
) -> ApplyOutcome
where
    L: Language + Send + Sync,
    N: Analysis<L> + Sync,
    N::Data: Sync,
{
    let window_len = apply_window_len(n_threads);
    apply_windowed_with_window(batch, egraph, n_threads, window_len, keep_going, admit)
}

/// [`apply_windowed`] with the window length given instead of derived
/// from the thread count. Exported for the determinism tests, which need
/// multi-threaded windows small enough to split a toy e-graph's match
/// lists; production code calls [`apply_windowed`].
#[doc(hidden)]
pub fn apply_windowed_with_window<L, N>(
    batch: &[(&Rewrite<L, N>, &[SearchMatches])],
    egraph: &mut EGraph<L, N>,
    n_threads: usize,
    window_len: usize,
    keep_going: impl Fn(&EGraph<L, N>) -> bool + Sync,
    mut admit: impl FnMut(&EGraph<L, N>, &StagedApp<L>) -> bool,
) -> ApplyOutcome
where
    L: Language + Send + Sync,
    N: Analysis<L> + Sync,
    N::Data: Sync,
{
    debug_assert!(egraph.is_clean(), "apply_windowed requires a clean e-graph");
    let workers = apply_workers(n_threads);
    let window_len = window_len.max(1);
    let mut candidates = batch.iter().enumerate().flat_map(|(ri, (_, matches))| {
        matches
            .iter()
            .flat_map(move |m| m.substs.iter().map(move |s| (ri, m.eclass, s)))
    });
    let mut window: Vec<Candidate<'_>> = Vec::with_capacity(window_len);
    let mut staged: Vec<Option<StagedApp<L>>> = Vec::with_capacity(window_len);
    let mut applied = 0;
    let stopped = loop {
        window.clear();
        window.extend(candidates.by_ref().take(window_len));
        if window.is_empty() {
            break false;
        }
        let base = egraph.id_space_size();
        stage_window(
            batch,
            &window,
            egraph,
            base,
            workers,
            &keep_going,
            &mut staged,
        );
        // A short window means a worker saw `keep_going` refuse a candidate.
        let mut stopped = staged.len() < window.len();
        for app in staged.drain(..) {
            if !keep_going(egraph) {
                stopped = true;
                break;
            }
            let Some(app) = app else { continue };
            if !admit(egraph, &app) {
                continue;
            }
            let nodes_before = egraph.total_number_of_nodes();
            let (_, did_union) = egraph.commit_staged(&app, base);
            if did_union || egraph.total_number_of_nodes() > nodes_before {
                applied += 1;
            }
        }
        if stopped {
            break true;
        }
    };
    ApplyOutcome { applied, stopped }
}

/// Stages one window into `staged` (one entry per candidate, `None` where
/// the side condition rejected it), asking `keep_going` before every
/// candidate. `staged` ends up shorter than `window` exactly when a
/// candidate was refused: everything from the first refused candidate on
/// is dropped, since the commit pass cannot get past it.
fn stage_window<L, N>(
    batch: &[(&Rewrite<L, N>, &[SearchMatches])],
    window: &[Candidate<'_>],
    egraph: &EGraph<L, N>,
    base: usize,
    workers: usize,
    keep_going: &(impl Fn(&EGraph<L, N>) -> bool + Sync),
    staged: &mut Vec<Option<StagedApp<L>>>,
) where
    L: Language + Send + Sync,
    N: Analysis<L> + Sync,
    N::Data: Sync,
{
    let stage_run = |run: &[Candidate<'_>], out: &mut Vec<Option<StagedApp<L>>>| {
        for &(ri, eclass, subst) in run {
            if !keep_going(egraph) {
                break;
            }
            out.push(batch[ri].0.stage(egraph, eclass, subst, base));
        }
    };
    let chunk_len = window.len().div_ceil(workers * CHUNKS_PER_THREAD).max(1);
    let n_chunks = window.len().div_ceil(chunk_len);
    let workers = workers.min(n_chunks);
    if workers <= 1 {
        stage_run(window, staged);
        return;
    }

    let slots: Vec<OnceLock<Vec<Option<StagedApp<L>>>>> =
        (0..n_chunks).map(|_| OnceLock::new()).collect();
    // Relaxed: the counter only hands out chunk indices; the staged chunks
    // are published through the `OnceLock`s and the scope's join.
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let worker = || loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n_chunks {
                break;
            }
            let run = &window[i * chunk_len..((i + 1) * chunk_len).min(window.len())];
            let mut out = Vec::with_capacity(run.len());
            stage_run(run, &mut out);
            let _ = slots[i].set(out);
        };
        for _ in 1..workers {
            scope.spawn(worker);
        }
        // The calling thread is the last worker.
        worker();
    });

    // Deterministic merge: chunk order *is* candidate order.
    for (slot, run) in slots.into_iter().zip(window.chunks(chunk_len)) {
        let chunk = slot.into_inner().unwrap_or_default();
        let complete = chunk.len() == run.len();
        staged.extend(chunk);
        if !complete {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::language::test_lang::Math;
    use crate::{ENodeOrVar, RecExpr, Symbol, Var};

    fn sym(s: &str) -> Math {
        Math::Sym(Symbol::new(s))
    }

    fn pat_mul_two() -> Pattern<Math> {
        let mut ast = RecExpr::default();
        let x = ast.add(ENodeOrVar::Var(Var::new("x")));
        let two = ast.add(ENodeOrVar::ENode(Math::Num(2)));
        ast.add(ENodeOrVar::ENode(Math::Mul([x, two])));
        Pattern::new(ast)
    }

    fn pat_shl_one() -> Pattern<Math> {
        let mut ast = RecExpr::default();
        let x = ast.add(ENodeOrVar::Var(Var::new("x")));
        let one = ast.add(ENodeOrVar::ENode(Math::Num(1)));
        ast.add(ENodeOrVar::ENode(Math::Shl([x, one])));
        Pattern::new(ast)
    }

    #[test]
    fn unconditional_rewrite_fires() {
        let mut eg: EGraph<Math, ()> = EGraph::new(());
        let a = eg.add(sym("a"));
        let two = eg.add(Math::Num(2));
        let mul = eg.add(Math::Mul([a, two]));
        eg.rebuild();
        let rw: Rewrite<Math, ()> = Rewrite::new("mul2-to-shl", pat_mul_two(), pat_shl_one());
        let n = rw.run(&mut eg);
        assert_eq!(n, 1);
        eg.rebuild();
        let one = eg.lookup(&Math::Num(1)).unwrap();
        let shl = eg.lookup(&Math::Shl([a, one])).unwrap();
        assert_eq!(eg.find(shl), eg.find(mul));
        // Running again changes nothing (already equal).
        assert_eq!(rw.run(&mut eg), 0);
    }

    #[test]
    fn conditional_rewrite_respects_condition() {
        let mut eg: EGraph<Math, ()> = EGraph::new(());
        let a = eg.add(sym("a"));
        let two = eg.add(Math::Num(2));
        eg.add(Math::Mul([a, two]));
        eg.rebuild();
        let rw: Rewrite<Math, ()> = Rewrite::new_conditional(
            "never",
            pat_mul_two(),
            pat_shl_one(),
            Arc::new(|_, _, _| false),
        );
        assert_eq!(rw.run(&mut eg), 0);
    }

    #[test]
    #[should_panic]
    fn rhs_with_unbound_var_panics() {
        let mut rhs = RecExpr::default();
        rhs.add(ENodeOrVar::Var(Var::new("zzz")));
        let _rw: Rewrite<Math, ()> = Rewrite::new("bad", pat_mul_two(), Pattern::new(rhs));
    }

    #[test]
    fn debug_is_informative() {
        let rw: Rewrite<Math, ()> = Rewrite::new("mul2-to-shl", pat_mul_two(), pat_shl_one());
        let dbg = format!("{rw:?}");
        assert!(dbg.contains("mul2-to-shl"));
        assert!(dbg.contains("?x"));
    }
}
