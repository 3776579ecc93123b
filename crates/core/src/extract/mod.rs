//! The extraction phase (paper §5): pick one e-node per e-class so that the
//! resulting graph minimizes the cost model.
//!
//! [`extract()`] runs the extractor an [`ExtractionMode`] names; all three
//! report the composite [`Cost`] and both honest costs of their result
//! (see [`ExtractionOutcome`]):
//!
//! * [`extract_greedy`] — per e-class minimum *subtree* cost (paper §5.1).
//!   Fast, but it charges shared subgraphs once per use, so it never
//!   chooses the `split` form of a merged operator (Table 4).
//! * [`extract_greedy_dag`] — the worklist-driven global greedy DAG
//!   extractor ([`tensat_egraph::DagExtractor`]) which charges each e-node
//!   once regardless of sharing. To make `dag_cost(greedy-DAG) ≤
//!   dag_cost(tree-greedy)` unconditional, it also runs tree-greedy and
//!   returns whichever result has the lower DAG cost.
//! * [`extract_ilp`] — the integer-linear-program encoding of
//!   constraints (1)–(5), with the cycle constraints (4)–(5) optional,
//!   solved by `tensat-ilp` and warm-started from the greedy-DAG solution
//!   (which dominates the tree-greedy warm start it replaced). One
//!   pipeline serves every configuration: the selection problem, its
//!   reduction (skipped with cycle constraints and by
//!   [`extract_ilp_monolithic`]), one encoder per component, the solver,
//!   and the stitch with its fall-back to the greedy graph.
//!
//! Every extractor ends the same way: one chosen e-node per class, named by
//! its node-table id and turned into a graph by
//! [`tensat_egraph::build_term`]. Greedy-DAG extraction keeps the `(slot,
//! node id)` picks of the graph it returns, and the ILP warm start is read
//! from those picks.
//!
//! Extraction minimizes the *lexicographic* composite order (latency, then
//! peak memory, then launches — see [`Cost`]); the scalar
//! `dag_cost`/`tree_cost` fields report plain latency for paper-style
//! comparisons.

mod reduce;

use std::cmp::Ordering;
use std::collections::HashMap;
use std::time::{Duration, Instant};
use tensat_egraph::{
    build_term, ChoiceError, ChosenTerm, CostFunction, DagCostFunction, DagExtractor, Extractor,
    Id, Language, RecExpr,
};
use tensat_ilp::{Cmp, Problem, Solver, Status, VarId};
use tensat_ir::{class_data, Cost, CostModel, TensorEGraph, TensorLang};

/// Which extraction algorithm to run after exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExtractionMode {
    /// Tree-greedy per-class extraction (paper §5.1, "Greedy extraction"):
    /// [`extract_greedy`].
    Greedy,
    /// Global greedy DAG extraction: charges shared subgraphs once, at
    /// greedy speed (never worse than [`ExtractionMode::Greedy`] on DAG
    /// cost): [`extract_greedy_dag`].
    GreedyDag,
    /// ILP extraction (paper §5.1, "ILP extraction"): [`extract_ilp`]. This
    /// is TENSAT's default configuration.
    Ilp,
}

/// Extracts the best graph for `root` with the extractor `mode` names;
/// `ilp` is read by [`ExtractionMode::Ilp`] only.
pub fn extract(
    mode: ExtractionMode,
    egraph: &TensorEGraph,
    root: Id,
    model: &CostModel,
    ilp: &IlpConfig,
) -> Result<ExtractionOutcome, ExtractError> {
    match mode {
        ExtractionMode::Greedy => extract_greedy(egraph, root, model),
        ExtractionMode::GreedyDag => extract_greedy_dag(egraph, root, model),
        ExtractionMode::Ilp => extract_ilp(egraph, root, model, ilp),
    }
}

/// The result of one extraction.
///
/// Both cost views of the extracted graph are reported so strategies are
/// never compared apples-to-oranges: `tree_cost` charges shared subgraphs
/// once per use (the objective tree-greedy actually minimizes), `dag_cost`
/// charges each node once (what the graph actually costs to run, and the
/// objective the DAG-aware strategies minimize). Earlier revisions reported
/// a single scalar that meant tree cost for greedy and DAG cost for ILP.
#[derive(Debug, Clone)]
pub struct ExtractionOutcome {
    /// The extracted graph.
    pub expr: RecExpr<TensorLang>,
    /// Composite DAG-counted cost of `expr` (latency µs, peak-memory
    /// bytes, kernel launches), each node charged once.
    pub cost: Cost,
    /// DAG cost in µs: each node charged once (`cost.latency`).
    pub dag_cost: f64,
    /// Tree cost in µs: each node charged once per use.
    pub tree_cost: f64,
    /// Wall-clock time spent extracting.
    pub time: Duration,
    /// Solver statistics when the ILP strategy produced this outcome.
    pub ilp: Option<IlpStats>,
}

impl ExtractionOutcome {
    /// The outcome for `expr`, whose composite cost under the model is
    /// `cost`; measures the tree cost.
    ///
    /// Errs with [`ExtractError::NoFiniteTerm`] when the cost is not finite
    /// (an ill-typed input: every term of the root class holds an invalid
    /// operator).
    fn new(
        expr: RecExpr<TensorLang>,
        cost: Cost,
        model: &CostModel,
        time: Duration,
    ) -> Result<Self, ExtractError> {
        if !cost.is_finite() {
            return Err(ExtractError::NoFiniteTerm);
        }
        Ok(ExtractionOutcome {
            dag_cost: cost.latency,
            tree_cost: model.tree_cost(&expr),
            cost,
            expr,
            time,
            ilp: None,
        })
    }
}

/// Statistics of an ILP extraction.
///
/// The `*_before` fields report the size of the unreduced §5.1 program,
/// constraints (1)–(3), for the same e-graph; the plain
/// `num_vars`/`num_constraints` report what the one encoder actually
/// handed the solver — after the reduction, or, on the unreduced path,
/// equal to the `*_before` fields plus the topological-order variables and
/// rows (4)–(5) when the cycle constraints are on.
#[derive(Debug, Clone)]
pub struct IlpStats {
    /// ILP variables handed to the solver (summed over components).
    pub num_vars: usize,
    /// ILP constraints handed to the solver (summed over components).
    pub num_constraints: usize,
    /// Binaries of the unreduced program for this e-graph.
    pub vars_before: usize,
    /// Rows (2)–(3) of the unreduced program: the root row and one per
    /// (candidate, distinct child class).
    pub constraints_before: usize,
    /// Variables fixed by the solver's presolve propagation at the root
    /// (summed over components).
    pub presolve_fixed: usize,
    /// Candidates removed by dominated-candidate pruning (0 when reduction
    /// is off).
    pub dominated_pruned: usize,
    /// Candidates removed by incumbent cost-bound pruning: their forced-
    /// closure lower bound exceeds the greedy warm-start value, so they
    /// appear in no optimum (0 unreduced).
    pub bound_pruned: usize,
    /// Classes fixed outside the ILP by single-candidate forcing (0
    /// unreduced).
    pub forced_classes: usize,
    /// Independent subproblems solved after decomposition (1 unreduced).
    pub components: usize,
    /// Solver status — `Optimal` only if every component solved to
    /// optimality.
    pub status: Status,
    /// Branch-and-bound nodes explored (summed over components).
    pub nodes_explored: usize,
    /// Solver wall-clock time (summed over components).
    pub solve_time: Duration,
}

/// Errors from extraction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExtractError {
    /// No finite-cost term is represented for the root class.
    NoFiniteTerm,
    /// The ILP solver proved the encoding infeasible (can happen when every
    /// candidate in some required class was filtered).
    Infeasible,
    /// The selected nodes contain a cycle. Only an ILP run without cycle
    /// constraints on an e-graph explored with the cycle filter `Off` can
    /// select one; [`Optimizer::optimize`](crate::Optimizer::optimize)
    /// turns the constraints on there, so only a direct [`extract_ilp`]
    /// call can return this.
    CyclicSelection,
}

impl std::fmt::Display for ExtractError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExtractError::NoFiniteTerm => write!(f, "no finite-cost term represented by the root"),
            ExtractError::Infeasible => write!(f, "ILP extraction is infeasible"),
            ExtractError::CyclicSelection => write!(f, "selected e-nodes form a cycle"),
        }
    }
}

impl std::error::Error for ExtractError {}

/// A [`CostFunction`] charging each e-node its cost-model cost plus the sum
/// of its children's costs (tree cost — the greedy approximation).
///
/// The extractor's fixpoint costs an e-node again whenever a child's best
/// improves, but only the children's part of the sum can have moved: the
/// node's own cost depends on the e-node and its children's analysis
/// data, fixed for the life of the borrow. So the cost model runs — reading
/// each child's `TensorData` in place from the e-graph — once per e-node,
/// and every later call is a read of an 8-byte slot indexed by the node's
/// id plus the additions.
#[derive(Debug, Clone)]
pub struct TreeCost<'a> {
    model: CostModel,
    egraph: &'a TensorEGraph,
    /// Own cost per node-table id; NaN until the node is costed (a model
    /// that answers NaN is asked again, and answers NaN again).
    own: Vec<f64>,
    /// Cost-model runs so far.
    model_calls: usize,
}

impl<'a> TreeCost<'a> {
    /// A tree-cost function over the given e-graph's analysis data.
    pub fn new(model: CostModel, egraph: &'a TensorEGraph) -> Self {
        TreeCost {
            model,
            egraph,
            own: vec![f64::NAN; egraph.num_node_ids()],
            model_calls: 0,
        }
    }

    /// How many times the cost model has run: once per e-node costed so
    /// far.
    pub fn model_calls(&self) -> usize {
        self.model_calls
    }
}

impl CostFunction<TensorLang> for TreeCost<'_> {
    type Cost = f64;
    fn cost<C>(&mut self, id: Id, enode: &TensorLang, mut costs: C) -> f64
    where
        C: FnMut(Id) -> f64,
    {
        // Most calls are hits (BERT at 20 000 e-nodes: 102 910 calls for
        // 19 568 e-nodes).
        let own = &mut self.own[usize::from(id)];
        if own.is_nan() {
            let egraph = self.egraph;
            *own = self.model.node_cost(enode, &|c| class_data(egraph, c));
            self.model_calls += 1;
        }
        enode.children().iter().fold(*own, |acc, &c| acc + costs(c))
    }

    /// Total order on float costs: NaN sorts above `+inf`, so a NaN from a
    /// degenerate cost model can never displace a finite per-class best.
    fn cmp(a: &f64, b: &f64) -> Ordering {
        a.total_cmp(b)
    }
}

/// A [`DagCostFunction`] charging each e-node its *own* composite
/// cost-model cost; the DAG extractor sums it over the set of selected
/// classes, so sharing is charged once.
#[derive(Debug, Clone)]
pub struct DagCost<'a> {
    model: CostModel,
    egraph: &'a TensorEGraph,
}

impl<'a> DagCost<'a> {
    /// A per-node composite cost function over the given e-graph's analysis
    /// data.
    pub fn new(model: CostModel, egraph: &'a TensorEGraph) -> Self {
        DagCost { model, egraph }
    }
}

impl DagCostFunction<TensorLang> for DagCost<'_> {
    type Cost = Cost;

    fn node_cost(&mut self, enode: &TensorLang) -> Cost {
        self.model
            .node_cost_composite(enode, &|id| class_data(self.egraph, id))
    }

    fn zero(&self) -> Cost {
        Cost::ZERO
    }

    fn add_assign(&self, acc: &mut Cost, item: &Cost) {
        *acc += *item;
    }

    /// The lexicographic total order of [`Cost`] (latency, memory,
    /// launches), NaN-safe via `total_cmp` per component.
    fn cmp(a: &Cost, b: &Cost) -> Ordering {
        a.total_order(b)
    }
}

/// Tree-greedy extraction (paper §5.1): per e-class, pick the e-node with
/// the smallest subtree cost.
///
/// # Errors
///
/// [`ExtractError::NoFiniteTerm`] when the root class represents no term,
/// or none of finite cost.
pub fn extract_greedy(
    egraph: &TensorEGraph,
    root: Id,
    model: &CostModel,
) -> Result<ExtractionOutcome, ExtractError> {
    let start = Instant::now();
    let extractor = Extractor::new(egraph, TreeCost::new(model.clone(), egraph));
    let (_, expr) = extractor
        .find_best(root)
        .ok_or(ExtractError::NoFiniteTerm)?;
    let cost = model.graph_cost_composite(&expr);
    ExtractionOutcome::new(expr, cost, model, start.elapsed())
}

/// Global greedy DAG extraction: the worklist extractor charging each
/// e-node once (see [`tensat_egraph::DagExtractor`]), minimizing the
/// composite cost.
///
/// Both greedy extractors run and the result with the lower composite DAG
/// cost is returned, so `dag_cost(extract_greedy_dag) ≤
/// dag_cost(extract_greedy)` holds by construction — the DAG extractor is
/// a heuristic, and on e-graphs where profitable sharing requires several
/// classes to switch candidates *jointly* (the merged-matmul economics only
/// the ILP captures), its per-class-at-a-time fixpoint can lose to the tree
/// choice. The reported `time` covers both runs.
///
/// # Errors
///
/// [`ExtractError::NoFiniteTerm`] when the root class represents no term,
/// or none of finite cost.
pub fn extract_greedy_dag(
    egraph: &TensorEGraph,
    root: Id,
    model: &CostModel,
) -> Result<ExtractionOutcome, ExtractError> {
    greedy_dag_with_picks(egraph, root, model).map(|(outcome, _)| outcome)
}

/// The `(slot, node-table id)` of the chosen e-node of every class an
/// extracted graph uses ([`tensat_egraph::ChosenTerm::picks`]), children
/// before parents: what the graph was built from, kept so the ILP can start
/// from it.
type Picks = Vec<(usize, Id)>;

/// Whether `picks`, sorted by slot, chose the e-node with node-table id
/// `node` for `class`, a class the ILP encoder reached from the root.
fn picked(egraph: &TensorEGraph, picks: &Picks, class: Id, node: Id) -> bool {
    let slot = live_slot(egraph, class);
    let found = picks.binary_search_by_key(&slot, |&(s, _)| s);
    found.is_ok_and(|i| picks[i].1 == node)
}

/// [`extract_greedy_dag`], with the picks of the graph it returns.
fn greedy_dag_with_picks(
    egraph: &TensorEGraph,
    root: Id,
    model: &CostModel,
) -> Result<(ExtractionOutcome, Picks), ExtractError> {
    let start = Instant::now();
    // Each extractor is a temporary, dropped at the end of its statement,
    // so the two passes' tables are never live together.
    let dag = DagExtractor::new(egraph, DagCost::new(model.clone(), egraph))
        .find_best_term(root)
        .map(|(_, term)| term);
    let tree = Extractor::new(egraph, TreeCost::new(model.clone(), egraph))
        .find_best_term(root)
        .map(|(_, term)| term);
    // Compare by honest composite DAG cost of the built graphs, not the
    // extractors' internal objectives (which disagree on what a "cost" is).
    let costed = |term: ChosenTerm<_>| (model.graph_cost_composite(&term.expr), term);
    let (cost, term) = match (dag.map(costed), tree.map(costed)) {
        (Some(d), Some(t)) if d.0.total_order(&t.0) == Ordering::Greater => t,
        (Some(best), _) | (None, Some(best)) => best,
        (None, None) => return Err(ExtractError::NoFiniteTerm),
    };
    let outcome = ExtractionOutcome::new(term.expr, cost, model, start.elapsed())?;
    Ok((outcome, term.picks))
}

/// Configuration for ILP extraction.
#[derive(Debug, Clone)]
pub struct IlpConfig {
    /// Include the acyclicity constraints (4)–(5). Required when the
    /// e-graph may contain cycles (no cycle filtering during exploration);
    /// [`Optimizer::optimize`](crate::Optimizer::optimize) sets it then.
    pub cycle_constraints: bool,
    /// Use integer topological-order variables instead of reals.
    pub integer_topo_vars: bool,
    /// Wall-clock limit for ILP extraction: the reduction stops its passes
    /// at it, and the solver gets the time that is left (none left: the
    /// greedy-DAG incumbent comes back as `Feasible`).
    pub time_limit: Duration,
}

impl Default for IlpConfig {
    fn default() -> Self {
        IlpConfig {
            cycle_constraints: false,
            integer_topo_vars: false,
            time_limit: Duration::from_secs(60),
        }
    }
}

/// ILP extraction (paper §5.1): encode node selection as a 0/1 program and
/// solve it with the `tensat-ilp` branch-and-bound solver. Solver
/// statistics are reported in the outcome's [`ExtractionOutcome::ilp`].
///
/// Without cycle constraints the abstract selection problem is *reduced*
/// before encoding: restricted to the root-reachable subgraph, dominated
/// candidates pruned, single-candidate classes fixed transitively, and the
/// residue decomposed into independent components solved separately. With
/// them it runs [`extract_ilp_monolithic`]: the dominance argument reasons
/// about the acyclic selection semantics.
pub fn extract_ilp(
    egraph: &TensorEGraph,
    root: Id,
    model: &CostModel,
    config: &IlpConfig,
) -> Result<ExtractionOutcome, ExtractError> {
    solve_ilp(egraph, root, model, config, !config.cycle_constraints)
}

/// The unreduced §5.1 program solved as one ILP: one binary per viable
/// e-node, one implication row per (e-node, distinct child class), through
/// the same encoder, warm start and greedy fallback as [`extract_ilp`].
/// [`extract_ilp`] runs it when `config.cycle_constraints` is on; without
/// them it is the oracle the reduction is tested against.
pub fn extract_ilp_monolithic(
    egraph: &TensorEGraph,
    root: Id,
    model: &CostModel,
    config: &IlpConfig,
) -> Result<ExtractionOutcome, ExtractError> {
    solve_ilp(egraph, root, model, config, false)
}

/// The slot of a class the ILP encoder reached from the root.
fn live_slot(egraph: &TensorEGraph, class: Id) -> usize {
    egraph.slot_index(class).expect("reachable class is live")
}

/// The one ILP pipeline: [`select_ilp`] from the greedy-DAG incumbent,
/// then [`finish_ilp`].
fn solve_ilp(
    egraph: &TensorEGraph,
    root: Id,
    model: &CostModel,
    config: &IlpConfig,
    reduce: bool,
) -> Result<ExtractionOutcome, ExtractError> {
    let start = Instant::now();
    let root = egraph.find(root);
    // The greedy-DAG solution serves double duty: its value is the
    // incumbent upper bound the reduction's cost-bound pruning compares
    // forced-closure lower bounds against, and its selection warm-starts
    // every component's solver.
    let (greedy, picks) = greedy_dag_with_picks(egraph, root, model).ok().unzip();
    let incumbent = greedy.as_ref().map(|g| g.dag_cost).zip(picks);
    let (solved, stats) = select_ilp(egraph, root, model, config, reduce, incumbent, start)?;
    finish_ilp(solved.map(|term| term.expr), greedy, stats, model, start)
}

/// The ILP's own selection, started at `start` from `incumbent`, the
/// greedy-DAG value and picks: build the abstract selection problem, run
/// the reduction (trim → dominance/forced-closure fixpoint → forcing) when
/// `reduce`, encode and solve each component of what is left, and stitch
/// the fixed selections with the per-component optima. `None` when a
/// component found no solution in the time left.
///
/// Soundness of the stitch: the fixed classes select their single surviving
/// candidate in *some* optimal solution of the unreduced program (the
/// dominance swap argument shows an optimum avoiding pruned candidates
/// exists; forcing is then literal constraint propagation on it), and the
/// residual constraint matrix is block-diagonal across components with an
/// additive objective — so `optimum = Σ fixed costs + Σ component optima`,
/// which the differential tests check against the unreduced program.
fn select_ilp(
    egraph: &TensorEGraph,
    root: Id,
    model: &CostModel,
    config: &IlpConfig,
    reduce: bool,
    incumbent: Option<(f64, Picks)>,
    start: Instant,
) -> Result<(Option<ChosenTerm<TensorLang>>, IlpStats), ExtractError> {
    let (ub, picks) = incumbent.unzip();
    let mut rp = reduce::ExtractionProblem::from_egraph(egraph, root, model)?;
    if reduce {
        rp.reduce(ub, start.checked_add(config.time_limit))?;
    }
    let warm = picks.map(|picks| WarmStart::new(egraph, &rp, picks, config.cycle_constraints));

    // Encode and solve each component independently, splitting the wall
    // clock budget first-come (components are tiny after reduction).
    let comps = rp.components();
    debug_assert!(reduce || (comps.len() == 1 && rp.fixed.iter().all(Option::is_none)));
    let mut choice: Vec<Option<usize>> = rp.fixed.clone();
    let mut stats = IlpStats {
        num_vars: 0,
        num_constraints: 0,
        vars_before: rp.stats.vars_before,
        constraints_before: rp.stats.constraints_before,
        presolve_fixed: 0,
        dominated_pruned: rp.stats.dominated_pruned,
        bound_pruned: rp.stats.bound_pruned,
        forced_classes: rp.stats.forced_classes,
        components: comps.len(),
        status: Status::Optimal,
        nodes_explored: 0,
        solve_time: Duration::ZERO,
    };
    for comp in &comps {
        let enc = encode(&rp, comp, config, warm.as_ref());
        let solver = Solver::with_time_limit(config.time_limit.saturating_sub(start.elapsed()));
        let solution = match &enc.hint {
            Some(h) => solver.solve_with_hint(&enc.problem, h),
            None => solver.solve(&enc.problem),
        };
        stats.num_vars += enc.problem.num_vars();
        stats.num_constraints += enc.problem.num_constraints();
        stats.presolve_fixed += solution.presolve_fixed;
        stats.nodes_explored += solution.nodes_explored;
        stats.solve_time += solution.solve_time;
        if !solution.has_solution() {
            // Out of budget with no incumbent for this component: the
            // greedy graph, if there is one, is the answer.
            stats.status = solution.status;
            return Ok((None, stats));
        }
        if solution.status != Status::Optimal {
            stats.status = solution.status;
        }
        for &i in comp {
            for &(j, var) in &enc.vars[&i] {
                if solution.value(var) > 0.5 {
                    choice[i] = Some(j);
                    break;
                }
            }
        }
    }

    // Stitch: fixed selections plus the per-component optima, mapped into
    // the slot space the term builder walks.
    let mut slot_choice: Vec<Option<Id>> = vec![None; egraph.num_slots()];
    for (i, &ch) in choice.iter().enumerate() {
        if let Some(j) = ch {
            slot_choice[live_slot(egraph, rp.class_ids[i])] = Some(rp.candidates[i][j].node);
        }
    }
    Ok((Some(read_back(egraph, root, &slot_choice)?), stats))
}

/// Where the component solvers start: greedy-DAG's graph, per class of the
/// problem.
struct WarmStart {
    /// The candidate to start from ([`reduced_hint_choice`]).
    choice: Vec<Option<usize>>,
    /// With the cycle constraints on, the class's position in the greedy
    /// graph's emission order, children before parents — an order rows
    /// (4)–(5) accept; empty otherwise.
    position: Vec<Option<usize>>,
}

impl WarmStart {
    /// The warm start `picks` (emission order) give `rp`; `topo` asks for
    /// the positions the topological-order variables start from.
    fn new(
        egraph: &TensorEGraph,
        rp: &reduce::ExtractionProblem,
        mut picks: Picks,
        topo: bool,
    ) -> Self {
        let mut position = vec![];
        if topo {
            let of_slot: HashMap<usize, usize> = picks
                .iter()
                .enumerate()
                .map(|(p, &(slot, _))| (slot, p))
                .collect();
            position = rp
                .class_ids
                .iter()
                .map(|&class| of_slot.get(&live_slot(egraph, class)).copied())
                .collect();
        }
        picks.sort_unstable_by_key(|&(s, _)| s);
        let choice = reduced_hint_choice(rp, |class, node| picked(egraph, &picks, class, node));
        WarmStart { choice, position }
    }
}

/// One component's program: what [`encode`] hands the solver.
struct Encoded {
    problem: Problem,
    /// The `(candidate, variable)` of every live candidate, per class of
    /// the component.
    vars: HashMap<usize, Vec<(usize, VarId)>>,
    /// The warm start, one value per variable.
    hint: Option<Vec<f64>>,
}

/// Encodes the classes `comp` of `rp` — one of its
/// [`components`](reduce::ExtractionProblem::components) — as the paper's
/// §5.1 program. Each live candidate is a binary costed at its latency (the
/// primary objective; memory and launches ride along in the outcome).
/// Constraint (2) makes the root class pick exactly one; each other
/// required class gets a `>= 1` row (implied by a fixed parent's constraint
/// (3); stating it lets the solver's cover-group bound see the class); and
/// constraint (3) is one row per (candidate, distinct child class) — a
/// fixed child is always selected and gets none, a child without
/// candidates makes the row `x <= 0`.
///
/// With `config.cycle_constraints`, constraints (4)–(5) rule out cycles:
/// one topological-order variable per class of the component (real in
/// `[0, 1]`, or integer in `[0, m - 1]` when `config.integer_topo_vars`,
/// `m` the component's class count) and one row per (candidate, distinct
/// child class).
///
/// `warm` becomes the solver's start values: 1 on each class's hinted
/// candidate, and the topological-order variable of the class at emission
/// position `p` at `p` (integer) or `(p + 1) / (m + 1)` (real); every other
/// value is 0.
fn encode(
    rp: &reduce::ExtractionProblem,
    comp: &[usize],
    config: &IlpConfig,
    warm: Option<&WarmStart>,
) -> Encoded {
    let mut problem = Problem::new();
    let mut vars: HashMap<usize, Vec<(usize, VarId)>> = HashMap::new();
    for &i in comp {
        let mut class_vars = vec![];
        for (j, cand) in rp.candidates[i].iter().enumerate() {
            if rp.alive[i][j] {
                class_vars.push((j, problem.add_binary(cand.cost)));
            }
        }
        vars.insert(i, class_vars);
    }
    for &i in comp {
        let class_vars = &vars[&i];
        if i == 0 {
            // Constraint (2): exactly one node picked in the root class.
            let terms = class_vars.iter().map(|&(_, v)| (v, 1.0)).collect();
            problem.add_constraint(terms, Cmp::Eq, 1.0);
        } else if rp.required[i] {
            let terms = class_vars.iter().map(|&(_, v)| (v, 1.0)).collect();
            problem.add_constraint(terms, Cmp::Ge, 1.0);
        }
        // Constraint (3): a picked node needs one picked node in each
        // non-fixed child class.
        for &(j, var) in class_vars {
            for &c in &rp.candidates[i][j].children {
                if rp.fixed[c].is_some() {
                    continue;
                }
                let mut terms = vec![(var, 1.0)];
                terms.extend(vars[&c].iter().map(|&(_, v)| (v, -1.0)));
                problem.add_constraint(terms, Cmp::Le, 0.0);
            }
        }
    }
    // Constraints (4)–(5): topological-order variables rule out cycles.
    let mut topo: HashMap<usize, VarId> = HashMap::new();
    let m = comp.len() as f64;
    if config.cycle_constraints {
        for &i in comp {
            let var = if config.integer_topo_vars {
                problem.add_integer(0, comp.len() as i64 - 1, 0.0)
            } else {
                problem.add_continuous(0.0, 1.0, 0.0)
            };
            topo.insert(i, var);
        }
        // t_own - t_child + A(1 - x) >= 1 with A >= m for integers;
        // t_own - t_child - ε + A(1 - x) >= 0 with A > 1 + ε for reals.
        let (a, rhs) = if config.integer_topo_vars {
            (m, 1.0 - m)
        } else {
            (2.0, 1.0 / (m + 1.0) - 2.0)
        };
        for &i in comp {
            for &(j, var) in &vars[&i] {
                for &c in &rp.candidates[i][j].children {
                    let terms = vec![(topo[&i], 1.0), (topo[&c], -1.0), (var, -a)];
                    problem.add_constraint(terms, Cmp::Ge, rhs);
                }
            }
        }
    }

    let hint = warm.map(|warm| {
        let mut values = vec![0.0; problem.num_vars()];
        for &i in comp {
            let hinted = vars[&i].iter().find(|&&(j, _)| Some(j) == warm.choice[i]);
            if let Some(&(_, v)) = hinted {
                values[v.0] = 1.0;
            }
            if let (Some(t), Some(&Some(p))) = (topo.get(&i), warm.position.get(i)) {
                values[t.0] = if config.integer_topo_vars {
                    p as f64
                } else {
                    (p as f64 + 1.0) / (m + 1.0)
                };
            }
        }
        values
    });
    Encoded {
        problem,
        vars,
        hint,
    }
}

/// One candidate per class of the problem, reduced or not, to start the
/// component solvers from: the e-node the greedy graph was built from
/// (`picked(class, node id)`), or — when that was dominance-pruned — the
/// sibling `rep` says dominated it. The dominator's needs are a subset of the pruned pick's,
/// which the greedy solution satisfies, so the repaired hint stays closed.
fn reduced_hint_choice(
    rp: &reduce::ExtractionProblem,
    picked: impl Fn(Id, Id) -> bool,
) -> Vec<Option<usize>> {
    let mut hint_choice = vec![None; rp.candidates.len()];
    for (i, hint) in hint_choice.iter_mut().enumerate() {
        if !rp.reachable[i] {
            continue;
        }
        let class = rp.class_ids[i];
        if let Some(j) = rp.candidates[i].iter().position(|c| picked(class, c.node)) {
            let r = rp.resolve_rep(i, j);
            if rp.alive[i][r] {
                *hint = Some(r);
            }
        }
    }
    hint_choice
}

/// The any-time end of every ILP solve: the solver's graph, unless it found
/// none within its budget, its graph has no finite cost, or the greedy
/// incumbent is cheaper (e.g. the warm start could not be translated into a
/// feasible assignment) — then the greedy graph, so ILP extraction never
/// regresses below greedy.
fn finish_ilp(
    solved: Option<RecExpr<TensorLang>>,
    greedy: Option<ExtractionOutcome>,
    stats: IlpStats,
    model: &CostModel,
    start: Instant,
) -> Result<ExtractionOutcome, ExtractError> {
    let measured = |expr| {
        let cost = model.graph_cost_composite(&expr);
        ExtractionOutcome::new(expr, cost, model, start.elapsed())
    };
    let mut outcome = match (solved.map(measured), greedy) {
        (Some(Ok(s)), Some(g)) if g.cost.total_order(&s.cost) == Ordering::Less => g,
        (Some(Ok(s)), _) => s,
        (_, Some(g)) => g,
        (Some(Err(e)), None) => return Err(e),
        (None, None) => return Err(ExtractError::Infeasible),
    };
    outcome.time = start.elapsed();
    outcome.ilp = Some(stats);
    Ok(outcome)
}

/// Reads a solved selection back: the graph of a per-slot node-id choice.
fn read_back(
    egraph: &TensorEGraph,
    root: Id,
    choice: &[Option<Id>],
) -> Result<ChosenTerm<TensorLang>, ExtractError> {
    match build_term(egraph, root, |slot| choice[slot]) {
        Ok(term) => Ok(term),
        Err(ChoiceError::Missing) => Err(ExtractError::Infeasible),
        Err(ChoiceError::Cyclic) => Err(ExtractError::CyclicSelection),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::explore;
    use crate::OptimizerConfig;
    use std::collections::BTreeSet;
    use tensat_ir::{GraphBuilder, TensorAnalysis};
    use tensat_rules::{multi_rules, single_rules};

    /// The e-graph of `expr` after `max_iter` iterations of the full rule
    /// set (`k_multi: 1`) under `node_limit`, and its root.
    fn explored(
        expr: &RecExpr<TensorLang>,
        max_iter: usize,
        node_limit: usize,
    ) -> (TensorEGraph, Id) {
        let mut eg = TensorEGraph::new(TensorAnalysis);
        let root = eg.add_expr(expr);
        eg.rebuild();
        let config = OptimizerConfig {
            k_multi: 1,
            max_iter,
            node_limit,
            search_threads: 1,
            ..Default::default()
        };
        explore(&mut eg, root, &single_rules(), &multi_rules(), &config);
        (eg, root)
    }

    /// Two matmuls sharing an input: the case where greedy fails to pick
    /// the merged form but ILP succeeds (paper §5.1 and Table 4).
    fn explored_two_matmuls() -> (TensorEGraph, Id, f64) {
        let mut g = GraphBuilder::new();
        let x = g.input("x", &[64, 256]);
        let w1 = g.weight("w1", &[256, 128]);
        let w2 = g.weight("w2", &[256, 128]);
        let m1 = g.matmul(x, w1);
        let m2 = g.matmul(x, w2);
        let expr = g.finish(&[m1, m2]);
        let (eg, root) = explored(&expr, 4, 10_000);
        (eg, root, CostModel::default().graph_cost(&expr))
    }

    #[test]
    fn greedy_extracts_a_valid_graph() {
        let (eg, root, original) = explored_two_matmuls();
        let model = CostModel::default();
        let out = extract_greedy(&eg, root, &model).unwrap();
        assert!(out.dag_cost.is_finite());
        assert!(out.dag_cost <= original * 1.001);
        // The outcome reports both views and they are consistent.
        assert_eq!(out.dag_cost, out.cost.latency);
        assert!(out.tree_cost >= out.dag_cost);
        let data = tensat_ir::infer_recexpr(&out.expr);
        assert!(data.iter().all(|d| d.is_valid()));
    }

    #[test]
    fn ilp_beats_greedy_on_shared_subgraphs() {
        let (eg, root, original) = explored_two_matmuls();
        let model = CostModel::default();
        let greedy = extract_greedy(&eg, root, &model).unwrap();
        let ilp = extract_ilp(&eg, root, &model, &IlpConfig::default()).unwrap();
        let stats = ilp.ilp.as_ref().expect("ILP outcome carries solver stats");
        assert!(stats.vars_before > 0);
        assert!(
            stats.num_vars <= stats.vars_before,
            "reduction must never grow the problem ({} vs {})",
            stats.num_vars,
            stats.vars_before
        );
        assert!(
            ilp.dag_cost < greedy.dag_cost,
            "ILP ({}) should beat greedy ({}) by picking the merged matmul",
            ilp.dag_cost,
            greedy.dag_cost
        );
        assert!(ilp.dag_cost < original);
        // The ILP graph must contain the split form.
        assert!(ilp.expr.to_string().contains("split"));
        let data = tensat_ir::infer_recexpr(&ilp.expr);
        assert!(data.iter().all(|d| d.is_valid()));
    }

    #[test]
    fn reduced_ilp_matches_monolithic_optimum() {
        let (eg, root, _) = explored_two_matmuls();
        let model = CostModel::default();
        let reduced = extract_ilp(&eg, root, &model, &IlpConfig::default()).unwrap();
        let monolithic = extract_ilp_monolithic(&eg, root, &model, &IlpConfig::default()).unwrap();
        assert!(
            (reduced.dag_cost - monolithic.dag_cost).abs() < 1e-9,
            "reduced optimum ({}) must equal the monolithic oracle ({})",
            reduced.dag_cost,
            monolithic.dag_cost
        );
        let rs = reduced.ilp.unwrap();
        let ms = monolithic.ilp.unwrap();
        assert_eq!(rs.status, Status::Optimal);
        assert_eq!(ms.status, Status::Optimal);
        // The "before" stats are exactly the monolithic encoding's size.
        assert_eq!(rs.vars_before, ms.num_vars);
        assert_eq!(rs.constraints_before, ms.num_constraints);
        assert!(rs.num_vars <= ms.num_vars);
        assert!(rs.num_constraints <= ms.num_constraints);
    }

    #[test]
    fn ilp_with_cycle_constraints_matches_without_on_acyclic_egraph() {
        let (eg, root, _) = explored_two_matmuls();
        let model = CostModel::default();
        let plain = extract_ilp(&eg, root, &model, &IlpConfig::default()).unwrap();
        let with_cycles = extract_ilp(
            &eg,
            root,
            &model,
            &IlpConfig {
                cycle_constraints: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert!((plain.dag_cost - with_cycles.dag_cost).abs() < 1e-6);
        let int_topo = extract_ilp(
            &eg,
            root,
            &model,
            &IlpConfig {
                cycle_constraints: true,
                integer_topo_vars: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert!((plain.dag_cost - int_topo.dag_cost).abs() < 1e-6);
    }

    /// Greedy-DAG's emission order sets the topological-order variables, so
    /// the cycle-constrained warm start satisfies rows (4)–(5) under both
    /// encodings — and with no time to search, the solver hands that
    /// incumbent back as `Feasible` instead of failing.
    #[test]
    fn cycle_constrained_warm_start_is_feasible_and_kept_at_a_zero_time_limit() {
        let (eg, root, _) = explored_two_matmuls();
        let model = CostModel::default();
        let root = eg.find(root);
        let greedy = extract_greedy_dag(&eg, root, &model).unwrap();
        for integer_topo_vars in [false, true] {
            let config = IlpConfig {
                cycle_constraints: true,
                integer_topo_vars,
                time_limit: Duration::ZERO,
            };
            let rp = reduce::ExtractionProblem::from_egraph(&eg, root, &model).unwrap();
            let (_, picks) = greedy_dag_with_picks(&eg, root, &model).unwrap();
            let warm = WarmStart::new(&eg, &rp, picks, true);
            let comps = rp.components();
            assert_eq!(comps.len(), 1);
            let enc = encode(&rp, &comps[0], &config, Some(&warm));
            let hint = enc.hint.expect("a warm start gives a hint");
            assert!(enc.problem.is_feasible(&hint, 1e-9), "{config:?}");

            let out = extract_ilp(&eg, root, &model, &config).unwrap();
            assert_eq!(out.ilp.unwrap().status, Status::Feasible, "{config:?}");
            assert_eq!(out.dag_cost, greedy.dag_cost, "{config:?}");
        }
    }

    #[test]
    fn extraction_on_unexplored_graph_returns_input() {
        let mut g = GraphBuilder::new();
        let x = g.input("x", &[8, 8]);
        let r = g.relu(x);
        let expr = g.finish(&[r]);
        let model = CostModel::default();
        let mut eg = TensorEGraph::new(TensorAnalysis);
        let root = eg.add_expr(&expr);
        eg.rebuild();
        let greedy = extract_greedy(&eg, root, &model).unwrap();
        assert!((greedy.dag_cost - model.graph_cost(&expr)).abs() < 1e-6);
        let ilp = extract_ilp(&eg, root, &model, &IlpConfig::default()).unwrap();
        assert!((ilp.dag_cost - greedy.dag_cost).abs() < 1e-6);
        assert_eq!(ilp.ilp.as_ref().unwrap().status, Status::Optimal);
    }

    #[test]
    fn every_mode_extracts_through_the_one_dispatch() {
        let (eg, root, _) = explored_two_matmuls();
        let model = CostModel::default();
        let [tree, dag, ilp] = [
            ExtractionMode::Greedy,
            ExtractionMode::GreedyDag,
            ExtractionMode::Ilp,
        ]
        .map(|mode| extract(mode, &eg, root, &model, &IlpConfig::default()).unwrap());
        // DAG-cost dominance chain: ILP ≤ greedy-DAG ≤ tree-greedy.
        assert!(ilp.dag_cost <= dag.dag_cost + 1e-9);
        assert!(dag.dag_cost <= tree.dag_cost + 1e-9);
        let data = tensat_ir::infer_recexpr(&dag.expr);
        assert!(data.iter().all(|d| d.is_valid()));
        // Only the ILP outcome carries solver stats.
        assert!(tree.ilp.is_none());
        assert!(dag.ilp.is_none());
        assert!(ilp.ilp.is_some());
    }

    /// The decoder the ILP warm start ran before greedy-DAG extraction kept its
    /// picks, kept as the oracle the picks are tested against: it maps the
    /// greedy *expression* back to `(class, canonical e-node)` pairs —
    /// children in the expression are expression-local ids, translated to
    /// e-class ids bottom-up through `lookup`.
    fn decode_selected(
        eg: &TensorEGraph,
        root: Id,
        expr: &RecExpr<TensorLang>,
    ) -> BTreeSet<(Id, TensorLang)> {
        let mut selected = BTreeSet::new();
        let mut expr_to_class: Vec<Id> = Vec::with_capacity(expr.len());
        for (_, node) in expr.iter() {
            let mapped = node.map_children(|c| expr_to_class[usize::from(c)]);
            match eg.lookup(&mapped) {
                Some(class) => {
                    let class = eg.find(class);
                    selected.insert((class, eg.canonicalize(&mapped)));
                    expr_to_class.push(class);
                }
                None => expr_to_class.push(eg.find(root)),
            }
        }
        selected
    }

    /// The warm start greedy-DAG's picks give the unreduced and the reduced
    /// problem is, element for element, the one the old expression decoder
    /// gave them —
    /// and the fourteen solves it starts take pinned numbers of
    /// branch-and-bound nodes, which a changed warm start would move.
    #[test]
    fn warm_start_from_picks_equals_the_expression_decoder_on_every_benchmark() {
        // (model, B&B nodes of the reduced program, of the unreduced one)
        const NODES_EXPLORED: [(&str, usize, usize); 7] = [
            ("NasRNN", 105, 15_311),
            ("BERT", 837, 2_271),
            ("ResNeXt-50", 0, 11),
            ("NasNet-A", 1_701, 12_511),
            ("SqueezeNet", 0, 7),
            ("VGG-19", 12, 23),
            ("Inception-v3", 606, 735),
        ];
        assert!(NODES_EXPLORED
            .iter()
            .map(|&(name, ..)| name)
            .eq(tensat_models::BENCHMARKS.iter().copied()));
        let model = CostModel::default();
        for (name, reduced_nodes, monolithic_nodes) in NODES_EXPLORED {
            // Tiny scale, two iterations, 120 e-nodes: small enough that the
            // monolithic program solves in seconds in a debug build, large
            // enough that twelve of the fourteen solves branch.
            let graph = tensat_models::build_benchmark(name, tensat_models::ModelScale::tiny());
            let (eg, root) = explored(&graph, 2, 120);
            let root = eg.find(root);
            let (greedy, mut picks) = greedy_dag_with_picks(&eg, root, &model).unwrap();
            picks.sort_unstable_by_key(|&(s, _)| s);
            let selected = decode_selected(&eg, root, &greedy.expr);
            assert_eq!(picks.len(), selected.len(), "{name}");

            let from_picks = |class: Id, node: Id| picked(&eg, &picks, class, node);
            let decoded = |class: Id, node: Id| {
                selected.contains(&(eg.find(class), eg.canonicalize(eg.enode(node))))
            };

            // Unreduced: every pick is a hinted candidate.
            let config = IlpConfig::default();
            let mut rp = reduce::ExtractionProblem::from_egraph(&eg, root, &model).unwrap();
            let hint = reduced_hint_choice(&rp, from_picks);
            assert_eq!(
                hint,
                reduced_hint_choice(&rp, decoded),
                "{name}: unreduced hint"
            );
            assert_eq!(hint.iter().flatten().count(), picks.len(), "{name}");

            // Reduced: one hinted candidate per class, dominance-
            // pruned picks chased to their dominator.
            rp.reduce(Some(greedy.dag_cost), None).unwrap();
            let hint = reduced_hint_choice(&rp, from_picks);
            assert_eq!(
                hint,
                reduced_hint_choice(&rp, decoded),
                "{name}: reduced hint"
            );
            assert!(hint.iter().any(Option::is_some), "{name}");

            let reduced = extract_ilp(&eg, root, &model, &config);
            let monolithic = extract_ilp_monolithic(&eg, root, &model, &config);
            let paths = [
                ("reduced", reduced, reduced_nodes),
                ("monolithic", monolithic, monolithic_nodes),
            ];
            for (path, out, nodes) in paths {
                let stats = out.unwrap().ilp.unwrap();
                assert_eq!(stats.status, Status::Optimal, "{name} {path}");
                assert_eq!(stats.nodes_explored, nodes, "{name} {path}");
            }
        }
    }

    /// The graph each extractor's own selection builds costs what the
    /// selection was priced at, and that is finite: every e-node's data is
    /// a function of its children's class data, so pricing it on its class
    /// and on the built graph agree. On every benchmark model at tiny scale
    /// and `k_multi` 1 and 2, explored to at most 2 000 e-nodes, for
    /// tree-greedy, greedy-DAG and the ILP's selection as [`select_ilp`]
    /// returns it, before [`finish_ilp`] could fall back.
    #[test]
    fn every_selection_builds_a_graph_of_its_priced_finite_cost() {
        let model = CostModel::default();
        let priced = |eg: &TensorEGraph, picks: &[(usize, Id)]| -> f64 {
            let own = |&(_, id): &(usize, Id)| model.enode_cost_composite(eg, eg.enode(id));
            picks.iter().map(own).map(|c| c.latency).sum()
        };
        for name in tensat_models::BENCHMARKS {
            let graph = tensat_models::build_benchmark(name, tensat_models::ModelScale::tiny());
            for k_multi in [1, 2] {
                let label = format!("{name} k_multi {k_multi}");
                let mut eg = TensorEGraph::new(TensorAnalysis);
                let root = eg.add_expr(&graph);
                eg.rebuild();
                let config = OptimizerConfig {
                    k_multi,
                    node_limit: 2_000,
                    search_threads: 1,
                    ..Default::default()
                };
                explore(&mut eg, root, &single_rules(), &multi_rules(), &config);
                let root = eg.find(root);

                let tree = Extractor::new(&eg, TreeCost::new(model.clone(), &eg));
                let (_, tree) = tree.find_best_term(root).unwrap();
                let (dag, picks) = greedy_dag_with_picks(&eg, root, &model).unwrap();
                let incumbent = Some((dag.dag_cost, picks.clone()));
                let dag = ChosenTerm {
                    expr: dag.expr,
                    picks,
                };
                let config = IlpConfig::default();
                let (ilp, stats) =
                    select_ilp(&eg, root, &model, &config, true, incumbent, Instant::now())
                        .unwrap();
                assert_eq!(stats.status, Status::Optimal, "{label}");
                let ilp = ilp.expect("an optimal selection");
                for (extractor, term) in [("tree", tree), ("dag", dag), ("ilp", ilp)] {
                    let cost = model.graph_cost(&term.expr);
                    assert!(cost.is_finite(), "{label} {extractor}");
                    let priced = priced(&eg, &term.picks);
                    assert!(
                        (cost - priced).abs() <= 1e-9 * priced,
                        "{label} {extractor}: built {cost}, priced {priced}"
                    );
                }
            }
        }
    }

    /// Both greedy extractors name their picks by node-table id: on every
    /// benchmark model, explored as in the warm-start test, each `(slot,
    /// id)` of a term is an unfiltered id the slot's class lists, and node
    /// `i` of the expression is `enode(picks[i].1)` with its children
    /// mapped to the expression nodes of their classes.
    #[test]
    fn greedy_picks_are_listed_unfiltered_node_ids_on_every_benchmark() {
        let model = CostModel::default();
        for name in tensat_models::BENCHMARKS {
            let graph = tensat_models::build_benchmark(name, tensat_models::ModelScale::tiny());
            let (eg, root) = explored(&graph, 2, 120);
            let mut class_of_slot = vec![None; eg.num_slots()];
            for class in eg.classes() {
                class_of_slot[eg.slot_index(class.id).unwrap()] = Some(class);
            }
            let check = |label: &str, term: ChosenTerm<TensorLang>| {
                assert_eq!(term.picks.len(), term.expr.len(), "{name} {label}");
                let mut node_of_slot = vec![None; eg.num_slots()];
                for (i, &(slot, id)) in term.picks.iter().enumerate() {
                    let class = class_of_slot[slot].expect("a pick's slot is live");
                    assert!(class.node_ids().contains(&id), "{name} {label}: {id}");
                    assert!(!eg.is_filtered(id), "{name} {label}: {id}");
                    let node = eg
                        .enode(id)
                        .map_children(|c| node_of_slot[eg.slot_index(c).unwrap()].unwrap());
                    assert_eq!(term.expr.nodes()[i], node, "{name} {label}: node {i}");
                    node_of_slot[slot] = Some(Id::from(i));
                }
            };
            let tree = Extractor::new(&eg, TreeCost::new(model.clone(), &eg));
            check("tree", tree.find_best_term(root).unwrap().1);
            let dag = DagExtractor::new(&eg, DagCost::new(model.clone(), &eg));
            check("dag", dag.find_best_term(root).unwrap().1);
        }
    }
}
