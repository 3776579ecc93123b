//! The extraction phase (paper §5): pick one e-node per e-class so that the
//! resulting graph minimizes the cost model.
//!
//! [`extract()`] runs the extractor an [`ExtractionMode`] names; all three
//! report both honest costs of their result (see [`ExtractionOutcome`]):
//!
//! * [`extract_greedy`] — per e-class minimum *subtree* cost (paper §5.1).
//!   Fast, but it charges shared subgraphs once per use, so it never
//!   chooses the `split` form of a merged operator (Table 4).
//! * [`extract_greedy_dag`] — the worklist-driven global greedy DAG
//!   extractor ([`tensat_egraph::DagExtractor`]) which charges each e-node
//!   once regardless of sharing. It also runs tree-greedy, polishes both
//!   selections by first-improvement 1-opt ([`tensat_egraph::Polish`]) and
//!   returns whichever polished graph has the lower DAG cost, so
//!   `dag_cost(greedy-DAG) ≤ dag_cost(tree-greedy)` holds unconditionally.
//! * [`extract_ilp`] — the integer-linear-program encoding of
//!   constraints (1)–(5), with the cycle constraints (4)–(5) optional,
//!   solved by `tensat-ilp` from an incumbent outcome: greedy-DAG's (which
//!   dominates the tree-greedy warm start it replaced). One pipeline serves
//!   every configuration: the selection problem, its reduction (skipped
//!   with cycle constraints and by [`extract_ilp_monolithic`]), one encoder
//!   per component, the solver, and the stitch with its fall-back to the
//!   incumbent.
//!
//! Every extractor ends the same way: one chosen e-node per class, named by
//! its node-table id, turned into a graph by [`tensat_egraph::build_term`]
//! and priced by [`ChosenTerm::dag_cost`] — the picks' own costs added in
//! the order of the graph's nodes, which reads, to the bit, what
//! [`CostModel::graph_cost`] would read off the built graph, without
//! inferring its shapes again. Greedy-DAG's tree pass and both of its
//! polishes share one own-cost table ([`tensat_egraph::OwnCosts`]), so the
//! cost model runs once per e-node across the three. The outcome keeps the
//! `(slot, node id)` picks with the graph they build
//! ([`ExtractionOutcome::picks`]), and the ILP reads its bound, warm start
//! and fall-back from one such outcome, its incumbent.
//!
//! Every extractor minimizes one objective, the summed operator latency in
//! µs (the paper's Σ cᵢxᵢ), and prices an e-node the same way,
//! [`CostModel::enode_cost`]: the greedy extractors take the model as their
//! [`CostFunction`](tensat_egraph::CostFunction), the ILP's reduction calls
//! it directly. Two graphs compare by their DAG latency under
//! [`f64::total_cmp`], so a graph of NaN cost never wins.

mod reduce;

use std::borrow::Cow;
use std::collections::HashMap;
use std::time::{Duration, Instant};
use tensat_egraph::{
    build_term, ChoiceError, ChosenTerm, DagExtractor, Extractor, Id, Polish, RecExpr,
};
use tensat_ilp::{Cmp, Limit, Problem, PropagationStats, Solver, Status, VarId};
use tensat_ir::{Cost, CostModel, TensorEGraph, TensorLang};

/// Which extraction algorithm to run after exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExtractionMode {
    /// Tree-greedy per-class extraction (paper §5.1, "Greedy extraction"):
    /// [`extract_greedy`].
    Greedy,
    /// Global greedy DAG extraction: charges shared subgraphs once, at
    /// greedy speed, and polishes its own and tree-greedy's selection by
    /// 1-opt, returning the cheaper (never worse than
    /// [`ExtractionMode::Greedy`] on DAG cost): [`extract_greedy_dag`].
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
/// Every extractor reports the graph's DAG cost, `dag_cost`: each node
/// charged once, what the graph actually costs to run and the objective
/// the DAG-aware strategies minimize. The per-use tree cost tree-greedy
/// minimizes is [`CostModel::tree_cost`] of `expr`, for a reader that
/// wants it.
#[derive(Debug, Clone)]
pub struct ExtractionOutcome {
    /// The extracted graph.
    pub expr: RecExpr<TensorLang>,
    /// The `(slot, node-table id)` of the chosen e-node of every class
    /// `expr` uses, children before parents: `picks[i]`'s e-node is node
    /// `i` of `expr` ([`ChosenTerm::picks`]).
    pub picks: Vec<(usize, Id)>,
    /// `dag_cost` as a [`Cost`].
    pub cost: Cost,
    /// DAG cost in µs: each node charged once.
    pub dag_cost: f64,
    /// Wall-clock time spent extracting.
    pub time: Duration,
    /// Solver statistics when the ILP strategy produced this outcome.
    pub ilp: Option<IlpStats>,
}

impl ExtractionOutcome {
    /// The outcome for a term of DAG cost `dag_cost` ([`ChosenTerm::dag_cost`]),
    /// extracted since `start`.
    ///
    /// Errs with [`ExtractError::NoFiniteTerm`] when the DAG cost is not
    /// finite, NaN included (an ill-typed input: every term of the root
    /// class holds an invalid operator).
    fn new(
        (dag_cost, term): (f64, ChosenTerm<TensorLang>),
        start: Instant,
    ) -> Result<Self, ExtractError> {
        if !dag_cost.is_finite() {
            return Err(ExtractError::NoFiniteTerm);
        }
        Ok(ExtractionOutcome {
            cost: Cost { latency: dag_cost },
            dag_cost,
            expr: term.expr,
            picks: term.picks,
            time: start.elapsed(),
            ilp: None,
        })
    }
}

/// `first`, unless `second` is strictly cheaper by `cost` under
/// [`f64::total_cmp`] or `first` is missing.
fn cheaper<T>(first: Option<T>, second: Option<T>, cost: impl Fn(&T) -> f64) -> Option<T> {
    match (first, second) {
        (Some(a), Some(b)) if cost(&b).total_cmp(&cost(&a)).is_lt() => Some(b),
        (a, b) => a.or(b),
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
    /// closure lower bound exceeds the incumbent's value, so they appear in
    /// no optimum (0 unreduced).
    pub bound_pruned: usize,
    /// Classes fixed outside the ILP by single-candidate forcing (0
    /// unreduced).
    pub forced_classes: usize,
    /// Independent subproblems solved after decomposition (1 unreduced).
    pub components: usize,
    /// Solver status — `Optimal` only if every component solved to
    /// optimality. `Feasible` means a budget ran out, and `limit` says
    /// which.
    pub status: Status,
    /// The first budget that ended a component's search: the time limit,
    /// or a component's 2 000 000-node cap. `None` when every component
    /// finished.
    pub limit: Option<Limit>,
    /// Branch-and-bound nodes explored (summed over components).
    pub nodes_explored: usize,
    /// The solver's propagation counters (summed over components).
    pub propagation: PropagationStats,
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

/// Tree-greedy extraction (paper §5.1): per e-class, pick the e-node with
/// the smallest subtree latency.
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
    let extractor = Extractor::new(egraph, model);
    let (_, term) = extractor
        .find_best(root)
        .ok_or(ExtractError::NoFiniteTerm)?;
    let mut own = extractor.into_own_costs();
    let dag_cost = term.dag_cost(|(_, id)| own.get(egraph, id));
    ExtractionOutcome::new((dag_cost, term), start)
}

/// Global greedy DAG extraction: the worklist extractor charging each
/// e-node once (see [`tensat_egraph::DagExtractor`]).
///
/// Both greedy extractors run, each selection is polished by
/// first-improvement 1-opt ([`tensat_egraph::Polish`], a class a move first
/// reaches taking the DAG pass's e-node), and the polished graph with the
/// lower DAG cost is returned (the DAG pass's on a tie). Polishing never
/// raises a cost, so `dag_cost(extract_greedy_dag) ≤
/// dag_cost(extract_greedy)` holds by construction. The DAG extractor is a
/// heuristic whose per-class-at-a-time fixpoint need not be a local optimum
/// (on BERT explored to 20 000 e-nodes it returns 110.261 µs, and one move
/// at a time reaches 97.530 µs from the tree pass's selection); where
/// profitable sharing requires several classes to switch candidates
/// *jointly* (the merged-matmul economics only the ILP captures), neither
/// the fixpoint nor the polish finds it. The reported `time` covers all
/// four runs.
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
    let start = Instant::now();
    // The DAG pass's tables are dropped before the tree pass runs; only its
    // choices, which fill the classes a move reaches, are kept.
    let (dag, fill) = {
        let extractor = DagExtractor::new(egraph, model);
        (extractor.find_best(root), extractor.choices())
    };
    // The tree pass's own costs are the polish's: one table, each e-node
    // priced once.
    let tree = Extractor::new(egraph, model);
    let (tree, own) = (tree.find_best(root), tree.into_own_costs());
    let mut polish = Polish::new(egraph, own, fill);
    // Compare by the DAG cost of the polished graphs, not the extractors'
    // internal objectives (which disagree on what a "cost" is).
    let mut polished = |start: Option<(f64, ChosenTerm<TensorLang>)>| {
        start.map(|(_, term)| polish.run(root, term))
    };
    let dag = polished(dag);
    let tree = polished(tree);
    let best = cheaper(dag, tree, |&(cost, _)| cost);
    ExtractionOutcome::new(best.ok_or(ExtractError::NoFiniteTerm)?, start)
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
    /// greedy-DAG incumbent comes back as `Feasible`). Each component's
    /// solve is also capped at [`Solver::node_limit`]'s default of
    /// 2 000 000 branch-and-bound nodes, which this does not change;
    /// [`IlpStats::limit`] says which of the two ended a solve.
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
///
/// The incumbent is [`extract_greedy_dag`]'s outcome, whose run counts
/// against `config.time_limit`: it bounds the reduction, starts the solver,
/// and is returned when the ILP finds nothing cheaper.
pub fn extract_ilp(
    egraph: &TensorEGraph,
    root: Id,
    model: &CostModel,
    config: &IlpConfig,
) -> Result<ExtractionOutcome, ExtractError> {
    let start = Instant::now();
    let greedy = extract_greedy_dag(egraph, root, model).ok();
    let reduce = !config.cycle_constraints;
    solve_ilp(egraph, root, model, config, reduce, greedy.as_ref(), start)
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
    let start = Instant::now();
    let greedy = extract_greedy_dag(egraph, root, model).ok();
    solve_ilp(egraph, root, model, config, false, greedy.as_ref(), start)
}

/// The slot of a class the ILP encoder reached from the root.
fn live_slot(egraph: &TensorEGraph, class: Id) -> usize {
    egraph.slot_index(class).expect("reachable class is live")
}

/// The one ILP pipeline, started at `start` from `incumbent`: [`select_ilp`],
/// then its any-time end. That is the ILP's graph, unless it found none
/// within its budget, its graph has no finite cost, or the incumbent is
/// strictly cheaper (e.g. the warm start could not be translated into a
/// feasible assignment) — then the incumbent, so ILP extraction never
/// regresses below it.
fn solve_ilp(
    egraph: &TensorEGraph,
    root: Id,
    model: &CostModel,
    config: &IlpConfig,
    reduce: bool,
    incumbent: Option<&ExtractionOutcome>,
    start: Instant,
) -> Result<ExtractionOutcome, ExtractError> {
    let root = egraph.find(root);
    let (solved, stats) = select_ilp(egraph, root, model, config, reduce, incumbent, start)?;
    let solved = solved.map(|term| {
        let dag_cost = term.dag_cost(|(_, id)| model.enode_cost(egraph, egraph.enode(id)));
        ExtractionOutcome::new((dag_cost, term), start)
    });
    let solved = match solved {
        Some(Err(e)) if incumbent.is_none() => return Err(e),
        solved => solved.and_then(Result::ok),
    };
    let mut outcome = cheaper(solved.map(Cow::Owned), incumbent.map(Cow::Borrowed), |o| {
        o.dag_cost
    })
    .map(Cow::into_owned)
    .ok_or(ExtractError::Infeasible)?;
    outcome.time = start.elapsed();
    outcome.ilp = Some(stats);
    Ok(outcome)
}

/// The ILP's own selection, started at `start` from `incumbent`, whose
/// latency bounds the reduction and whose picks are the warm start: build
/// the abstract selection problem, run the reduction (trim →
/// dominance/forced-closure fixpoint → forcing) when `reduce`, encode and
/// solve each component of what is left, and stitch the fixed selections
/// with the per-component optima. `None` when a component found no solution
/// in the time left.
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
    incumbent: Option<&ExtractionOutcome>,
    start: Instant,
) -> Result<(Option<ChosenTerm<TensorLang>>, IlpStats), ExtractError> {
    let mut rp = reduce::ExtractionProblem::from_egraph(egraph, root, model)?;
    if reduce {
        let ub = incumbent.map(|g| g.dag_cost);
        rp.reduce(ub, start.checked_add(config.time_limit))?;
    }
    let topo = config.cycle_constraints;
    let warm = incumbent.map(|g| WarmStart::new(egraph, &rp, &g.picks, topo));

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
        limit: None,
        nodes_explored: 0,
        propagation: PropagationStats::default(),
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
        stats.propagation += solution.propagation;
        stats.limit = stats.limit.or(solution.limit);
        stats.solve_time += solution.solve_time;
        if !solution.has_solution() {
            // Out of budget with no incumbent for this component: the
            // whole-graph incumbent, if there is one, is the answer.
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

/// Where the component solvers start: the incumbent's graph, per class of
/// the problem.
struct WarmStart {
    /// The candidate to start from ([`reduced_hint_choice`]).
    choice: Vec<Option<usize>>,
    /// With the cycle constraints on, the class's position in the
    /// incumbent's picks, children before parents — an order rows (4)–(5)
    /// accept; empty otherwise.
    position: Vec<Option<usize>>,
}

impl WarmStart {
    /// The warm start `picks` (children before parents) give `rp`; `topo`
    /// asks for the positions the topological-order variables start from.
    fn new(
        egraph: &TensorEGraph,
        rp: &reduce::ExtractionProblem,
        picks: &[(usize, Id)],
        topo: bool,
    ) -> Self {
        let mut at = vec![None; egraph.num_slots()];
        for (p, &(slot, _)) in picks.iter().enumerate() {
            at[slot] = Some(p);
        }
        let position_of = |class| at[live_slot(egraph, class)];
        let choice = reduced_hint_choice(rp, |class, node| {
            position_of(class).is_some_and(|p| picks[p].1 == node)
        });
        let position = if topo {
            rp.class_ids
                .iter()
                .map(|&class| position_of(class))
                .collect()
        } else {
            vec![]
        };
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
/// §5.1 program. Each live candidate is a binary costed at its latency.
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
/// component solvers from: the e-node the incumbent's graph was built from
/// (`picked(class, node id)`), or — when that was dominance-pruned — the
/// sibling `rep` says dominated it. The dominator's needs are a subset of
/// the pruned pick's, which the incumbent satisfies, so the repaired hint
/// stays closed.
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
    use tensat_egraph::Language;
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
        // The outcome's cost views agree, and the tree cost of its graph
        // charges at least as much.
        assert_eq!(out.dag_cost, out.cost.latency);
        assert!(model.tree_cost(&out.expr) >= out.dag_cost);
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
            let warm = WarmStart::new(&eg, &rp, &greedy.picks, true);
            let comps = rp.components();
            assert_eq!(comps.len(), 1);
            let enc = encode(&rp, &comps[0], &config, Some(&warm));
            let hint = enc.hint.expect("a warm start gives a hint");
            assert!(enc.problem.is_feasible(&hint, 1e-9), "{config:?}");

            let out = extract_ilp(&eg, root, &model, &config).unwrap();
            let stats = out.ilp.unwrap();
            assert_eq!(stats.status, Status::Feasible, "{config:?}");
            assert_eq!(stats.limit, Some(Limit::Time), "{config:?}");
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

    /// A graph whose latency is NaN is refused like an infinite one: under a
    /// cost model whose fused-activation charge is NaN, the one term of a
    /// lone fused matmul costs NaN, and every extractor answers
    /// `NoFiniteTerm` instead of returning it.
    #[test]
    fn a_graph_of_nan_latency_is_refused_by_every_extractor() {
        let mut g = GraphBuilder::new();
        let x = g.input("x", &[64, 256]);
        let w = g.weight("w", &[256, 256]);
        let m = g.matmul_act(tensat_ir::Activation::Relu, x, w);
        let expr = g.finish(&[m]);
        let model = CostModel {
            fused_activation_us: f64::NAN,
            ..CostModel::default()
        };
        assert!(model.graph_cost(&expr).is_nan());
        let mut eg = TensorEGraph::new(TensorAnalysis);
        let root = eg.add_expr(&expr);
        eg.rebuild();
        for mode in [
            ExtractionMode::Greedy,
            ExtractionMode::GreedyDag,
            ExtractionMode::Ilp,
        ] {
            let refused = extract(mode, &eg, root, &model, &IlpConfig::default()).unwrap_err();
            assert_eq!(refused, ExtractError::NoFiniteTerm, "{mode:?}");
        }
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
            let greedy = extract_greedy_dag(&eg, root, &model).unwrap();
            let selected = decode_selected(&eg, root, &greedy.expr);
            assert_eq!(greedy.picks.len(), selected.len(), "{name}");

            let decoded = |class: Id, node: Id| {
                selected.contains(&(eg.find(class), eg.canonicalize(eg.enode(node))))
            };

            // Unreduced: every pick is a hinted candidate.
            let config = IlpConfig::default();
            let mut rp = reduce::ExtractionProblem::from_egraph(&eg, root, &model).unwrap();
            let hint = WarmStart::new(&eg, &rp, &greedy.picks, false).choice;
            assert_eq!(
                hint,
                reduced_hint_choice(&rp, decoded),
                "{name}: unreduced hint"
            );
            assert_eq!(hint.iter().flatten().count(), greedy.picks.len(), "{name}");

            // Reduced: one hinted candidate per class, dominance-
            // pruned picks chased to their dominator.
            rp.reduce(Some(greedy.cost.latency), None).unwrap();
            let hint = WarmStart::new(&eg, &rp, &greedy.picks, false).choice;
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

    /// The graph each extractor's selection builds costs, to the bit, what
    /// the selection was priced at, and that is finite: every e-node's data
    /// is a function of its children's class data, so pricing it on its
    /// class and on the built graph agree, and the picks come in the order
    /// of the graph's nodes, which [`CostModel::graph_cost`] sums in. On
    /// every benchmark model at tiny scale and `k_multi` 1 and 2, explored
    /// to at most 2 000 e-nodes, for the outcomes of tree-greedy, greedy-DAG
    /// and the ILP, and for the ILP's selection as [`select_ilp`] returns
    /// it, before [`solve_ilp`] could fall back to the incumbent.
    #[test]
    fn every_selection_builds_a_graph_of_its_priced_finite_cost() {
        let model = CostModel::default();
        let priced = |eg: &TensorEGraph, picks: &[(usize, Id)]| -> f64 {
            let own = |&(_, id): &(usize, Id)| model.enode_cost(eg, eg.enode(id));
            picks.iter().map(own).sum()
        };
        for (label, eg, root) in tiny_egraphs() {
            let config = IlpConfig::default();
            let tree = extract_greedy(&eg, root, &model).unwrap();
            let dag = extract_greedy_dag(&eg, root, &model).unwrap();
            let ilp = extract_ilp(&eg, root, &model, &config).unwrap();
            let (selected, stats) =
                select_ilp(&eg, root, &model, &config, true, Some(&dag), Instant::now()).unwrap();
            assert_eq!(stats.status, Status::Optimal, "{label}");
            let selected = selected.expect("an optimal selection");
            let selections = [
                ("tree", &tree.expr, tree.dag_cost),
                ("dag", &dag.expr, dag.dag_cost),
                ("ilp", &ilp.expr, ilp.dag_cost),
                (
                    "ilp selection",
                    &selected.expr,
                    priced(&eg, &selected.picks),
                ),
            ];
            for (extractor, expr, priced) in selections {
                let cost = model.graph_cost(expr);
                assert!(cost.is_finite(), "{label} {extractor}");
                assert_eq!(
                    priced.to_bits(),
                    cost.to_bits(),
                    "{label} {extractor}: built {cost}, priced {priced}"
                );
            }
        }
    }

    /// Every benchmark model at tiny scale and `k_multi` 1 and 2, explored
    /// to at most 2 000 e-nodes: `(label, e-graph, canonical root)`.
    fn tiny_egraphs() -> impl Iterator<Item = (String, TensorEGraph, Id)> {
        tensat_models::BENCHMARKS.iter().flat_map(|name| {
            let graph = tensat_models::build_benchmark(name, tensat_models::ModelScale::tiny());
            [1, 2].map(|k_multi| {
                let mut eg = TensorEGraph::new(TensorAnalysis);
                let root = eg.add_expr(&graph);
                eg.rebuild();
                let config = OptimizerConfig {
                    k_multi,
                    node_limit: 2_000,
                    ..Default::default()
                };
                explore(&mut eg, root, &single_rules(), &multi_rules(), &config);
                let root = eg.find(root);
                (format!("{name} k_multi {k_multi}"), eg, root)
            })
        })
    }

    /// Pricing a move by what it changes gives the picks the full-walk run
    /// gives ([`Polish::run_by_walk`]) on the e-graphs of
    /// [`tiny_egraphs`], from both of greedy-DAG's starts — and greedy-DAG
    /// returns the cheaper of the two polished graphs.
    #[test]
    fn polish_equals_the_full_walk_oracle_on_every_benchmark() {
        let model = CostModel::default();
        for (label, eg, root) in tiny_egraphs() {
            let dag = DagExtractor::new(&eg, &model);
            let tree = Extractor::new(&eg, &model).find_best(root);
            let mut priced = Polish::new(
                &eg,
                Extractor::new(&eg, &model).into_own_costs(),
                dag.choices(),
            );
            let mut walked = Polish::new(
                &eg,
                Extractor::new(&eg, &model).into_own_costs(),
                dag.choices(),
            );
            let mut polished = vec![];
            for (_, start) in [dag.find_best(root), tree].into_iter().flatten() {
                let term = priced.run(root, start.clone());
                let expected = walked.run_by_walk(root, start);
                assert_eq!(term.1.picks, expected.1.picks, "{label}");
                polished.push(term);
            }
            let best = polished
                .into_iter()
                .reduce(|a, b| cheaper(Some(a), Some(b), |p| p.0).unwrap());
            let outcome = extract_greedy_dag(&eg, root, &model).unwrap();
            assert_eq!(
                Some(outcome.picks),
                best.map(|(_, term)| term.picks),
                "{label}"
            );
        }
    }

    /// Every outcome names the picks its graph was built from by node-table
    /// id: on every benchmark model, explored as in the warm-start test,
    /// each `(slot, id)` of the outcome of tree-greedy, greedy-DAG, the ILP
    /// when it proves `Optimal`, the ILP at a zero time limit (the solver
    /// hands its warm start back: greedy-DAG's picks, as `Feasible`), and
    /// an incumbent the ILP falls back to is an unfiltered id the slot's
    /// class lists, and node `i` of the expression is `enode(picks[i].1)`
    /// with its children mapped to the expression nodes of their classes.
    #[test]
    fn every_outcome_lists_the_unfiltered_node_ids_that_build_its_graph() {
        let model = CostModel::default();
        let no_time = IlpConfig {
            time_limit: Duration::ZERO,
            ..Default::default()
        };
        for name in tensat_models::BENCHMARKS {
            let graph = tensat_models::build_benchmark(name, tensat_models::ModelScale::tiny());
            let (eg, root) = explored(&graph, 2, 120);
            let mut class_of_slot = vec![None; eg.num_slots()];
            for class in eg.classes() {
                class_of_slot[eg.slot_index(class.id).unwrap()] = Some(class);
            }
            let check = |label: &str, out: &ExtractionOutcome| {
                assert_eq!(out.picks.len(), out.expr.len(), "{name} {label}");
                let mut node_of_slot = vec![None; eg.num_slots()];
                for (i, &(slot, id)) in out.picks.iter().enumerate() {
                    let class = class_of_slot[slot].expect("a pick's slot is live");
                    assert!(class.node_ids().contains(&id), "{name} {label}: {id}");
                    assert!(!eg.is_filtered(id), "{name} {label}: {id}");
                    let node = eg
                        .enode(id)
                        .map_children(|c| node_of_slot[eg.slot_index(c).unwrap()].unwrap());
                    assert_eq!(out.expr.nodes()[i], node, "{name} {label}: node {i}");
                    node_of_slot[slot] = Some(Id::from(i));
                }
            };
            check("tree", &extract_greedy(&eg, root, &model).unwrap());
            let dag = extract_greedy_dag(&eg, root, &model).unwrap();
            check("dag", &dag);
            let ilp = extract_ilp(&eg, root, &model, &IlpConfig::default()).unwrap();
            assert_eq!(ilp.ilp.as_ref().unwrap().status, Status::Optimal, "{name}");
            check("ilp", &ilp);
            let kept = extract_ilp(&eg, root, &model, &no_time).unwrap();
            assert_eq!(
                kept.ilp.as_ref().unwrap().status,
                Status::Feasible,
                "{name}"
            );
            assert_eq!(kept.picks, dag.picks, "{name}");
            check("ilp at no time", &kept);
            // An incumbent cheaper than the solver's graph comes back whole.
            let mut cheap = dag.clone();
            cheap.dag_cost = 0.0;
            let start = Instant::now();
            let fallback =
                solve_ilp(&eg, root, &model, &no_time, false, Some(&cheap), start).unwrap();
            assert_eq!(fallback.dag_cost, 0.0, "{name}");
            check("ilp fallback", &fallback);
        }
    }
}
