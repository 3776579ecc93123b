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
//!   (which dominates the tree-greedy warm start it replaced).
//!
//! Every extractor ends the same way: one chosen e-node per class, turned
//! into a graph by [`tensat_egraph::build_term`]. Greedy-DAG extraction
//! keeps the `(slot, e-node)` picks of the graph it returns, and the ILP
//! warm start is read from those picks.
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
    build_term, BitSet, ChoiceError, ChosenTerm, CostFunction, DagCostFunction, DagExtractor,
    Extractor, Id, Language, RecExpr,
};
use tensat_ilp::{Cmp, Problem, Solver, Status, VarId};
use tensat_ir::{Cost, CostModel, TensorData, TensorEGraph, TensorLang};

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
/// The `*_before` fields report the size of the paper's monolithic §5.1
/// encoding for the same e-graph; the plain `num_vars`/`num_constraints`
/// report what was actually handed to the solver after the reduction
/// pipeline (equal to the `*_before` fields when reduction is off).
#[derive(Debug, Clone)]
pub struct IlpStats {
    /// ILP variables handed to the solver (summed over components).
    pub num_vars: usize,
    /// ILP constraints handed to the solver (summed over components).
    pub num_constraints: usize,
    /// Variables the monolithic encoding would create for this e-graph.
    pub vars_before: usize,
    /// Constraints the monolithic encoding would create.
    pub constraints_before: usize,
    /// Variables fixed by the solver's presolve propagation at the root
    /// (summed over components).
    pub presolve_fixed: usize,
    /// Candidates removed by dominated-candidate pruning (0 when reduction
    /// is off).
    pub dominated_pruned: usize,
    /// Candidates removed by incumbent cost-bound pruning: their forced-
    /// closure lower bound exceeds the greedy warm-start value, so they
    /// appear in no optimum (0 when reduction is off).
    pub bound_pruned: usize,
    /// Classes fixed outside the ILP by single-candidate forcing (0 when
    /// reduction is off).
    pub forced_classes: usize,
    /// Independent subproblems solved after decomposition (1 when
    /// reduction is off).
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
    /// The selected nodes contain a cycle (only possible when both cycle
    /// filtering and the ILP cycle constraints are disabled).
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
/// data, fixed for the life of the borrow. So the cost model runs — and
/// clones each child's `TensorData`, which is what its interface takes —
/// once per distinct e-node, and every later call is a table hit plus the
/// additions.
#[derive(Debug, Clone)]
pub struct TreeCost<'a> {
    model: CostModel,
    egraph: &'a TensorEGraph,
    /// Own cost of every e-node costed so far.
    own: HashMap<TensorLang, f64>,
}

impl<'a> TreeCost<'a> {
    /// A tree-cost function over the given e-graph's analysis data.
    pub fn new(model: CostModel, egraph: &'a TensorEGraph) -> Self {
        TreeCost {
            model,
            egraph,
            own: HashMap::with_capacity(egraph.total_number_of_nodes()),
        }
    }

    /// How many times the cost model has run: once per distinct e-node
    /// costed so far.
    pub fn model_calls(&self) -> usize {
        self.own.len()
    }
}

/// The analysis data the cost model reads for a child class.
fn class_data(egraph: &TensorEGraph, id: Id) -> TensorData {
    if egraph.slot_index(id).is_some() {
        egraph.eclass(id).data.clone()
    } else {
        TensorData::invalid("unknown class")
    }
}

impl CostFunction<TensorLang> for TreeCost<'_> {
    type Cost = f64;
    fn cost<C>(&mut self, enode: &TensorLang, mut costs: C) -> f64
    where
        C: FnMut(Id) -> f64,
    {
        // Most calls are hits (BERT at 20 000 e-nodes: 102 910 calls for
        // 19 568 entries): look up by reference, clone the key on a miss.
        let own = match self.own.get(enode) {
            Some(&own) => own,
            None => {
                let egraph = self.egraph;
                let own = self.model.node_cost(enode, &|id| class_data(egraph, id));
                self.own.insert(enode.clone(), own);
                own
            }
        };
        enode.children().iter().fold(own, |acc, &c| acc + costs(c))
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

/// The `(slot, chosen e-node)` of every class an extracted graph uses,
/// ascending by slot: what the graph was built from, kept so the ILP can
/// start from it.
type Picks = Vec<(usize, TensorLang)>;

/// Whether `picks` chose `node` for `class`, a class the ILP encoders
/// reached from the root.
fn picked(egraph: &TensorEGraph, picks: &Picks, class: Id, node: &TensorLang) -> bool {
    let slot = live_slot(egraph, class);
    let found = picks.binary_search_by_key(&slot, |&(s, _)| s);
    found.is_ok_and(|i| picks[i].1 == *node)
}

/// [`extract_greedy_dag`], with the picks of the graph it returns.
fn greedy_dag_with_picks(
    egraph: &TensorEGraph,
    root: Id,
    model: &CostModel,
) -> Result<(ExtractionOutcome, Picks), ExtractError> {
    let start = Instant::now();
    // The picks are copied out so that nothing borrows the extractor: each
    // is a temporary, dropped at the end of its statement, and the two
    // passes' tables are never live together.
    let owned = |term: ChosenTerm<'_, TensorLang>| {
        let mut picks: Picks = term.picks.iter().map(|&(s, n)| (s, n.clone())).collect();
        picks.sort_unstable_by_key(|&(s, _)| s);
        (term.expr, picks)
    };
    let dag = DagExtractor::new(egraph, DagCost::new(model.clone(), egraph))
        .find_best_term(root)
        .map(|(_, term)| owned(term));
    let tree = Extractor::new(egraph, TreeCost::new(model.clone(), egraph))
        .find_best_term(root)
        .map(|(_, term)| owned(term));
    // Compare by honest composite DAG cost of the built graphs, not the
    // extractors' internal objectives (which disagree on what a "cost" is).
    let costed = |(expr, picks)| (model.graph_cost_composite(&expr), expr, picks);
    let (cost, expr, picks) = match (dag.map(costed), tree.map(costed)) {
        (Some(d), Some(t)) if d.0.total_order(&t.0) == Ordering::Greater => t,
        (Some(best), _) | (None, Some(best)) => best,
        (None, None) => return Err(ExtractError::NoFiniteTerm),
    };
    let outcome = ExtractionOutcome::new(expr, cost, model, start.elapsed())?;
    Ok((outcome, picks))
}

/// Configuration for ILP extraction.
#[derive(Debug, Clone)]
pub struct IlpConfig {
    /// Include the acyclicity constraints (4)–(5). Required when the
    /// e-graph may contain cycles (no cycle filtering during exploration).
    pub cycle_constraints: bool,
    /// Use integer topological-order variables instead of reals.
    pub integer_topo_vars: bool,
    /// Wall-clock limit for the ILP solver.
    pub time_limit: Duration,
    /// Run the problem-reduction pipeline (see the `reduce` module) before
    /// encoding: restrict to the root-reachable subgraph, prune dominated
    /// candidates, fix single-candidate classes transitively, and decompose
    /// the residue into independent components solved separately. `false`
    /// encodes the paper's monolithic program directly — the oracle the
    /// differential tests compare the reduced optimum against. Ignored
    /// (treated as `false`) when `cycle_constraints` is on: the dominance
    /// argument reasons about the acyclic selection semantics.
    pub reduce: bool,
}

impl Default for IlpConfig {
    fn default() -> Self {
        IlpConfig {
            cycle_constraints: false,
            integer_topo_vars: false,
            time_limit: Duration::from_secs(60),
            reduce: true,
        }
    }
}

/// ILP extraction (paper §5.1): encode node selection as a 0/1 program and
/// solve it with the `tensat-ilp` branch-and-bound solver. Solver
/// statistics are reported in the outcome's [`ExtractionOutcome::ilp`].
///
/// By default the abstract selection problem is *reduced* before encoding
/// (see [`IlpConfig::reduce`]); the monolithic encoding below remains both
/// the `reduce: false` path and the oracle for the differential tests.
pub fn extract_ilp(
    egraph: &TensorEGraph,
    root: Id,
    model: &CostModel,
    config: &IlpConfig,
) -> Result<ExtractionOutcome, ExtractError> {
    if config.reduce && !config.cycle_constraints {
        extract_ilp_reduced(egraph, root, model, config)
    } else {
        extract_ilp_monolithic(egraph, root, model, config)
    }
}

/// The monolithic §5.1 encoding: one binary per viable e-node, one
/// implication row per (node, child-class) edge, solved as a single ILP.
fn extract_ilp_monolithic(
    egraph: &TensorEGraph,
    root: Id,
    model: &CostModel,
    config: &IlpConfig,
) -> Result<ExtractionOutcome, ExtractError> {
    let start = Instant::now();
    let root = egraph.find(root);
    let (problem, node_vars) = encode_monolithic(egraph, root, model, config)?;

    // Warm start from the greedy-DAG solution: its DAG cost lower-bounds
    // the tree-greedy incumbent the solver used to receive, so the solver
    // starts from a no-worse incumbent.
    let (greedy, picks) = greedy_dag_with_picks(egraph, root, model).ok().unzip();
    let hint = picks.map(|picks| {
        monolithic_warm_start(&node_vars, problem.num_vars(), |class, node| {
            picked(egraph, &picks, class, node)
        })
    });

    let solver = Solver::with_time_limit(config.time_limit);
    let solution = match &hint {
        Some(h) => solver.solve_with_hint(&problem, h),
        None => solver.solve(&problem),
    };
    let stats = IlpStats {
        num_vars: problem.num_vars(),
        num_constraints: problem.num_constraints(),
        vars_before: problem.num_vars(),
        constraints_before: problem.num_constraints(),
        presolve_fixed: solution.presolve_fixed,
        dominated_pruned: 0,
        bound_pruned: 0,
        forced_classes: 0,
        components: 1,
        status: solution.status,
        nodes_explored: solution.nodes_explored,
        solve_time: solution.solve_time,
    };
    if !solution.has_solution() {
        return Err(ExtractError::Infeasible);
    }

    // Read the selection back: for each class (slot), the chosen e-node.
    let mut choice: Vec<Option<&TensorLang>> = vec![None; egraph.num_slots()];
    for (class, node, var) in &node_vars {
        let chosen = &mut choice[live_slot(egraph, *class)];
        if solution.value(*var) > 0.5 && chosen.is_none() {
            *chosen = Some(node);
        }
    }
    let solved = read_back(egraph, root, &choice)?;
    finish_ilp(Some(solved), greedy, stats, model, start)
}

/// The slot of a class the ILP encoders reached from the root.
fn live_slot(egraph: &TensorEGraph, class: Id) -> usize {
    egraph.slot_index(class).expect("reachable class is live")
}

/// The monolithic warm start: 1 on the variable of every e-node the greedy
/// graph was built from (`picked(class, e-node)`), 0 elsewhere.
fn monolithic_warm_start(
    node_vars: &[(Id, TensorLang, VarId)],
    num_vars: usize,
    picked: impl Fn(Id, &TensorLang) -> bool,
) -> Vec<f64> {
    let mut values = vec![0.0; num_vars];
    for (class, node, var) in node_vars {
        if picked(*class, node) {
            values[var.0] = 1.0;
        }
    }
    values
}

/// The `(class, e-node, variable)` of every binary of the monolithic
/// program, in variable order.
type NodeVars = Vec<(Id, TensorLang, VarId)>;

/// Builds the monolithic program for the canonical `root`.
fn encode_monolithic(
    egraph: &TensorEGraph,
    root: Id,
    model: &CostModel,
    config: &IlpConfig,
) -> Result<(Problem, NodeVars), ExtractError> {
    // Collect the classes reachable from the root through unfiltered,
    // finite-cost e-nodes, in BFS order (a good branching order for the
    // solver: decisions near the root come first). All per-class tables
    // below are indexed by the e-graph's dense slot space
    // ([`tensat_egraph::EGraph::slot_index`]) — the same index space the
    // cycle bit sets and the greedy extractors use.
    let slot = |id: Id| live_slot(egraph, id);
    let n_slots = egraph.num_slots();
    let mut order: Vec<Id> = vec![root];
    let mut seen = BitSet::new(n_slots);
    seen.insert(slot(root));
    let mut i = 0;
    while i < order.len() {
        let class = order[i];
        i += 1;
        for node in egraph.eclass(class).iter() {
            if egraph.is_filtered(node) {
                continue;
            }
            for &child in node.children() {
                let child = egraph.find(child);
                if seen.insert(slot(child)) {
                    order.push(child);
                }
            }
        }
    }

    // Candidate e-nodes per class. The objective coefficient is the
    // latency component of the composite cost — the solver minimizes the
    // primary objective; memory and launches ride along in the outcome.
    let mut problem = Problem::new();
    let mut node_vars: NodeVars = vec![];
    let mut class_vars: Vec<Vec<VarId>> = vec![vec![]; n_slots];
    for &class in &order {
        let mut vars = vec![];
        for node in egraph.eclass(class).iter() {
            if egraph.is_filtered(node) {
                continue;
            }
            let cost = model.enode_cost_composite(egraph, node);
            if !cost.is_finite() {
                continue;
            }
            let var = problem.add_binary(cost.latency);
            problem.set_name(var, format!("x_{class}_{}", node.display_op()));
            node_vars.push((class, node.clone(), var));
            vars.push(var);
        }
        class_vars[slot(class)] = vars;
    }

    // Constraint (2): exactly one node picked in the root class.
    let root_vars = class_vars[slot(root)].clone();
    if root_vars.is_empty() {
        return Err(ExtractError::NoFiniteTerm);
    }
    problem.add_constraint(root_vars.iter().map(|&v| (v, 1.0)).collect(), Cmp::Eq, 1.0);

    // Constraint (3): a picked node needs one picked node in each child class.
    for (_, node, var) in &node_vars {
        for &child in node.children() {
            let child_vars = &class_vars[slot(child)];
            if child_vars.is_empty() {
                // The child class has no viable candidates: this node can
                // never be selected.
                problem.add_constraint(vec![(*var, 1.0)], Cmp::Le, 0.0);
                continue;
            }
            let mut terms = vec![(*var, 1.0)];
            terms.extend(child_vars.iter().map(|&v| (v, -1.0)));
            problem.add_constraint(terms, Cmp::Le, 0.0);
        }
    }

    // Constraints (4)–(5): topological-order variables rule out cycles.
    if config.cycle_constraints {
        let m = order.len() as f64;
        let mut topo: Vec<Option<VarId>> = vec![None; n_slots];
        for &class in &order {
            let var = if config.integer_topo_vars {
                problem.add_integer(0, order.len() as i64 - 1, 0.0)
            } else {
                problem.add_continuous(0.0, 1.0, 0.0)
            };
            problem.set_name(var, format!("t_{class}"));
            topo[slot(class)] = Some(var);
        }
        let eps = 1.0 / (m + 1.0);
        for (class, node, var) in &node_vars {
            let t_own = topo[slot(*class)].expect("class is in the BFS order");
            for &child in node.children() {
                let t_child = topo[slot(child)].expect("child is in the BFS order");
                if config.integer_topo_vars {
                    // t_own - t_child + A(1 - x) >= 1, A >= M
                    let a = m;
                    problem.add_constraint(
                        vec![(t_own, 1.0), (t_child, -1.0), (*var, -a)],
                        Cmp::Ge,
                        1.0 - a,
                    );
                } else {
                    // t_own - t_child - eps + A(1 - x) >= 0, A > 1 + eps
                    let a = 2.0;
                    problem.add_constraint(
                        vec![(t_own, 1.0), (t_child, -1.0), (*var, -a)],
                        Cmp::Ge,
                        eps - a,
                    );
                }
            }
        }
    }

    Ok((problem, node_vars))
}

/// The reduced path: build the abstract selection problem, run the
/// reduction pipeline (trim → dominance/forced-closure fixpoint → forcing →
/// decomposition), encode and solve each residual component independently,
/// and stitch the fixed selections with the per-component optima.
///
/// Soundness of the stitch: the fixed classes select their single surviving
/// candidate in *some* optimal solution of the monolithic program (the
/// dominance swap argument shows an optimum avoiding pruned candidates
/// exists; forcing is then literal constraint propagation on it), and the
/// residual constraint matrix is block-diagonal across components with an
/// additive objective — so `optimum = Σ fixed costs + Σ component optima`,
/// which the differential tests check against the monolithic oracle.
fn extract_ilp_reduced(
    egraph: &TensorEGraph,
    root: Id,
    model: &CostModel,
    config: &IlpConfig,
) -> Result<ExtractionOutcome, ExtractError> {
    let start = Instant::now();
    let root = egraph.find(root);

    // The greedy-DAG solution serves double duty: its value is the
    // incumbent upper bound the reduction's cost-bound pruning compares
    // forced-closure lower bounds against, and its selection warm-starts
    // every component's solver.
    let (greedy, picks) = greedy_dag_with_picks(egraph, root, model).ok().unzip();

    let mut rp = reduce::ExtractionProblem::from_egraph(egraph, root, model)?;
    rp.reduce(greedy.as_ref().map(|g| g.dag_cost))?;
    let hint_choice = picks
        .map(|picks| reduced_hint_choice(&rp, |class, node| picked(egraph, &picks, class, node)));

    // Encode and solve each component independently, splitting the wall
    // clock budget first-come (components are tiny after reduction).
    let comps = rp.components();
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
        let mut problem = Problem::new();
        let mut comp_vars: HashMap<usize, Vec<(usize, VarId)>> = HashMap::new();
        for &i in comp {
            let mut vars = vec![];
            for (j, cand) in rp.candidates[i].iter().enumerate() {
                if !rp.alive[i][j] {
                    continue;
                }
                let var = problem.add_binary(cand.cost);
                problem.set_name(
                    var,
                    format!("x_{}_{}", rp.class_ids[i], cand.node.display_op()),
                );
                vars.push((j, var));
            }
            comp_vars.insert(i, vars);
        }
        for &i in comp {
            let vars = &comp_vars[&i];
            if i == 0 {
                // Constraint (2): exactly one node picked in the root class.
                problem.add_constraint(vars.iter().map(|&(_, v)| (v, 1.0)).collect(), Cmp::Eq, 1.0);
            } else if rp.required[i] {
                // Implied by a fixed parent's constraint (3); stating it
                // lets the solver's cover-group bound see the class.
                problem.add_constraint(vars.iter().map(|&(_, v)| (v, 1.0)).collect(), Cmp::Ge, 1.0);
            }
            // Constraint (3): a picked node needs one picked node in each
            // non-fixed child class (fixed children are always selected).
            for &(j, var) in vars {
                for &c in &rp.candidates[i][j].children {
                    if rp.fixed[c].is_some() {
                        continue;
                    }
                    let mut terms = vec![(var, 1.0)];
                    terms.extend(comp_vars[&c].iter().map(|&(_, v)| (v, -1.0)));
                    problem.add_constraint(terms, Cmp::Le, 0.0);
                }
            }
        }
        let hint = hint_choice.as_ref().map(|hint_choice| {
            let mut values = vec![0.0; problem.num_vars()];
            for &i in comp {
                if let Some(h) = hint_choice[i] {
                    if let Some(&(_, v)) = comp_vars[&i].iter().find(|&&(j, _)| j == h) {
                        values[v.0] = 1.0;
                    }
                }
            }
            values
        });
        let solver = Solver::with_time_limit(config.time_limit.saturating_sub(start.elapsed()));
        let solution = match &hint {
            Some(h) => solver.solve_with_hint(&problem, h),
            None => solver.solve(&problem),
        };
        stats.num_vars += problem.num_vars();
        stats.num_constraints += problem.num_constraints();
        stats.presolve_fixed += solution.presolve_fixed;
        stats.nodes_explored += solution.nodes_explored;
        stats.solve_time += solution.solve_time;
        if !solution.has_solution() {
            // Out of budget with no incumbent for this component: the
            // greedy graph, if there is one, is the answer.
            stats.status = solution.status;
            return finish_ilp(None, greedy, stats, model, start);
        }
        if solution.status != Status::Optimal {
            stats.status = solution.status;
        }
        for &i in comp {
            for &(j, var) in &comp_vars[&i] {
                if solution.value(var) > 0.5 {
                    choice[i] = Some(j);
                    break;
                }
            }
        }
    }

    // Stitch: fixed selections plus the per-component optima, mapped into
    // the slot space the term builder walks.
    let mut slot_choice: Vec<Option<&TensorLang>> = vec![None; egraph.num_slots()];
    for (i, &ch) in choice.iter().enumerate() {
        if let Some(j) = ch {
            slot_choice[live_slot(egraph, rp.class_ids[i])] = Some(&rp.candidates[i][j].node);
        }
    }
    let solved = read_back(egraph, root, &slot_choice)?;
    finish_ilp(Some(solved), greedy, stats, model, start)
}

/// One candidate per class of the reduced problem to start the component
/// solvers from: the e-node the greedy graph was built from (`picked(class,
/// e-node)`), or — when that was dominance-pruned — the sibling `rep` says
/// dominated it. The dominator's needs are a subset of the pruned pick's,
/// which the greedy solution satisfies, so the repaired hint stays closed.
fn reduced_hint_choice(
    rp: &reduce::ExtractionProblem,
    picked: impl Fn(Id, &TensorLang) -> bool,
) -> Vec<Option<usize>> {
    let mut hint_choice = vec![None; rp.candidates.len()];
    for (i, hint) in hint_choice.iter_mut().enumerate() {
        if !rp.reachable[i] {
            continue;
        }
        let class = rp.class_ids[i];
        if let Some(j) = rp.candidates[i].iter().position(|c| picked(class, &c.node)) {
            let r = rp.resolve_rep(i, j);
            if rp.alive[i][r] {
                *hint = Some(r);
            }
        }
    }
    hint_choice
}

/// The any-time end of both ILP paths: the solver's graph, unless it found
/// none within its budget or the greedy incumbent is cheaper (e.g. the warm
/// start could not be translated into a feasible assignment) — then the
/// greedy graph, so ILP extraction never regresses below greedy.
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
    let solved = solved.map(measured).transpose()?;
    let mut outcome = match (solved, greedy) {
        (Some(s), Some(g)) if g.cost.total_order(&s.cost) == Ordering::Less => g,
        (Some(s), _) => s,
        (None, Some(g)) => g,
        (None, None) => return Err(ExtractError::Infeasible),
    };
    outcome.time = start.elapsed();
    outcome.ilp = Some(stats);
    Ok(outcome)
}

/// Reads a solved selection back: the graph of a per-slot node choice.
fn read_back(
    egraph: &TensorEGraph,
    root: Id,
    choice: &[Option<&TensorLang>],
) -> Result<RecExpr<TensorLang>, ExtractError> {
    match build_term(egraph, root, |slot| choice[slot]) {
        Ok(term) => Ok(term.expr),
        Err(ChoiceError::Missing) => Err(ExtractError::Infeasible),
        Err(ChoiceError::Cyclic) => Err(ExtractError::CyclicSelection),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{explore, ExplorationConfig};
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
        let config = ExplorationConfig {
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
        let monolithic = extract_ilp(
            &eg,
            root,
            &model,
            &IlpConfig {
                reduce: false,
                ..Default::default()
            },
        )
        .unwrap();
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

    /// The decoder both ILP paths ran before greedy-DAG extraction kept its
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

    /// The warm start both ILP paths build from greedy-DAG's picks is,
    /// element for element, the one the old expression decoder gave them —
    /// and the fourteen solves it starts take the branch-and-bound nodes
    /// they took at the commit before the picks (PR 22, `03cf261`).
    #[test]
    fn warm_start_from_picks_equals_the_expression_decoder_on_every_benchmark() {
        // (model, B&B nodes with `reduce: true`, with `reduce: false`)
        const NODES_EXPLORED: [(&str, usize, usize); 7] = [
            ("NasRNN", 97, 18_575),
            ("BERT", 4_331, 59_145),
            ("ResNeXt-50", 37, 247),
            ("NasNet-A", 445, 4_181),
            ("SqueezeNet", 37, 145),
            ("VGG-19", 27, 747),
            ("Inception-v3", 3_122, 17_437),
        ];
        assert!(NODES_EXPLORED
            .iter()
            .map(|&(name, ..)| name)
            .eq(tensat_models::BENCHMARKS.iter().copied()));
        let model = CostModel::default();
        for (name, reduced_nodes, monolithic_nodes) in NODES_EXPLORED {
            // Tiny scale, two iterations, 120 e-nodes: small enough that the
            // monolithic program solves in seconds in a debug build, large
            // enough that every solve branches.
            let graph = tensat_models::build_benchmark(name, tensat_models::ModelScale::tiny());
            let (eg, root) = explored(&graph, 2, 120);
            let root = eg.find(root);
            let (greedy, picks) = greedy_dag_with_picks(&eg, root, &model).unwrap();
            let selected = decode_selected(&eg, root, &greedy.expr);
            assert_eq!(picks.len(), selected.len(), "{name}");

            let from_picks = |class: Id, node: &TensorLang| picked(&eg, &picks, class, node);
            let decoded = |class: Id, node: &TensorLang| {
                selected.contains(&(eg.find(class), eg.canonicalize(node)))
            };

            // `reduce: false`: one value per variable.
            let config = IlpConfig {
                reduce: false,
                ..Default::default()
            };
            let (problem, node_vars) = encode_monolithic(&eg, root, &model, &config).unwrap();
            let hint = monolithic_warm_start(&node_vars, problem.num_vars(), from_picks);
            let oracle = monolithic_warm_start(&node_vars, problem.num_vars(), decoded);
            assert_eq!(hint, oracle, "{name}: monolithic warm start");
            assert_eq!(hint.iter().sum::<f64>(), picks.len() as f64, "{name}");

            // `reduce: true`: one hinted candidate per class, dominance-
            // pruned picks chased to their dominator.
            let mut rp = reduce::ExtractionProblem::from_egraph(&eg, root, &model).unwrap();
            rp.reduce(Some(greedy.dag_cost)).unwrap();
            let hint = reduced_hint_choice(&rp, from_picks);
            assert_eq!(
                hint,
                reduced_hint_choice(&rp, decoded),
                "{name}: reduced hint"
            );
            assert!(hint.iter().any(Option::is_some), "{name}");

            for (reduce, nodes) in [(true, reduced_nodes), (false, monolithic_nodes)] {
                let config = IlpConfig {
                    reduce,
                    ..Default::default()
                };
                let out = extract_ilp(&eg, root, &model, &config).unwrap();
                let stats = out.ilp.unwrap();
                assert_eq!(stats.status, Status::Optimal, "{name} reduce={reduce}");
                assert_eq!(stats.nodes_explored, nodes, "{name} reduce={reduce}");
            }
        }
    }
}
