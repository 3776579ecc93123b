//! The extraction phase (paper §5): pick one e-node per e-class so that the
//! resulting graph minimizes the cost model.
//!
//! Three extraction strategies are provided behind one seam
//! ([`ExtractionStrategy`]), all reporting the composite
//! [`Cost`] and both honest costs of their result
//! (see [`ExtractionOutcome`]):
//!
//! * [`TreeGreedy`] — per e-class minimum *subtree* cost (paper §5.1).
//!   Fast, but it charges shared subgraphs once per use, so it never
//!   chooses the `split` form of a merged operator (Table 4).
//! * [`GreedyDag`] — the worklist-driven global greedy DAG extractor
//!   ([`tensat_egraph::DagExtractor`]) which charges each e-node once
//!   regardless of sharing. To make `dag_cost(GreedyDag) ≤
//!   dag_cost(TreeGreedy)` unconditional, the strategy also runs
//!   tree-greedy and returns whichever result has the lower DAG cost.
//! * [`IlpExtraction`] — the integer-linear-program encoding of
//!   constraints (1)–(5), with the cycle constraints (4)–(5) optional,
//!   solved by `tensat-ilp` and warm-started from the greedy-DAG solution
//!   (which dominates the tree-greedy warm start it replaced).
//!
//! Extraction minimizes the *lexicographic* composite order (latency, then
//! peak memory, then launches — see [`Cost`]); the scalar
//! `dag_cost`/`tree_cost` fields report plain latency for paper-style
//! comparisons.

mod reduce;

use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};
use tensat_egraph::{
    BitSet, CostFunction, DagCostFunction, DagExtractor, Extractor, Id, Language, RecExpr,
};
use tensat_ilp::{Cmp, Problem, Solver, Status, VarId};
use tensat_ir::{Cost, CostModel, TensorData, TensorEGraph, TensorLang};

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
    /// Builds an outcome for `expr`, measuring both honest costs under the
    /// model.
    fn measure(expr: RecExpr<TensorLang>, model: &CostModel, time: Duration) -> Self {
        let cost = model.graph_cost_composite(&expr);
        let tree_cost = model.tree_cost(&expr);
        ExtractionOutcome {
            dag_cost: cost.latency,
            tree_cost,
            cost,
            expr,
            time,
            ilp: None,
        }
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
    Ok(ExtractionOutcome::measure(expr, model, start.elapsed()))
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
pub fn extract_greedy_dag(
    egraph: &TensorEGraph,
    root: Id,
    model: &CostModel,
) -> Result<ExtractionOutcome, ExtractError> {
    let start = Instant::now();
    // The DAG extractor is a temporary, dropped at the end of its statement:
    // the two passes' tables are never live together.
    let dag = DagExtractor::new(egraph, DagCost::new(model.clone(), egraph)).find_best(root);
    let tree = Extractor::new(egraph, TreeCost::new(model.clone(), egraph)).find_best(root);
    let best = match (dag, tree) {
        (Some((_, d)), Some((_, t))) => {
            // Compare by honest composite DAG cost of the built graphs, not
            // the extractors' internal objectives (which disagree on what a
            // "cost" is).
            if model
                .graph_cost_composite(&d)
                .total_order(&model.graph_cost_composite(&t))
                != Ordering::Greater
            {
                d
            } else {
                t
            }
        }
        (Some((_, d)), None) => d,
        (None, Some((_, t))) => t,
        (None, None) => return Err(ExtractError::NoFiniteTerm),
    };
    Ok(ExtractionOutcome::measure(best, model, start.elapsed()))
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

    // Collect the classes reachable from the root through unfiltered,
    // finite-cost e-nodes, in BFS order (a good branching order for the
    // solver: decisions near the root come first). All per-class tables
    // below are indexed by the e-graph's dense slot space
    // ([`tensat_egraph::EGraph::slot_index`]) — the same index space the
    // cycle bit sets and the greedy extractors use.
    let slot = |id: Id| egraph.slot_index(id).expect("reachable class is live");
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
    let mut node_vars: Vec<(Id, TensorLang, VarId)> = vec![];
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

    // Warm start from the greedy-DAG solution: its DAG cost lower-bounds
    // the tree-greedy incumbent the solver used to receive, so the solver
    // starts from a no-worse incumbent.
    let greedy = extract_greedy_dag(egraph, root, model).ok();
    let hint = greedy.as_ref().map(|greedy| {
        let mut values = vec![0.0; problem.num_vars()];
        // Map the greedy expression's nodes back to (class, canonical node)
        // pairs: children in the expression are expression-local ids, so
        // translate them to e-class ids bottom-up first.
        let mut selected: std::collections::HashSet<(Id, TensorLang)> = Default::default();
        let mut expr_to_class: Vec<Id> = Vec::with_capacity(greedy.expr.len());
        for (_, node) in greedy.expr.iter() {
            let mapped = node.map_children(|c| expr_to_class[usize::from(c)]);
            match egraph.lookup(&mapped) {
                Some(class) => {
                    let class = egraph.find(class);
                    selected.insert((class, egraph.canonicalize(&mapped)));
                    expr_to_class.push(class);
                }
                None => expr_to_class.push(egraph.find(root)),
            }
        }
        for (class, node, var) in &node_vars {
            if selected.contains(&(egraph.find(*class), egraph.canonicalize(node))) {
                values[var.0] = 1.0;
            }
        }
        values
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
    let mut choice: Vec<Option<TensorLang>> = vec![None; n_slots];
    for (class, node, var) in &node_vars {
        let s = slot(*class);
        if solution.value(*var) > 0.5 && choice[s].is_none() {
            choice[s] = Some(node.clone());
        }
    }
    let expr = build_selection(egraph, root, &choice)?;
    let mut outcome = ExtractionOutcome::measure(expr, model, start.elapsed());
    // The solver is an any-time procedure: if it hit its budget before
    // re-discovering the greedy incumbent (e.g. the warm start could not be
    // translated into a feasible assignment), keep whichever graph is
    // cheaper so ILP extraction never regresses below greedy.
    if let Some(greedy) = greedy {
        if greedy.cost.total_order(&outcome.cost) == Ordering::Less {
            outcome.expr = greedy.expr;
            outcome.cost = greedy.cost;
            outcome.dag_cost = greedy.dag_cost;
            outcome.tree_cost = greedy.tree_cost;
        }
    }
    outcome.ilp = Some(stats);
    Ok(outcome)
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
    let greedy = extract_greedy_dag(egraph, root, model).ok();

    let mut rp = reduce::ExtractionProblem::from_egraph(egraph, root, model)?;
    rp.reduce(greedy.as_ref().map(|g| g.dag_cost))?;
    let n = rp.candidates.len();

    // Map the greedy expression back to one candidate per class (the same
    // canonical-node lookup as the monolithic path); when the greedy pick
    // was dominance-pruned, chase `rep` to the sibling that dominated it —
    // the dominator's needs are a subset of the pruned pick's, which the
    // greedy solution satisfies, so the repaired hint stays closed.
    let mut hint_choice: Vec<Option<usize>> = vec![None; n];
    if let Some(greedy) = &greedy {
        let mut selected: HashSet<(Id, TensorLang)> = Default::default();
        let mut expr_to_class: Vec<Id> = Vec::with_capacity(greedy.expr.len());
        for (_, node) in greedy.expr.iter() {
            let mapped = node.map_children(|c| expr_to_class[usize::from(c)]);
            match egraph.lookup(&mapped) {
                Some(class) => {
                    let class = egraph.find(class);
                    selected.insert((class, egraph.canonicalize(&mapped)));
                    expr_to_class.push(class);
                }
                None => expr_to_class.push(root),
            }
        }
        for (i, hint) in hint_choice.iter_mut().enumerate() {
            if !rp.reachable[i] {
                continue;
            }
            for j in 0..rp.candidates[i].len() {
                let node = &rp.candidates[i][j].node;
                if selected.contains(&(rp.class_ids[i], egraph.canonicalize(node))) {
                    let r = rp.resolve_rep(i, j);
                    if rp.alive[i][r] {
                        *hint = Some(r);
                    }
                    break;
                }
            }
        }
    }

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
        let hint = greedy.as_ref().map(|_| {
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
            // Out of budget with no incumbent for this component: fall back
            // to the greedy graph (the monolithic path's any-time contract)
            // if there is one.
            stats.status = solution.status;
            let Some(greedy) = greedy else {
                return Err(ExtractError::Infeasible);
            };
            let mut outcome = ExtractionOutcome::measure(greedy.expr, model, start.elapsed());
            outcome.ilp = Some(stats);
            return Ok(outcome);
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
    // the slot space `build_selection` walks.
    let mut slot_choice: Vec<Option<TensorLang>> = vec![None; egraph.num_slots()];
    for (i, &ch) in choice.iter().enumerate() {
        if let Some(j) = ch {
            let s = egraph
                .slot_index(rp.class_ids[i])
                .expect("reachable class is live");
            slot_choice[s] = Some(rp.candidates[i][j].node.clone());
        }
    }
    let expr = build_selection(egraph, root, &slot_choice)?;
    let mut outcome = ExtractionOutcome::measure(expr, model, start.elapsed());
    if let Some(greedy) = greedy {
        if greedy.cost.total_order(&outcome.cost) == Ordering::Less {
            outcome.expr = greedy.expr;
            outcome.cost = greedy.cost;
            outcome.dag_cost = greedy.dag_cost;
            outcome.tree_cost = greedy.tree_cost;
        }
    }
    outcome.ilp = Some(stats);
    Ok(outcome)
}

/// Builds the extracted expression from a per-slot node choice, detecting
/// cyclic selections. Iterative (one explicit frame per class on a heap
/// stack), so arbitrarily deep selections cannot overflow the thread stack.
fn build_selection(
    egraph: &TensorEGraph,
    root: Id,
    choice: &[Option<TensorLang>],
) -> Result<RecExpr<TensorLang>, ExtractError> {
    struct Frame {
        slot: usize,
        node: TensorLang,
        next_child: usize,
        children: Vec<Id>,
    }
    let frame = |slot: usize, node: TensorLang| Frame {
        slot,
        node,
        next_child: 0,
        children: vec![],
    };
    let pick = |slot: usize| -> Result<TensorLang, ExtractError> {
        choice
            .get(slot)
            .and_then(|c| c.clone())
            .ok_or(ExtractError::Infeasible)
    };

    let mut expr = RecExpr::default();
    let mut done: Vec<Option<Id>> = vec![None; egraph.num_slots()];
    let mut on_stack = BitSet::new(egraph.num_slots());
    let root_slot = egraph.slot_index(root).ok_or(ExtractError::Infeasible)?;
    on_stack.insert(root_slot);
    let mut stack = vec![frame(root_slot, pick(root_slot)?)];
    loop {
        let top = stack.last_mut().expect("loop returns before emptying");
        if let Some(&child) = top.node.children().get(top.next_child) {
            top.next_child += 1;
            let slot = egraph
                .slot_index(egraph.find(child))
                .ok_or(ExtractError::Infeasible)?;
            if let Some(id) = done[slot] {
                top.children.push(id);
            } else {
                if !on_stack.insert(slot) {
                    return Err(ExtractError::CyclicSelection);
                }
                stack.push(frame(slot, pick(slot)?));
            }
            continue;
        }
        let finished = stack.pop().expect("a frame is always on the stack");
        let mut i = 0;
        let node = finished.node.map_children(|_| {
            let id = finished.children[i];
            i += 1;
            id
        });
        let id = expr.add(node);
        done[finished.slot] = Some(id);
        match stack.last_mut() {
            Some(parent) => parent.children.push(id),
            None => return Ok(expr),
        }
    }
}

/// The single extraction seam: every strategy maps `(e-graph, root, cost
/// model)` to an [`ExtractionOutcome`] with honest tree/DAG costs, so the
/// optimizer, the benches, and future strategies (e.g. the MCTS scorer)
/// all call extraction the same way.
pub trait ExtractionStrategy: std::fmt::Debug {
    /// Short stable name used in reports.
    fn name(&self) -> &'static str;

    /// Extracts the best graph for `root` under this strategy.
    fn extract(
        &self,
        egraph: &TensorEGraph,
        root: Id,
        model: &CostModel,
    ) -> Result<ExtractionOutcome, ExtractError>;
}

/// The tree-greedy strategy ([`extract_greedy`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct TreeGreedy;

impl ExtractionStrategy for TreeGreedy {
    fn name(&self) -> &'static str {
        "tree-greedy"
    }
    fn extract(
        &self,
        egraph: &TensorEGraph,
        root: Id,
        model: &CostModel,
    ) -> Result<ExtractionOutcome, ExtractError> {
        extract_greedy(egraph, root, model)
    }
}

/// The global greedy DAG strategy ([`extract_greedy_dag`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedyDag;

impl ExtractionStrategy for GreedyDag {
    fn name(&self) -> &'static str {
        "greedy-dag"
    }
    fn extract(
        &self,
        egraph: &TensorEGraph,
        root: Id,
        model: &CostModel,
    ) -> Result<ExtractionOutcome, ExtractError> {
        extract_greedy_dag(egraph, root, model)
    }
}

/// The ILP strategy ([`extract_ilp`]) with its configuration.
#[derive(Debug, Clone, Default)]
pub struct IlpExtraction {
    /// The solver configuration.
    pub config: IlpConfig,
}

impl ExtractionStrategy for IlpExtraction {
    fn name(&self) -> &'static str {
        "ilp"
    }
    fn extract(
        &self,
        egraph: &TensorEGraph,
        root: Id,
        model: &CostModel,
    ) -> Result<ExtractionOutcome, ExtractError> {
        extract_ilp(egraph, root, model, &self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{explore, ExplorationConfig};
    use tensat_ir::{GraphBuilder, TensorAnalysis};
    use tensat_rules::{multi_rules, single_rules};

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
        let model = CostModel::default();
        let original = model.graph_cost(&expr);
        let mut eg = TensorEGraph::new(TensorAnalysis);
        let root = eg.add_expr(&expr);
        eg.rebuild();
        explore(
            &mut eg,
            root,
            &single_rules(),
            &multi_rules(),
            &ExplorationConfig {
                k_multi: 1,
                max_iter: 4,
                node_limit: 10_000,
                ..Default::default()
            },
        );
        (eg, root, original)
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
    fn greedy_dag_never_worse_than_tree_greedy() {
        let (eg, root, _) = explored_two_matmuls();
        let model = CostModel::default();
        let tree = extract_greedy(&eg, root, &model).unwrap();
        let dag = extract_greedy_dag(&eg, root, &model).unwrap();
        assert!(
            dag.dag_cost <= tree.dag_cost + 1e-9,
            "greedy-DAG ({}) must not lose to tree-greedy ({}) on DAG cost",
            dag.dag_cost,
            tree.dag_cost
        );
        let data = tensat_ir::infer_recexpr(&dag.expr);
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
    fn strategies_share_one_seam() {
        let (eg, root, _) = explored_two_matmuls();
        let model = CostModel::default();
        let strategies: Vec<Box<dyn ExtractionStrategy>> = vec![
            Box::new(TreeGreedy),
            Box::new(GreedyDag),
            Box::new(IlpExtraction::default()),
        ];
        let names: Vec<_> = strategies.iter().map(|s| s.name()).collect();
        assert_eq!(names, ["tree-greedy", "greedy-dag", "ilp"]);
        let outcomes: Vec<_> = strategies
            .iter()
            .map(|s| s.extract(&eg, root, &model).unwrap())
            .collect();
        // DAG-cost dominance chain: ILP ≤ greedy-DAG ≤ tree-greedy.
        assert!(outcomes[2].dag_cost <= outcomes[1].dag_cost + 1e-9);
        assert!(outcomes[1].dag_cost <= outcomes[0].dag_cost + 1e-9);
        // Only the ILP outcome carries solver stats.
        assert!(outcomes[0].ilp.is_none());
        assert!(outcomes[1].ilp.is_none());
        assert!(outcomes[2].ilp.is_some());
    }
}
