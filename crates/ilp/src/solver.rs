//! A deterministic branch-and-bound solver for mixed 0/1 linear programs.
//!
//! The solver is exact given enough time: it enumerates the integral
//! variables depth-first with constraint propagation (activity-based bound
//! tightening) at every node and prunes with a partial-assignment lower
//! bound and the best incumbent found so far. Before branching, a *presolve*
//! propagation fixpoint on the root bounds fixes every variable implied by
//! the constraints alone ([`Solution::presolve_fixed`] counts them), and
//! variable-disjoint `sum >= 1` covering constraints are collected into
//! groups that strengthen the lower bound by each group's cheapest available
//! member — on extraction encodings this usually certifies a greedy-seeded
//! incumbent optimal within a handful of nodes. A warm-start hint can seed
//! the incumbent (TENSAT seeds it with the greedy extraction), and wall
//! clock / node limits turn the solver into an any-time procedure — the
//! role SCIP plays in the original system.
//!
//! A node costs what it changes, not what the problem holds:
//! - Propagation is a worklist of rows over a column index (variable →
//!   rows, two flat arrays). The presolve seeds every row, a child node
//!   seeds only the rows of the variable it fixed, and a row that moves a
//!   bound queues that variable's rows. The bound operators are monotone on
//!   a finite lattice, so on binary and integer problems this reaches the
//!   fixpoint a sweep over every row reaches, and finds a conflict iff the
//!   sweep does.
//! - A quiet row costs one pass over its terms. The pass that sums the
//!   row's activity bounds also takes its widest term, `|coef| · (hi −
//!   lo)`; a row whose slack covers that width on every side it constrains
//!   can move no bound and skips the per-term tightening loop. On
//!   extraction encodings that is most rows a node visits
//!   ([`PropagationStats`] counts the visits and the rows that reach the
//!   loop).
//! - The search keeps one pair of bound vectors and a trail of
//!   `(var, old_lo, old_hi)`, written at every bound change. A stack entry
//!   is a trail mark plus the fix to apply: popping it undoes the trail to
//!   the mark (the parent's bounds, exactly) and applies the fix. Nothing
//!   is cloned per child.
//! - The cheap completion (every variable at its objective-cheaper bound)
//!   and the set of rows it violates are kept up to date: a bound change
//!   that moves a completion value marks that variable's rows, and a marked
//!   row is re-evaluated from its terms, in order, before the leaf test.
//! - The lower bound is kept, not re-summed: per cover group a count of
//!   triggers at 1, a count of members at 1 and its cheapest available
//!   member (re-scanned only when a member's upper bound crosses 1), plus
//!   one running sum of objective terms and group charges that each bound
//!   change moves. Undo restores the counts exactly and a stack entry
//!   restores the sum taken at its mark, so rounding drift stays on one
//!   root-to-node path. Only when the sum lies within the path's
//!   worst-case rounding of the incumbent does a node sum the bound afresh,
//!   in the original order, so every prune decision is the one the fresh
//!   sum makes.
//!
//! Continuous variables (the topological-order variables of the cycle
//! constraints, paper §5.1) are handled by bound propagation: once all
//! integral variables are fixed, every continuous variable is set to its
//! propagated lower bound, which is feasible for difference-style
//! constraint systems and optimal when (as in the extraction encoding) the
//! continuous variables do not appear in the objective.

use crate::problem::{Cmp, Constraint, Problem, VarId, VarKind};
use std::collections::VecDeque;
use std::ops::AddAssign;
use std::time::{Duration, Instant};

/// Outcome of a solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// The returned solution is provably optimal.
    Optimal,
    /// A feasible solution was found but the search hit a limit before
    /// proving optimality.
    Feasible,
    /// The problem has no feasible solution.
    Infeasible,
    /// No feasible solution was found before a limit was hit.
    Unknown,
}

/// The result of solving a [`Problem`].
#[derive(Debug, Clone)]
pub struct Solution {
    /// Solve status.
    pub status: Status,
    /// Variable values (empty when no feasible solution was found).
    pub values: Vec<f64>,
    /// Objective value of `values` (infinite when none).
    pub objective: f64,
    /// Number of branch-and-bound nodes explored.
    pub nodes_explored: usize,
    /// Number of integral variables the root presolve fixed before any
    /// branching (bounds collapsed by constraint propagation alone).
    pub presolve_fixed: usize,
    /// What propagation did, the presolve included.
    pub propagation: PropagationStats,
    /// The budget that ended the search: `Some` exactly when the status is
    /// `Feasible` or `Unknown`.
    pub limit: Option<Limit>,
    /// Wall-clock time spent.
    pub solve_time: Duration,
}

/// The budget that ended a search before it finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Limit {
    /// The wall-clock limit, [`Solver::time_limit`].
    Time,
    /// The branch-and-bound node cap, [`Solver::node_limit`].
    Nodes,
}

/// Propagation counters of a solve: where a node's time goes. Counting
/// allocates nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PropagationStats {
    /// Rows taken off the worklist.
    pub rows_visited: usize,
    /// Rows that reached the per-term tightening loop: the visited rows
    /// minus those that proved infeasible from their activity alone and
    /// those whose slack showed they could move no bound.
    pub rows_looped: usize,
    /// Bound changes: propagation's, plus the branching fix of every node
    /// below the root.
    pub bound_changes: usize,
    /// Propagations that `max_propagation_passes` cut short with rows
    /// still queued.
    pub capped: usize,
}

impl AddAssign for PropagationStats {
    fn add_assign(&mut self, other: Self) {
        self.rows_visited += other.rows_visited;
        self.rows_looped += other.rows_looped;
        self.bound_changes += other.bound_changes;
        self.capped += other.capped;
    }
}

impl Solution {
    /// The value of a variable in the best solution found.
    ///
    /// # Panics
    ///
    /// Panics if no feasible solution was found.
    pub fn value(&self, var: VarId) -> f64 {
        assert!(
            !self.values.is_empty(),
            "no feasible solution was found (status {:?})",
            self.status
        );
        self.values[var.0]
    }

    /// True if a feasible assignment is available.
    pub fn has_solution(&self) -> bool {
        !self.values.is_empty()
    }
}

/// Branch-and-bound solver configuration.
#[derive(Debug, Clone)]
pub struct Solver {
    /// Wall-clock limit for the search.
    pub time_limit: Duration,
    /// Maximum number of branch-and-bound nodes: 2 000 000 by default, and
    /// under [`Solver::with_time_limit`]. Reaching it ends the search like
    /// the time limit does (`Feasible` or `Unknown`), and
    /// [`Solution::limit`] tells the two apart.
    pub node_limit: usize,
    /// Numerical tolerance.
    pub(crate) tolerance: f64,
    /// Propagation work cap per node, in sweeps: one propagation visits at
    /// most `max_propagation_passes × rows` rows off its worklist, then
    /// stops with the (still valid) bounds it has tightened so far.
    pub(crate) max_propagation_passes: usize,
}

impl Default for Solver {
    fn default() -> Self {
        Solver {
            time_limit: Duration::from_secs(60),
            node_limit: 2_000_000,
            tolerance: 1e-6,
            max_propagation_passes: 20,
        }
    }
}

struct Search<'a> {
    problem: &'a Problem,
    cfg: &'a Solver,
    start: Instant,
    nodes: usize,
    best_values: Option<Vec<f64>>,
    best_objective: f64,
    hint: Option<&'a [f64]>,
    /// The budget that ended the search, once one has.
    limit: Option<Limit>,
    propagation: PropagationStats,
    /// The conditional-cover lower bound, kept up to date per bound change.
    cover: Cover,
    /// Bound changes the presolve made. Its trail entries are dropped, but
    /// the running bound sum went through them, so they count towards the
    /// rounding band of [`Cover::band`].
    settled: usize,
    /// The bounds of the node being expanded.
    lo: Vec<f64>,
    hi: Vec<f64>,
    /// `(var, old_lo, old_hi)` for every bound change since the presolve,
    /// oldest first. Undoing it to a mark restores the bounds as they were
    /// when the mark was taken.
    trail: Vec<(u32, f64, f64)>,
    /// Column index: the rows of variable `v` are
    /// `col_rows[col_start[v]..col_start[v + 1]]`.
    col_start: Vec<u32>,
    col_rows: Vec<u32>,
    /// Rows waiting to be propagated, and an in-queue bit per row.
    queue: VecDeque<u32>,
    queued: Vec<bool>,
    completion: Completion,
}

/// The cheap completion of the current bounds, kept up to date per bound
/// change: every variable sits at whichever bound minimizes its objective
/// term. Its objective equals the bounds-only part of the node's lower
/// bound, so if it is feasible it is optimal for the whole subtree.
struct Completion {
    values: Vec<f64>,
    /// Rows whose terms changed value since they were last evaluated, with
    /// a bit per row so each is listed once.
    stale: Vec<u32>,
    is_stale: Vec<bool>,
    /// Bit set of the rows `values` violates at the solver tolerance (the
    /// rows branching picks from).
    violated: Vec<u64>,
    /// Per row, whether `values` violates it at the leaf test's looser
    /// tolerance, and how many rows do.
    leaf_violated: Vec<bool>,
    leaf_violations: usize,
}

/// A pending child: undo the trail to `mark`, restore the running bound
/// sum taken there, then set `var`'s bounds.
struct Fix {
    mark: u32,
    var: u32,
    lo: f64,
    hi: f64,
    sum: f64,
}

/// No cover group: the entry of [`Cover::group_of`] for a variable that is
/// no group's member.
const NO_GROUP: u32 = u32::MAX;

/// The conditional-cover lower bound, kept up to date per bound change.
///
/// The groups are pairwise member-disjoint covering groups of binary
/// variables with nonnegative objective coefficients. A group is *always*
/// active when a `sum == 1` / `sum >= 1` unit-coefficient row covers it,
/// and *conditionally* active when an implication row `x_t - sum <= 0`
/// covers it and the trigger `x_t` is fixed to 1. Every active unsatisfied
/// group independently forces at least its cheapest available member into
/// any completion — a valid additive strengthening of the bounds-only
/// objective lower bound, because the member sets share no variables.
/// Extraction encodings are made of exactly such rows (one group per
/// e-class, triggered by the parent candidates that need the class), which
/// is what lets the solver prove a greedy-seeded incumbent optimal without
/// enumerating the selection lattice: committing to a candidate
/// immediately charges every class it pulls in at that class's cheapest
/// rate.
///
/// The groups are flat `u32` arrays, and per group three numbers say what
/// it charges: how many of its triggers are at 1, how many of its members
/// are, and its cheapest available member. All three are exact functions
/// of the bounds, so undoing a bound change restores them to the bit.
struct Cover {
    /// Group `g`'s members are `members[start[g]..start[g + 1]]`, ascending.
    start: Vec<u32>,
    members: Vec<u32>,
    /// The groups variable `v` triggers (one entry per implication row) are
    /// `triggered[trig_start[v]..trig_start[v + 1]]`.
    trig_start: Vec<u32>,
    triggered: Vec<u32>,
    /// The group variable `v` is a member of, or [`NO_GROUP`].
    group_of: Vec<u32>,
    /// Per group: its triggers at 1, plus one when it is always active. The
    /// group is active while this is nonzero.
    on: Vec<u32>,
    /// Per group: its members at 1. The group is satisfied while this is
    /// nonzero.
    taken: Vec<u32>,
    /// Per group: the cheapest objective coefficient among its members
    /// whose upper bound is still 1 (`+inf` when none is).
    cheapest: Vec<f64>,
    /// Active unsatisfied groups with no member left: while there is one,
    /// the bound is `+inf`.
    dead: usize,
    /// The bound's objective terms plus the charges of the active
    /// unsatisfied groups that are not dead, summed incrementally.
    sum: f64,
    /// Largest magnitude any partial sum of the bound can take (see
    /// [`Cover::band`]).
    span: f64,
    /// Most groups one variable triggers.
    max_triggered: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PropResult {
    Ok,
    Infeasible,
}

impl Solver {
    /// Creates a solver with the given time limit.
    pub fn with_time_limit(time_limit: Duration) -> Self {
        Solver {
            time_limit,
            ..Default::default()
        }
    }

    /// Solves a problem to minimality (or best effort within limits).
    pub fn solve(&self, problem: &Problem) -> Solution {
        self.solve_inner(problem, None)
    }

    /// Solves with a warm-start hint: a (hopefully feasible) assignment used
    /// to seed the incumbent and guide branching.
    pub fn solve_with_hint(&self, problem: &Problem, hint: &[f64]) -> Solution {
        self.solve_inner(problem, Some(hint))
    }

    fn solve_inner(&self, problem: &Problem, hint: Option<&[f64]>) -> Solution {
        let start = Instant::now();
        let mut search = Search::new(problem, self, hint);
        // Seed the incumbent with the hint if it is feasible.
        if let Some(h) = hint {
            if problem.is_feasible(h, self.tolerance) {
                search.best_values = Some(h.to_vec());
                search.best_objective = problem.objective_value(h);
            }
        }

        // Presolve: one propagation fixpoint on the root bounds, seeded with
        // every row. Variables whose domains collapse here are implied by
        // the constraints alone and never branched on; the tightened bounds
        // seed the whole search, and no node ever undoes them.
        let free_before = search.free_integral();
        search.queue_all_rows();
        let root_state = search.propagate();
        let presolve_fixed = free_before.saturating_sub(search.free_integral());
        if root_state == PropResult::Infeasible {
            // Propagation is exact (it only removes provably impossible
            // values), so a root conflict proves infeasibility outright —
            // a feasible hint cannot exist in this case.
            return Solution {
                status: Status::Infeasible,
                values: vec![],
                objective: f64::INFINITY,
                nodes_explored: 0,
                presolve_fixed,
                propagation: search.propagation,
                limit: None,
                solve_time: start.elapsed(),
            };
        }
        search.settled = search.trail.len();
        search.trail.clear();
        search.branch();

        let solve_time = start.elapsed();
        let (status, values, objective) = match (search.best_values, search.limit.is_some()) {
            (Some(v), false) => (Status::Optimal, v, search.best_objective),
            (Some(v), true) => (Status::Feasible, v, search.best_objective),
            (None, false) => (Status::Infeasible, vec![], f64::INFINITY),
            (None, true) => (Status::Unknown, vec![], f64::INFINITY),
        };
        Solution {
            status,
            values,
            objective,
            nodes_explored: search.nodes,
            presolve_fixed,
            propagation: search.propagation,
            limit: search.limit,
            solve_time,
        }
    }
}

/// Whether `x` is at 1: the test the bound applies to a trigger's or a
/// member's lower bound and to a member's upper bound.
fn at_one(x: f64, tol: f64) -> bool {
    x >= 1.0 - tol
}

/// The bounds-only part of the lower bound: every variable at its
/// objective-cheapest bound, summed in variable order.
fn objective_floor(obj: &[f64], lo: &[f64], hi: &[f64]) -> f64 {
    obj.iter()
        .enumerate()
        .map(|(i, &c)| if c >= 0.0 { c * lo[i] } else { c * hi[i] })
        .sum()
}

impl Cover {
    /// Collects pairwise member-disjoint covering groups from two row
    /// shapes: `sum(x_v) >= 1` / `== 1` (always-active) and
    /// `x_t - sum(x_v) <= 0` (active when the trigger `x_t` is 1), both over
    /// unit coefficients and binary members with nonnegative objective
    /// coefficients. Rows with the same member set merge (an always row
    /// marks the group always active; each implication row adds its
    /// trigger). Scanned in constraint order, greedily skipping any row
    /// whose member set partially overlaps an earlier group, so the
    /// collection is deterministic. Then seeds the counts and the running
    /// sum from the bounds `lo`/`hi`.
    fn new(problem: &Problem, lo: &[f64], hi: &[f64], tol: f64) -> Self {
        let n = problem.num_vars();
        let obj = problem.objective();
        let member_ok = |v: VarId| problem.kinds()[v.0] == VarKind::Binary && obj[v.0] >= 0.0;
        let mut cover = Cover {
            start: vec![0],
            members: vec![],
            trig_start: vec![0; n + 1],
            triggered: vec![],
            group_of: vec![NO_GROUP; n],
            on: vec![],
            taken: vec![],
            cheapest: vec![],
            dead: 0,
            sum: 0.0,
            span: 0.0,
            max_triggered: 0,
        };
        // (trigger, group) per usable implication row, in row order.
        let mut pairs: Vec<(u32, u32)> = vec![];
        let mut row: Vec<u32> = vec![];
        for c in problem.constraints() {
            row.clear();
            if matches!(c.cmp, Cmp::Ge | Cmp::Eq)
                && (c.rhs - 1.0).abs() <= tol
                && !c.terms.is_empty()
                && c.terms
                    .iter()
                    .all(|&(v, coef)| (coef - 1.0).abs() <= tol && member_ok(v))
            {
                row.extend(c.terms.iter().map(|&(v, _)| v.0 as u32));
                row.sort_unstable();
                if let Some(g) = cover.slot_for(&row) {
                    cover.on[g as usize] = 1;
                }
            } else if c.cmp == Cmp::Le && c.rhs.abs() <= tol {
                let mut trigger = None;
                let mut usable = true;
                for &(v, coef) in &c.terms {
                    if (coef - 1.0).abs() <= tol {
                        usable &= trigger.is_none() && problem.kinds()[v.0] == VarKind::Binary;
                        trigger = Some(v.0 as u32);
                    } else if (coef + 1.0).abs() <= tol {
                        usable &= member_ok(v);
                        row.push(v.0 as u32);
                    } else {
                        usable = false;
                    }
                }
                let Some(trigger) = trigger else { continue };
                if !usable || row.is_empty() {
                    continue;
                }
                row.sort_unstable();
                if let Some(g) = cover.slot_for(&row) {
                    pairs.push((trigger, g));
                }
            }
        }
        // Variable -> triggered groups, compressed like the column index,
        // each variable's groups in row order. A trigger at 1 turns its
        // group on.
        for &(t, g) in &pairs {
            cover.trig_start[t as usize + 1] += 1;
            if at_one(lo[t as usize], tol) {
                cover.on[g as usize] += 1;
            }
        }
        for v in 0..n {
            let count = cover.trig_start[v + 1];
            cover.max_triggered = cover.max_triggered.max(count);
            cover.trig_start[v + 1] += cover.trig_start[v];
        }
        let mut next = cover.trig_start.clone();
        cover.triggered = vec![0; pairs.len()];
        for &(t, g) in &pairs {
            cover.triggered[next[t as usize] as usize] = g;
            next[t as usize] += 1;
        }
        drop(pairs);

        // Seed the other counts and the running sum from the bounds.
        let groups = cover.on.len();
        cover.taken = vec![0; groups];
        cover.cheapest = vec![f64::INFINITY; groups];
        cover.sum = objective_floor(obj, lo, hi);
        cover.span = (0..n)
            .map(|v| (obj[v] * lo[v]).abs().max((obj[v] * hi[v]).abs()))
            .sum();
        for g in 0..groups {
            let members = cover.members(g);
            let taken = members
                .iter()
                .filter(|&&m| at_one(lo[m as usize], tol))
                .count();
            let dearest = members.iter().map(|&m| obj[m as usize]).fold(0.0, f64::max);
            cover.taken[g] = taken as u32;
            cover.span += dearest;
            cover.rescan(g, obj, hi, tol);
            let charge = cover.charge(g);
            if charge.is_infinite() {
                cover.dead += 1;
            } else if charge != 0.0 {
                cover.sum += charge;
            }
        }
        cover
    }

    /// Group `g`'s members, ascending.
    fn members(&self, g: usize) -> &[u32] {
        &self.members[self.start[g] as usize..self.start[g + 1] as usize]
    }

    /// Resolves a sorted member set to a group: an existing group with
    /// exactly this set, a fresh one when no member is taken, or `None` on
    /// a partial overlap.
    fn slot_for(&mut self, row: &[u32]) -> Option<u32> {
        let first = self.group_of[row[0] as usize];
        if first != NO_GROUP {
            let g = first as usize;
            let same = (self.start[g + 1] - self.start[g]) as usize == row.len()
                && row.iter().all(|&m| self.group_of[m as usize] == first);
            return same.then_some(first);
        }
        if row.iter().any(|&m| self.group_of[m as usize] != NO_GROUP) {
            return None;
        }
        let g = self.on.len() as u32;
        for &m in row {
            self.group_of[m as usize] = g;
        }
        self.members.extend_from_slice(row);
        self.start.push(self.members.len() as u32);
        self.on.push(0);
        Some(g)
    }

    /// What group `g` adds to the bound: 0 when it is inactive or
    /// satisfied, else its cheapest available member (`+inf` when dead).
    fn charge(&self, g: usize) -> f64 {
        if self.on[g] == 0 || self.taken[g] > 0 {
            0.0
        } else {
            self.cheapest[g]
        }
    }

    /// Recomputes group `g`'s cheapest available member, in member order.
    fn rescan(&mut self, g: usize, obj: &[f64], hi: &[f64], tol: f64) {
        self.cheapest[g] = self
            .members(g)
            .iter()
            .filter(|&&m| at_one(hi[m as usize], tol))
            .fold(f64::INFINITY, |cheapest, &m| cheapest.min(obj[m as usize]));
    }

    /// Moves the running sum and the dead count from a group's old charge
    /// to its new one. At most two floating-point operations.
    fn recharge(&mut self, before: f64, after: f64) {
        match (before.is_finite(), after.is_finite()) {
            _ if before == after => {}
            (true, true) => self.sum += after - before,
            (true, false) => {
                self.sum -= before;
                self.dead += 1;
            }
            (false, true) => {
                self.sum += after;
                self.dead -= 1;
            }
            (false, false) => {}
        }
    }

    /// Follows variable `v`'s bounds from `old` to `new` (`hi` already
    /// holds the new upper bounds): its objective term, the group it is a
    /// member of and the groups it triggers. Every count and `cheapest`
    /// becomes what the bounds say; the sum moves by at most
    /// `2 * (2 + triggered groups)` floating-point operations.
    fn moved(
        &mut self,
        v: usize,
        obj: &[f64],
        hi: &[f64],
        old: (f64, f64),
        new: (f64, f64),
        tol: f64,
    ) {
        let cost = obj[v];
        let term = |(lo, hi): (f64, f64)| if cost >= 0.0 { cost * lo } else { cost * hi };
        let (was, now) = (term(old), term(new));
        if was != now {
            self.sum += now - was;
        }
        let taken = at_one(new.0, tol) != at_one(old.0, tol);
        let g = self.group_of[v];
        if g != NO_GROUP {
            let g = g as usize;
            let available = at_one(new.1, tol) != at_one(old.1, tol);
            if taken || available {
                let before = self.charge(g);
                if taken {
                    if at_one(new.0, tol) {
                        self.taken[g] += 1;
                    } else {
                        self.taken[g] -= 1;
                    }
                }
                if available {
                    self.rescan(g, obj, hi, tol);
                }
                self.recharge(before, self.charge(g));
            }
        }
        if taken {
            for i in self.trig_start[v] as usize..self.trig_start[v + 1] as usize {
                let g = self.triggered[i] as usize;
                let before = self.charge(g);
                if at_one(new.0, tol) {
                    self.on[g] += 1;
                } else {
                    self.on[g] -= 1;
                }
                self.recharge(before, self.charge(g));
            }
        }
    }

    /// How far the running sum can be from the bound summed afresh in
    /// variable-then-group order, after `changes` bound changes since the
    /// seed, with a factor of two to spare.
    ///
    /// Take the float terms (`c * lo`, `c * hi`, a group's cheapest member)
    /// as exact and let `B` be their true sum. Any partial sum of them, in
    /// any order, is at most `span` in magnitude, and so is each term; a
    /// difference of two terms is at most `2 * span`. While the accumulated
    /// error stays below `span` (it does: the band below is far under it
    /// for any path shorter than 2^49 operations), every addition or
    /// subtraction that forms the bound has an exact result of magnitude at
    /// most `2 * span`, and rounds it by at most `EPSILON / 2` of that, so
    /// by at most `EPSILON * span`. The fresh sum makes `n + g` additions
    /// (`n` variables, `g` groups), so it lies within `(n + g) * EPSILON *
    /// span` of `B`. The running sum was seeded by the same `n + g`
    /// additions and since then moved by at most `2 * (2 + max_triggered)`
    /// operations per bound change ([`Cover::moved`]); undo never touches
    /// it, because a popped stack entry restores the sum taken at its mark.
    /// So the two differ by at most
    /// `(2 * (n + g) + changes * 2 * (2 + max_triggered)) * EPSILON * span`,
    /// half the band. Outside the band the sum decides a prune exactly as
    /// the fresh bound would; inside it the search sums afresh.
    fn band(&self, changes: usize) -> f64 {
        let seed = 2.0 * (self.group_of.len() + self.on.len()) as f64;
        let per_change = 2.0 * (2.0 + f64::from(self.max_triggered));
        2.0 * (seed + changes as f64 * per_change) * f64::EPSILON * self.span
    }
}

/// The column index of a problem: for each variable, the rows it appears
/// in, as offsets into one flat row list (compressed sparse columns).
fn column_index(problem: &Problem) -> (Vec<u32>, Vec<u32>) {
    let mut col_start = vec![0u32; problem.num_vars() + 1];
    for c in problem.constraints() {
        for &(v, _) in &c.terms {
            col_start[v.0 + 1] += 1;
        }
    }
    for v in 0..problem.num_vars() {
        col_start[v + 1] += col_start[v];
    }
    let mut next = col_start.clone();
    let mut col_rows = vec![0u32; col_start[problem.num_vars()] as usize];
    for (r, c) in problem.constraints().iter().enumerate() {
        for &(v, _) in &c.terms {
            col_rows[next[v.0] as usize] = r as u32;
            next[v.0] += 1;
        }
    }
    (col_start, col_rows)
}

/// Clamps a tightened bound to the variable's domain and, for an integral
/// variable, rounds it inward.
fn round_bound(kind: VarKind, value: f64, is_lower: bool, tol: f64) -> f64 {
    let value = value.clamp(kind.lo(), kind.hi());
    if kind.is_integral() {
        if is_lower {
            (value - tol).ceil()
        } else {
            (value + tol).floor()
        }
    } else {
        value
    }
}

/// Whether a row's left-hand side `lhs` violates it by more than `tol`
/// (the negation of [`Problem::is_feasible`]'s per-row test).
fn violates(c: &Constraint, lhs: f64, tol: f64) -> bool {
    match c.cmp {
        Cmp::Le => lhs > c.rhs + tol,
        Cmp::Ge => lhs < c.rhs - tol,
        Cmp::Eq => (lhs - c.rhs).abs() > tol,
    }
}

impl Completion {
    /// The completion of `lo`/`hi`, with every row still to be evaluated.
    fn new(problem: &Problem, lo: &[f64], hi: &[f64]) -> Self {
        let rows = problem.num_constraints();
        let values = problem
            .objective()
            .iter()
            .enumerate()
            .map(|(i, &c)| if c >= 0.0 { lo[i] } else { hi[i] })
            .collect();
        Completion {
            values,
            stale: (0..rows as u32).collect(),
            is_stale: vec![true; rows],
            violated: vec![0; rows.div_ceil(64)],
            leaf_violated: vec![false; rows],
            leaf_violations: 0,
        }
    }

    /// Moves variable `v`, of objective coefficient `cost`, to the cheaper
    /// of its bounds `lo`/`hi`, marking its `rows` stale when the value
    /// moves.
    fn set(&mut self, v: usize, cost: f64, lo: f64, hi: f64, rows: &[u32]) {
        let value = if cost >= 0.0 { lo } else { hi };
        let moved = self.values[v] != value;
        self.values[v] = value;
        if moved {
            for &r in rows {
                if !self.is_stale[r as usize] {
                    self.is_stale[r as usize] = true;
                    self.stale.push(r);
                }
            }
        }
    }

    /// Re-evaluates every stale row from its terms, in the order they are
    /// stored — the sum [`Problem::is_feasible`] forms — at the branching
    /// tolerance `tol` and the leaf tolerance `leaf_tol`.
    fn refresh(&mut self, problem: &Problem, tol: f64, leaf_tol: f64) {
        for r in self.stale.drain(..) {
            let r = r as usize;
            self.is_stale[r] = false;
            let c = &problem.constraints()[r];
            let lhs: f64 = c
                .terms
                .iter()
                .map(|(v, coef)| coef * self.values[v.0])
                .sum();
            let bit = 1u64 << (r % 64);
            if violates(c, lhs, tol) {
                self.violated[r / 64] |= bit;
            } else {
                self.violated[r / 64] &= !bit;
            }
            let leaf = violates(c, lhs, leaf_tol);
            if leaf != self.leaf_violated[r] {
                self.leaf_violated[r] = leaf;
                if leaf {
                    self.leaf_violations += 1;
                } else {
                    self.leaf_violations -= 1;
                }
            }
        }
    }

    /// The rows violated at the branching tolerance, in increasing index.
    fn violated_rows(&self) -> impl Iterator<Item = usize> + '_ {
        self.violated.iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let r = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    r
                })
            })
        })
    }
}

impl<'a> Search<'a> {
    fn new(problem: &'a Problem, cfg: &'a Solver, hint: Option<&'a [f64]>) -> Self {
        let lo: Vec<f64> = problem.kinds().iter().map(|k| k.lo()).collect();
        let hi: Vec<f64> = problem.kinds().iter().map(|k| k.hi()).collect();
        let (col_start, col_rows) = column_index(problem);
        let rows = problem.num_constraints();
        Search {
            problem,
            cfg,
            start: Instant::now(),
            nodes: 0,
            best_values: None,
            best_objective: f64::INFINITY,
            hint,
            limit: None,
            propagation: PropagationStats::default(),
            cover: Cover::new(problem, &lo, &hi, cfg.tolerance),
            settled: 0,
            completion: Completion::new(problem, &lo, &hi),
            lo,
            hi,
            trail: vec![],
            col_start,
            col_rows,
            queue: VecDeque::with_capacity(rows),
            queued: vec![false; rows],
        }
    }

    fn out_of_budget(&mut self) -> bool {
        if self.nodes >= self.cfg.node_limit {
            self.limit = Some(Limit::Nodes);
        } else if self.start.elapsed() >= self.cfg.time_limit {
            self.limit = Some(Limit::Time);
        }
        self.limit.is_some()
    }

    /// Integral variables whose domain is still wider than a point.
    fn free_integral(&self) -> usize {
        let tol = self.cfg.tolerance;
        self.problem
            .kinds()
            .iter()
            .enumerate()
            .filter(|&(i, k)| k.is_integral() && self.hi[i] - self.lo[i] > tol)
            .count()
    }

    fn queue_all_rows(&mut self) {
        for r in 0..self.problem.num_constraints() {
            if !self.queued[r] {
                self.queued[r] = true;
                self.queue.push_back(r as u32);
            }
        }
    }

    /// Sets variable `v`'s bounds, recording the old ones on the trail,
    /// queueing `v`'s rows for propagation and moving its completion value
    /// and the cover bound.
    fn set_bounds(&mut self, v: usize, lo: f64, hi: f64) {
        let old = (self.lo[v], self.hi[v]);
        self.trail.push((v as u32, old.0, old.1));
        self.propagation.bound_changes += 1;
        self.lo[v] = lo;
        self.hi[v] = hi;
        let rows = &self.col_rows[self.col_start[v] as usize..self.col_start[v + 1] as usize];
        for &r in rows {
            if !self.queued[r as usize] {
                self.queued[r as usize] = true;
                self.queue.push_back(r);
            }
        }
        let obj = self.problem.objective();
        self.completion.set(v, obj[v], lo, hi, rows);
        let tol = self.cfg.tolerance;
        self.cover.moved(v, obj, &self.hi, old, (lo, hi), tol);
    }

    /// Undoes the trail back to `mark`, newest change first, and restores
    /// the running bound sum `sum` taken at the mark.
    fn undo_to(&mut self, mark: usize, sum: f64) {
        let obj = self.problem.objective();
        let tol = self.cfg.tolerance;
        while self.trail.len() > mark {
            let Some((v, lo, hi)) = self.trail.pop() else {
                break;
            };
            let v = v as usize;
            let old = (self.lo[v], self.hi[v]);
            self.lo[v] = lo;
            self.hi[v] = hi;
            let rows = &self.col_rows[self.col_start[v] as usize..self.col_start[v + 1] as usize];
            self.completion.set(v, obj[v], lo, hi, rows);
            self.cover.moved(v, obj, &self.hi, old, (lo, hi), tol);
        }
        self.cover.sum = sum;
    }

    /// Activity-based bound tightening over the queued rows, to (bounded)
    /// fixpoint. Leaves the queue empty.
    fn propagate(&mut self) -> PropResult {
        let cap = self
            .cfg
            .max_propagation_passes
            .saturating_mul(self.problem.num_constraints());
        let mut result = PropResult::Ok;
        for _ in 0..cap {
            let Some(r) = self.queue.pop_front() else {
                break;
            };
            self.queued[r as usize] = false;
            self.propagation.rows_visited += 1;
            result = self.tighten_row(r as usize);
            if result == PropResult::Infeasible {
                break;
            }
        }
        if result == PropResult::Ok && !self.queue.is_empty() {
            self.propagation.capped += 1;
        }
        for r in self.queue.drain(..) {
            self.queued[r as usize] = false;
        }
        result
    }

    /// Tightens the bounds of row `r`'s variables against its residual
    /// activity, or reports that no bounds satisfy it.
    fn tighten_row(&mut self, r: usize) -> PropResult {
        let problem = self.problem;
        let tol = self.cfg.tolerance;
        let c = &problem.constraints()[r];
        // Minimum and maximum possible activity under current bounds, and
        // the widest term, `|coef| · (hi − lo)`.
        let mut min_act = 0.0;
        let mut max_act = 0.0;
        let mut width: f64 = 0.0;
        for &(v, coef) in &c.terms {
            let (lo, hi) = (self.lo[v.0], self.hi[v.0]);
            if coef >= 0.0 {
                min_act += coef * lo;
                max_act += coef * hi;
            } else {
                min_act += coef * hi;
                max_act += coef * lo;
            }
            width = width.max(coef.abs() * (hi - lo));
        }
        let need_le = matches!(c.cmp, Cmp::Le | Cmp::Eq);
        let need_ge = matches!(c.cmp, Cmp::Ge | Cmp::Eq);
        if need_le && min_act > c.rhs + tol {
            return PropResult::Infeasible;
        }
        if need_ge && max_act < c.rhs - tol {
            return PropResult::Infeasible;
        }
        // The loop puts a term's new bound `slack / |coef|` past its
        // opposite bound, so a slack of at least `|coef| · (hi − lo)` puts
        // it at or past its current bound, `tol` short of the loop's tests.
        // A row whose slack covers its widest term on every side it
        // constrains moves no bound.
        if (!need_le || c.rhs - min_act >= width) && (!need_ge || max_act - c.rhs >= width) {
            return PropResult::Ok;
        }
        self.propagation.rows_looped += 1;
        // Tighten each variable against the residual activity.
        for &(v, coef) in &c.terms {
            if coef == 0.0 {
                continue;
            }
            let kind = problem.kinds()[v.0];
            let (own_min, own_max) = if coef >= 0.0 {
                (coef * self.lo[v.0], coef * self.hi[v.0])
            } else {
                (coef * self.hi[v.0], coef * self.lo[v.0])
            };
            if need_le {
                // coef * x <= rhs - (min_act - own_min)
                let slack = c.rhs - (min_act - own_min);
                if coef > 0.0 {
                    let new_hi = slack / coef;
                    if new_hi < self.hi[v.0] - tol {
                        let new_hi = round_bound(kind, new_hi, false, tol);
                        self.set_bounds(v.0, self.lo[v.0], new_hi);
                    }
                } else {
                    let new_lo = slack / coef;
                    if new_lo > self.lo[v.0] + tol {
                        let new_lo = round_bound(kind, new_lo, true, tol);
                        self.set_bounds(v.0, new_lo, self.hi[v.0]);
                    }
                }
            }
            if need_ge {
                // coef * x >= rhs - (max_act - own_max)
                let slack = c.rhs - (max_act - own_max);
                if coef > 0.0 {
                    let new_lo = slack / coef;
                    if new_lo > self.lo[v.0] + tol {
                        let new_lo = round_bound(kind, new_lo, true, tol);
                        self.set_bounds(v.0, new_lo, self.hi[v.0]);
                    }
                } else {
                    let new_hi = slack / coef;
                    if new_hi < self.hi[v.0] - tol {
                        let new_hi = round_bound(kind, new_hi, false, tol);
                        self.set_bounds(v.0, self.lo[v.0], new_hi);
                    }
                }
            }
            if self.lo[v.0] > self.hi[v.0] + tol {
                return PropResult::Infeasible;
            }
        }
        PropResult::Ok
    }

    /// A valid lower bound on the objective under the current bounds: the
    /// bounds-only term (each variable at its objective-cheapest bound)
    /// plus, for every *active* covering group not already satisfied at the
    /// lower bounds, the cheapest member still available. A group is active
    /// when its covering row is unconditional or some trigger variable is
    /// fixed to 1. The member sets are variable-disjoint, so the extra
    /// terms add without double counting; an active group with no member
    /// left is an infeasibility proof (bound `+inf`).
    ///
    /// This is the running sum [`Cover`] keeps, within [`Cover::band`] of
    /// [`Search::exact_lower_bound`].
    fn lower_bound(&self) -> f64 {
        if self.cover.dead > 0 {
            f64::INFINITY
        } else {
            self.cover.sum
        }
    }

    /// The lower bound summed afresh in the order the search has always
    /// summed it — the objective terms in variable order, then each charged
    /// group in group order — from the cover counts: one pass over the
    /// variables and one over the groups.
    fn exact_lower_bound(&self) -> f64 {
        let mut bound = objective_floor(self.problem.objective(), &self.lo, &self.hi);
        let cover = &self.cover;
        for g in 0..cover.on.len() {
            if cover.on[g] == 0 || cover.taken[g] > 0 {
                continue;
            }
            bound += cover.cheapest[g];
            if bound.is_infinite() {
                break;
            }
        }
        bound
    }

    /// Whether the node's lower bound reaches the incumbent (`bound >=
    /// best - tol`), decided as the bound summed afresh decides it: the
    /// running bound settles it when it lies outside the rounding band of
    /// `best - tol`, and the exact sum when it lies inside (or when the
    /// problem's terms are unbounded, so the band is too).
    fn bound_prunes(&self) -> bool {
        let target = self.best_objective - self.cfg.tolerance;
        let band = self.cover.band(self.settled + self.trail.len());
        if band.is_finite() {
            let bound = self.lower_bound();
            if bound < target - band {
                return false;
            }
            if bound >= target + band {
                return true;
            }
        }
        self.exact_lower_bound() >= target
    }

    /// Picks a branching variable: among the unfixed integral variables of
    /// the first constraint violated by the cheap completion, the one with
    /// the largest-magnitude objective coefficient (deciding expensive
    /// variables first moves the lower bound fastest), falling back to the
    /// costliest unfixed integral variable overall. Ties break on the lowest
    /// index, so the choice is deterministic.
    fn pick_branch_var(&self) -> Option<usize> {
        let tol = self.cfg.tolerance;
        let obj = self.problem.objective();
        let unfixed =
            |i: usize| self.problem.kinds()[i].is_integral() && self.hi[i] - self.lo[i] > tol;
        let costliest = |vars: &mut dyn Iterator<Item = usize>| -> Option<usize> {
            vars.filter(|&i| unfixed(i)).max_by(|&a, &b| {
                obj[a].abs().total_cmp(&obj[b].abs()).then(b.cmp(&a)) // prefer the lower index on ties
            })
        };
        for r in self.completion.violated_rows() {
            let c = &self.problem.constraints()[r];
            if let Some(v) = costliest(&mut c.terms.iter().map(|(v, _)| v.0)) {
                return Some(v);
            }
        }
        costliest(&mut (0..self.problem.num_vars()))
    }

    /// Depth-first branch-and-bound over an explicit worklist. The search
    /// tree's depth scales with the number of integral variables (thousands
    /// for extraction problems over large e-graphs), so descending by
    /// recursion overflows thread stacks; the LIFO worklist preserves the
    /// recursive exploration order exactly. The root is the presolved
    /// bounds as they stand.
    fn branch(&mut self) {
        let mut stack: Vec<Fix> = vec![];
        self.expand(None, &mut stack);
        while let Some(fix) = stack.pop() {
            if self.limit.is_some() {
                break;
            }
            self.expand(Some(fix), &mut stack);
        }
    }

    /// Processes one branch-and-bound node — the parent's bounds with `fix`
    /// applied — pushing its children onto the worklist (in reverse, so
    /// they pop in the original recursive order).
    fn expand(&mut self, fix: Option<Fix>, stack: &mut Vec<Fix>) {
        self.nodes += 1;
        if self.out_of_budget() {
            return;
        }
        if let Some(fix) = fix {
            self.undo_to(fix.mark as usize, fix.sum);
            self.set_bounds(fix.var as usize, fix.lo, fix.hi);
        }
        if self.propagate() == PropResult::Infeasible {
            return;
        }
        if self.bound_prunes() {
            return;
        }

        // If the cheapest completion of the remaining freedom is feasible,
        // it is optimal for this subtree: record it and stop descending.
        // Its values lie inside the propagated bounds, which lie inside
        // every domain, so only the rows can make it infeasible.
        let tol = self.cfg.tolerance;
        self.completion.refresh(self.problem, tol, tol * 10.0);
        if self.completion.leaf_violations == 0 {
            let obj = self.problem.objective_value(&self.completion.values);
            if obj < self.best_objective - tol {
                self.best_objective = obj;
                self.best_values = Some(self.completion.values.clone());
            }
            return;
        }

        // Pick a branching variable guided by the violated constraints.
        let branch_var = self.pick_branch_var();

        match branch_var {
            None => {
                // All integral variables fixed: complete the continuous
                // variables at their propagated lower bounds and check.
                let mut values: Vec<f64> = self.lo.clone();
                for (i, k) in self.problem.kinds().iter().enumerate() {
                    if k.is_integral() {
                        values[i] = self.lo[i].round();
                    }
                }
                if self.problem.is_feasible(&values, tol * 10.0) {
                    let obj = self.problem.objective_value(&values);
                    if obj < self.best_objective - tol {
                        self.best_objective = obj;
                        self.best_values = Some(values);
                    }
                }
            }
            Some(i) => {
                // Enumerate candidate values for the branching variable,
                // trying the hinted value first, then the objective-cheaper
                // bound.
                let (mark, var, sum) = (self.trail.len() as u32, i as u32, self.cover.sum);
                let lo_i = self.lo[i];
                let hi_i = self.hi[i];
                let mut candidates: Vec<f64> = vec![];
                if let Some(h) = self.hint {
                    if let Some(&hv) = h.get(i) {
                        let hv = hv.round();
                        if hv >= lo_i - tol && hv <= hi_i + tol {
                            candidates.push(hv);
                        }
                    }
                }
                let cheap_first = if self.problem.objective()[i] >= 0.0 {
                    [lo_i, hi_i]
                } else {
                    [hi_i, lo_i]
                };
                for v in cheap_first {
                    let v = v.round();
                    if !candidates.iter().any(|&c| (c - v).abs() < 0.5) {
                        candidates.push(v);
                    }
                }
                // For wide integer domains also split at the midpoint rather
                // than enumerating every value.
                if hi_i - lo_i > 1.5 {
                    // Branch as [lo, mid] and [mid+1, hi] instead of value
                    // enumeration; the left half is explored first.
                    let mid = ((lo_i + hi_i) / 2.0).floor();
                    stack.push(Fix {
                        mark,
                        var,
                        lo: mid + 1.0,
                        hi: hi_i,
                        sum,
                    });
                    stack.push(Fix {
                        mark,
                        var,
                        lo: lo_i,
                        hi: mid,
                        sum,
                    });
                    return;
                }
                for v in candidates.into_iter().rev() {
                    if v < lo_i - tol || v > hi_i + tol {
                        continue;
                    }
                    stack.push(Fix {
                        mark,
                        var,
                        lo: v,
                        hi: v,
                        sum,
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Cmp, Problem};

    #[test]
    fn picks_cheapest_cover() {
        // minimize x + 2y s.t. x + y >= 1
        let mut p = Problem::new();
        let x = p.add_binary(1.0);
        let y = p.add_binary(2.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Ge, 1.0);
        let sol = Solver::default().solve(&p);
        assert_eq!(sol.status, Status::Optimal);
        assert_eq!(sol.value(x), 1.0);
        assert_eq!(sol.value(y), 0.0);
        assert!((sol.objective - 1.0).abs() < 1e-6);
    }

    #[test]
    fn exactly_one_constraint() {
        // minimize 3a + 2b + 5c s.t. a + b + c == 1
        let mut p = Problem::new();
        let a = p.add_binary(3.0);
        let b = p.add_binary(2.0);
        let c = p.add_binary(5.0);
        p.add_constraint(vec![(a, 1.0), (b, 1.0), (c, 1.0)], Cmp::Eq, 1.0);
        let sol = Solver::default().solve(&p);
        assert_eq!(sol.status, Status::Optimal);
        assert_eq!(sol.value(b), 1.0);
        assert_eq!(sol.value(a) + sol.value(c), 0.0);
    }

    #[test]
    fn detects_infeasibility() {
        let mut p = Problem::new();
        let x = p.add_binary(1.0);
        p.add_constraint(vec![(x, 1.0)], Cmp::Ge, 2.0);
        let sol = Solver::default().solve(&p);
        assert_eq!(sol.status, Status::Infeasible);
        assert!(!sol.has_solution());
    }

    #[test]
    fn knapsack_style_problem() {
        // maximize value = minimize -value, subject to weight <= 10.
        // items: (value, weight): (6,5), (5,4), (5,4), (1,1)
        let values = [6.0, 5.0, 5.0, 1.0];
        let weights = [5.0, 4.0, 4.0, 1.0];
        let mut p = Problem::new();
        let vars: Vec<_> = values.iter().map(|&v| p.add_binary(-v)).collect();
        p.add_constraint(
            vars.iter().zip(weights).map(|(&v, w)| (v, w)).collect(),
            Cmp::Le,
            10.0,
        );
        let sol = Solver::default().solve(&p);
        assert_eq!(sol.status, Status::Optimal);
        // Best is items 1, 2 and 4: value 12 at weight 10.
        assert!((sol.objective + 12.0).abs() < 1e-6);
        assert_eq!(sol.value(vars[0]), 1.0);
        assert_eq!(sol.value(vars[3]), 1.0);
    }

    #[test]
    fn implication_constraints_extraction_shape() {
        // A tiny extraction-like problem:
        //   pick exactly one of {r1, r2} (root class),
        //   r1 requires a, r2 requires b and c,
        //   costs: r1=10, r2=1, a=1, b=2, c=3.
        // Best: r2 + b + c = 6 < r1 + a = 11.
        let mut p = Problem::new();
        let r1 = p.add_binary(10.0);
        let r2 = p.add_binary(1.0);
        let a = p.add_binary(1.0);
        let b = p.add_binary(2.0);
        let c = p.add_binary(3.0);
        p.add_constraint(vec![(r1, 1.0), (r2, 1.0)], Cmp::Eq, 1.0);
        // r1 <= a, r2 <= b, r2 <= c
        p.add_constraint(vec![(r1, 1.0), (a, -1.0)], Cmp::Le, 0.0);
        p.add_constraint(vec![(r2, 1.0), (b, -1.0)], Cmp::Le, 0.0);
        p.add_constraint(vec![(r2, 1.0), (c, -1.0)], Cmp::Le, 0.0);
        let sol = Solver::default().solve(&p);
        assert_eq!(sol.status, Status::Optimal);
        assert_eq!(sol.value(r2), 1.0);
        assert_eq!(sol.value(b), 1.0);
        assert_eq!(sol.value(c), 1.0);
        assert_eq!(sol.value(r1), 0.0);
        assert!((sol.objective - 6.0).abs() < 1e-6);
    }

    #[test]
    fn continuous_difference_constraints() {
        // Topological-order style constraints: x binary selects an edge that
        // forces t1 >= t0 + 0.1; both t in [0,1]. With x forced to 1 the
        // problem stays feasible; with an additional reversed edge it becomes
        // infeasible (a cycle).
        let mut p = Problem::new();
        let x = p.add_binary(0.0);
        let t0 = p.add_continuous(0.0, 1.0, 0.0);
        let t1 = p.add_continuous(0.0, 1.0, 0.0);
        p.add_constraint(vec![(x, 1.0)], Cmp::Ge, 1.0); // force x = 1
        let big_a = 2.0;
        // t1 - t0 - 0.1 + A(1-x) >= 0  ->  t1 - t0 + A*(-x) >= 0.1 - A
        p.add_constraint(
            vec![(t1, 1.0), (t0, -1.0), (x, -big_a)],
            Cmp::Ge,
            0.1 - big_a,
        );
        let sol = Solver::default().solve(&p);
        assert_eq!(sol.status, Status::Optimal);
        assert!(sol.value(t1) >= sol.value(t0) + 0.1 - 1e-6);

        // Now add the reverse ordering too: t0 >= t1 + 0.1 -> infeasible.
        p.add_constraint(
            vec![(t0, 1.0), (t1, -1.0), (x, -big_a)],
            Cmp::Ge,
            0.1 - big_a,
        );
        let sol = Solver::default().solve(&p);
        assert_eq!(sol.status, Status::Infeasible);
    }

    #[test]
    fn warm_start_is_used_and_improved() {
        let mut p = Problem::new();
        let x = p.add_binary(1.0);
        let y = p.add_binary(2.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Ge, 1.0);
        // Hint the expensive solution; the solver must still find the optimum.
        let sol = Solver::default().solve_with_hint(&p, &[0.0, 1.0]);
        assert_eq!(sol.status, Status::Optimal);
        assert!((sol.objective - 1.0).abs() < 1e-6);
    }

    #[test]
    fn node_limit_returns_feasible_incumbent() {
        // With a node limit of 1 and a feasible hint, we keep the hint.
        let mut p = Problem::new();
        let x = p.add_binary(1.0);
        let y = p.add_binary(2.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Ge, 1.0);
        let solver = Solver {
            node_limit: 1,
            ..Default::default()
        };
        let sol = solver.solve_with_hint(&p, &[1.0, 1.0]);
        assert_eq!(sol.status, Status::Feasible);
        assert_eq!(sol.limit, Some(Limit::Nodes));
        assert!((sol.objective - 3.0).abs() < 1e-6);
    }

    #[test]
    fn zero_time_limit_names_the_time_limit() {
        // The clock has run out before the root node: the hint is kept if
        // there is one, and the solution says which budget ended the search.
        let mut p = Problem::new();
        let x = p.add_binary(1.0);
        let y = p.add_binary(2.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Ge, 1.0);
        let solver = Solver::with_time_limit(Duration::ZERO);
        let sol = solver.solve_with_hint(&p, &[1.0, 1.0]);
        assert_eq!(sol.status, Status::Feasible);
        assert_eq!(sol.limit, Some(Limit::Time));
        assert_eq!(sol.nodes_explored, 1);
        let sol = solver.solve(&p);
        assert_eq!(sol.status, Status::Unknown);
        assert_eq!(sol.limit, Some(Limit::Time));
        // A finished search names none.
        let sol = Solver::default().solve(&p);
        assert_eq!((sol.status, sol.limit), (Status::Optimal, None));
    }

    #[test]
    fn presolve_fixes_implied_variables() {
        // x >= 1 and y <= 0 are implied outright: presolve must fix both
        // before any branching happens.
        let mut p = Problem::new();
        let x = p.add_binary(1.0);
        let y = p.add_binary(1.0);
        let z = p.add_binary(1.0);
        p.add_constraint(vec![(x, 1.0)], Cmp::Ge, 1.0);
        p.add_constraint(vec![(y, 1.0)], Cmp::Le, 0.0);
        p.add_constraint(vec![(x, 1.0), (z, 1.0)], Cmp::Ge, 1.0);
        let sol = Solver::default().solve(&p);
        assert_eq!(sol.status, Status::Optimal);
        assert!((sol.objective - 1.0).abs() < 1e-6);
        assert!(sol.presolve_fixed >= 2, "x and y are implied");
    }

    #[test]
    fn presolve_proves_infeasibility_without_branching() {
        let mut p = Problem::new();
        let x = p.add_binary(1.0);
        p.add_constraint(vec![(x, 1.0)], Cmp::Ge, 1.0);
        p.add_constraint(vec![(x, 1.0)], Cmp::Le, 0.0);
        let sol = Solver::default().solve(&p);
        assert_eq!(sol.status, Status::Infeasible);
        assert_eq!(sol.nodes_explored, 0);
    }

    #[test]
    fn cover_bound_certifies_optimal_hint_quickly() {
        // Three disjoint "pick one of the class" groups: the per-group
        // cheapest-member bound equals the optimum, so a hinted optimal
        // incumbent must be certified in a handful of nodes, not by
        // enumerating the 2^6 lattice.
        let mut p = Problem::new();
        let mut hint = vec![0.0; 6];
        for g in 0..3 {
            let a = p.add_binary(1.0 + g as f64);
            let b = p.add_binary(2.0 + g as f64);
            p.add_constraint(vec![(a, 1.0), (b, 1.0)], Cmp::Ge, 1.0);
            hint[a.0] = 1.0;
        }
        let sol = Solver::default().solve_with_hint(&p, &hint);
        assert_eq!(sol.status, Status::Optimal);
        assert!((sol.objective - 6.0).abs() < 1e-6);
        assert!(
            sol.nodes_explored <= 2,
            "cover bound should prune at the root, explored {}",
            sol.nodes_explored
        );
    }

    #[test]
    fn integer_variables_with_wide_domains() {
        // minimize z s.t. z >= 7.3 with z integer in [0, 100] -> z = 8.
        let mut p = Problem::new();
        let z = p.add_integer(0, 100, 1.0);
        p.add_constraint(vec![(z, 1.0)], Cmp::Ge, 7.3);
        let sol = Solver::default().solve(&p);
        assert_eq!(sol.status, Status::Optimal);
        assert_eq!(sol.value(z), 8.0);
    }

    /// The full-sweep propagation the worklist replaced, kept as its
    /// oracle: every row, in order, until a sweep changes nothing.
    fn sweep_propagate(
        problem: &Problem,
        cfg: &Solver,
        lo: &mut [f64],
        hi: &mut [f64],
    ) -> PropResult {
        let tol = cfg.tolerance;
        for _ in 0..cfg.max_propagation_passes {
            let mut changed = false;
            for c in problem.constraints() {
                // Minimum and maximum possible activity under current bounds.
                let mut min_act = 0.0;
                let mut max_act = 0.0;
                for &(v, coef) in &c.terms {
                    if coef >= 0.0 {
                        min_act += coef * lo[v.0];
                        max_act += coef * hi[v.0];
                    } else {
                        min_act += coef * hi[v.0];
                        max_act += coef * lo[v.0];
                    }
                }
                let need_le = matches!(c.cmp, Cmp::Le | Cmp::Eq);
                let need_ge = matches!(c.cmp, Cmp::Ge | Cmp::Eq);
                if need_le && min_act > c.rhs + tol {
                    return PropResult::Infeasible;
                }
                if need_ge && max_act < c.rhs - tol {
                    return PropResult::Infeasible;
                }
                // Tighten each variable against the residual activity.
                for &(v, coef) in &c.terms {
                    if coef == 0.0 {
                        continue;
                    }
                    let kind = problem.kinds()[v.0];
                    let (own_min, own_max) = if coef >= 0.0 {
                        (coef * lo[v.0], coef * hi[v.0])
                    } else {
                        (coef * hi[v.0], coef * lo[v.0])
                    };
                    if need_le {
                        // coef * x <= rhs - (min_act - own_min)
                        let slack = c.rhs - (min_act - own_min);
                        if coef > 0.0 {
                            let new_hi = slack / coef;
                            if new_hi < hi[v.0] - tol {
                                hi[v.0] = round_bound(kind, new_hi, false, tol);
                                changed = true;
                            }
                        } else {
                            let new_lo = slack / coef;
                            if new_lo > lo[v.0] + tol {
                                lo[v.0] = round_bound(kind, new_lo, true, tol);
                                changed = true;
                            }
                        }
                    }
                    if need_ge {
                        // coef * x >= rhs - (max_act - own_max)
                        let slack = c.rhs - (max_act - own_max);
                        if coef > 0.0 {
                            let new_lo = slack / coef;
                            if new_lo > lo[v.0] + tol {
                                lo[v.0] = round_bound(kind, new_lo, true, tol);
                                changed = true;
                            }
                        } else {
                            let new_hi = slack / coef;
                            if new_hi < hi[v.0] - tol {
                                hi[v.0] = round_bound(kind, new_hi, false, tol);
                                changed = true;
                            }
                        }
                    }
                    if lo[v.0] > hi[v.0] + tol {
                        return PropResult::Infeasible;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        PropResult::Ok
    }

    /// One covering group as the solver held it before the bound was kept
    /// per bound change, kept as the oracle's input.
    struct CoverGroup {
        /// The covered variables (pairwise disjoint across groups).
        members: Vec<usize>,
        /// Active regardless of triggers (backed by a `>= 1` row).
        always: bool,
        /// Binary variables whose fixing to 1 activates the group (each
        /// backed by a row `trigger - sum(members) <= 0`).
        triggers: Vec<usize>,
    }

    /// The group collection [`Cover::new`] flattened, kept as its oracle:
    /// the same rows, scanned in the same order, into a `Vec` per group.
    fn cover_groups(problem: &Problem, tol: f64) -> Vec<CoverGroup> {
        let mut group_of = vec![usize::MAX; problem.num_vars()];
        let mut groups: Vec<CoverGroup> = vec![];
        let member_ok =
            |v: VarId| problem.kinds()[v.0] == VarKind::Binary && problem.objective()[v.0] >= 0.0;
        // Resolves the member set to a group slot: an existing group with
        // exactly this set, a fresh one when no member is taken, or None on a
        // partial overlap.
        let mut slot_for = |members: &[usize], groups: &mut Vec<CoverGroup>| -> Option<usize> {
            let first = group_of[members[0]];
            if first != usize::MAX {
                let same = groups[first].members.len() == members.len()
                    && members.iter().all(|&m| group_of[m] == first);
                return same.then_some(first);
            }
            if members.iter().any(|&m| group_of[m] != usize::MAX) {
                return None;
            }
            for &m in members {
                group_of[m] = groups.len();
            }
            groups.push(CoverGroup {
                members: members.to_vec(),
                always: false,
                triggers: vec![],
            });
            Some(groups.len() - 1)
        };
        for c in problem.constraints() {
            if matches!(c.cmp, Cmp::Ge | Cmp::Eq)
                && (c.rhs - 1.0).abs() <= tol
                && !c.terms.is_empty()
                && c.terms
                    .iter()
                    .all(|&(v, coef)| (coef - 1.0).abs() <= tol && member_ok(v))
            {
                let mut members: Vec<usize> = c.terms.iter().map(|&(v, _)| v.0).collect();
                members.sort_unstable();
                if let Some(g) = slot_for(&members, &mut groups) {
                    groups[g].always = true;
                }
            } else if c.cmp == Cmp::Le && c.rhs.abs() <= tol {
                let mut trigger = None;
                let mut members = vec![];
                let mut usable = true;
                for &(v, coef) in &c.terms {
                    if (coef - 1.0).abs() <= tol {
                        usable &= trigger.is_none() && problem.kinds()[v.0] == VarKind::Binary;
                        trigger = Some(v.0);
                    } else if (coef + 1.0).abs() <= tol {
                        usable &= member_ok(v);
                        members.push(v.0);
                    } else {
                        usable = false;
                    }
                }
                let Some(trigger) = trigger else { continue };
                if !usable || members.is_empty() {
                    continue;
                }
                members.sort_unstable();
                if let Some(g) = slot_for(&members, &mut groups) {
                    groups[g].triggers.push(trigger);
                }
            }
        }
        groups
    }

    /// The lower bound the search computed at every node before it kept the
    /// bound per bound change, kept verbatim as the oracle: one pass over
    /// every variable and every group.
    fn oracle_lower_bound(search: &Search, groups: &[CoverGroup]) -> f64 {
        let (lo, hi) = (&search.lo, &search.hi);
        let obj = search.problem.objective();
        let mut bound: f64 = obj
            .iter()
            .enumerate()
            .map(|(i, &c)| if c >= 0.0 { c * lo[i] } else { c * hi[i] })
            .sum();
        let tol = search.cfg.tolerance;
        'groups: for group in groups {
            if !group.always && !group.triggers.iter().any(|&t| lo[t] >= 1.0 - tol) {
                continue;
            }
            let mut cheapest = f64::INFINITY;
            for &i in &group.members {
                if lo[i] >= 1.0 - tol {
                    // Already selected: its cost is in the bounds-only term.
                    continue 'groups;
                }
                if hi[i] >= 1.0 - tol {
                    cheapest = cheapest.min(obj[i]);
                }
            }
            bound += cheapest;
            if bound.is_infinite() {
                break;
            }
        }
        bound
    }

    /// The flat groups against the oracle's: the same member lists, and
    /// each group triggered by the same variables, as often.
    fn assert_cover_matches_the_oracle(cover: &Cover, groups: &[CoverGroup], what: &str) {
        assert_eq!(cover.on.len(), groups.len(), "{what}: group count");
        let mut triggers: Vec<Vec<usize>> = vec![vec![]; groups.len()];
        for v in 0..cover.group_of.len() {
            for &g in
                &cover.triggered[cover.trig_start[v] as usize..cover.trig_start[v + 1] as usize]
            {
                triggers[g as usize].push(v);
            }
        }
        for (g, group) in groups.iter().enumerate() {
            let members = &cover.members[cover.start[g] as usize..cover.start[g + 1] as usize];
            let members: Vec<usize> = members.iter().map(|&m| m as usize).collect();
            assert_eq!(members, group.members, "{what}: group {g} members");
            for &m in &members {
                assert_eq!(cover.group_of[m], g as u32, "{what}: group of {m}");
            }
            let mut want = group.triggers.clone();
            want.sort_unstable();
            assert_eq!(triggers[g], want, "{what}: group {g} triggers");
        }
        let members = cover.group_of.iter().filter(|&&g| g != NO_GROUP).count();
        assert_eq!(members, cover.members.len(), "{what}: members listed once");
    }

    /// The kept cover state against the oracle: every count and every
    /// `cheapest` equal to a fresh computation from the bounds, the dead
    /// count too; the exact bound equal to the oracle's to the bit; and the
    /// running bound infinite iff the oracle's is, and otherwise inside the
    /// rounding band of it. Returns whether any group is active.
    fn assert_cover_is_fresh(search: &Search, groups: &[CoverGroup], what: &str) -> bool {
        let (lo, hi) = (&search.lo, &search.hi);
        let tol = search.cfg.tolerance;
        let obj = search.problem.objective();
        let cover = &search.cover;
        let mut dead = 0;
        for (g, group) in groups.iter().enumerate() {
            let on = group.always as u32
                + group
                    .triggers
                    .iter()
                    .filter(|&&t| lo[t] >= 1.0 - tol)
                    .count() as u32;
            let taken = group
                .members
                .iter()
                .filter(|&&m| lo[m] >= 1.0 - tol)
                .count() as u32;
            let mut cheapest = f64::INFINITY;
            for &m in &group.members {
                if hi[m] >= 1.0 - tol {
                    cheapest = cheapest.min(obj[m]);
                }
            }
            assert_eq!(cover.on[g], on, "{what}: group {g} triggers at 1");
            assert_eq!(cover.taken[g], taken, "{what}: group {g} members at 1");
            assert_eq!(
                cover.cheapest[g].to_bits(),
                cheapest.to_bits(),
                "{what}: group {g} cheapest {} != {cheapest}",
                cover.cheapest[g]
            );
            dead += usize::from(on > 0 && taken == 0 && cheapest.is_infinite());
        }
        assert_eq!(cover.dead, dead, "{what}: dead groups");
        let oracle = oracle_lower_bound(search, groups);
        let exact = search.exact_lower_bound();
        assert_eq!(
            exact.to_bits(),
            oracle.to_bits(),
            "{what}: exact {exact} != {oracle}"
        );
        let running = search.lower_bound();
        assert_eq!(
            running.is_infinite(),
            oracle.is_infinite(),
            "{what}: {running} vs {oracle}"
        );
        if oracle.is_finite() {
            let band = cover.band(search.settled + search.trail.len());
            assert!(
                (running - oracle).abs() <= band,
                "{what}: running {running} is off the oracle {oracle} by more than {band}"
            );
        }
        cover.on.iter().any(|&on| on > 0)
    }

    /// SplitMix64.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        }
    }

    /// A random problem over binaries and a few small-domain integers:
    /// rows of one to five distinct variables with small signed
    /// coefficients, any comparison and a small right-hand side; then rows
    /// of the extraction encoding's shapes, so that cover groups arise: a
    /// few sets of binaries with nonnegative objective, each covered by
    /// `sum = 1` / `sum >= 1` rows or by implication rows `x_t - sum <= 0`.
    fn random_problem(rng: &mut Rng) -> Problem {
        let mut p = Problem::new();
        let n = 3 + rng.below(25) as usize;
        for _ in 0..n {
            let obj = rng.below(7) as f64 - 2.0;
            if rng.below(6) == 0 {
                p.add_integer(-2, 3, obj);
            } else {
                p.add_binary(obj);
            }
        }
        for _ in 0..1 + rng.below(n as u64) {
            let mut vars: Vec<usize> = (0..n).collect();
            let k = 1 + rng.below(5.min(n as u64)) as usize;
            for i in 0..k {
                vars.swap(i, i + rng.below((n - i) as u64) as usize);
            }
            let terms = vars[..k]
                .iter()
                .map(|&v| {
                    let coef = [-3.0, -2.0, -1.0, -0.5, 1.0, 1.0, 1.5, 2.0][rng.below(8) as usize];
                    (VarId(v), coef)
                })
                .collect();
            let cmp = [Cmp::Le, Cmp::Le, Cmp::Ge, Cmp::Ge, Cmp::Eq][rng.below(5) as usize];
            p.add_constraint(terms, cmp, rng.below(6) as f64 - 2.0);
        }
        let mut cheap: Vec<usize> = (0..n)
            .filter(|&v| p.kinds()[v] == VarKind::Binary && p.objective()[v] >= 0.0)
            .collect();
        for _ in 0..rng.below(5) {
            if cheap.is_empty() {
                break;
            }
            let k = 1 + rng.below(3.min(cheap.len() as u64)) as usize;
            for i in 0..k {
                let j = i + rng.below((cheap.len() - i) as u64) as usize;
                cheap.swap(i, j);
            }
            let set: Vec<VarId> = cheap[..k].iter().map(|&v| VarId(v)).collect();
            for _ in 0..1 + rng.below(3) {
                let mut terms: Vec<(VarId, f64)> = set.iter().map(|&v| (v, 1.0)).collect();
                match rng.below(6) {
                    0 => p.add_constraint(terms, Cmp::Eq, 1.0),
                    1 => p.add_constraint(terms, Cmp::Ge, 1.0),
                    _ => {
                        let t = VarId(rng.below(n as u64) as usize);
                        if p.kinds()[t.0] != VarKind::Binary || set.contains(&t) {
                            continue;
                        }
                        for term in &mut terms {
                            term.1 = -1.0;
                        }
                        terms.insert(0, (t, 1.0));
                        p.add_constraint(terms, Cmp::Le, 0.0);
                    }
                }
            }
        }
        p
    }

    fn assert_same_bits(got: &[f64], want: &[f64], what: &str) {
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(got), bits(want), "{what}: {got:?} != {want:?}");
    }

    /// The incremental completion against one computed from scratch: the
    /// cheap completion of the bounds, the rows it violates at the solver
    /// tolerance and the number it violates at the leaf tolerance.
    fn assert_completion_is_fresh(search: &mut Search, what: &str) {
        let tol = search.cfg.tolerance;
        search.completion.refresh(search.problem, tol, tol * 10.0);
        let values: Vec<f64> = search
            .problem
            .objective()
            .iter()
            .enumerate()
            .map(|(i, &c)| if c >= 0.0 { search.lo[i] } else { search.hi[i] })
            .collect();
        assert_same_bits(&search.completion.values, &values, what);
        let lhs =
            |c: &Constraint| -> f64 { c.terms.iter().map(|(v, coef)| coef * values[v.0]).sum() };
        let rows = search.problem.constraints();
        let violated: Vec<usize> = (0..rows.len())
            .filter(|&r| violates(&rows[r], lhs(&rows[r]), tol))
            .collect();
        assert_eq!(
            search.completion.violated_rows().collect::<Vec<_>>(),
            violated,
            "{what}"
        );
        let leaf = rows
            .iter()
            .filter(|c| violates(c, lhs(c), tol * 10.0))
            .count();
        assert_eq!(search.completion.leaf_violations, leaf, "{what}");
    }

    #[test]
    fn worklist_propagation_equals_the_full_sweep_and_undo_restores_every_mark() {
        // A cap neither method reaches, so both run to their fixpoint.
        let cfg = Solver {
            max_propagation_passes: 1_000,
            ..Default::default()
        };
        let mut rng = Rng(7);
        let (mut roots, mut children, mut infeasible, mut covered) = (0, 0, 0, 0);
        let mut propagation = PropagationStats::default();
        for case in 0..2_000 {
            let p = random_problem(&mut rng);
            let groups = cover_groups(&p, cfg.tolerance);
            let mut search = Search::new(&p, &cfg, None);
            assert_cover_matches_the_oracle(&search.cover, &groups, &format!("case {case}"));
            assert_cover_is_fresh(&search, &groups, &format!("case {case}: new"));
            for v in 0..p.num_vars() {
                if rng.below(4) == 0 {
                    let (lo, hi) = (search.lo[v], search.hi[v]);
                    let x = lo + rng.below((hi - lo) as u64 + 1) as f64;
                    search.set_bounds(v, x, x);
                }
            }
            // The presolve: every row seeded.
            let (mut lo, mut hi) = (search.lo.clone(), search.hi.clone());
            let want = sweep_propagate(&p, &cfg, &mut lo, &mut hi);
            search.queue_all_rows();
            let got = search.propagate();
            assert_eq!(got, want, "case {case}: root verdict");
            roots += 1;
            let active = assert_cover_is_fresh(&search, &groups, &format!("case {case}: root"));
            covered += usize::from(active);
            if got == PropResult::Infeasible {
                infeasible += 1;
                propagation += search.propagation;
                continue;
            }
            assert_same_bits(&search.lo, &lo, &format!("case {case}: root lo"));
            assert_same_bits(&search.hi, &hi, &format!("case {case}: root hi"));
            assert_completion_is_fresh(&mut search, &format!("case {case}: root"));

            // A path of child nodes, each seeded by its fix alone.
            let mut marks = vec![];
            loop {
                let free: Vec<usize> = (0..p.num_vars())
                    .filter(|&v| search.hi[v] > search.lo[v])
                    .collect();
                if free.is_empty() {
                    break;
                }
                let v = free[rng.below(free.len() as u64) as usize];
                let (lo_v, hi_v) = (search.lo[v], search.hi[v]);
                let x = lo_v + rng.below((hi_v - lo_v) as u64 + 1) as f64;
                marks.push((
                    search.trail.len(),
                    search.cover.sum,
                    search.lo.clone(),
                    search.hi.clone(),
                ));
                let (mut lo, mut hi) = (search.lo.clone(), search.hi.clone());
                lo[v] = x;
                hi[v] = x;
                let want = sweep_propagate(&p, &cfg, &mut lo, &mut hi);
                search.set_bounds(v, x, x);
                let got = search.propagate();
                assert_eq!(got, want, "case {case}: child verdict");
                children += 1;
                assert_cover_is_fresh(&search, &groups, &format!("case {case}: child"));
                if got == PropResult::Infeasible {
                    infeasible += 1;
                    break;
                }
                assert_same_bits(&search.lo, &lo, &format!("case {case}: child lo"));
                assert_same_bits(&search.hi, &hi, &format!("case {case}: child hi"));
                assert_completion_is_fresh(&mut search, &format!("case {case}: child"));
            }
            while let Some((mark, sum, lo, hi)) = marks.pop() {
                search.undo_to(mark, sum);
                assert_eq!(search.trail.len(), mark);
                assert_same_bits(&search.lo, &lo, &format!("case {case}: undone lo"));
                assert_same_bits(&search.hi, &hi, &format!("case {case}: undone hi"));
                assert_completion_is_fresh(&mut search, &format!("case {case}: undone"));
                assert_cover_is_fresh(&search, &groups, &format!("case {case}: undone"));
            }
            propagation += search.propagation;
        }
        // The generator must exercise both verdicts at both levels, and
        // the cover bound on a real share of the cases.
        assert!(children > roots, "{children} children over {roots} roots");
        assert!(
            covered > roots / 4,
            "{covered} of {roots} roots have an active cover group"
        );
        assert!(
            infeasible > roots / 10 && infeasible < (roots + children) / 2,
            "{infeasible} infeasible of {roots} roots + {children} children"
        );
        // A visit that neither reached the tightening loop nor ended a
        // propagation as infeasible took the quiet-row exit. The bounds
        // above matched the sweep's with it taken on a real share of the
        // visits (at least 6 925 of 11 463, 60 %).
        let PropagationStats {
            rows_visited,
            rows_looped,
            ..
        } = propagation;
        let quiet = rows_visited.saturating_sub(rows_looped + infeasible);
        assert!(
            quiet > rows_visited / 2,
            "{quiet} quiet-row exits of {rows_visited} row visits"
        );
    }

    #[test]
    fn propagation_stops_at_its_work_cap() {
        // A chain x0 <= x1 <= ... <= x9 with x0 forced to 1 in the last
        // row, the chain rows in reverse order. The cap of one pass is ten
        // row visits: they go through the queue once and fix x0 only; the
        // rest of the chain takes nine more visits.
        let mut p = Problem::new();
        let xs: Vec<VarId> = (0..10).map(|_| p.add_binary(1.0)).collect();
        for w in xs.windows(2).rev() {
            p.add_constraint(vec![(w[0], 1.0), (w[1], -1.0)], Cmp::Le, 0.0);
        }
        p.add_constraint(vec![(xs[0], 1.0)], Cmp::Ge, 1.0);
        let cfg = Solver {
            max_propagation_passes: 1,
            ..Default::default()
        };
        let mut search = Search::new(&p, &cfg, None);
        search.queue_all_rows();
        assert_eq!(search.propagate(), PropResult::Ok);
        assert!(search.queue.is_empty() && !search.queued.contains(&true));
        let fixed = search.lo.iter().filter(|&&lo| lo == 1.0).count();
        assert!(fixed < 10, "ten visits cannot reach the end of the chain");
        assert_eq!(search.propagation.rows_visited, 10);
        assert_eq!(search.propagation.capped, 1);
        // With room for it, the worklist reaches the end.
        let cfg = Solver::default();
        let mut search = Search::new(&p, &cfg, None);
        search.queue_all_rows();
        assert_eq!(search.propagate(), PropResult::Ok);
        assert!(search.lo.iter().all(|&lo| lo == 1.0));
        assert_eq!(search.propagation.capped, 0);
        assert_eq!(search.propagation.bound_changes, 10);
    }
}
