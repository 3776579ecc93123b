//! Extraction problem reduction: shrink the ILP selection problem between
//! the e-graph and the encoder while *provably preserving the optimal
//! cost*. The unreduced program (one binary per viable e-node, one
//! implication row per (node, distinct child class)) hands the branch-and-bound
//! solver a search lattice exponential in the number of multi-candidate
//! classes; on the benchmark models almost all of that lattice is
//! irrelevant. The pipeline here runs four passes:
//!
//! 1. **Root-reachable restriction + viability trim** — only classes
//!    reachable from the root through *viable* candidates are encoded, and
//!    candidates with an empty (all-filtered / infinite-cost) child class
//!    are removed up front instead of being encoded and constrained to 0.
//! 2. **Dominated-candidate pruning** — within a class, a candidate whose
//!    cost is no better than a sibling's and whose *needs* (the forced
//!    closures of its child classes) cover the sibling's needs can never
//!    appear in an optimum: swapping the sibling in is feasible (its needs
//!    are already selected) and no more expensive. Exact ties on both cost
//!    and needs keep the first candidate in class order, deterministically;
//!    cost-tied candidates with incomparable needs both survive.
//! 3. **Single-candidate forcing** — the root class must select; a required
//!    class with exactly one surviving candidate selects it in *every*
//!    feasible solution, so it is fixed outside the ILP and its children
//!    become required transitively. A class whose one candidate is a free
//!    leaf is fixed too, required or not: selecting it costs nothing and
//!    constrains nothing.
//! 4. **Decomposition** — fixing a class satisfies every implication row
//!    pointing into it, severing the variable-interaction edge; the
//!    residual classes fall apart into connected components that are
//!    independent ILPs (the constraint matrix is block-diagonal and the
//!    objective is additive), solved separately and stitched.
//!
//! The *forced closure* underpinning pass 2 is the least fixpoint of
//! `forced(i) = {i} ∪ ⋂_{candidates n of i} ⋃_{children c of n} forced(c)`,
//! computed by chaotic iteration from `forced(i) = {i}`. Every intermediate
//! stage is sound — `forced(i) ⊆ selected(S)` for any feasible solution `S`
//! selecting class `i` — by induction on update steps: `S` selects *some*
//! candidate of `i`, whose child classes are all selected (constraint (3)),
//! so the union over that candidate's children is selected, and the
//! intersection over all candidates is contained in it. The sets are
//! [`BitSet`]s over the problem's class indices (the same dense-bitset
//! machinery the greedy DAG extractor's reachability tables use).
//!
//! Every pass is sound wherever it stops, so the pipeline honours the
//! extraction deadline by stopping: the closure sweep returns the stage it
//! reached, the pruning passes stop between candidates, and the fixpoint
//! loop exits. A reduction cut short hands the solver a larger problem,
//! never a wrong one.

use super::ExtractError;
use std::collections::HashMap;
use std::time::Instant;
use tensat_egraph::{BitSet, Id, Language};
use tensat_ir::{CostModel, TensorEGraph};

/// One viable e-node candidate of a class.
#[derive(Debug, Clone)]
pub(crate) struct Candidate {
    /// The node-table id of the e-node, one its class lists.
    pub(crate) node: Id,
    /// Latency cost: the candidate's ILP objective coefficient.
    pub(crate) cost: f64,
    /// Deduped, ascending problem-local indices of the child classes.
    pub(crate) children: Vec<usize>,
}

/// Reduction statistics, surfaced through `IlpStats`.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ReduceStats {
    /// Binaries of the unreduced program.
    pub(crate) vars_before: usize,
    /// Rows (2)–(3) of the unreduced program.
    pub(crate) constraints_before: usize,
    /// Candidates removed by dominance pruning.
    pub(crate) dominated_pruned: usize,
    /// Candidates removed by the incumbent cost bound.
    pub(crate) bound_pruned: usize,
    /// Classes fixed by single-candidate forcing.
    pub(crate) forced_classes: usize,
}

/// The abstract selection problem: per-class candidate lists plus the
/// reduction state (liveness, reachability, forcing) the encoder consumes.
#[derive(Debug, Clone)]
pub(crate) struct ExtractionProblem {
    /// Per-class candidates, classes in BFS order from the root (index 0).
    /// Pruned candidates stay in place with `alive` false so indices remain
    /// stable for `rep` chains.
    pub(crate) candidates: Vec<Vec<Candidate>>,
    /// Liveness mask parallel to `candidates`.
    pub(crate) alive: Vec<Vec<bool>>,
    /// For a dominance-pruned candidate: the sibling that dominated it
    /// (identity for live candidates). Chased transitively to repair
    /// warm-start hints whose greedy pick was pruned.
    pub(crate) rep: Vec<Vec<usize>>,
    /// The e-class id of each problem index.
    pub(crate) class_ids: Vec<Id>,
    /// Classes reachable from the root through live candidates.
    pub(crate) reachable: Vec<bool>,
    /// Classes guaranteed to carry a selection in every feasible solution
    /// (the root, plus children of fixed classes, transitively).
    pub(crate) required: Vec<bool>,
    /// Classes fixed by forcing: the index of their single live candidate.
    pub(crate) fixed: Vec<Option<usize>>,
    /// Reduction counters.
    pub(crate) stats: ReduceStats,
}

impl ExtractionProblem {
    /// Builds the unreduced problem from the e-graph: the classes reachable
    /// from the root through unfiltered e-nodes, in BFS order (decisions
    /// near the root come first), each with its finite-cost e-nodes as
    /// candidates. `stats.vars_before`/`constraints_before` are the size of
    /// its encoding: one binary per candidate, the root row and one
    /// implication row per (candidate, distinct child class).
    pub(crate) fn from_egraph(
        egraph: &TensorEGraph,
        root: Id,
        model: &CostModel,
    ) -> Result<Self, ExtractError> {
        let root = egraph.find(root);
        let mut order: Vec<Id> = vec![root];
        let mut index: HashMap<Id, usize> = HashMap::from([(root, 0)]);
        let mut i = 0;
        while i < order.len() {
            let class = order[i];
            i += 1;
            for node in egraph.enodes(egraph.eclass(class)) {
                for &child in node.children() {
                    let child = egraph.find(child);
                    let next = order.len();
                    if let std::collections::hash_map::Entry::Vacant(e) = index.entry(child) {
                        e.insert(next);
                        order.push(child);
                    }
                }
            }
        }

        let mut candidates: Vec<Vec<Candidate>> = Vec::with_capacity(order.len());
        let mut vars_before = 0;
        let mut constraints_before = 1; // the root exactly-one row
        for &class in &order {
            let mut list = vec![];
            for id in egraph.enode_ids(egraph.eclass(class)) {
                let node = egraph.enode(id);
                let cost = model.enode_cost(egraph, node);
                if !cost.is_finite() {
                    continue;
                }
                let mut children: Vec<usize> = node
                    .children()
                    .iter()
                    .map(|&c| index[&egraph.find(c)])
                    .collect();
                children.sort_unstable();
                children.dedup();
                vars_before += 1;
                constraints_before += children.len();
                list.push(Candidate {
                    node: id,
                    cost,
                    children,
                });
            }
            candidates.push(list);
        }
        if candidates[0].is_empty() {
            return Err(ExtractError::NoFiniteTerm);
        }
        let n = order.len();
        Ok(ExtractionProblem {
            alive: candidates.iter().map(|c| vec![true; c.len()]).collect(),
            rep: candidates.iter().map(|c| (0..c.len()).collect()).collect(),
            candidates,
            class_ids: order,
            reachable: vec![true; n],
            required: vec![false; n],
            fixed: vec![None; n],
            stats: ReduceStats {
                vars_before,
                constraints_before,
                ..Default::default()
            },
        })
    }

    /// Runs the reduction pipeline: trim, [dominance + incumbent-bound ⇄
    /// forced-closure] fixpoint, reachability restriction, forcing. `ub`,
    /// when given, is a known-achievable solution value (the greedy-DAG
    /// incumbent) used for cost-bound pruning. Past `deadline`, when given,
    /// the closure and pruning passes stop where they are (see the module
    /// docs). Errs when the root class has no viable candidate left (the
    /// unreduced program would be infeasible).
    pub(crate) fn reduce(
        &mut self,
        ub: Option<f64>,
        deadline: Option<Instant>,
    ) -> Result<(), ExtractError> {
        let deadline = &mut Deadline::new(deadline);
        self.trim_nonviable();
        if self.live_count(0) == 0 {
            return Err(ExtractError::Infeasible);
        }
        self.mark_reachable();
        // Pruning can leave a class single-candidate, which grows the
        // forced closures, which both strengthen dominance and tighten the
        // cost bound — iterate to fixpoint (each round removes at least one
        // candidate, so it terminates).
        loop {
            let forced = self.forced_closures(deadline);
            let mut removed = self.prune_dominated(&forced, deadline);
            if let Some(ub) = ub {
                removed += self.prune_by_bound(&forced, ub, deadline);
            }
            if removed == 0 {
                break;
            }
            // Pruned candidates may have been the only path to a class.
            self.mark_reachable();
            if deadline.passed() {
                break;
            }
        }
        let forced = self.forced_closures(deadline);
        self.force_singletons(&forced[0]);
        Ok(())
    }

    /// Number of live candidates in class `i`.
    pub(crate) fn live_count(&self, i: usize) -> usize {
        self.alive[i].iter().filter(|&&a| a).count()
    }

    /// Chases `rep` chains to the surviving dominator of candidate `j` of
    /// class `i` (may be `j` itself; may be dead if `j` was trimmed as
    /// nonviable rather than dominated).
    pub(crate) fn resolve_rep(&self, i: usize, j: usize) -> usize {
        let mut r = j;
        while self.rep[i][r] != r {
            r = self.rep[i][r];
        }
        r
    }

    /// Kills candidates whose child classes have no live candidates, to
    /// fixpoint (a kill can empty a class, killing its parents' candidates
    /// in turn).
    fn trim_nonviable(&mut self) {
        loop {
            let mut changed = false;
            for i in 0..self.candidates.len() {
                for j in 0..self.candidates[i].len() {
                    if !self.alive[i][j] {
                        continue;
                    }
                    let nonviable = self.candidates[i][j]
                        .children
                        .iter()
                        .any(|&c| self.live_count(c) == 0);
                    if nonviable {
                        self.alive[i][j] = false;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
    }

    /// Recomputes which classes are reachable from the root through live
    /// candidates; only reachable classes are encoded.
    fn mark_reachable(&mut self) {
        let mut reach = vec![false; self.candidates.len()];
        reach[0] = true;
        let mut stack = vec![0];
        while let Some(i) = stack.pop() {
            for (j, cand) in self.candidates[i].iter().enumerate() {
                if !self.alive[i][j] {
                    continue;
                }
                for &c in &cand.children {
                    if !reach[c] {
                        reach[c] = true;
                        stack.push(c);
                    }
                }
            }
        }
        self.reachable = reach;
    }

    /// Computes the forced closures (see the module docs): `forced(i)` is a
    /// set of classes guaranteed selected by any feasible solution that
    /// selects class `i`. Chaotic iteration of the monotone update from
    /// `{i}` below the least fixpoint, so every stage is a sound
    /// under-approximation; classes are swept in reverse BFS order
    /// (children largely before parents) so acyclic chains converge in one
    /// pass. Past `deadline` the sweep stops and returns the stage reached.
    fn forced_closures(&self, deadline: &mut Deadline) -> Vec<BitSet> {
        let n = self.candidates.len();
        let mut forced: Vec<BitSet> = (0..n)
            .map(|i| {
                let mut b = BitSet::new(n);
                b.insert(i);
                b
            })
            .collect();
        let mut acc = BitSet::new(n);
        let mut union = BitSet::new(n);
        loop {
            let mut changed = false;
            for i in (0..n).rev() {
                if !self.reachable[i] {
                    continue;
                }
                if deadline.passed() {
                    return forced;
                }
                let mut first = true;
                for (j, cand) in self.candidates[i].iter().enumerate() {
                    if !self.alive[i][j] {
                        continue;
                    }
                    union.clear();
                    for &c in &cand.children {
                        union.union_with(&forced[c]);
                    }
                    if first {
                        acc.clear();
                        acc.union_with(&union);
                        first = false;
                    } else {
                        acc.intersect_with(&union);
                    }
                }
                if !first {
                    changed |= forced[i].union_with(&acc);
                }
            }
            if !changed {
                break;
            }
        }
        forced
    }

    /// One dominance-pruning sweep: within each class, a candidate `b` dies
    /// when a live sibling `a` has `cost(a) <= cost(b)` and
    /// `needs(a) ⊆ needs(b)`, where `needs(x)` is the union of the forced
    /// closures of `x`'s children. On an exact tie (equal cost, equal
    /// needs) only the later candidate dies, so the sweep is deterministic
    /// and always leaves a survivor. Past `deadline` the sweep stops before
    /// the next candidate. Returns the number pruned.
    fn prune_dominated(&mut self, forced: &[BitSet], deadline: &mut Deadline) -> usize {
        let n = self.candidates.len();
        let mut pruned = 0;
        'classes: for i in 0..n {
            if !self.reachable[i] {
                continue;
            }
            if deadline.passed() {
                break;
            }
            let live: Vec<usize> = (0..self.candidates[i].len())
                .filter(|&j| self.alive[i][j])
                .collect();
            if live.len() < 2 {
                continue;
            }
            let needs: Vec<BitSet> = live
                .iter()
                .map(|&j| {
                    let mut b = BitSet::new(n);
                    for &c in &self.candidates[i][j].children {
                        b.union_with(&forced[c]);
                    }
                    b
                })
                .collect();
            for (bi, &b) in live.iter().enumerate() {
                if deadline.passed() {
                    break 'classes;
                }
                for (ai, &a) in live.iter().enumerate() {
                    if a == b || !self.alive[i][a] {
                        continue;
                    }
                    let (ca, cb) = (self.candidates[i][a].cost, self.candidates[i][b].cost);
                    if ca > cb || !needs[ai].is_subset(&needs[bi]) {
                        continue;
                    }
                    if ca == cb && needs[bi].is_subset(&needs[ai]) && a > b {
                        continue; // exact tie: the earlier candidate wins
                    }
                    self.alive[i][b] = false;
                    self.rep[i][b] = a;
                    pruned += 1;
                    break;
                }
            }
        }
        self.stats.dominated_pruned += pruned;
        pruned
    }

    /// Incumbent cost-bound pruning (cost-bounded search in the style of
    /// arXiv:2410.05534): any solution selecting candidate `j` of class `i`
    /// selects at least `forced(root) ∪ {i} ∪ needs(j)` — so it costs at
    /// least `cost(j)` plus each other such class's cheapest live
    /// candidate. When that lower bound exceeds `ub` (a known-achievable
    /// value), `j` appears in no optimum and is pruned.
    ///
    /// Two guards keep this exact: pruning needs a strictly greater bound
    /// (with a small tolerance, so a candidate on the incumbent's own path
    /// — whose bound is ≤ the incumbent by construction — never dies), and
    /// the candidate with the smallest bound in each class is always kept,
    /// so no class is emptied even if `ub` is not ILP-achievable (e.g. the
    /// greedy graph used a node the candidate filter rejected).
    ///
    /// Past `deadline` the pass stops before the next candidate, and prunes
    /// nothing in a class whose bounds it did not finish.
    fn prune_by_bound(&mut self, forced: &[BitSet], ub: f64, deadline: &mut Deadline) -> usize {
        let n = self.candidates.len();
        let min_cost: Vec<f64> = (0..n)
            .map(|i| {
                (0..self.candidates[i].len())
                    .filter(|&j| self.alive[i][j])
                    .map(|j| self.candidates[i][j].cost)
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        let cutoff = ub + ub.abs() * 1e-9 + 1e-9;
        let mut pruned = 0;
        let mut need = BitSet::new(n);
        'classes: for i in 0..n {
            if !self.reachable[i] {
                continue;
            }
            let live: Vec<usize> = (0..self.candidates[i].len())
                .filter(|&j| self.alive[i][j])
                .collect();
            if live.len() < 2 {
                continue;
            }
            let mut bounds: Vec<f64> = Vec::with_capacity(live.len());
            for &j in &live {
                if deadline.passed() {
                    break 'classes;
                }
                need.clear();
                need.union_with(&forced[0]);
                need.insert(i);
                for &c in &self.candidates[i][j].children {
                    need.union_with(&forced[c]);
                }
                let mut lb = self.candidates[i][j].cost;
                for c in need.iter_ones() {
                    if c != i {
                        lb += min_cost[c];
                    }
                }
                bounds.push(lb);
            }
            let best = (0..live.len())
                .min_by(|&a, &b| bounds[a].total_cmp(&bounds[b]))
                .expect("class has live candidates");
            for (k, &j) in live.iter().enumerate() {
                if k != best && bounds[k] > cutoff {
                    self.alive[i][j] = false;
                    self.rep[i][j] = live[best];
                    pruned += 1;
                }
            }
        }
        self.stats.bound_pruned += pruned;
        pruned
    }

    /// Marks required classes and fixes every required class with exactly
    /// one live candidate, making its children required transitively. A
    /// class is required when every feasible solution selects it: the root
    /// (constraint (2)), everything in the root's forced closure `always`
    /// (sound by the closure's invariant — the root always selects), and
    /// the children of a fixed class (its implication rows). Fixing a
    /// required singleton removes no solution's residual freedom — it only
    /// subtracts a constant from the objective — and each required class
    /// contributes a `>= 1` row the solver's cover-group bound can count.
    ///
    /// Every other reachable class whose one live candidate is a childless
    /// zero-cost leaf (a `Num` parameter) is fixed as well: an optimum may
    /// select it for free, and left unfixed the one leaf class its many
    /// parents share would couple all of them into one component.
    fn force_singletons(&mut self, always: &BitSet) {
        self.required[0] = true;
        let mut stack = vec![0];
        for c in always.iter_ones() {
            if self.reachable[c] && !self.required[c] {
                self.required[c] = true;
                stack.push(c);
            }
        }
        while let Some(i) = stack.pop() {
            if self.live_count(i) != 1 {
                continue;
            }
            let j = (0..self.candidates[i].len())
                .find(|&j| self.alive[i][j])
                .expect("live_count == 1");
            self.fixed[i] = Some(j);
            self.stats.forced_classes += 1;
            for &c in &self.candidates[i][j].children {
                if !self.required[c] {
                    self.required[c] = true;
                    stack.push(c);
                }
            }
        }
        for i in 0..self.candidates.len() {
            if !self.reachable[i] || self.fixed[i].is_some() || self.live_count(i) != 1 {
                continue;
            }
            let j = (0..self.candidates[i].len())
                .find(|&j| self.alive[i][j])
                .expect("live_count == 1");
            let leaf = &self.candidates[i][j];
            if leaf.children.is_empty() && leaf.cost == 0.0 {
                self.fixed[i] = Some(j);
                self.stats.forced_classes += 1;
            }
        }
    }

    /// Connected components of the residual (reachable, unfixed) classes
    /// under the "shares an ILP row" relation: a live candidate links its
    /// class to each unfixed child class. Each component is an independent
    /// ILP — the constraint matrix is block-diagonal across components and
    /// the objective is additive — so they are solved separately and
    /// stitched. Components are returned with ascending class indices,
    /// ordered by smallest member, so encoding order is deterministic.
    pub(crate) fn components(&self) -> Vec<Vec<usize>> {
        let n = self.candidates.len();
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]]; // path halving
                x = parent[x];
            }
            x
        }
        let encoded: Vec<bool> = (0..n)
            .map(|i| self.reachable[i] && self.fixed[i].is_none())
            .collect();
        for i in 0..n {
            if !encoded[i] {
                continue;
            }
            for (j, cand) in self.candidates[i].iter().enumerate() {
                if !self.alive[i][j] {
                    continue;
                }
                for &c in &cand.children {
                    if encoded[c] {
                        let (ra, rb) = (find(&mut parent, i), find(&mut parent, c));
                        if ra != rb {
                            // Union by smaller index keeps roots minimal.
                            parent[ra.max(rb)] = ra.min(rb);
                        }
                    }
                }
            }
        }
        let mut comp_of_root: HashMap<usize, usize> = HashMap::new();
        let mut comps: Vec<Vec<usize>> = vec![];
        for (i, &enc) in encoded.iter().enumerate() {
            if !enc {
                continue;
            }
            let r = find(&mut parent, i);
            let slot = *comp_of_root.entry(r).or_insert_with(|| {
                comps.push(vec![]);
                comps.len() - 1
            });
            comps[slot].push(i);
        }
        comps
    }

    /// Total cost of the fixed classes' selections (the constant the
    /// reduction removed from the ILP objective).
    #[cfg(test)]
    pub(crate) fn fixed_cost(&self) -> f64 {
        (0..self.candidates.len())
            .filter_map(|i| self.fixed[i].map(|j| self.candidates[i][j].cost))
            .sum()
    }
}

/// The extraction deadline as the reduction passes poll it. Reading the
/// clock costs about what a pass's smallest step does, so a poll reads it
/// only every 32nd time; once the deadline has passed, every later poll
/// says so.
struct Deadline {
    at: Option<Instant>,
    polls: u32,
    passed: bool,
}

impl Deadline {
    fn new(at: Option<Instant>) -> Self {
        Deadline {
            at,
            polls: 0,
            passed: false,
        }
    }

    fn passed(&mut self) -> bool {
        if let Some(at) = self.at.filter(|_| !self.passed) {
            self.polls = self.polls.wrapping_add(1);
            self.passed = self.polls.is_multiple_of(32) && Instant::now() >= at;
        }
        self.passed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hand-builds a problem from (cost, children) per candidate per class;
    /// class 0 is the root. Node ids are dummies — the reduction passes
    /// never look at them.
    fn problem(classes: &[&[(f64, &[usize])]]) -> ExtractionProblem {
        let candidates: Vec<Vec<Candidate>> = classes
            .iter()
            .map(|cands| {
                cands
                    .iter()
                    .map(|&(cost, children)| Candidate {
                        node: Id::from(0),
                        cost,
                        children: children.to_vec(),
                    })
                    .collect()
            })
            .collect();
        let n = candidates.len();
        ExtractionProblem {
            alive: candidates.iter().map(|c| vec![true; c.len()]).collect(),
            rep: candidates.iter().map(|c| (0..c.len()).collect()).collect(),
            candidates,
            class_ids: (0..n).map(Id::from).collect(),
            reachable: vec![true; n],
            required: vec![false; n],
            fixed: vec![None; n],
            stats: ReduceStats::default(),
        }
    }

    #[test]
    fn dominance_must_not_fire_on_incomparable_needs() {
        // Root picks between two cost-tied candidates needing disjoint
        // leaf classes: neither needs-set contains the other, so both must
        // survive — pruning either could lose the optimum when leaf costs
        // differ.
        let mut p = problem(&[&[(5.0, &[1]), (5.0, &[2])], &[(1.0, &[])], &[(9.0, &[])]]);
        p.reduce(None, None).unwrap();
        assert_eq!(p.live_count(0), 2, "incomparable candidates must survive");
        assert_eq!(p.stats.dominated_pruned, 0);
        // The root stays a real ILP decision.
        assert!(p.fixed[0].is_none());
    }

    #[test]
    fn dominance_fires_on_superset_needs() {
        // Candidate 1 costs the same but needs a superset of classes:
        // dominated. The forced closure makes class 1's own need {1}
        // transitively include nothing else, so {1} ⊆ {1, 2}.
        let mut p = problem(&[&[(5.0, &[1]), (5.0, &[1, 2])], &[(1.0, &[])], &[(1.0, &[])]]);
        p.reduce(None, None).unwrap();
        assert_eq!(p.stats.dominated_pruned, 1);
        assert!(p.alive[0][0] && !p.alive[0][1]);
        assert_eq!(p.resolve_rep(0, 1), 0);
        // Pruning left the root single-candidate: forcing fixes the whole
        // chain and nothing is left to encode.
        assert_eq!(p.fixed[0], Some(0));
        assert!(p.components().is_empty());
        assert_eq!(p.fixed_cost(), 6.0);
    }

    #[test]
    fn exact_ties_keep_the_first_candidate() {
        let mut p = problem(&[&[(5.0, &[1]), (5.0, &[1])], &[(1.0, &[])]]);
        p.reduce(None, None).unwrap();
        assert!(p.alive[0][0] && !p.alive[0][1]);
        assert_eq!(p.resolve_rep(0, 1), 0);
    }

    #[test]
    fn cheaper_candidate_with_subset_needs_dominates() {
        let mut p = problem(&[&[(7.0, &[1]), (5.0, &[1])], &[(1.0, &[])]]);
        p.reduce(None, None).unwrap();
        assert!(!p.alive[0][0] && p.alive[0][1]);
        assert_eq!(p.resolve_rep(0, 0), 1);
    }

    #[test]
    fn forcing_propagates_through_single_candidate_chains() {
        // root -> {1, 2}; 1 -> {3}; classes 0..=2 single-candidate; class 3
        // picks between a cheap candidate needing class 4 and a pricier one
        // needing class 5 — incomparable needs, so dominance cannot fire
        // and the class stays a real ILP decision.
        let mut p = problem(&[
            &[(1.0, &[1, 2])],
            &[(1.0, &[3])],
            &[(1.0, &[])],
            &[(2.0, &[4]), (3.0, &[5])],
            &[(1.0, &[])],
            &[(1.0, &[])],
        ]);
        p.reduce(None, None).unwrap();
        assert_eq!(p.fixed[0], Some(0));
        assert_eq!(p.fixed[1], Some(0));
        assert_eq!(p.fixed[2], Some(0));
        assert!(p.fixed[3].is_none(), "multi-candidate class stays an ILP");
        assert!(p.required[3]);
        assert_eq!(p.stats.forced_classes, 3);
        assert_eq!(p.stats.dominated_pruned, 0);
        assert!((p.fixed_cost() - 3.0).abs() < 1e-12);
        // The residue (class 3 and its leaf alternatives) is one component.
        assert_eq!(p.components(), vec![vec![3, 4, 5]]);
    }

    #[test]
    fn independent_choices_decompose_into_components() {
        // A fixed root fans out to two unrelated two-way choices; each
        // choice's candidates have incomparable needs so neither collapses.
        let mut p = problem(&[
            &[(1.0, &[1, 2])],
            &[(4.0, &[3]), (4.0, &[4])],
            &[(4.0, &[5]), (4.0, &[6])],
            &[(1.0, &[])],
            &[(2.0, &[])],
            &[(1.0, &[])],
            &[(2.0, &[])],
        ]);
        p.reduce(None, None).unwrap();
        assert_eq!(p.fixed[0], Some(0));
        let comps = p.components();
        assert_eq!(comps.len(), 2, "unrelated choices split: {comps:?}");
        assert_eq!(comps[0], vec![1, 3, 4]);
        assert_eq!(comps[1], vec![2, 5, 6]);
        assert!(p.required[1] && p.required[2]);
        assert!(!p.required[3] && !p.required[4]);
    }

    #[test]
    fn a_shared_free_leaf_is_fixed_and_does_not_join_components() {
        // Two independent two-way choices whose first candidates both read
        // the free leaf class 7, which nothing requires. Fixed, the leaf
        // leaves the choices apart; unfixed, it would join them.
        let mut p = problem(&[
            &[(1.0, &[1, 2])],
            &[(4.0, &[3, 7]), (4.0, &[4])],
            &[(4.0, &[5, 7]), (4.0, &[6])],
            &[(1.0, &[])],
            &[(2.0, &[])],
            &[(1.0, &[])],
            &[(2.0, &[])],
            &[(0.0, &[])],
        ]);
        p.reduce(None, None).unwrap();
        assert_eq!(p.components(), vec![vec![1, 3, 4], vec![2, 5, 6]]);
        assert!(!p.required[7]);
        assert_eq!(p.fixed[7], Some(0));
    }

    #[test]
    fn nonviable_candidates_are_trimmed() {
        // Class 1 has only a candidate pointing at the empty class 2, so it
        // empties; the root candidate needing class 1 dies with it and the
        // root falls back to its other candidate.
        let mut p = problem(&[&[(1.0, &[1]), (9.0, &[])], &[(1.0, &[2])], &[]]);
        p.reduce(None, None).unwrap();
        assert!(!p.alive[0][0] && p.alive[0][1]);
        assert!(!p.reachable[1] && !p.reachable[2]);
        assert_eq!(p.fixed[0], Some(1));
    }

    #[test]
    fn empty_root_after_trim_is_infeasible() {
        let mut p = problem(&[&[(1.0, &[1])], &[]]);
        assert_eq!(p.reduce(None, None), Err(ExtractError::Infeasible));
    }
}
