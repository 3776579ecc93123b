//! Extraction: choosing one e-node per e-class to produce the best concrete
//! term represented by an e-graph.
//!
//! This module provides two extractors and a polish:
//!
//! * [`Extractor`] — the *tree-greedy* extractor (per-class minimum subtree
//!   cost, paper §5.1). Fast, but it treats children independently, so
//!   shared subgraphs are charged once per use.
//! * [`DagExtractor`] — the *global greedy DAG* extractor: a worklist-driven
//!   fixpoint that charges every e-node **once** regardless of how many
//!   selected parents share it, keeping per class the sorted list of the
//!   slots its chosen sub-DAG reaches (a few dozen of the e-graph's
//!   thousands of slots, so a list and not a bit set).
//! * [`Polish`] — first-improvement 1-opt on a selection.
//!
//! All three price e-nodes through one [`CostFunction`] — an e-node's own
//! cost, one `f64` — and pick one e-node per class, named by its node-table
//! id. [`build_term`] is the one walk that turns picks into a term, and
//! [`ChosenTerm::dag_cost`] the one sum that prices it: own costs added left
//! to right over the picks. [`Extractor`] and [`Polish`] read own costs from
//! one table, [`OwnCosts`], so each e-node is priced once. The ILP
//! extractor, which is DAG-exact, lives in `tensat-core` because it depends
//! on the ILP solver substrate; it reads its solution back through the same
//! walk, and `tensat_core::extract` dispatches over all three.

use crate::{Analysis, ClassGraph, EGraph, Id, Language, RecExpr};
use std::cmp::Ordering;

/// A cost function over e-nodes: what one e-node costs on its own.
///
/// The extractors price each e-node with [`CostFunction::node_cost`] and
/// sum the prices with `+`, comparing sums by [`f64::total_cmp`] (a NaN
/// without the sign bit orders above `+inf` and never wins a minimum).
/// [`Extractor`] forms a subtree cost — the node's own cost plus its
/// children's best subtree costs, in child order — so a class used twice is
/// charged twice; [`DagExtractor`] and [`Polish`] sum own costs over the set
/// of selected classes, each charged once.
///
/// Costs must be non-negative. Tree-greedy only replaces a class's best on
/// a strict improvement, and under non-negative sums a node whose child is
/// its own class never strictly improves it; with a negative-cost cycle its
/// fixpoint would keep descending and never stop.
pub trait CostFunction<L: Language, N: Analysis<L>> {
    /// The cost of this single e-node of `egraph`, children excluded. Must
    /// be deterministic: [`OwnCosts`] keeps the first answer per e-node,
    /// and [`DagExtractor`] asks again on every evaluation of the node's
    /// class (one per class on an acyclic e-graph).
    fn node_cost(&self, egraph: &EGraph<L, N>, enode: &L) -> f64;
}

impl<L: Language, N: Analysis<L>, C: CostFunction<L, N> + ?Sized> CostFunction<L, N> for &C {
    fn node_cost(&self, egraph: &EGraph<L, N>, enode: &L) -> f64 {
        (**self).node_cost(egraph, enode)
    }
}

/// Counts AST nodes, each e-node costing 1: the size of the term under
/// [`Extractor`], the number of distinct nodes under [`DagExtractor`].
#[derive(Debug, Clone, Copy, Default)]
pub struct AstSize;

impl<L: Language, N: Analysis<L>> CostFunction<L, N> for AstSize {
    fn node_cost(&self, _egraph: &EGraph<L, N>, _enode: &L) -> f64 {
        1.0
    }
}

/// The one own-cost table of an extraction: each e-node's
/// [`CostFunction::node_cost`] by node-table id ([`EGraph::num_node_ids`]),
/// asked of the cost function the first time it is read. [`Extractor`]
/// fills it, and a [`Polish`] handed it by [`Extractor::into_own_costs`]
/// reads it, so across the two each e-node is priced once.
#[derive(Debug)]
pub struct OwnCosts<CF> {
    cost_fn: CF,
    costs: Vec<Option<f64>>,
}

impl<CF> OwnCosts<CF> {
    /// The own cost of the e-node of `egraph` with node-table id `id`.
    pub fn get<L: Language, N: Analysis<L>>(&mut self, egraph: &EGraph<L, N>, id: Id) -> f64
    where
        CF: CostFunction<L, N>,
    {
        let cost_fn = &self.cost_fn;
        *self.costs[usize::from(id)]
            .get_or_insert_with(|| cost_fn.node_cost(egraph, egraph.enode(id)))
    }
}

/// Why [`build_term`] could not build a term from a choice of e-nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChoiceError {
    /// A class the term needs is not live or has no chosen e-node.
    Missing,
    /// The chosen e-nodes lead from a class back to itself: no finite term.
    Cyclic,
}

/// A term built from one chosen e-node per class.
#[derive(Debug, Clone)]
pub struct ChosenTerm<L> {
    /// The term; a class used more than once is stored once.
    pub expr: RecExpr<L>,
    /// The `(slot, node-table id)` chosen for every class the term uses,
    /// children before parents: `picks[i]`'s e-node became node `i` of `expr`.
    pub picks: Vec<(usize, Id)>,
}

impl<L> Default for ChosenTerm<L> {
    fn default() -> Self {
        ChosenTerm {
            expr: RecExpr::default(),
            picks: vec![],
        }
    }
}

impl<L> ChosenTerm<L> {
    /// The term's DAG cost: `own` of every pick, each class once, added left
    /// to right in emission order — the order of the term's nodes, so the
    /// bits are those of a sum over the built graph's nodes.
    pub fn dag_cost(&self, mut own: impl FnMut((usize, Id)) -> f64) -> f64 {
        self.picks
            .iter()
            .fold(0.0, |total, &pick| total + own(pick))
    }
}

/// Builds the term rooted at `root` in which every class is represented by
/// the e-node whose node-table id `choice` gives for its slot
/// ([`EGraph::slot_index`]).
///
/// One explicit frame per partially-built class instead of a recursion per
/// term-depth level: extracted terms can be deeper than a thread stack (a
/// ~100k-deep chain overflows the 2 MiB test-thread stack).
pub fn build_term<L: Language, N: Analysis<L>>(
    egraph: &EGraph<L, N>,
    root: Id,
    choice: impl Fn(usize) -> Option<Id>,
) -> Result<ChosenTerm<L>, ChoiceError> {
    let mut term = ChosenTerm::default();
    Walk::default().build(egraph, root, choice, &mut term)?;
    Ok(term)
}

/// The walk [`build_term`] makes, with its buffers — a state per slot and
/// a stack of frames — kept for the next build, so a caller that builds
/// many terms ([`Polish`]) allocates them once.
#[derive(Default)]
struct Walk {
    classes: Vec<Class>,
    /// Per class being built: its slot, its chosen e-node and the index of
    /// the next child to visit.
    stack: Vec<(usize, Id, usize)>,
}

/// Where the walk stands with a class: not reached, on the stack, or
/// emitted as this node of the term.
#[derive(Clone, Copy)]
enum Class {
    Unseen,
    Open,
    Done(Id),
}

impl Walk {
    /// Builds the term of [`build_term`] into `term`, reusing its buffers.
    fn build<L: Language, N: Analysis<L>>(
        &mut self,
        egraph: &EGraph<L, N>,
        root: Id,
        choice: impl Fn(usize) -> Option<Id>,
        term: &mut ChosenTerm<L>,
    ) -> Result<(), ChoiceError> {
        let slot_of = |id: Id| egraph.slot_index(id).ok_or(ChoiceError::Missing);
        let open = |slot: usize| Ok((slot, choice(slot).ok_or(ChoiceError::Missing)?, 0));
        term.expr.clear();
        term.picks.clear();
        let (classes, stack) = (&mut self.classes, &mut self.stack);
        classes.clear();
        classes.resize(egraph.num_slots(), Class::Unseen);
        stack.clear();
        let root = slot_of(root)?;
        classes[root] = Class::Open;
        stack.push(open(root)?);
        loop {
            let (_, id, next_child) = stack.last_mut().expect("loop returns before emptying");
            if let Some(&child) = egraph.enode(*id).children().get(*next_child) {
                *next_child += 1;
                let child = slot_of(child)?;
                match classes[child] {
                    Class::Done(_) => {}
                    Class::Open => return Err(ChoiceError::Cyclic),
                    Class::Unseen => {
                        classes[child] = Class::Open;
                        stack.push(open(child)?);
                    }
                }
                continue;
            }
            // All children emitted: emit this node.
            let (slot, id, _) = stack.pop().expect("a frame is always on the stack");
            let emitted = |child: Id| match egraph.slot_index(child).map(|s| classes[s]) {
                Some(Class::Done(id)) => id,
                _ => unreachable!("a node is emitted after its children"),
            };
            classes[slot] = Class::Done(term.expr.add(egraph.enode(id).map_children(emitted)));
            term.picks.push((slot, id));
            if stack.is_empty() {
                return Ok(());
            }
        }
    }
}

/// Greedy bottom-up extractor.
///
/// For every e-class it computes the e-node with the smallest subtree cost
/// (a fixpoint over the e-graph, since classes may be mutually recursive).
/// Filtered e-nodes are ignored. Greedy extraction treats children
/// independently, so it over-counts shared subgraphs — exactly the weakness
/// the paper's ILP extraction addresses (paper §5.1, Table 4).
///
/// # Examples
///
/// ```
/// use tensat_egraph::{EGraph, Extractor, AstSize, Symbol};
/// use tensat_egraph::doctest_lang::SimpleMath as Math;
/// let mut eg: EGraph<Math, ()> = EGraph::new(());
/// let a = eg.add(Math::Sym(Symbol::new("a")));
/// let two = eg.add(Math::Num(2));
/// let mul = eg.add(Math::Mul([a, two]));
/// eg.union(mul, a); // pretend we proved (* a 2) == a
/// eg.rebuild();
/// let extractor = Extractor::new(&eg, AstSize);
/// let (cost, term) = extractor.find_best(mul).unwrap();
/// assert_eq!(cost, 1.0);
/// assert_eq!(term.expr.to_string(), "a");
/// ```
pub struct Extractor<'a, L: Language, N: Analysis<L>, CF: CostFunction<L, N>> {
    egraph: &'a EGraph<L, N>,
    own: OwnCosts<CF>,
    /// Best (cost, node id) per class, indexed by the e-graph's dense slot
    /// space ([`EGraph::slot_index`]) — no hashing on the extraction path.
    best: Vec<Option<(f64, Id)>>,
    /// Nodes costed so far: [`Extractor::offer`] calls that found every
    /// child with a best.
    #[cfg(test)]
    evaluations: usize,
}

impl<L: Language, N: Analysis<L>, CF: CostFunction<L, N>> std::fmt::Debug
    for Extractor<'_, L, N, CF>
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Extractor")
            .field(
                "classes_with_cost",
                &self.best.iter().filter(|b| b.is_some()).count(),
            )
            .finish()
    }
}

impl<'a, L: Language, N: Analysis<L>, CF: CostFunction<L, N>> Extractor<'a, L, N, CF> {
    /// Computes best costs for every e-class of the e-graph.
    pub fn new(egraph: &'a EGraph<L, N>, cost_fn: CF) -> Self {
        let mut extractor = Extractor::without_costs(egraph, cost_fn);
        extractor.compute_costs();
        extractor
    }

    fn without_costs(egraph: &'a EGraph<L, N>, cost_fn: CF) -> Self {
        Extractor {
            egraph,
            own: OwnCosts {
                cost_fn,
                costs: vec![None; egraph.num_node_ids()],
            },
            best: vec![None; egraph.num_slots()],
            #[cfg(test)]
            evaluations: 0,
        }
    }

    /// Sweeps the classes in slot order until a sweep improves no class's
    /// best, replacing a best only on a strict improvement.
    ///
    /// A sweep evaluates an e-node only if a child class's best has
    /// improved since the node was last evaluated — in the first sweep
    /// every node is. Skipping is exact, ties included: the cost function
    /// is deterministic, so a node whose children's bests are what they
    /// were would be given the cost it was given before, which the class's
    /// best — only ever lowered since — already matches or beats. The work
    /// is therefore one evaluation per (node, improvement of one of its
    /// children), not one per node per sweep: a chain visited parents-first
    /// takes a sweep per level and still evaluates every node once.
    ///
    /// An evaluation is the node's own cost plus its children's bests, and
    /// only the children's part can have moved since the last one, so the
    /// own cost is read from the extractor's [`OwnCosts`], which asks the
    /// cost function once per e-node (BERT explored to 20 000 e-nodes:
    /// 96 469 evaluations of 18 210 e-nodes).
    fn compute_costs(&mut self) {
        // The sweep (counted from 1) in which each class's best last
        // improved; 0 = it has none yet.
        let mut improved = vec![0u32; self.egraph.num_slots()];
        let mut sweep = 0;
        let mut changed = true;
        while changed {
            changed = false;
            sweep += 1;
            for class in self.egraph.classes() {
                let slot = self
                    .egraph
                    .slot_index(class.id)
                    .expect("iterated class is live");
                for id in self.egraph.enode_ids(class) {
                    // Improved since this class's last turn: earlier in
                    // this sweep, or in the previous one at or after the
                    // turn (classes are swept in slot order; "at" is a
                    // node that has its own class as a child).
                    let child_improved = |&c: &Id| {
                        self.egraph.slot_index(c).is_some_and(|c| {
                            improved[c] == sweep || (improved[c] + 1 == sweep && c >= slot)
                        })
                    };
                    if sweep > 1 && !self.egraph.enode(id).children().iter().any(child_improved) {
                        continue;
                    }
                    if self.offer(slot, id) {
                        improved[slot] = sweep;
                        changed = true;
                    }
                }
            }
        }
    }

    /// Evaluates the e-node with node id `id`, if all its children have
    /// bests, and makes it the best of the class in `slot` if it is a
    /// strict improvement; returns whether it was.
    fn offer(&mut self, slot: usize, id: Id) -> bool {
        let egraph = self.egraph;
        let node = egraph.enode(id);
        if !node.all(|c| self.best_entry(c).is_some()) {
            return false;
        }
        #[cfg(test)]
        {
            self.evaluations += 1;
        }
        let mut cost = self.own.get(egraph, id);
        for &c in node.children() {
            let (child, _) = self.best_entry(c).expect("checked above");
            cost += child;
        }
        // Total-order comparison: replace only on a strict improvement,
        // so NaN (ordered above +inf) can never displace a finite best.
        if matches!(self.best[slot], Some((best, _)) if !cost.total_cmp(&best).is_lt()) {
            return false;
        }
        self.best[slot] = Some((cost, id));
        true
    }

    /// The best entry recorded for a class's slot, if any.
    fn best_entry(&self, class: Id) -> Option<&(f64, Id)> {
        self.best[self.egraph.slot_index(class)?].as_ref()
    }

    /// The best cost of a class, if any finite term is represented.
    pub fn best_cost(&self, id: Id) -> Option<f64> {
        self.best_entry(id).map(|&(c, _)| c)
    }

    /// Extracts the best term rooted at `root`: its tree cost, and the term
    /// with the per-class picks it was built from. Returns `None` if the
    /// class represents no finite term (possible when every candidate node
    /// was filtered or participates in an unavoidable cycle).
    pub fn find_best(&self, root: Id) -> Option<(f64, ChosenTerm<L>)> {
        let cost = self.best_cost(root)?;
        let best_node = |slot: usize| self.best[slot].as_ref().map(|&(_, id)| id);
        Some((cost, build_term(self.egraph, root, best_node).ok()?))
    }

    /// The own costs the sweeps asked for, to price a selection with or to
    /// hand to a [`Polish`].
    pub fn into_own_costs(self) -> OwnCosts<CF> {
        self.own
    }
}

/// The per-class state of a [`DagExtractor`] entry.
struct DagEntry {
    /// The node-table id of the chosen e-node.
    choice: Id,
    /// This node's own (children-excluded) cost.
    own: f64,
    /// Slots of every class in the chosen sub-DAG, including this one,
    /// ascending and without duplicates. Written once at its exact length
    /// and only ever replaced, so a box and not a `Vec`; emptied once the
    /// last parent that can read it has been costed (see
    /// [`DagExtractor::run_worklist`]).
    reach: Box<[u32]>,
    /// The length of `reach` when it was recorded.
    reach_len: u32,
    /// Total cost of the sub-DAG: own costs summed over `reach` in that
    /// (ascending slot) order, each class charged once.
    total: f64,
}

/// The buffers [`DagExtractor::evaluate`] builds candidate reach lists in,
/// reused across candidates and classes.
#[derive(Default)]
struct ReachScratch {
    /// The union of the children's reach lists merged so far.
    merged: Vec<u32>,
    /// The output of the next merge; swapped with `merged` after it.
    spare: Vec<u32>,
    /// `merged` of the best candidate so far; swapped, not copied, when a
    /// candidate improves on it.
    best: Vec<u32>,
}

/// Merges two ascending duplicate-free lists into `out` (cleared first),
/// ascending and duplicate-free.
fn merge_sorted(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    out.clear();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

/// The acyclic prefix of the class graph: the classes that reach no cycle
/// through two or more classes (a self loop does not count — the reach
/// check rejects such a node per candidate). Returned as the prefix's slots
/// children first, and a flag per slot.
///
/// One numbering of the components ([`ClassGraph::components`]) gives
/// both: a class is in the prefix when its component is itself alone and
/// every other child is in the prefix, and a component completes after all
/// it reaches. The walk starts from the classes without a parent, in slot
/// order, so on an acyclic graph the prefix is every class in depth-first
/// post-order, one subtree at a time.
fn acyclic_prefix(graph: &ClassGraph, parents: &ClassGraph) -> (Vec<u32>, Vec<bool>) {
    let n = graph.num_slots();
    let mut order: Vec<u32> = Vec::with_capacity(n);
    let mut in_prefix = vec![false; n];
    let roots = (0..n).filter(|&s| parents.row(s).is_empty());
    graph.components(roots.chain(0..n), |members| {
        if let &[s] = members {
            let children = graph.row(s as usize);
            if children.iter().all(|&c| c == s || in_prefix[c as usize]) {
                in_prefix[s as usize] = true;
                order.push(s);
            }
        }
    });
    (order, in_prefix)
}

/// Global greedy DAG extractor (ARCHITECTURE.md, "The global greedy DAG
/// extractor").
///
/// The tree-greedy [`Extractor`] double-counts shared subgraphs, so it
/// never pays a small up-front cost (e.g. the `split` form of a merged
/// matmul) to share a large subgraph between two consumers — the weakness
/// the paper's ILP extraction exists to fix (paper §5.1, Table 4). This
/// extractor closes most of that gap at greedy speed: for every e-class it
/// keeps the best known *sub-DAG* — a chosen e-node, the sorted list of the
/// class slots its selection reaches (over [`EGraph::slot_index`]'s dense
/// slot space), and the cost of that set with every class charged **once**.
///
/// Candidates are evaluated bottom-up: the acyclic prefix of the class
/// graph ([`ClassGraph`], the snapshot the cycle pre-filter reads too)
/// children first, in the order its component numbering completes it —
/// depth-first post-order on an acyclic graph, one subtree at a time —
/// then the classes caught in or above a dependency cycle in slot order; a
/// FIFO worklist then propagates strict improvements to parent classes
/// until fixpoint. A candidate node is viable only when all its child
/// classes have entries and none of their reach lists contains the
/// candidate's own class (which would make the selection cyclic). On an
/// acyclic e-graph — what cycle filtering guarantees during exploration —
/// the topological pass alone reaches the fixpoint and the worklist drains
/// immediately; on cyclic e-graphs the worklist resolves the stragglers
/// best-effort and [`DagExtractor::find_best`] re-verifies acyclicity of
/// the final selection.
///
/// A candidate's reach is the merge of its children's lists, so costing it
/// takes time in the size of the sub-DAGs it would select — a few dozen
/// classes on the benchmark models — and not in the size of the e-graph.
/// Only its parents' evaluations read a class's list, so on the acyclic
/// part a list lives until its class's last parent is costed; the
/// depth-first order finishes one subtree before it starts the next, so
/// the lists live at once are those hanging off one path, not a whole
/// level of the graph. A class with a parent in a dependency cycle keeps
/// its list, because the worklist may evaluate that parent again. A
/// candidate's cost is summed over the merged list in ascending slot
/// order, whatever order the children came in, so a float total does not
/// depend on how the set was put together.
///
/// Everything is slot-indexed flat arrays — no per-call hash maps — and
/// every iteration order (class slots, in-class node order, FIFO worklist)
/// is deterministic, so repeated runs return bit-identical expressions.
///
/// # Examples
///
/// ```
/// use tensat_egraph::{EGraph, DagExtractor, AstSize, Symbol};
/// use tensat_egraph::doctest_lang::SimpleMath as Math;
/// let mut eg: EGraph<Math, ()> = EGraph::new(());
/// let a = eg.add(Math::Sym(Symbol::new("a")));
/// let two = eg.add(Math::Num(2));
/// let mul = eg.add(Math::Mul([a, two]));
/// eg.union(mul, a); // pretend we proved (* a 2) == a
/// eg.rebuild();
/// let extractor = DagExtractor::new(&eg, AstSize);
/// let (dag_size, term) = extractor.find_best(mul).unwrap();
/// assert_eq!(dag_size, 1.0);
/// assert_eq!(term.expr.to_string(), "a");
/// ```
pub struct DagExtractor<'a, L: Language, N: Analysis<L>, CF: CostFunction<L, N>> {
    egraph: &'a EGraph<L, N>,
    cost_fn: CF,
    /// Best sub-DAG per class, indexed by the e-graph's dense slot space.
    entries: Vec<Option<DagEntry>>,
}

impl<L: Language, N: Analysis<L>, CF: CostFunction<L, N>> std::fmt::Debug
    for DagExtractor<'_, L, N, CF>
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DagExtractor")
            .field(
                "classes_with_entry",
                &self.entries.iter().filter(|e| e.is_some()).count(),
            )
            .finish()
    }
}

impl<'a, L: Language, N: Analysis<L>, CF: CostFunction<L, N>> DagExtractor<'a, L, N, CF> {
    /// Computes the best sub-DAG for every e-class of the e-graph.
    pub fn new(egraph: &'a EGraph<L, N>, cost_fn: CF) -> Self {
        let mut extractor = DagExtractor::without_entries(egraph, cost_fn);
        let mut scratch = ReachScratch::default();
        extractor.run_worklist(|extractor, s| extractor.evaluate(s, &mut scratch));
        extractor
    }

    fn without_entries(egraph: &'a EGraph<L, N>, cost_fn: CF) -> Self {
        DagExtractor {
            egraph,
            cost_fn,
            entries: (0..egraph.num_slots()).map(|_| None).collect(),
        }
    }

    /// Offers every class to `evaluate` (which costs its candidates and
    /// returns whether it improved the class's entry): once each, children
    /// before parents, then again for the parents of every class that
    /// improved, until no class does.
    ///
    /// A class of the acyclic prefix ([`acyclic_prefix`]) is evaluated
    /// exactly once: its children all come before it, and a class that
    /// improves re-queues only parents still waiting in the queue. So once
    /// every parent of a class whose parents all lie in the prefix has been
    /// evaluated, nothing reads its reach list again, and the list is
    /// released. The prefix goes in component order — depth-first
    /// post-order on an acyclic graph, one subtree at a time — so few lists
    /// are live at once.
    fn run_worklist(&mut self, mut evaluate: impl FnMut(&mut Self, usize) -> bool) {
        let graph = ClassGraph::new(self.egraph);
        let parents = graph.parents();
        let n = graph.num_slots();
        let (mut order, in_prefix) = acyclic_prefix(&graph, &parents);

        // The parents each class waits on before its list is released.
        // `KEEP` marks a class with a parent outside the prefix.
        const KEEP: u32 = u32::MAX;
        let mut waiting: Vec<u32> = (0..n)
            .map(|c| {
                let parents = parents.row(c);
                if parents.iter().all(|&p| in_prefix[p as usize]) {
                    parents.len() as u32
                } else {
                    KEEP
                }
            })
            .collect();
        order.extend((0..n as u32).filter(|&s| !in_prefix[s as usize]));
        drop(in_prefix);

        // Seed the worklist with that order, then drain FIFO.
        let mut queue: std::collections::VecDeque<u32> = order.into();
        let mut in_queue = vec![true; n];
        while let Some(s) = queue.pop_front() {
            let s = s as usize;
            in_queue[s] = false;
            if evaluate(self, s) {
                for &p in parents.row(s) {
                    if !in_queue[p as usize] {
                        in_queue[p as usize] = true;
                        queue.push_back(p);
                    }
                }
            }
            // Only a prefix class counts down: a child of any other class
            // has that class as a parent outside the prefix, so it is `KEEP`.
            // A self loop is no parent (`parents` leaves it out).
            for &c in graph.row(s) {
                let waiting = &mut waiting[c as usize];
                if c as usize != s && *waiting != KEEP {
                    *waiting -= 1;
                    if *waiting == 0 {
                        if let Some(entry) = &mut self.entries[c as usize] {
                            entry.reach = Box::default();
                        }
                    }
                }
            }
        }
    }

    /// Costs every candidate node of the class in slot `s` — its
    /// unfiltered e-nodes, read in place off its node list — and installs
    /// the cheapest viable one if it strictly improves on the current
    /// entry. Returns true on improvement.
    fn evaluate(&mut self, s: usize, scratch: &mut ReachScratch) -> bool {
        let egraph = self.egraph;
        let Some(class) = egraph.slot_class(s) else {
            return false;
        };
        let own_slot = s as u32;
        // (sub-DAG total, the node's own cost, node id); the sub-DAG's
        // reach without `s` is `scratch.best`.
        let mut best: Option<(f64, f64, Id)> = None;
        'candidates: for id in egraph.enode_ids(class) {
            let node = egraph.enode(id);
            scratch.merged.clear();
            for &child in node.children() {
                let slot = egraph.slot_index(child);
                let Some(entry) = slot.and_then(|c| self.entries[c].as_ref()) else {
                    continue 'candidates;
                };
                if entry.reach.binary_search(&own_slot).is_ok() {
                    // The child's sub-DAG already reaches this class:
                    // selecting this node would close a cycle.
                    continue 'candidates;
                }
                merge_sorted(&scratch.merged, &entry.reach, &mut scratch.spare);
                std::mem::swap(&mut scratch.merged, &mut scratch.spare);
            }
            let own = self.cost_fn.node_cost(egraph, node);
            let mut total = own;
            // Ascending slot order whatever order the children came in:
            // the order a float total is defined by.
            for &d in &scratch.merged {
                let entry = self.entries[d as usize].as_ref();
                total += entry.expect("reached entry exists").own;
            }
            let better = best.is_none_or(|(cost, ..)| total.total_cmp(&cost).is_lt());
            if better {
                best = Some((total, own, id));
                std::mem::swap(&mut scratch.merged, &mut scratch.best);
            }
        }
        let Some((total, own, choice)) = best else {
            return false;
        };
        let improved = self.entries[s]
            .as_ref()
            .is_none_or(|entry| total.total_cmp(&entry.total).is_lt());
        if improved {
            let at = scratch.best.partition_point(|&d| d < own_slot);
            let (below, above) = (&scratch.best[..at], &scratch.best[at..]);
            let mut reach = Vec::with_capacity(scratch.best.len() + 1);
            reach.extend_from_slice(below);
            reach.push(own_slot);
            reach.extend_from_slice(above);
            self.entries[s] = Some(DagEntry {
                choice,
                own,
                reach_len: reach.len() as u32,
                reach: reach.into_boxed_slice(),
                total,
            });
        }
        improved
    }

    /// How many classes the best sub-DAG recorded for a class selects (the
    /// class itself included), if it has one: what the extractor stores,
    /// and merges, for that class.
    pub fn reach_len(&self, id: Id) -> Option<usize> {
        let slot = self.egraph.slot_index(id)?;
        self.entries[slot].as_ref().map(|e| e.reach_len as usize)
    }

    /// The best DAG cost recorded for a class, if any.
    pub fn best_cost(&self, id: Id) -> Option<f64> {
        let slot = self.egraph.slot_index(id)?;
        self.entries[slot].as_ref().map(|e| e.total)
    }

    /// Extracts the best DAG rooted at `root`: the cost (each selected
    /// e-node charged once), and the term with the per-class picks it was
    /// built from. The cost is [`ChosenTerm::dag_cost`] of the term, not
    /// the fixpoint's sub-DAG total, so it is honest even when a cyclic
    /// e-graph left stale entries. Returns `None` if the class has no
    /// viable selection or (possible only without cycle filtering) the
    /// per-class choices form a cycle.
    pub fn find_best(&self, root: Id) -> Option<(f64, ChosenTerm<L>)> {
        let entry = |slot: usize| self.entries[slot].as_ref();
        let term = build_term(self.egraph, root, |slot| entry(slot).map(|e| e.choice)).ok()?;
        let cost = term.dag_cost(|(slot, _)| entry(slot).expect("a pick has an entry").own);
        Some((cost, term))
    }

    /// The node-table id of the e-node chosen for every slot's class, if it
    /// has an entry: the fill a [`Polish`] reads.
    pub fn choices(&self) -> Vec<Option<Id>> {
        self.entries
            .iter()
            .map(|e| e.as_ref().map(|e| e.choice))
            .collect()
    }
}

/// Polishes selections by first-improvement 1-opt.
///
/// A selection chooses one e-node per class it reaches from the root, and
/// costs what its term costs ([`ChosenTerm::dag_cost`]): the own costs of
/// those classes, each class once, summed in the order [`build_term`] emits
/// them. [`Polish::run`] walks the selected classes in that order and tries
/// each class's other unfiltered e-nodes in list order; the first move that
/// leaves the selection acyclic and complete and makes it strictly cheaper
/// ([`f64::total_cmp`]) is taken, and the walk starts again. It ends when a
/// whole walk takes no move: the selection is then a local optimum, and the
/// order is fixed, so the result is deterministic. A class a move first
/// reaches takes its e-node from the fill ([`DagExtractor::choices`]); a
/// class a move leaves keeps its e-node, and takes it back if a later move
/// reaches it again.
///
/// A move is priced by what it changes, not by building the selection's
/// term. The selection keeps per slot how many selected classes use it,
/// which gives, once per class, the classes only its e-node keeps selected.
/// A move costs its e-node's own cost less the old one's, plus the classes
/// the new e-node newly reaches, less those only the old one reached: the
/// old e-node's classes that the new one does not reach as well. A move is
/// cyclic when the new e-node reaches the moved class through classes that
/// are not selected or through one that reaches the moved class already;
/// only a class after it in children-first order can, so that is all that
/// is searched. A search stops as soon as what it has found already prices
/// the move out. Only a move that can be an improvement is confirmed by
/// building its term, which prices it exactly and gives the next walk's
/// order.
///
/// Own costs are read from the [`OwnCosts`] the polish is given, across
/// all its runs.
pub struct Polish<'a, L: Language, N: Analysis<L>, CF: CostFunction<L, N>> {
    egraph: &'a EGraph<L, N>,
    own: OwnCosts<CF>,
    /// Per slot: the e-node a class takes when a run's start or a move
    /// first reaches it.
    fill: Vec<Option<Id>>,
    /// The root of the current run.
    root: Id,
    /// Per slot: the chosen e-node of a selected class; of any other, the
    /// one it takes when a move reaches it.
    choice: Vec<Option<Id>>,
    /// Per slot: how many selected classes have the class as a child of
    /// their chosen e-node (a class counted once per parent), plus one for
    /// the root. A class is selected when this is not 0.
    uses: Vec<u32>,
    /// The selection's term: its picks are the selected classes, children
    /// first.
    term: ChosenTerm<L>,
    /// The walk that builds terms, and the term of the last build, which a
    /// taken move swaps with `term`.
    walk: Walk,
    built: ChosenTerm<L>,
    /// Per slot: a selected class's index in the picks.
    pos: Vec<u32>,
    /// The selection's cost.
    total: f64,
    /// Per slot: search marks, `2 * stamp` while a search has a class open
    /// and `2 * stamp + 1` once it is done with it.
    mark: Vec<u32>,
    stamp: u32,
    /// Per slot: `moving` if the selected class reaches the class being
    /// moved; decided for the picks up to `scanned`.
    ancestor: Vec<u32>,
    scanned: usize,
    /// Per slot: `moving` if only the e-node of the class being moved keeps
    /// the class selected; set with `freed`.
    only_moved: Vec<u32>,
    /// The classes only the e-node of the class being moved keeps
    /// selected, once asked ([`Polish::try_move`]).
    freed: Option<Sum>,
    /// A stamp per class being moved.
    moving: u32,
    /// Scratch: slots to count up or down, a search's stack of (slot, next
    /// child).
    cascade: Vec<u32>,
    frames: Vec<(u32, u32)>,
    /// Moves tried.
    #[cfg(test)]
    trials: usize,
}

/// Classes priced together: their summed own costs, and how many.
type Sum = (f64, usize);

impl<L: Language, N: Analysis<L>, CF: CostFunction<L, N>> std::fmt::Debug for Polish<'_, L, N, CF> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Polish")
            .field("selected", &self.term.picks.len())
            .finish()
    }
}

impl<'a, L: Language, N: Analysis<L>, CF: CostFunction<L, N>> Polish<'a, L, N, CF> {
    /// A polish of selections in `egraph` that reads own costs from `own`
    /// and fills a class a move first reaches from `fill`, indexed by slot
    /// ([`EGraph::slot_index`]).
    pub fn new(egraph: &'a EGraph<L, N>, own: OwnCosts<CF>, fill: Vec<Option<Id>>) -> Self {
        let n = egraph.num_slots();
        assert_eq!(fill.len(), n, "one fill entry per slot");
        Polish {
            egraph,
            own,
            root: Id::from(0),
            choice: fill.clone(),
            fill,
            uses: vec![0; n],
            term: ChosenTerm::default(),
            walk: Walk::default(),
            built: ChosenTerm::default(),
            pos: vec![0; n],
            total: 0.0,
            mark: vec![0; n],
            stamp: 0,
            ancestor: vec![0; n],
            scanned: 0,
            only_moved: vec![0; n],
            freed: None,
            moving: 0,
            cascade: vec![],
            frames: vec![],
            #[cfg(test)]
            trials: 0,
        }
    }

    /// Polishes the selection `start` rooted at `root`, as
    /// [`ChosenTerm::picks`] lists one; returns the polished selection's
    /// term and its DAG cost, or `None` if `start` builds no term.
    pub fn run(&mut self, root: Id, start: &[(usize, Id)]) -> Option<(f64, ChosenTerm<L>)> {
        self.polish(root, start, Polish::try_move)
    }

    /// [`Polish::run`] with every move priced, and checked, by building its
    /// term instead of by what it changes: slower, and the same picks. The
    /// reference `run` is tested against.
    pub fn run_by_walk(&mut self, root: Id, start: &[(usize, Id)]) -> Option<(f64, ChosenTerm<L>)> {
        self.polish(root, start, Polish::try_move_by_walk)
    }

    /// Selects `start` and prices it, then walks the selected classes
    /// children first, trying each of a class's other unfiltered e-nodes
    /// with `try_move(self, slot, old, new)`, which returns whether it took
    /// the move; after a move the walk starts over, and it ends after a walk
    /// without one. `None` if `start` builds no term.
    fn polish(
        &mut self,
        root: Id,
        start: &[(usize, Id)],
        mut try_move: impl FnMut(&mut Self, usize, Id, Id) -> bool,
    ) -> Option<(f64, ChosenTerm<L>)> {
        self.root = root;
        self.choice.copy_from_slice(&self.fill);
        for &(slot, id) in start {
            self.choice[slot] = Some(id);
        }
        let total = self.build().ok()?;
        self.take(total);
        self.uses.fill(0);
        let (root, root_node) = *self.term.picks.last().expect("a term has a root");
        self.uses[root] = 1;
        self.count_up(root_node);
        let egraph = self.egraph;
        'walk: loop {
            for i in 0..self.term.picks.len() {
                let (s, old) = self.term.picks[i];
                let class = egraph.slot_class(s).expect("a selected class is live");
                self.moving += 1;
                self.scanned = i;
                self.freed = None;
                for new in egraph.enode_ids(class) {
                    if new == old {
                        continue;
                    }
                    #[cfg(test)]
                    {
                        self.trials += 1;
                    }
                    if try_move(self, s, old, new) {
                        continue 'walk;
                    }
                }
            }
            return Some((self.total, std::mem::take(&mut self.term)));
        }
    }

    /// Moves the class in slot `s` from e-node `old` to `new` if that keeps
    /// the selection acyclic and complete and makes it strictly cheaper;
    /// returns whether it did.
    fn try_move(&mut self, s: usize, old: Id, new: Id) -> bool {
        let freed = match self.freed {
            Some(freed) => freed,
            None => {
                let freed = self.count_down(old);
                self.count_up(old);
                *self.freed.insert(freed)
            }
        };
        let egraph = self.egraph;
        let (own_new, own_old) = (self.own.get(egraph, new), self.own.get(egraph, old));
        let hopeless =
            |polish: &Self, gain, kept| polish.no_gain(own_new, own_old, gain, freed, kept);
        if self.newly_reached(s, new, hopeless).is_none() {
            return false;
        }
        self.choice[s] = Some(new);
        let total = self
            .build()
            .expect("the move was checked acyclic and complete");
        if total.total_cmp(&self.total).is_lt() {
            self.take(total);
            self.count_up(new);
            self.count_down(old);
            return true;
        }
        self.choice[s] = Some(old);
        false
    }

    /// [`Polish::try_move`] without the pricing by change: every move is
    /// priced, and checked, by building its term.
    fn try_move_by_walk(&mut self, s: usize, old: Id, new: Id) -> bool {
        self.choice[s] = Some(new);
        match self.build() {
            Ok(total) if total.total_cmp(&self.total).is_lt() => {
                self.take(total);
                true
            }
            _ => {
                self.choice[s] = Some(old);
                false
            }
        }
    }

    /// Whether a move from an e-node of own cost `own_old` to one of
    /// `own_new` is no strict improvement however the sum rounds, when it
    /// newly reaches `gain` and the old e-node alone reached `freed`, of
    /// which the new one keeps `kept`. The sum adds fewer than `terms`
    /// non-negative costs, so it is off the exact sum by fewer than `terms`
    /// ulps of its total, and a delta above the bound below cannot be made
    /// up by that. Anything else (NaN included) is for the sum to decide.
    fn no_gain(&self, own_new: f64, own_old: f64, gain: Sum, freed: Sum, kept: Sum) -> bool {
        let delta = own_new - own_old + gain.0 - (freed.0 - kept.0);
        let terms = (self.term.picks.len() + gain.1 + freed.1 + kept.1 + 4) as f64;
        let scale = self.total + own_new + own_old + gain.0 + freed.0 + kept.0;
        delta > 2.0 * terms * f64::EPSILON * scale
    }

    /// Searches what moving the class in slot `s` to e-node `new` reaches
    /// besides what stays selected without the old e-node: the classes it
    /// newly selects, and those only the old e-node reached that it keeps.
    /// `None` if one has no choice; if the move closes a cycle; or as soon
    /// as `hopeless(self, newly selected, kept)` says the move costs too
    /// much.
    fn newly_reached(
        &mut self,
        s: usize,
        new: Id,
        hopeless: impl Fn(&Self, Sum, Sum) -> bool,
    ) -> Option<()> {
        let (mut gain, mut kept) = ((0.0, 0), (0.0, 0));
        if hopeless(self, gain, kept) {
            return None;
        }
        self.stamp += 1;
        let (open, done) = (2 * self.stamp, 2 * self.stamp + 1);
        self.mark[s] = open;
        self.frames.clear();
        self.frames.push((s as u32, 0));
        while let Some(&mut (c, ref mut next)) = self.frames.last_mut() {
            let node = if c as usize == s {
                new
            } else {
                self.choice[c as usize].expect("an open class has a choice")
            };
            let Some(&child) = self.egraph.enode(node).children().get(*next as usize) else {
                self.mark[c as usize] = done;
                self.frames.pop();
                continue;
            };
            *next += 1;
            let child = self.slot(child);
            if self.mark[child] == open {
                return None;
            }
            if self.mark[child] == done {
                continue;
            }
            let id = self.choice[child]?;
            if self.uses[child] == 0 {
                gain = (gain.0 + self.own.get(self.egraph, id), gain.1 + 1);
            } else if self.only_moved[child] == self.moving {
                kept = (kept.0 + self.own.get(self.egraph, id), kept.1 + 1);
            } else {
                // Selected whatever the move does, and so is all below it.
                if self.reaches(child, s) {
                    return None;
                }
                self.mark[child] = done;
                continue;
            }
            if hopeless(self, gain, kept) {
                return None;
            }
            self.mark[child] = open;
            self.frames.push((child as u32, 0));
        }
        Some(())
    }

    /// Whether the selected class in slot `c` reaches the selected class in
    /// slot `s`, the one being moved. Only a class after `s` in the picks can,
    /// and whether one does follows from its children, all before it: the
    /// classes after `s` are decided in order, as far as a question needs,
    /// once per class `s`.
    fn reaches(&mut self, c: usize, s: usize) -> bool {
        let stamp = self.moving;
        while self.scanned < self.pos[c] as usize {
            self.scanned += 1;
            let (a, node) = self.term.picks[self.scanned];
            let reaches = self.egraph.enode(node).children().iter().any(|&child| {
                let child = self.slot(child);
                child == s || self.ancestor[child] == stamp
            });
            if reaches {
                self.ancestor[a] = stamp;
            }
        }
        self.ancestor[c] == stamp
    }

    /// Builds the term of the current choices into `built`, as
    /// [`build_term`] does, and returns its cost.
    fn build(&mut self) -> Result<f64, ChoiceError> {
        let (egraph, choice) = (self.egraph, &self.choice);
        self.walk
            .build(egraph, self.root, |s| choice[s], &mut self.built)?;
        Ok(self.built.dag_cost(|(_, id)| self.own.get(egraph, id)))
    }

    /// Makes the last built term, of cost `total`, the selection's.
    fn take(&mut self, total: f64) {
        std::mem::swap(&mut self.term, &mut self.built);
        for (i, &(c, _)) in self.term.picks.iter().enumerate() {
            self.pos[c] = i as u32;
        }
        self.total = total;
    }

    /// The slot of a child class.
    fn slot(&self, child: Id) -> usize {
        self.egraph
            .slot_index(child)
            .expect("a child class is live")
    }

    /// Pushes the slot of each distinct child of `id` onto `cascade`.
    fn push_children(&mut self, id: Id) {
        let children = self.egraph.enode(id).children();
        for (k, &child) in children.iter().enumerate() {
            if !children[..k].contains(&child) {
                let c = self.slot(child);
                self.cascade.push(c as u32);
            }
        }
    }

    /// Counts a use of each child class of `id`, and of the children of
    /// each class that becomes selected, and so on down.
    fn count_up(&mut self, id: Id) {
        self.cascade.clear();
        self.push_children(id);
        while let Some(c) = self.cascade.pop() {
            let c = c as usize;
            self.uses[c] += 1;
            if self.uses[c] == 1 {
                let id = self.choice[c].expect("a reached class has a choice");
                self.push_children(id);
            }
        }
    }

    /// Takes back the uses [`Polish::count_up`] counts for `id`; returns
    /// the classes no longer selected, and marks them in `only_moved`.
    fn count_down(&mut self, id: Id) -> Sum {
        let mut loss = (0.0, 0);
        self.cascade.clear();
        self.push_children(id);
        while let Some(c) = self.cascade.pop() {
            let c = c as usize;
            self.uses[c] -= 1;
            if self.uses[c] == 0 {
                let id = self.choice[c].expect("a selected class has a choice");
                loss = (loss.0 + self.own.get(self.egraph, id), loss.1 + 1);
                self.only_moved[c] = self.moving;
                self.push_children(id);
            }
        }
        loss
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::language::test_lang::Math;
    use crate::{BitSet, Symbol};

    fn sym(s: &str) -> Math {
        Math::Sym(Symbol::new(s))
    }

    #[test]
    fn astsize_prefers_smaller_term() {
        let mut eg: EGraph<Math, ()> = EGraph::new(());
        let a = eg.add(sym("a"));
        let two = eg.add(Math::Num(2));
        let mul = eg.add(Math::Mul([a, two]));
        let div = eg.add(Math::Div([mul, two]));
        // Teach the e-graph that (/ (* a 2) 2) == a.
        eg.union(div, a);
        eg.rebuild();
        let ex = Extractor::new(&eg, AstSize);
        let (cost, best) = ex.find_best(div).unwrap();
        assert_eq!(cost, 1.0);
        assert_eq!(best.expr.to_string(), "a");
    }

    #[test]
    fn extraction_handles_cycles_in_egraph() {
        // A cyclic e-class (a == f(a)) still extracts the finite term `a`.
        let mut eg: EGraph<Math, ()> = EGraph::new(());
        let a = eg.add(sym("a"));
        let one = eg.add(Math::Num(1));
        let fa = eg.add(Math::Mul([a, one]));
        eg.union(a, fa);
        eg.rebuild();
        let ex = Extractor::new(&eg, AstSize);
        let (cost, best) = ex.find_best(a).unwrap();
        assert_eq!(cost, 1.0);
        assert_eq!(best.expr.to_string(), "a");
    }

    #[test]
    fn extraction_skips_filtered_nodes() {
        let mut eg: EGraph<Math, ()> = EGraph::new(());
        let a = eg.add(sym("a"));
        let two = eg.add(Math::Num(2));
        let mul = eg.add(Math::Mul([a, two]));
        let one = eg.add(Math::Num(1));
        let shl = eg.add(Math::Shl([a, one]));
        eg.union(mul, shl);
        eg.rebuild();
        // Filter the shl node; extraction must fall back to the mul node.
        eg.filter_node(shl);
        let ex = Extractor::new(&eg, AstSize);
        let (_, best) = ex.find_best(mul).unwrap();
        assert_eq!(best.expr.to_string(), "(* a 2)");
    }

    #[test]
    fn find_best_none_when_everything_filtered() {
        let mut eg: EGraph<Math, ()> = EGraph::new(());
        let a = eg.add(sym("a"));
        eg.rebuild();
        eg.filter_node(a);
        let ex = Extractor::new(&eg, AstSize);
        assert!(ex.find_best(a).is_none());
    }

    #[test]
    fn astsize_double_counts_shared_subterms() {
        let mut eg: EGraph<Math, ()> = EGraph::new(());
        let a = eg.add(sym("a"));
        let b = eg.add(sym("b"));
        let ab = eg.add(Math::Add([a, b]));
        let abab = eg.add(Math::Add([ab, ab]));
        eg.rebuild();
        let size = Extractor::new(&eg, AstSize).best_cost(abab).unwrap();
        assert_eq!(size, 7.0); // tree size double counts the shared (+ a b)
    }

    /// [`build_term`] on choice tables made by hand for `(+ c 1)`, where the
    /// class `c` is `{a, (* a 1)}`.
    #[test]
    fn build_term_reports_its_picks_and_refuses_missing_and_cyclic_choices() {
        let mut eg: EGraph<Math, ()> = EGraph::new(());
        let a = eg.add(sym("a"));
        let one = eg.add(Math::Num(1));
        let c = eg.add(Math::Mul([a, one]));
        eg.union(a, c);
        let root = eg.add(Math::Add([c, one]));
        eg.rebuild();
        let slot = |id: Id| eg.slot_index(id).unwrap();
        // Each `add` above created its e-node, so it returned the node's
        // node-table id: `a` names `a`, `c` names `(* a 1)`.
        let table = |for_c: Id, for_one: Option<Id>| {
            let mut table = vec![None; eg.num_slots()];
            table[slot(root)] = Some(root);
            table[slot(c)] = Some(for_c);
            table[slot(one)] = for_one;
            table
        };

        // One pick per expression node, children first: the slot and the
        // table's own node id.
        let complete = table(a, Some(one));
        let term = build_term(&eg, root, |s| complete[s]).unwrap();
        assert_eq!(term.expr.to_string(), "(+ a 1)");
        assert_eq!(
            term.picks,
            [(slot(c), a), (slot(one), one), (slot(root), root)]
        );

        let missing = table(a, None);
        let refused = build_term(&eg, root, |s| missing[s]).unwrap_err();
        assert_eq!(refused, ChoiceError::Missing);

        // `c` choosing `(* a 1)` is its own child — a table no extractor's
        // fixpoint produces. `Extractor::build_expr` had no check for it
        // and would have pushed frames until memory ran out.
        let cyclic = table(c, Some(one));
        let refused = build_term(&eg, root, |s| cyclic[s]).unwrap_err();
        assert_eq!(refused, ChoiceError::Cyclic);
    }

    /// Regression test: building the term recursed once per term-depth
    /// level and overflowed the 2 MiB test-thread stack on chains ~100k
    /// nodes deep. [`build_term`]'s explicit stack handles arbitrary depth.
    #[test]
    fn extraction_survives_very_deep_chains() {
        const DEPTH: usize = 100_000;
        let mut eg: EGraph<Math, ()> = EGraph::new(());
        let one = eg.add(Math::Num(1));
        let mut id = eg.add(sym("a"));
        for _ in 0..DEPTH {
            id = eg.add(Math::Mul([id, one]));
        }
        eg.rebuild();
        let ex = Extractor::new(&eg, AstSize);
        let (cost, expr) = ex.find_best(id).unwrap();
        // Tree size of the chain: leaf (1) plus 2 per Mul level.
        assert_eq!(cost, (2 * DEPTH + 1) as f64);
        // DAG size: the two leaves plus one Mul node per level.
        assert_eq!(expr.expr.len(), DEPTH + 2);
        // The rebuilt term must re-add into the original class.
        let mut check = eg.clone();
        let again = check.add_expr(&expr.expr);
        assert_eq!(check.find(again), check.find(id));
    }

    /// The index of an e-node's operator in a per-operator weight table.
    fn op_index(enode: &Math) -> usize {
        match enode {
            Math::Num(_) => 0,
            Math::Sym(_) => 1,
            Math::Add(_) => 2,
            Math::Mul(_) => 3,
            Math::Shl(_) => 4,
            Math::Div(_) => 5,
        }
    }

    impl<L: Language, N: Analysis<L>, CF: CostFunction<L, N>> Extractor<'_, L, N, CF> {
        /// [`Extractor::compute_costs`] without the skipping — every sweep
        /// evaluates every node: the oracle the skipping is tested against.
        fn compute_costs_every_node(&mut self) {
            let mut changed = true;
            while changed {
                changed = false;
                for class in self.egraph.classes() {
                    let slot = self
                        .egraph
                        .slot_index(class.id)
                        .expect("iterated class is live");
                    for id in self.egraph.enode_ids(class) {
                        changed |= self.offer(slot, id);
                    }
                }
            }
        }
    }

    /// An extractor filled by the every-node oracle instead of
    /// `compute_costs`.
    fn every_node_extractor<CF: CostFunction<Math, ()>>(
        egraph: &EGraph<Math, ()>,
        cost_fn: CF,
    ) -> Extractor<'_, Math, (), CF> {
        let mut extractor = Extractor::without_costs(egraph, cost_fn);
        extractor.compute_costs_every_node();
        extractor
    }

    /// A `depth`-level chain `(* (* (* x0 1) 1) ...)` whose classes sit in
    /// slot order *top first*, so each sweep can cost exactly one more
    /// level: every level starts as a placeholder symbol (the top one is
    /// made first and gets the smallest id), `(* level[i-1] 1)` is unioned
    /// into placeholder `i`, and the placeholders above the leaf are
    /// filtered so that the `*` node is the class's only candidate.
    fn parents_first_chain(depth: usize) -> (EGraph<Math, ()>, Id) {
        let mut eg: EGraph<Math, ()> = EGraph::new(());
        let one = eg.add(Math::Num(1));
        let mut level: Vec<Id> = (0..=depth)
            .rev()
            .map(|i| eg.add(sym(&format!("x{i}"))))
            .collect();
        level.reverse();
        for i in 1..=depth {
            let mul = eg.add(Math::Mul([level[i - 1], one]));
            assert_eq!(eg.union(level[i], mul).0, level[i]);
        }
        eg.rebuild();
        for &placeholder in &level[1..] {
            eg.filter_node(placeholder);
        }
        (eg, level[depth])
    }

    /// The worst case for the sweeps — one sweep per level — must still
    /// evaluate every node once: `depth + 2` evaluations (the leaf, `1` and
    /// one `*` per level), where evaluating every node in every sweep makes
    /// ~depth²/2.
    #[test]
    fn parents_first_chain_costs_every_node_once() {
        const DEPTH: usize = 2_000;
        let (eg, top) = parents_first_chain(DEPTH);
        let extractor = Extractor::new(&eg, AstSize);
        let (cost, expr) = extractor.find_best(top).unwrap();
        assert_eq!(cost, (2 * DEPTH + 1) as f64);
        assert_eq!(expr.expr.len(), DEPTH + 2);
        assert_eq!(extractor.evaluations, DEPTH + 2);

        // The fixture is the worst case: the every-node oracle is quadratic
        // on it (checked on a shorter chain to keep the test quick).
        const SHORT: usize = 200;
        let (eg, top) = parents_first_chain(SHORT);
        let oracle = every_node_extractor(&eg, AstSize);
        assert_eq!(oracle.find_best(top).unwrap().0, (2 * SHORT + 1) as f64);
        let evaluations = oracle.evaluations;
        assert!(evaluations > SHORT * SHORT / 2, "{evaluations}");
    }

    /// One random e-graph build step: an operator and two operand picks
    /// (modulo the nodes built so far).
    type BuildStep = (u8, usize, usize);

    /// Random nodes, then random unions (which close cycles), rebuilt, then
    /// random nodes put on the filter list.
    fn random_cyclic_egraph(
        steps: &[BuildStep],
        unions: &[(usize, usize)],
        filtered: &[usize],
    ) -> (EGraph<Math, ()>, Vec<Id>) {
        let mut eg: EGraph<Math, ()> = EGraph::new(());
        let mut ids = vec![eg.add(sym("a")), eg.add(Math::Num(1))];
        for &(op, a, b) in steps {
            let (a, b) = (ids[a % ids.len()], ids[b % ids.len()]);
            ids.push(eg.add(match op % 6 {
                0 => Math::Num((usize::from(a) % 3) as i64),
                1 => sym(["a", "b", "c"][usize::from(b) % 3]),
                2 => Math::Add([a, b]),
                3 => Math::Mul([a, b]),
                4 => Math::Shl([a, b]),
                _ => Math::Div([a, b]),
            }));
        }
        for &(a, b) in unions {
            eg.union(ids[a % ids.len()], ids[b % ids.len()]);
        }
        eg.rebuild();
        let nodes: Vec<Id> = eg.classes().flat_map(|c| c.node_ids().to_vec()).collect();
        for &pick in filtered {
            eg.filter_node(nodes[pick % nodes.len()]);
        }
        (eg, ids)
    }

    proptest::proptest! {
        /// Skipping nodes whose children's bests stand is exact: on random
        /// cyclic e-graphs with filtered nodes and tie-prone costs the
        /// per-class `(cost, node)` table, and so every extracted term,
        /// equals the every-node oracle's bit for bit — in no more
        /// evaluations.
        #[test]
        fn skipping_extractor_equals_the_every_node_oracle(
            steps in proptest::prop::collection::vec(
                (proptest::any::<u8>(), proptest::any::<usize>(), proptest::any::<usize>()),
                1..40,
            ),
            unions in proptest::prop::collection::vec(
                (proptest::any::<usize>(), proptest::any::<usize>()),
                0..8,
            ),
            filtered in proptest::prop::collection::vec(proptest::any::<usize>(), 0..6),
            weights in proptest::prop::collection::vec(0usize..3, 6..=6),
        ) {
            let (eg, ids) = random_cyclic_egraph(&steps, &unions, &filtered);
            let weights = TenthWeights(weights.try_into().unwrap());
            let skipping = Extractor::new(&eg, weights);
            let oracle = every_node_extractor(&eg, weights);
            let bits = |best: &Option<(f64, Id)>| best.map(|(cost, id)| (cost.to_bits(), id));
            let table = |ex: &Extractor<'_, Math, (), TenthWeights>| {
                ex.best.iter().map(bits).collect::<Vec<_>>()
            };
            assert_eq!(table(&skipping), table(&oracle));
            let term = |ex: &Extractor<'_, Math, (), TenthWeights>, id| {
                ex.find_best(id).map(|(cost, term)| (cost, term.expr, term.picks))
            };
            for &id in &ids {
                assert_eq!(term(&skipping, id), term(&oracle, id));
            }
            assert!(skipping.evaluations <= oracle.evaluations);
        }
    }

    #[test]
    fn shared_subterms_extract_as_dag() {
        let mut eg: EGraph<Math, ()> = EGraph::new(());
        let a = eg.add(sym("a"));
        let b = eg.add(sym("b"));
        let ab = eg.add(Math::Add([a, b]));
        let abab = eg.add(Math::Mul([ab, ab]));
        eg.rebuild();
        let ex = Extractor::new(&eg, AstSize);
        let (_, expr) = ex.find_best(abab).unwrap();
        // The extracted RecExpr shares the (+ a b) node.
        assert_eq!(expr.expr.len(), 4);
        assert_eq!(expr.expr.to_string(), "(* (+ a b) (+ a b))");
    }

    /// Regression test for the `f64` total-order hazard: under the old
    /// `best <= cost` guard, a NaN candidate made the comparison false and
    /// *replaced* a finite best, poisoning every ancestor class. With
    /// total-order comparison an incomparable candidate never wins.
    #[test]
    fn nan_cost_cannot_displace_a_finite_best() {
        struct NanOnShl;
        impl CostFunction<Math, ()> for NanOnShl {
            fn node_cost(&self, _: &EGraph<Math, ()>, enode: &Math) -> f64 {
                match enode {
                    Math::Shl(..) => f64::NAN, // degenerate cost model
                    _ => 1.0,
                }
            }
        }

        let mut eg: EGraph<Math, ()> = EGraph::new(());
        let a = eg.add(sym("a"));
        let two = eg.add(Math::Num(2));
        let one = eg.add(Math::Num(1));
        let mul = eg.add(Math::Mul([a, two]));
        let shl = eg.add(Math::Shl([a, one]));
        eg.union(mul, shl);
        // A parent so the poison would have propagated upward.
        let root = eg.add(Math::Add([mul, a]));
        eg.rebuild();

        let ex = Extractor::new(&eg, NanOnShl);
        let (cost, best) = ex.find_best(root).unwrap();
        assert!(cost.is_finite(), "NaN displaced the finite best: {cost}");
        assert_eq!(best.expr.to_string(), "(+ (* a 2) a)");
    }

    #[test]
    fn dag_extractor_agrees_with_tree_on_unshared_terms() {
        let mut eg: EGraph<Math, ()> = EGraph::new(());
        let a = eg.add(sym("a"));
        let two = eg.add(Math::Num(2));
        let mul = eg.add(Math::Mul([a, two]));
        let div = eg.add(Math::Div([mul, two]));
        eg.union(div, a);
        eg.rebuild();
        let ex = DagExtractor::new(&eg, AstSize);
        let (cost, best) = ex.find_best(div).unwrap();
        assert_eq!(cost, 1.0);
        assert_eq!(best.expr.to_string(), "a");
        assert_eq!(ex.best_cost(div), Some(1.0));
    }

    #[test]
    fn dag_extractor_charges_shared_subgraphs_once() {
        // Tree-greedy pays the big subgraph once per use; the DAG extractor
        // charges it once. Build a root class with two candidates:
        //   (* big big)        tree cost 23, DAG cost 8   (big = 5-deep chain)
        //   9-deep chain on b  tree cost 19, DAG cost 11
        // Tree-greedy prefers the chain (19 < 23); the DAG extractor must
        // prefer the shared form (8 < 11).
        let mut eg: EGraph<Math, ()> = EGraph::new(());
        let one = eg.add(Math::Num(1));
        let mut big = eg.add(sym("a"));
        for _ in 0..5 {
            big = eg.add(Math::Mul([big, one]));
        }
        let shared = eg.add(Math::Mul([big, big]));
        let mut chain = eg.add(sym("b"));
        for _ in 0..9 {
            chain = eg.add(Math::Add([chain, one]));
        }
        eg.union(shared, chain);
        eg.rebuild();

        let tree = Extractor::new(&eg, AstSize);
        let (tree_cost, tree_expr) = tree.find_best(shared).unwrap();
        assert_eq!(tree_cost, 19.0);
        assert!(tree_expr.expr.to_string().contains('b'));

        let dag = DagExtractor::new(&eg, AstSize);
        let (dag_cost, dag_expr) = dag.find_best(shared).unwrap();
        assert_eq!(dag_cost, 8.0);
        assert!(dag_expr.expr.to_string().contains('a'));
        // The expression is a genuine DAG: 8 distinct nodes, each stored once.
        assert_eq!(dag_expr.expr.len(), 8);
    }

    #[test]
    fn dag_extractor_handles_cycles_in_egraph() {
        let mut eg: EGraph<Math, ()> = EGraph::new(());
        let a = eg.add(sym("a"));
        let one = eg.add(Math::Num(1));
        let fa = eg.add(Math::Mul([a, one]));
        eg.union(a, fa);
        eg.rebuild();
        let ex = DagExtractor::new(&eg, AstSize);
        let (cost, best) = ex.find_best(a).unwrap();
        assert_eq!(cost, 1.0);
        assert_eq!(best.expr.to_string(), "a");
    }

    #[test]
    fn dag_extractor_skips_filtered_nodes() {
        let mut eg: EGraph<Math, ()> = EGraph::new(());
        let a = eg.add(sym("a"));
        let two = eg.add(Math::Num(2));
        let mul = eg.add(Math::Mul([a, two]));
        let one = eg.add(Math::Num(1));
        let shl = eg.add(Math::Shl([a, one]));
        eg.union(mul, shl);
        eg.rebuild();
        eg.filter_node(shl);
        let ex = DagExtractor::new(&eg, AstSize);
        let (_, best) = ex.find_best(mul).unwrap();
        assert_eq!(best.expr.to_string(), "(* a 2)");

        let mut all_filtered: EGraph<Math, ()> = EGraph::new(());
        let a = all_filtered.add(sym("a"));
        all_filtered.rebuild();
        all_filtered.filter_node(a);
        assert!(DagExtractor::new(&all_filtered, AstSize)
            .find_best(a)
            .is_none());
    }

    #[test]
    fn dag_extractor_is_deterministic() {
        let mut eg: EGraph<Math, ()> = EGraph::new(());
        let a = eg.add(sym("a"));
        let b = eg.add(sym("b"));
        let ab = eg.add(Math::Add([a, b]));
        let ba = eg.add(Math::Add([b, a]));
        eg.union(ab, ba); // two equal-cost candidates in one class
        let root = eg.add(Math::Mul([ab, ab]));
        eg.rebuild();
        let first = DagExtractor::new(&eg, AstSize).find_best(root).unwrap();
        for _ in 0..3 {
            let again = DagExtractor::new(&eg, AstSize).find_best(root).unwrap();
            assert_eq!(again.0, first.0);
            // Bit-identical expression, not just equal cost.
            assert_eq!(
                again
                    .1
                    .expr
                    .iter()
                    .map(|(i, n)| (i, n.clone()))
                    .collect::<Vec<_>>(),
                first
                    .1
                    .expr
                    .iter()
                    .map(|(i, n)| (i, n.clone()))
                    .collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn dag_extractor_survives_deep_chains() {
        // The worklist and the expression builder are both iterative; only
        // the reach lists grow with depth: level `i` of a chain lists all
        // `i` levels below it, O(depth²) `u32`s built in all — 8 MB at
        // 2 000, the shape on which a list per class costs most (see
        // `chain_lists_are_released_after_their_parent` for how many live).
        const DEPTH: usize = 2_000;
        let mut eg: EGraph<Math, ()> = EGraph::new(());
        let one = eg.add(Math::Num(1));
        let mut id = eg.add(sym("a"));
        for _ in 0..DEPTH {
            id = eg.add(Math::Mul([id, one]));
        }
        eg.rebuild();
        let ex = DagExtractor::new(&eg, AstSize);
        let (cost, expr) = ex.find_best(id).unwrap();
        // DAG cost charges each node once: two leaves + one Mul per level.
        assert_eq!(cost, (DEPTH + 2) as f64);
        assert_eq!(expr.expr.len(), DEPTH + 2);
    }

    /// A 2 000-class chain, `a` under 1 999 `(* x x)`: level `i` lists `i`
    /// slots, 2 001 000 in all if every list were kept. Each level's one
    /// parent is costed right after it, so only the top's list outlives
    /// the fixpoint, and the recorded lengths and the extraction do not
    /// notice.
    #[test]
    fn chain_lists_are_released_after_their_parent() {
        const CLASSES: usize = 2_000;
        let mut eg: EGraph<Math, ()> = EGraph::new(());
        let mut levels = vec![eg.add(sym("a"))];
        for i in 1..CLASSES {
            let below = levels[i - 1];
            levels.push(eg.add(Math::Mul([below, below])));
        }
        eg.rebuild();
        let ex = DagExtractor::new(&eg, AstSize);
        let held: usize = ex.entries.iter().flatten().map(|e| e.reach.len()).sum();
        assert!(held <= 2 * CLASSES, "{held} list slots held");
        for (i, &id) in levels.iter().enumerate() {
            assert_eq!(ex.reach_len(id), Some(i + 1));
        }
        let (cost, expr) = ex.find_best(levels[CLASSES - 1]).unwrap();
        assert_eq!(cost, CLASSES as f64);
        assert_eq!(expr.expr.len(), CLASSES);
    }

    /// A complete binary tree of `+` over 1 024 distinct leaves, depth 10:
    /// the depth-first order finishes one subtree before it starts the
    /// next, so while the fixpoint runs no more lists are live than two per
    /// level on the current path and the class just costed. Breadth-first
    /// order costs all 1 024 leaves before any parent and holds every one.
    #[test]
    fn depth_first_order_bounds_the_live_lists() {
        const DEPTH: usize = 10;
        let mut eg: EGraph<Math, ()> = EGraph::new(());
        let mut level: Vec<Id> = (0..1 << DEPTH)
            .map(|i| eg.add(sym(&format!("l{i}"))))
            .collect();
        while level.len() > 1 {
            level = level
                .chunks(2)
                .map(|pair| eg.add(Math::Add([pair[0], pair[1]])))
                .collect();
        }
        eg.rebuild();
        let mut extractor = DagExtractor::without_entries(&eg, AstSize);
        let mut scratch = ReachScratch::default();
        let mut most_live = 0;
        extractor.run_worklist(|extractor, s| {
            let improved = extractor.evaluate(s, &mut scratch);
            let live = extractor
                .entries
                .iter()
                .flatten()
                .filter(|e| !e.reach.is_empty())
                .count();
            most_live = most_live.max(live);
            improved
        });
        assert!(most_live <= 2 * DEPTH + 2, "{most_live} lists live at once");
        let (cost, _) = extractor.find_best(level[0]).unwrap();
        assert_eq!(cost, ((2 << DEPTH) - 1) as f64);
    }

    /// The reach sets as this module kept them before the sorted lists:
    /// one [`BitSet`] over all class slots per class, a candidate's set
    /// built by clearing a scratch set and unioning the children's into it
    /// whole, its cost summed over `iter_ones`, the set cloned on every
    /// improving candidate. Kept as the oracle the lists are tested
    /// against; it also reads each class's unfiltered nodes from the
    /// e-graph instead of taking the class graph's word.
    struct DenseReach {
        slot_id: Vec<Option<Id>>,
        reach: Vec<Option<BitSet>>,
        scratch: BitSet,
    }

    impl<L: Language, N: Analysis<L>, CF: CostFunction<L, N>> DagExtractor<'_, L, N, CF> {
        fn evaluate_dense(&mut self, s: usize, dense: &mut DenseReach) -> bool {
            let id = match dense.slot_id[s] {
                Some(id) => id,
                None => return false,
            };
            let class = self.egraph.eclass(id);
            let scratch = &mut dense.scratch;
            // (sub-DAG total, the node's own cost, node id, reach without `s`)
            let mut best: Option<(f64, f64, Id, BitSet)> = None;
            'candidates: for id in self.egraph.enode_ids(class) {
                let node = self.egraph.enode(id);
                scratch.clear();
                for &child in node.children() {
                    let c = match self.egraph.slot_index(self.egraph.find(child)) {
                        Some(c) => c,
                        None => continue 'candidates,
                    };
                    match &dense.reach[c] {
                        Some(reach) => {
                            scratch.union_with(reach);
                        }
                        None => continue 'candidates,
                    }
                }
                if scratch.contains(s) {
                    continue;
                }
                let own = self.cost_fn.node_cost(self.egraph, node);
                let mut total = own;
                for d in scratch.iter_ones() {
                    total += self.entries[d].as_ref().expect("unioned entry exists").own;
                }
                let better = match &best {
                    None => true,
                    Some((cost, ..)) => total.total_cmp(cost).is_lt(),
                };
                if better {
                    best = Some((total, own, id, scratch.clone()));
                }
            }
            let (total, own, choice, mut reach) = match best {
                Some(b) => b,
                None => return false,
            };
            let improved = match &self.entries[s] {
                None => true,
                Some(entry) => total.total_cmp(&entry.total).is_lt(),
            };
            if improved {
                reach.insert(s);
                let list: Vec<u32> = reach.iter_ones().map(|d| d as u32).collect();
                self.entries[s] = Some(DagEntry {
                    choice,
                    own,
                    reach_len: list.len() as u32,
                    reach: list.into_boxed_slice(),
                    total,
                });
                dense.reach[s] = Some(reach);
            }
            improved
        }
    }

    /// An extractor filled by the dense oracle instead of `evaluate`.
    fn dense_extractor<CF: CostFunction<Math, ()>>(
        egraph: &EGraph<Math, ()>,
        cost_fn: CF,
    ) -> DagExtractor<'_, Math, (), CF> {
        let n = egraph.num_slots();
        let mut dense = DenseReach {
            slot_id: vec![None; n],
            reach: vec![None; n],
            scratch: BitSet::new(n),
        };
        for class in egraph.classes() {
            dense.slot_id[egraph.slot_index(class.id).unwrap()] = Some(class.id);
        }
        let mut extractor = DagExtractor::without_entries(egraph, cost_fn);
        extractor.run_worklist(|extractor, s| extractor.evaluate_dense(s, &mut dense));
        extractor
    }

    /// Per-operator `f64` weights in tenths. Sums of tenths tie often, and
    /// depend in the last bit on the order they are added in
    /// (`0.1 + 0.2 + 0.3 != 0.3 + 0.2 + 0.1`), so a total summed in another
    /// order than the oracle's shows.
    #[derive(Clone, Copy)]
    struct TenthWeights([usize; 6]);

    impl CostFunction<Math, ()> for TenthWeights {
        fn node_cost(&self, _: &EGraph<Math, ()>, enode: &Math) -> f64 {
            [0.0, 0.1, 0.2, 0.3][self.0[op_index(enode)]]
        }
    }

    proptest::proptest! {
        /// The sorted reach lists are a representation, not a behaviour:
        /// on random cyclic e-graphs (stale entries, the FIFO worklist)
        /// with filtered nodes and tie-prone float costs, every class ends
        /// with the choice, own cost, total (to the bit) and reach members
        /// the dense bit-set oracle gives it, and every id extracts alike.
        #[test]
        fn reach_lists_equal_the_dense_bit_set_oracle(
            steps in proptest::prop::collection::vec(
                (proptest::any::<u8>(), proptest::any::<usize>(), proptest::any::<usize>()),
                1..40,
            ),
            unions in proptest::prop::collection::vec(
                (proptest::any::<usize>(), proptest::any::<usize>()),
                0..8,
            ),
            filtered in proptest::prop::collection::vec(proptest::any::<usize>(), 0..6),
            weights in proptest::prop::collection::vec(0usize..4, 6..=6),
        ) {
            let (eg, ids) = random_cyclic_egraph(&steps, &unions, &filtered);
            let weights = TenthWeights(weights.try_into().unwrap());
            let lists = DagExtractor::new(&eg, weights);
            let oracle = dense_extractor(&eg, weights);
            let bits = |entry: &DagEntry| {
                (entry.choice, entry.own.to_bits(), entry.total.to_bits(), entry.reach.clone())
            };
            for (slot, (entry, expected)) in lists.entries.iter().zip(&oracle.entries).enumerate() {
                assert_eq!(entry.as_ref().map(bits), expected.as_ref().map(bits), "slot {slot}");
            }
            let bits = |(cost, term): (f64, ChosenTerm<Math>)| {
                (cost.to_bits(), term.expr, term.picks)
            };
            for &id in &ids {
                assert_eq!(lists.find_best(id).map(bits), oracle.find_best(id).map(bits));
                assert_eq!(lists.reach_len(id), oracle.reach_len(id));
            }
        }
    }

    /// The cost of a selection as a polish prices it: its own costs summed
    /// in the order of its picks.
    fn selection_cost(eg: &EGraph<Math, ()>, weights: TenthWeights, picks: &[(usize, Id)]) -> f64 {
        let own = |&(_, id): &(usize, Id)| weights.node_cost(eg, eg.enode(id));
        picks.iter().map(own).fold(0.0, |total, own| total + own)
    }

    proptest::proptest! {
        /// Pricing a move by what it changes decides every move as a walk
        /// of the whole selection does: on random cyclic e-graphs with
        /// filtered nodes and tie-prone costs, polishing the DAG pass's,
        /// tree-greedy's and the last-listed e-nodes' selection for every
        /// class gives the picks the full-walk run gives, after as many
        /// tries.
        #[test]
        fn polish_equals_the_full_walk_oracle(
            steps in proptest::prop::collection::vec(
                (proptest::any::<u8>(), proptest::any::<usize>(), proptest::any::<usize>()),
                1..40,
            ),
            unions in proptest::prop::collection::vec(
                (proptest::any::<usize>(), proptest::any::<usize>()),
                0..8,
            ),
            filtered in proptest::prop::collection::vec(proptest::any::<usize>(), 0..6),
            weights in proptest::prop::collection::vec(0usize..4, 6..=6),
        ) {
            let (eg, ids) = random_cyclic_egraph(&steps, &unions, &filtered);
            let weights = TenthWeights(weights.try_into().unwrap());
            let dag = DagExtractor::new(&eg, weights);
            let tree = Extractor::new(&eg, weights);
            let mut priced = Polish::new(&eg, Extractor::new(&eg, weights).into_own_costs(), dag.choices());
            let mut walked = Polish::new(&eg, Extractor::new(&eg, weights).into_own_costs(), dag.choices());
            let last = |s: usize| eg.enode_ids(eg.slot_class(s).unwrap()).last();
            for &id in &ids {
                let starts = [
                    dag.find_best(id).map(|(_, term)| term),
                    tree.find_best(id).map(|(_, term)| term),
                    build_term(&eg, id, last).ok(),
                ];
                for start in starts.into_iter().flatten() {
                    let polished = priced.run(id, &start.picks).map(|(_, term)| term.picks);
                    let expected = walked.run_by_walk(id, &start.picks).map(|(_, term)| term.picks);
                    assert_eq!(polished, expected);
                    assert_eq!(priced.trials, walked.trials);
                }
            }
        }
    }

    /// Calls `visit` with every complete choice table of the classes
    /// `root` reaches — a class's e-node chosen when a walk from the root
    /// first reaches it without one — cyclic ones included.
    fn every_selection(
        eg: &EGraph<Math, ()>,
        root: usize,
        choice: &mut Vec<Option<Id>>,
        visit: &mut impl FnMut(&[Option<Id>]),
    ) {
        let mut seen = vec![false; eg.num_slots()];
        seen[root] = true;
        let mut stack = vec![root];
        let mut unchosen = None;
        while let Some(s) = stack.pop() {
            let Some(id) = choice[s] else {
                unchosen = Some(s);
                break;
            };
            for &child in eg.enode(id).children() {
                let c = eg.slot_index(child).unwrap();
                if !std::mem::replace(&mut seen[c], true) {
                    stack.push(c);
                }
            }
        }
        let Some(s) = unchosen else {
            return visit(choice);
        };
        let class = eg.slot_class(s).unwrap();
        for id in eg.enode_ids(class) {
            choice[s] = Some(id);
            every_selection(eg, root, choice, visit);
        }
        choice[s] = None;
    }

    /// The brute-force extraction oracle for the greedy extractors: on 3 000
    /// seeded random cyclic e-graphs of at most 10 classes, every acyclic
    /// selection is enumerated, and the polish of the DAG pass's, of
    /// tree-greedy's and of the last-listed e-nodes' selection costs at
    /// most its start, at least the cheapest selection, and no single move
    /// from where it ends — another e-node for one selected class, the
    /// classes it first reaches filled as the polish fills them — builds a
    /// cheaper term.
    #[test]
    fn polish_lies_between_its_start_and_the_brute_force_minimum() {
        let mut next = crate::language::test_lang::splitmix();
        let (mut checked, mut improved) = (0, 0);
        for _ in 0..3_000 {
            let steps: Vec<BuildStep> = (0..4 + next(12))
                .map(|_| (next(256) as u8, next(64), next(64)))
                .collect();
            let unions: Vec<(usize, usize)> =
                (0..1 + next(4)).map(|_| (next(64), next(64))).collect();
            let filtered: Vec<usize> = (0..next(3)).map(|_| next(64)).collect();
            let (eg, ids) = random_cyclic_egraph(&steps, &unions, &filtered);
            let tables: usize = eg
                .classes()
                .map(|c| eg.enode_ids(c).count().max(1))
                .product();
            if eg.num_slots() > 10 || tables > 50_000 {
                continue;
            }
            let weights = TenthWeights([(); 6].map(|_| 1 + next(3)));
            let dag = DagExtractor::new(&eg, weights);
            let tree = Extractor::new(&eg, weights);
            let mut polish = Polish::new(
                &eg,
                Extractor::new(&eg, weights).into_own_costs(),
                dag.choices(),
            );
            let last = |s: usize| eg.enode_ids(eg.slot_class(s).unwrap()).last();
            for &id in &ids {
                let root = eg.slot_index(id).unwrap();
                let mut minimum: Option<f64> = None;
                every_selection(&eg, root, &mut vec![None; eg.num_slots()], &mut |choice| {
                    if let Ok(term) = build_term(&eg, id, |s| choice[s]) {
                        let cost = selection_cost(&eg, weights, &term.picks);
                        minimum = Some(minimum.map_or(cost, |m: f64| m.min(cost)));
                    }
                });
                let starts = [
                    dag.find_best(id).map(|(_, term)| term),
                    tree.find_best(id).map(|(_, term)| term),
                    build_term(&eg, id, last).ok(),
                ];
                for start in starts.into_iter().flatten() {
                    let minimum = minimum.expect("a start is a selection");
                    let start_cost = selection_cost(&eg, weights, &start.picks);
                    let (total, polished) = polish
                        .run(id, &start.picks)
                        .expect("a polish builds a term");
                    let cost = selection_cost(&eg, weights, &polished.picks);
                    assert_eq!(total.to_bits(), cost.to_bits());
                    assert!(
                        cost.total_cmp(&start_cost).is_le(),
                        "{cost} above its start {start_cost}"
                    );
                    assert!(
                        cost.total_cmp(&minimum).is_ge(),
                        "{cost} below the minimum {minimum}"
                    );
                    for &(s, picked) in &polished.picks {
                        for other in eg.enode_ids(eg.slot_class(s).unwrap()) {
                            let mut moved = polish.choice.clone();
                            moved[s] = Some(other);
                            if let Ok(term) = build_term(&eg, id, |s| moved[s]) {
                                let moved = selection_cost(&eg, weights, &term.picks);
                                assert!(
                                    moved.total_cmp(&cost).is_ge(),
                                    "{picked} -> {other}: {moved} < {cost}"
                                );
                            }
                        }
                    }
                    checked += 1;
                    improved += usize::from(cost < start_cost);
                }
            }
        }
        // The cases are not all trivial: enough starts, and some improve.
        assert!(
            checked > 50_000 && improved > 2_000,
            "{checked} starts, {improved} improved"
        );
    }

    proptest::proptest! {
        /// The acyclic prefix is what it is defined to be: on random cyclic
        /// e-graphs with filtered nodes, exactly the classes from which no
        /// cycle through two or more classes is reachable (self loops do
        /// not count), found by a fresh DFS per class over the e-graph's own
        /// node lists; and each prefix class comes after its children.
        #[test]
        fn acyclic_prefix_is_the_classes_that_reach_no_cycle(
            steps in proptest::prop::collection::vec(
                (proptest::any::<u8>(), proptest::any::<usize>(), proptest::any::<usize>()),
                1..40,
            ),
            unions in proptest::prop::collection::vec(
                (proptest::any::<usize>(), proptest::any::<usize>()),
                0..8,
            ),
            filtered in proptest::prop::collection::vec(proptest::any::<usize>(), 0..6),
        ) {
            let (eg, _) = random_cyclic_egraph(&steps, &unions, &filtered);
            let graph = ClassGraph::new(&eg);
            let (order, in_prefix) = acyclic_prefix(&graph, &graph.parents());

            let n = eg.num_slots();
            let children = |s: usize| -> Vec<usize> {
                let class = eg.slot_class(s).expect("a rebuilt e-graph has no tombstones");
                eg.enode_ids(class)
                    .flat_map(|id| eg.enode(id).children().iter())
                    .map(|&c| eg.slot_index(c).unwrap())
                    .collect()
            };
            // Per class, the slots it reaches, itself included.
            let reaches: Vec<Vec<bool>> = (0..n)
                .map(|from| {
                    let mut seen = vec![false; n];
                    seen[from] = true;
                    let mut stack = vec![from];
                    while let Some(s) = stack.pop() {
                        for c in children(s) {
                            if !seen[c] {
                                seen[c] = true;
                                stack.push(c);
                            }
                        }
                    }
                    seen
                })
                .collect();
            let on_cycle: Vec<bool> = (0..n)
                .map(|t| children(t).into_iter().any(|c| c != t && reaches[c][t]))
                .collect();
            let expected: Vec<bool> = (0..n)
                .map(|s| !(0..n).any(|t| reaches[s][t] && on_cycle[t]))
                .collect();
            assert_eq!(in_prefix, expected);

            let mut placed = vec![None; n];
            for (i, &s) in order.iter().enumerate() {
                assert!(placed[s as usize].replace(i).is_none(), "slot {s} placed twice");
            }
            for s in 0..n {
                assert_eq!(placed[s].is_some(), in_prefix[s], "slot {s}");
                if let Some(i) = placed[s] {
                    for c in children(s).into_iter().filter(|&c| c != s) {
                        assert!(placed[c].is_some_and(|j| j < i), "slot {s} before child {c}");
                    }
                }
            }
        }
    }

    /// Wide and shallow: 10 000 independent `(+ aᵢ bᵢ)` under no common
    /// root. A class's list holds its own sub-DAG and nothing else — three
    /// slots per `+`, one per leaf — where a bit per slot per class is
    /// 30 000² bits = 112 MB.
    #[test]
    fn independent_terms_list_only_their_own_classes() {
        const TERMS: usize = 10_000;
        let mut eg: EGraph<Math, ()> = EGraph::new(());
        let terms: Vec<[Id; 3]> = (0..TERMS)
            .map(|i| {
                let a = eg.add(sym(&format!("a{i}")));
                let b = eg.add(sym(&format!("b{i}")));
                [a, b, eg.add(Math::Add([a, b]))]
            })
            .collect();
        eg.rebuild();
        let ex = DagExtractor::new(&eg, AstSize);
        for &[a, b, sum] in &terms {
            assert_eq!(ex.reach_len(a), Some(1));
            assert_eq!(ex.reach_len(b), Some(1));
            assert_eq!(ex.reach_len(sum), Some(3));
            assert_eq!(ex.best_cost(sum), Some(3.0));
        }
        let members: usize = eg.classes().filter_map(|c| ex.reach_len(c.id)).sum();
        assert_eq!(members, 5 * TERMS);
    }
}
