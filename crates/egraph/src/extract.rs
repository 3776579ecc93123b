//! Extraction: choosing one e-node per e-class to produce the best concrete
//! term represented by an e-graph.
//!
//! This module provides two extractors:
//!
//! * [`Extractor`] — the *tree-greedy* extractor (per-class minimum subtree
//!   cost, paper §5.1). Fast, but it treats children independently, so
//!   shared subgraphs are charged once per use.
//! * [`DagExtractor`] — the *global greedy DAG* extractor: a worklist-driven
//!   fixpoint that charges every e-node **once** regardless of how many
//!   selected parents share it, keeping per class the sorted list of the
//!   slots its chosen sub-DAG reaches (a few dozen of the e-graph's
//!   thousands of slots, so a list and not a bit set).
//!
//! Both pick one e-node per class and hand the picks to [`build_term`],
//! the one walker that turns a choice of e-nodes into a term. The ILP
//! extractor, which is DAG-exact, lives in `tensat-core` because it depends
//! on the ILP solver substrate; it reads its solution back through the same
//! walker, and `tensat_core::extract` dispatches over all three.

use crate::{Analysis, EGraph, Id, Language, RecExpr};
use std::cmp::Ordering;

/// A cost function over e-nodes.
///
/// `cost` receives the e-node and a callback giving the already-computed
/// cost of each child *e-class*; it returns the total cost of the subtree
/// rooted at this node.
pub trait CostFunction<L: Language> {
    /// The cost type; must be totally ordered (see [`CostFunction::cmp`])
    /// for extraction to pick minima.
    type Cost: PartialOrd + Clone + std::fmt::Debug;

    /// Computes the cost of `enode` given a function yielding the best known
    /// cost of each child class.
    fn cost<C>(&mut self, enode: &L, costs: C) -> Self::Cost
    where
        C: FnMut(Id) -> Self::Cost;

    /// Total-order comparison used to pick per-class minima.
    ///
    /// The default falls back to `partial_cmp`. `PartialOrd` alone is a
    /// hazard for float costs: a NaN from a degenerate cost model makes
    /// every comparison false, which under the old `best <= cost` guard
    /// silently *replaced* a finite best with NaN and poisoned every
    /// ancestor class. Incomparable pairs now debug-assert and are treated
    /// as [`Ordering::Greater`] (an incomparable candidate never wins), and
    /// float-costed implementations should override this with
    /// [`f64::total_cmp`], under which NaN orders above `+inf` and loses to
    /// every finite cost.
    fn cmp(a: &Self::Cost, b: &Self::Cost) -> Ordering {
        partial_order_or_greater(a, b)
    }
}

/// `partial_cmp`, with an incomparable pair (NaN?) debug-asserting and
/// ordered [`Ordering::Greater`]: the default of both cost traits' `cmp`.
fn partial_order_or_greater<C: PartialOrd + std::fmt::Debug>(a: &C, b: &C) -> Ordering {
    a.partial_cmp(b).unwrap_or_else(|| {
        debug_assert!(
            false,
            "incomparable extraction costs (NaN?): {a:?} vs {b:?}"
        );
        Ordering::Greater
    })
}

/// A borrowed cost function is one too, so a caller can keep its cost
/// function — and whatever it counted or cached — after the extractor
/// that used it is gone.
impl<L: Language, CF: CostFunction<L>> CostFunction<L> for &mut CF {
    type Cost = CF::Cost;

    fn cost<C>(&mut self, enode: &L, costs: C) -> Self::Cost
    where
        C: FnMut(Id) -> Self::Cost,
    {
        (**self).cost(enode, costs)
    }

    fn cmp(a: &Self::Cost, b: &Self::Cost) -> Ordering {
        CF::cmp(a, b)
    }
}

/// Counts AST nodes: the classic "smallest term" cost function.
#[derive(Debug, Clone, Copy, Default)]
pub struct AstSize;

impl<L: Language> CostFunction<L> for AstSize {
    type Cost = usize;
    fn cost<C>(&mut self, enode: &L, mut costs: C) -> usize
    where
        C: FnMut(Id) -> usize,
    {
        enode
            .children()
            .iter()
            .fold(1usize, |acc, &c| acc.saturating_add(costs(c)))
    }
}

/// AST depth cost function (useful in tests).
#[derive(Debug, Clone, Copy, Default)]
pub struct AstDepth;

impl<L: Language> CostFunction<L> for AstDepth {
    type Cost = usize;
    fn cost<C>(&mut self, enode: &L, mut costs: C) -> usize
    where
        C: FnMut(Id) -> usize,
    {
        1 + enode
            .children()
            .iter()
            .map(|&c| costs(c))
            .max()
            .unwrap_or(0)
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
pub struct ChosenTerm<'c, L> {
    /// The term; a class used more than once is stored once.
    pub expr: RecExpr<L>,
    /// The `(slot, chosen e-node)` of every class the term uses, children
    /// before parents: `picks[i]` became node `i` of `expr`.
    pub picks: Vec<(usize, &'c L)>,
}

/// Builds the term rooted at `root` in which every class is represented by
/// the e-node `choice` gives for its slot ([`EGraph::slot_index`]).
///
/// One explicit frame per partially-built class instead of a recursion per
/// term-depth level: extracted terms can be deeper than a thread stack (a
/// ~100k-deep chain overflows the 2 MiB test-thread stack).
pub fn build_term<'c, L: Language, N: Analysis<L>>(
    egraph: &EGraph<L, N>,
    root: Id,
    choice: impl Fn(usize) -> Option<&'c L>,
) -> Result<ChosenTerm<'c, L>, ChoiceError> {
    struct Frame<'c, L> {
        slot: usize,
        node: &'c L,
        next_child: usize,
    }
    /// Where the walk stands with a class: not reached, on the stack, or
    /// emitted as this node of the expression.
    #[derive(Clone, Copy)]
    enum Class {
        Unseen,
        Open,
        Done(Id),
    }
    let slot_of = |id: Id| egraph.slot_index(id).ok_or(ChoiceError::Missing);
    let open = |slot: usize| {
        let node = choice(slot).ok_or(ChoiceError::Missing)?;
        Ok(Frame {
            slot,
            node,
            next_child: 0,
        })
    };

    let mut term = ChosenTerm {
        expr: RecExpr::default(),
        picks: vec![],
    };
    let mut classes = vec![Class::Unseen; egraph.num_slots()];
    let root = slot_of(root)?;
    classes[root] = Class::Open;
    let mut stack = vec![open(root)?];
    loop {
        let top = stack.last_mut().expect("loop returns before emptying");
        if let Some(&child) = top.node.children().get(top.next_child) {
            top.next_child += 1;
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
        let Frame { slot, node, .. } = stack.pop().expect("a frame is always on the stack");
        let emitted = |child: Id| match egraph.slot_index(child).map(|s| classes[s]) {
            Some(Class::Done(id)) => id,
            _ => unreachable!("a node is emitted after its children"),
        };
        let id = term.expr.add(node.map_children(emitted));
        classes[slot] = Class::Done(id);
        term.picks.push((slot, node));
        if stack.is_empty() {
            return Ok(term);
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
/// let (cost, expr) = extractor.find_best(mul).unwrap();
/// assert_eq!(cost, 1);
/// assert_eq!(expr.to_string(), "a");
/// ```
pub struct Extractor<'a, L: Language, N: Analysis<L>, CF: CostFunction<L>> {
    egraph: &'a EGraph<L, N>,
    cost_fn: std::cell::RefCell<CF>,
    /// Best (cost, node) per class, indexed by the e-graph's dense slot
    /// space ([`EGraph::slot_index`]) — no hashing on the extraction path.
    best: Vec<Option<(CF::Cost, L)>>,
}

impl<L: Language, N: Analysis<L>, CF: CostFunction<L>> std::fmt::Debug for Extractor<'_, L, N, CF> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Extractor")
            .field(
                "classes_with_cost",
                &self.best.iter().filter(|b| b.is_some()).count(),
            )
            .finish()
    }
}

impl<'a, L: Language, N: Analysis<L>, CF: CostFunction<L>> Extractor<'a, L, N, CF> {
    /// Computes best costs for every e-class of the e-graph.
    pub fn new(egraph: &'a EGraph<L, N>, cost_fn: CF) -> Self {
        let mut extractor = Extractor {
            egraph,
            cost_fn: std::cell::RefCell::new(cost_fn),
            best: (0..egraph.num_slots()).map(|_| None).collect(),
        };
        extractor.compute_costs();
        extractor
    }

    /// Sweeps the classes in slot order until a sweep improves no class's
    /// best, replacing a best only on a strict improvement.
    ///
    /// A sweep costs an e-node only if a child class's best has improved
    /// since the node was last costed — in the first sweep every node is.
    /// Skipping is exact, ties included: the cost function is
    /// deterministic, so a node whose children's bests are what they were
    /// would be given the cost it was given before, which the class's
    /// best — only ever lowered since — already matches or beats. The
    /// work is therefore one cost call per (node, improvement of one of
    /// its children), not one per node per sweep: a chain visited
    /// parents-first takes a sweep per level and still costs every node
    /// once.
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
                for node in class.iter() {
                    // Improved since this class's last turn: earlier in
                    // this sweep, or in the previous one at or after the
                    // turn (classes are swept in slot order; "at" is a
                    // node that has its own class as a child).
                    let child_improved = |&c: &Id| {
                        self.egraph.slot_index(c).is_some_and(|c| {
                            improved[c] == sweep || (improved[c] + 1 == sweep && c >= slot)
                        })
                    };
                    if sweep > 1 && !node.children().iter().any(child_improved) {
                        continue;
                    }
                    if self.egraph.is_filtered(node) {
                        continue;
                    }
                    if self.offer(slot, node) {
                        improved[slot] = sweep;
                        changed = true;
                    }
                }
            }
        }
    }

    /// [`Extractor::compute_costs`] without the skipping — every sweep
    /// costs every node: the oracle the skipping is tested against.
    #[cfg(test)]
    fn compute_costs_every_node(&mut self) {
        let mut changed = true;
        while changed {
            changed = false;
            for class in self.egraph.classes() {
                let slot = self
                    .egraph
                    .slot_index(class.id)
                    .expect("iterated class is live");
                for node in class.iter() {
                    if self.egraph.is_filtered(node) {
                        continue;
                    }
                    changed |= self.offer(slot, node);
                }
            }
        }
    }

    /// Costs `node` and makes it the best of the class in `slot` if it is
    /// a strict improvement; returns whether it was.
    fn offer(&mut self, slot: usize, node: &L) -> bool {
        let Some(cost) = self.node_cost(node) else {
            return false;
        };
        // Total-order comparison: replace only on a strict improvement,
        // so NaN (incomparable / ordered above +inf) can never displace a
        // finite best.
        if matches!(&self.best[slot], Some((best, _)) if CF::cmp(&cost, best) != Ordering::Less) {
            return false;
        }
        self.best[slot] = Some((cost, node.clone()));
        true
    }

    /// The best entry recorded for a class's slot, if any.
    fn best_entry(&self, id: Id) -> Option<&(CF::Cost, L)> {
        self.best[self.egraph.slot_index(id)?].as_ref()
    }

    /// Cost of an e-node if all its children already have best costs.
    fn node_cost(&self, node: &L) -> Option<CF::Cost> {
        let all_known = node.all(|c| self.best_entry(c).is_some());
        if !all_known {
            return None;
        }
        let mut cf = self.cost_fn.borrow_mut();
        Some(cf.cost(node, |c| {
            self.best_entry(c).expect("checked above").0.clone()
        }))
    }

    /// The best cost of a class, if any finite term is represented.
    pub fn best_cost(&self, id: Id) -> Option<CF::Cost> {
        self.best_entry(id).map(|(c, _)| c.clone())
    }

    /// Extracts the best term rooted at `root`, returning its cost and the
    /// term itself. Returns `None` if the class represents no finite term
    /// (possible when every candidate node was filtered or participates in
    /// an unavoidable cycle).
    pub fn find_best(&self, root: Id) -> Option<(CF::Cost, RecExpr<L>)> {
        self.find_best_term(root)
            .map(|(cost, term)| (cost, term.expr))
    }

    /// [`Extractor::find_best`], keeping the per-class picks the term was
    /// built from.
    pub fn find_best_term(&self, root: Id) -> Option<(CF::Cost, ChosenTerm<'_, L>)> {
        let cost = self.best_cost(root)?;
        let best_node = |slot: usize| self.best[slot].as_ref().map(|(_, node)| node);
        Some((cost, build_term(self.egraph, root, best_node).ok()?))
    }
}

/// A per-node cost function for DAG-aware extraction.
///
/// Unlike [`CostFunction`], which costs a whole *subtree* given child
/// subtree costs, a `DagCostFunction` prices a single e-node in isolation;
/// the [`DagExtractor`] sums node costs over the *set* of selected classes,
/// charging shared subgraphs once. Costs therefore need an additive monoid
/// ([`DagCostFunction::zero`] / [`DagCostFunction::add_assign`]) on top of
/// the total order.
pub trait DagCostFunction<L: Language> {
    /// The cost type.
    type Cost: PartialOrd + Clone + std::fmt::Debug;

    /// The cost of this single e-node, children excluded. Must be
    /// deterministic: the extractor calls it once per evaluation of the
    /// node's class (one evaluation per class on an acyclic e-graph) and
    /// keeps the chosen node's value for costing the final selection.
    fn node_cost(&mut self, enode: &L) -> Self::Cost;

    /// The additive identity.
    fn zero(&self) -> Self::Cost;

    /// Accumulates `item` into `acc`.
    fn add_assign(&self, acc: &mut Self::Cost, item: &Self::Cost);

    /// Total-order comparison; same contract as [`CostFunction::cmp`].
    fn cmp(a: &Self::Cost, b: &Self::Cost) -> Ordering {
        partial_order_or_greater(a, b)
    }
}

/// DAG size: [`AstSize`]'s sharing-aware counterpart (each node counts 1,
/// shared nodes once).
impl<L: Language> DagCostFunction<L> for AstSize {
    type Cost = usize;
    fn node_cost(&mut self, _enode: &L) -> usize {
        1
    }
    fn zero(&self) -> usize {
        0
    }
    fn add_assign(&self, acc: &mut usize, item: &usize) {
        *acc = acc.saturating_add(*item);
    }
}

/// The per-class state of a [`DagExtractor`] entry.
struct DagEntry<L, C> {
    /// The chosen e-node.
    choice: L,
    /// This node's own (children-excluded) cost.
    own: C,
    /// Slots of every class in the chosen sub-DAG, including this one,
    /// ascending and without duplicates.
    reach: Vec<u32>,
    /// Total cost of the sub-DAG: own costs summed over `reach` in that
    /// (ascending slot) order, each class charged once.
    total: C,
}

/// Rows of items stored back to back (compressed sparse rows): row `r` is
/// `items[start[r]..start[r + 1]]`. One allocation per table where a `Vec`
/// per class makes one per class.
struct Rows<T> {
    start: Vec<u32>,
    items: Vec<T>,
}

impl<T> Rows<T> {
    fn new() -> Self {
        Rows {
            start: vec![],
            items: vec![],
        }
    }

    /// Starts row `r` at the current end of the items; rows skipped since
    /// the last call are empty. Called once more with the row count, it
    /// closes the last row.
    fn begin_row(&mut self, r: usize) {
        debug_assert!(self.start.len() <= r);
        self.start.resize(r + 1, self.items.len() as u32);
    }

    fn row(&self, r: usize) -> &[T] {
        &self.items[self.start[r] as usize..self.start[r + 1] as usize]
    }
}

/// The class-level dependency graph of an e-graph over its unfiltered
/// e-nodes, indexed by slot.
struct ClassGraph<'a, L> {
    /// Per class, its unfiltered e-nodes in class order: the candidates.
    candidates: Rows<&'a L>,
    /// Per class, the slots of its candidates' child classes: ascending,
    /// without duplicates, the class itself excluded (a node whose child is
    /// its own class is rejected per candidate by the reach check instead).
    children: Rows<u32>,
    /// The same edges by child: per class, the ascending slots of the
    /// classes that have it as a child.
    parents: Rows<u32>,
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

/// Global greedy DAG extractor (ROADMAP "DAG-aware global extraction").
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
/// Candidates are evaluated bottom-up in a topological order of the class
/// dependency graph (Kahn's algorithm over unfiltered e-node child edges),
/// then a FIFO worklist propagates strict improvements to parent classes
/// until fixpoint. A candidate node is viable only when all its child
/// classes have entries and none of their reach lists contains the
/// candidate's own class (which would make the selection cyclic). On
/// an acyclic e-graph — what cycle filtering guarantees during exploration
/// — the topological pass alone reaches the fixpoint and the worklist
/// drains immediately; on cyclic e-graphs the worklist resolves the
/// stragglers best-effort and [`DagExtractor::find_best`] re-verifies
/// acyclicity of the final selection.
///
/// A candidate's reach is the merge of its children's lists, so costing it
/// takes time in the size of the sub-DAGs it would select — a few dozen
/// classes on the benchmark models — and not in the size of the e-graph;
/// the lists of a whole e-graph hold `Σ |sub-DAG|` slots. Its cost is
/// summed over the merged list in ascending slot order, whatever order the
/// children came in, so a float total does not depend on how the set was
/// put together.
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
/// let (dag_size, expr) = extractor.find_best(mul).unwrap();
/// assert_eq!(dag_size, 1);
/// assert_eq!(expr.to_string(), "a");
/// ```
pub struct DagExtractor<'a, L: Language, N: Analysis<L>, DF: DagCostFunction<L>> {
    egraph: &'a EGraph<L, N>,
    cost_fn: std::cell::RefCell<DF>,
    /// Best sub-DAG per class, indexed by the e-graph's dense slot space.
    entries: Vec<Option<DagEntry<L, DF::Cost>>>,
}

impl<L: Language, N: Analysis<L>, DF: DagCostFunction<L>> std::fmt::Debug
    for DagExtractor<'_, L, N, DF>
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

impl<'a, L: Language, N: Analysis<L>, DF: DagCostFunction<L>> DagExtractor<'a, L, N, DF> {
    /// Computes the best sub-DAG for every e-class of the e-graph.
    pub fn new(egraph: &'a EGraph<L, N>, cost_fn: DF) -> Self {
        let mut extractor = DagExtractor::without_entries(egraph, cost_fn);
        let mut scratch = ReachScratch::default();
        extractor.run_worklist(|extractor, s, candidates| {
            extractor.evaluate(s, candidates, &mut scratch)
        });
        extractor
    }

    fn without_entries(egraph: &'a EGraph<L, N>, cost_fn: DF) -> Self {
        DagExtractor {
            egraph,
            cost_fn: std::cell::RefCell::new(cost_fn),
            entries: (0..egraph.num_slots()).map(|_| None).collect(),
        }
    }

    /// Builds the class graph in one sweep over the classes: each e-node's
    /// filter status is looked up here and nowhere else.
    fn adjacency(&self) -> ClassGraph<'a, L> {
        let egraph = self.egraph;
        let n = egraph.num_slots();
        let mut candidates = Rows::new();
        let mut children = Rows::new();
        let mut row: Vec<u32> = vec![];
        for class in egraph.classes() {
            let s = egraph.slot_index(class.id).expect("iterated class is live");
            candidates.begin_row(s);
            children.begin_row(s);
            row.clear();
            for node in class.iter() {
                if egraph.is_filtered(node) {
                    continue;
                }
                candidates.items.push(node);
                for &child in node.children() {
                    let c = egraph
                        .slot_index(child)
                        .expect("child of a live class is live");
                    if c != s {
                        row.push(c as u32);
                    }
                }
            }
            row.sort_unstable();
            row.dedup();
            children.items.extend_from_slice(&row);
        }
        candidates.begin_row(n);
        children.begin_row(n);

        // Transpose by counting: a class's parents are appended in
        // ascending slot order, so each row is sorted and duplicate-free.
        let mut parents = Rows {
            start: vec![0; n + 1],
            items: vec![0; children.items.len()],
        };
        for &c in &children.items {
            parents.start[c as usize + 1] += 1;
        }
        for c in 0..n {
            parents.start[c + 1] += parents.start[c];
        }
        let mut next = parents.start.clone();
        for s in 0..n {
            for &c in children.row(s) {
                parents.items[next[c as usize] as usize] = s as u32;
                next[c as usize] += 1;
            }
        }
        ClassGraph {
            candidates,
            children,
            parents,
        }
    }

    /// Offers every class's candidates to `evaluate` (which returns whether
    /// it improved the class's entry): once each, children before parents,
    /// then again for the parents of every class that improved, until no
    /// class does.
    fn run_worklist(&mut self, mut evaluate: impl FnMut(&mut Self, usize, &[&'a L]) -> bool) {
        let n = self.egraph.num_slots();
        let graph = self.adjacency();

        // Kahn's algorithm: children-before-parents order. Classes caught
        // in dependency cycles keep a nonzero indegree and are appended in
        // slot order; the worklist phase handles them best-effort. (A dead
        // slot is a class without candidates or edges here.)
        let mut indeg: Vec<u32> = (0..n).map(|s| graph.children.row(s).len() as u32).collect();
        let mut order: Vec<u32> = (0..n as u32).filter(|&s| indeg[s as usize] == 0).collect();
        let mut i = 0;
        while i < order.len() {
            let s = order[i] as usize;
            i += 1;
            for &p in graph.parents.row(s) {
                indeg[p as usize] -= 1;
                if indeg[p as usize] == 0 {
                    order.push(p);
                }
            }
        }
        let mut in_order = vec![false; n];
        for &s in &order {
            in_order[s as usize] = true;
        }
        order.extend((0..n as u32).filter(|&s| !in_order[s as usize]));

        // Seed the worklist with the topological order, then drain FIFO.
        let mut queue: std::collections::VecDeque<u32> = order.into();
        let mut in_queue = vec![true; n];
        while let Some(s) = queue.pop_front() {
            let s = s as usize;
            in_queue[s] = false;
            if evaluate(self, s, graph.candidates.row(s)) {
                for &p in graph.parents.row(s) {
                    if !in_queue[p as usize] {
                        in_queue[p as usize] = true;
                        queue.push_back(p);
                    }
                }
            }
        }
    }

    /// Costs every candidate node of the class in slot `s` and installs
    /// the cheapest viable one if it strictly improves on the current
    /// entry. Returns true on improvement.
    fn evaluate(&mut self, s: usize, candidates: &[&'a L], scratch: &mut ReachScratch) -> bool {
        let own_slot = s as u32;
        // (sub-DAG total, the node's own cost, node); the sub-DAG's reach
        // without `s` is `scratch.best`.
        let mut best: Option<(DF::Cost, DF::Cost, &L)> = None;
        'candidates: for &node in candidates {
            scratch.merged.clear();
            for &child in node.children() {
                let slot = self.egraph.slot_index(child);
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
            let own = self.cost_fn.borrow_mut().node_cost(node);
            let mut total = own.clone();
            {
                // Ascending slot order whatever order the children came
                // in: the order a float total is defined by.
                let cf = self.cost_fn.borrow();
                for &d in &scratch.merged {
                    let entry = self.entries[d as usize].as_ref();
                    cf.add_assign(&mut total, &entry.expect("reached entry exists").own);
                }
            }
            let better = match &best {
                None => true,
                Some((cost, ..)) => DF::cmp(&total, cost) == Ordering::Less,
            };
            if better {
                best = Some((total, own, node));
                std::mem::swap(&mut scratch.merged, &mut scratch.best);
            }
        }
        let Some((total, own, node)) = best else {
            return false;
        };
        let improved = match &self.entries[s] {
            None => true,
            Some(entry) => DF::cmp(&total, &entry.total) == Ordering::Less,
        };
        if improved {
            let (below, above) = scratch
                .best
                .split_at(scratch.best.partition_point(|&d| d < own_slot));
            let mut reach = Vec::with_capacity(scratch.best.len() + 1);
            reach.extend_from_slice(below);
            reach.push(own_slot);
            reach.extend_from_slice(above);
            self.entries[s] = Some(DagEntry {
                choice: node.clone(),
                own,
                reach,
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
        self.entries[slot].as_ref().map(|e| e.reach.len())
    }

    /// The best DAG cost recorded for a class, if any.
    pub fn best_cost(&self, id: Id) -> Option<DF::Cost> {
        let slot = self.egraph.slot_index(self.egraph.find(id))?;
        self.entries[slot].as_ref().map(|e| e.total.clone())
    }

    /// The chosen e-node for a class.
    pub fn best_node(&self, id: Id) -> Option<&L> {
        let slot = self.egraph.slot_index(self.egraph.find(id))?;
        self.entries[slot].as_ref().map(|e| &e.choice)
    }

    /// Extracts the best DAG rooted at `root`: the cost (each selected
    /// e-node charged once) and the expression. The cost is summed over
    /// the final selection — each chosen node's own cost, in the order the
    /// nodes were emitted — rather than read from the fixpoint's sub-DAG
    /// totals, so it is honest even when a cyclic e-graph left stale
    /// entries.
    /// Returns `None` if the class has no viable selection or (possible
    /// only without cycle filtering) the per-class choices form a cycle.
    pub fn find_best(&self, root: Id) -> Option<(DF::Cost, RecExpr<L>)> {
        self.find_best_term(root)
            .map(|(cost, term)| (cost, term.expr))
    }

    /// [`DagExtractor::find_best`], keeping the per-class picks the
    /// expression was built from.
    pub fn find_best_term(&self, root: Id) -> Option<(DF::Cost, ChosenTerm<'_, L>)> {
        let entry = |slot: usize| self.entries[slot].as_ref();
        let term = build_term(self.egraph, root, |slot| entry(slot).map(|e| &e.choice)).ok()?;
        let cost_fn = self.cost_fn.borrow();
        let mut cost = cost_fn.zero();
        for &(slot, _) in &term.picks {
            cost_fn.add_assign(&mut cost, &entry(slot).expect("a pick has an entry").own);
        }
        Some((cost, term))
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
        assert_eq!(cost, 1);
        assert_eq!(best.to_string(), "a");
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
        assert_eq!(cost, 1);
        assert_eq!(best.to_string(), "a");
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
        let one = eg.lookup(&Math::Num(1)).unwrap();
        eg.filter_node(&Math::Shl([a, one]));
        let ex = Extractor::new(&eg, AstSize);
        let (_, best) = ex.find_best(mul).unwrap();
        assert_eq!(best.to_string(), "(* a 2)");
    }

    #[test]
    fn find_best_none_when_everything_filtered() {
        let mut eg: EGraph<Math, ()> = EGraph::new(());
        let a = eg.add(sym("a"));
        eg.rebuild();
        eg.filter_node(&sym("a"));
        let ex = Extractor::new(&eg, AstSize);
        assert!(ex.find_best(a).is_none());
    }

    #[test]
    fn astdepth_differs_from_astsize() {
        let mut eg: EGraph<Math, ()> = EGraph::new(());
        let a = eg.add(sym("a"));
        let b = eg.add(sym("b"));
        let ab = eg.add(Math::Add([a, b]));
        let abab = eg.add(Math::Add([ab, ab]));
        eg.rebuild();
        let size = Extractor::new(&eg, AstSize).best_cost(abab).unwrap();
        let depth = Extractor::new(&eg, AstDepth).best_cost(abab).unwrap();
        assert_eq!(depth, 3);
        assert_eq!(size, 7); // tree size double counts the shared (+ a b)
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
        let plus = eg.canonicalize(&Math::Add([c, one]));
        let table = |for_c: Math, for_one: Option<Math>| {
            let mut table = vec![None; eg.num_slots()];
            table[slot(root)] = Some(plus.clone());
            table[slot(c)] = Some(eg.canonicalize(&for_c));
            table[slot(one)] = for_one;
            table
        };

        // One pick per expression node, children first: the slot and the
        // table's own e-node (class ids as children).
        let complete = table(sym("a"), Some(Math::Num(1)));
        let term = build_term(&eg, root, |s| complete[s].as_ref()).unwrap();
        assert_eq!(term.expr.to_string(), "(+ a 1)");
        let picks: Vec<_> = term.picks.iter().map(|&(s, n)| (s, n.clone())).collect();
        let expected = [
            (slot(c), sym("a")),
            (slot(one), Math::Num(1)),
            (slot(root), plus.clone()),
        ];
        assert_eq!(picks, expected);

        let missing = table(sym("a"), None);
        let refused = build_term(&eg, root, |s| missing[s].as_ref()).unwrap_err();
        assert_eq!(refused, ChoiceError::Missing);

        // `c` choosing `(* a 1)` is its own child — a table no extractor's
        // fixpoint produces. `Extractor::build_expr` had no check for it
        // and would have pushed frames until memory ran out.
        let cyclic = table(Math::Mul([a, one]), Some(Math::Num(1)));
        let refused = build_term(&eg, root, |s| cyclic[s].as_ref()).unwrap_err();
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
        assert_eq!(cost, 2 * DEPTH + 1);
        // DAG size: the two leaves plus one Mul node per level.
        assert_eq!(expr.len(), DEPTH + 2);
        // The rebuilt term must re-add into the original class.
        let mut check = eg.clone();
        let again = check.add_expr(&expr);
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

    /// Counts `cost` calls; the costs themselves are per-operator weights
    /// small enough to tie often (a weight of 0 ties a cyclic node with
    /// its own child). With `flat_shl`, `<<` costs its weight whatever it
    /// shifts: a cost need not grow with the children's, and then a node
    /// that has its own class as a child can strictly improve that class.
    #[derive(Default)]
    struct CountingWeights {
        weights: [usize; 6],
        flat_shl: bool,
        calls: usize,
    }

    impl CostFunction<Math> for CountingWeights {
        type Cost = usize;
        fn cost<C>(&mut self, enode: &Math, mut costs: C) -> usize
        where
            C: FnMut(Id) -> usize,
        {
            self.calls += 1;
            let own = self.weights[op_index(enode)];
            if self.flat_shl && matches!(enode, Math::Shl(_)) {
                return own;
            }
            enode
                .children()
                .iter()
                .fold(own, |acc, &c| acc.saturating_add(costs(c)))
        }
    }

    /// An extractor filled by the every-node oracle instead of
    /// `compute_costs`.
    fn every_node_extractor<CF: CostFunction<Math>>(
        egraph: &EGraph<Math, ()>,
        cost_fn: CF,
    ) -> Extractor<'_, Math, (), CF> {
        let mut extractor = Extractor {
            egraph,
            cost_fn: std::cell::RefCell::new(cost_fn),
            best: (0..egraph.num_slots()).map(|_| None).collect(),
        };
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
        for i in 1..=depth {
            eg.filter_node(&sym(&format!("x{i}")));
        }
        (eg, level[depth])
    }

    /// The worst case for the sweeps — one sweep per level — must still
    /// cost every node once: `depth + 2` calls (the leaf, `1`, and each
    /// `*`), where costing every node in every sweep makes ~depth²/2.
    #[test]
    fn parents_first_chain_costs_every_node_once() {
        const DEPTH: usize = 2_000;
        let (eg, top) = parents_first_chain(DEPTH);
        let mut counting = CountingWeights {
            weights: [1; 6],
            ..Default::default()
        };
        let (cost, expr) = Extractor::new(&eg, &mut counting).find_best(top).unwrap();
        assert_eq!(cost, 2 * DEPTH + 1);
        assert_eq!(expr.len(), DEPTH + 2);
        assert_eq!(counting.calls, DEPTH + 2);

        // The fixture is the worst case: the every-node oracle is quadratic
        // on it (checked on a shorter chain to keep the test quick).
        const SHORT: usize = 200;
        let (eg, top) = parents_first_chain(SHORT);
        let mut counting = CountingWeights {
            weights: [1; 6],
            ..Default::default()
        };
        let best = every_node_extractor(&eg, &mut counting).find_best(top);
        assert_eq!(best.unwrap().0, 2 * SHORT + 1);
        assert!(counting.calls > SHORT * SHORT / 2, "{}", counting.calls);
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
        let nodes: Vec<Math> = eg.classes().flat_map(|c| c.iter().cloned()).collect();
        for &pick in filtered {
            eg.filter_node(&nodes[pick % nodes.len()]);
        }
        (eg, ids)
    }

    proptest::proptest! {
        /// Skipping nodes whose children's bests stand is exact: on random
        /// cyclic e-graphs with filtered nodes and tie-prone costs the
        /// per-class `(cost, node)` table, and so every extracted term,
        /// equals the every-node oracle's bit for bit — with no more cost
        /// calls.
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
            flat_shl in proptest::any::<bool>(),
        ) {
            let (eg, ids) = random_cyclic_egraph(&steps, &unions, &filtered);
            let weights: [usize; 6] = weights.try_into().unwrap();
            let mut skipping_cf = CountingWeights { weights, flat_shl, calls: 0 };
            let mut oracle_cf = CountingWeights { weights, flat_shl, calls: 0 };
            let skipping = Extractor::new(&eg, &mut skipping_cf);
            let oracle = every_node_extractor(&eg, &mut oracle_cf);
            assert_eq!(skipping.best, oracle.best);
            // A flat `<<` can make a class's best node its own ancestor,
            // which has no finite term to build: both say `None`.
            for &id in &ids {
                assert_eq!(skipping.find_best(id), oracle.find_best(id));
            }
            drop((skipping, oracle));
            assert!(skipping_cf.calls <= oracle_cf.calls);
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
        assert_eq!(expr.len(), 4);
        assert_eq!(expr.to_string(), "(* (+ a b) (+ a b))");
    }

    /// Regression test for the `f64` total-order hazard: under the old
    /// `best <= cost` guard, a NaN candidate made the comparison false and
    /// *replaced* a finite best, poisoning every ancestor class. With
    /// total-order comparison an incomparable candidate never wins.
    #[test]
    fn nan_cost_cannot_displace_a_finite_best() {
        struct NanOnShl;
        impl CostFunction<Math> for NanOnShl {
            type Cost = f64;
            fn cost<C>(&mut self, enode: &Math, mut costs: C) -> f64
            where
                C: FnMut(Id) -> f64,
            {
                let own = match enode {
                    Math::Shl(..) => f64::NAN, // degenerate cost model
                    _ => 1.0,
                };
                enode.children().iter().fold(own, |acc, &c| acc + costs(c))
            }
            // Override like `TreeCost` does, so NaN orders above +inf
            // instead of tripping the default's debug assertion.
            fn cmp(a: &f64, b: &f64) -> Ordering {
                a.total_cmp(b)
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
        assert_eq!(best.to_string(), "(+ (* a 2) a)");
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
        assert_eq!(cost, 1);
        assert_eq!(best.to_string(), "a");
        assert_eq!(ex.best_cost(div), Some(1));
        assert!(matches!(ex.best_node(div), Some(Math::Sym(_))));
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
        assert_eq!(tree_cost, 19);
        assert!(tree_expr.to_string().contains('b'));

        let dag = DagExtractor::new(&eg, AstSize);
        let (dag_cost, dag_expr) = dag.find_best(shared).unwrap();
        assert_eq!(dag_cost, 8);
        assert!(dag_expr.to_string().contains('a'));
        // The expression is a genuine DAG: 8 distinct nodes, each stored once.
        assert_eq!(dag_expr.len(), 8);
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
        assert_eq!(cost, 1);
        assert_eq!(best.to_string(), "a");
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
        let one = eg.lookup(&Math::Num(1)).unwrap();
        eg.filter_node(&Math::Shl([a, one]));
        let ex = DagExtractor::new(&eg, AstSize);
        let (_, best) = ex.find_best(mul).unwrap();
        assert_eq!(best.to_string(), "(* a 2)");

        let mut all_filtered: EGraph<Math, ()> = EGraph::new(());
        let a = all_filtered.add(sym("a"));
        all_filtered.rebuild();
        all_filtered.filter_node(&sym("a"));
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
                    .iter()
                    .map(|(i, n)| (i, n.clone()))
                    .collect::<Vec<_>>(),
                first
                    .1
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
        // `i` levels below it, O(depth²) `u32`s in all — 8 MB at 2 000, the
        // shape on which a list per class costs most.
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
        assert_eq!(cost, DEPTH + 2);
        assert_eq!(expr.len(), DEPTH + 2);
    }

    /// The reach sets as this module kept them before the sorted lists:
    /// one [`BitSet`] over all class slots per class, a candidate's set
    /// built by clearing a scratch set and unioning the children's into it
    /// whole, its cost summed over `iter_ones`, the set cloned on every
    /// improving candidate. Kept as the oracle the lists are tested
    /// against; it also asks the e-graph which nodes are filtered instead
    /// of taking the class graph's word.
    struct DenseReach {
        slot_id: Vec<Option<Id>>,
        reach: Vec<Option<BitSet>>,
        scratch: BitSet,
    }

    impl<L: Language, N: Analysis<L>, DF: DagCostFunction<L>> DagExtractor<'_, L, N, DF> {
        fn evaluate_dense(&mut self, s: usize, dense: &mut DenseReach) -> bool {
            let id = match dense.slot_id[s] {
                Some(id) => id,
                None => return false,
            };
            let class = self.egraph.eclass(id);
            let scratch = &mut dense.scratch;
            // (sub-DAG total, the node's own cost, node, reach without `s`)
            let mut best: Option<(DF::Cost, DF::Cost, &L, BitSet)> = None;
            'candidates: for node in class.iter() {
                if self.egraph.is_filtered(node) {
                    continue;
                }
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
                let own = self.cost_fn.borrow_mut().node_cost(node);
                let mut total = own.clone();
                {
                    let cf = self.cost_fn.borrow();
                    for d in scratch.iter_ones() {
                        let own = &self.entries[d].as_ref().expect("unioned entry exists").own;
                        cf.add_assign(&mut total, own);
                    }
                }
                let better = match &best {
                    None => true,
                    Some((cost, ..)) => DF::cmp(&total, cost) == Ordering::Less,
                };
                if better {
                    best = Some((total, own, node, scratch.clone()));
                }
            }
            let (total, own, node, mut reach) = match best {
                Some(b) => b,
                None => return false,
            };
            let improved = match &self.entries[s] {
                None => true,
                Some(entry) => DF::cmp(&total, &entry.total) == Ordering::Less,
            };
            if improved {
                reach.insert(s);
                self.entries[s] = Some(DagEntry {
                    choice: node.clone(),
                    own,
                    reach: reach.iter_ones().map(|d| d as u32).collect(),
                    total,
                });
                dense.reach[s] = Some(reach);
            }
            improved
        }
    }

    /// An extractor filled by the dense oracle instead of `evaluate`.
    fn dense_extractor<DF: DagCostFunction<Math>>(
        egraph: &EGraph<Math, ()>,
        cost_fn: DF,
    ) -> DagExtractor<'_, Math, (), DF> {
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
        extractor.run_worklist(|extractor, s, _| extractor.evaluate_dense(s, &mut dense));
        extractor
    }

    /// Per-operator `f64` weights in tenths. Sums of tenths tie often, and
    /// depend in the last bit on the order they are added in
    /// (`0.1 + 0.2 + 0.3 != 0.3 + 0.2 + 0.1`), so a total summed in another
    /// order than the oracle's shows.
    #[derive(Clone, Copy)]
    struct TenthWeights([usize; 6]);

    impl DagCostFunction<Math> for TenthWeights {
        type Cost = f64;
        fn node_cost(&mut self, enode: &Math) -> f64 {
            [0.0, 0.1, 0.2, 0.3][self.0[op_index(enode)]]
        }
        fn zero(&self) -> f64 {
            0.0
        }
        fn add_assign(&self, acc: &mut f64, item: &f64) {
            *acc += *item;
        }
        fn cmp(a: &f64, b: &f64) -> Ordering {
            a.total_cmp(b)
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
            let bits = |entry: &DagEntry<Math, f64>| {
                (entry.choice.clone(), entry.own.to_bits(), entry.total.to_bits(), entry.reach.clone())
            };
            for (slot, (entry, expected)) in lists.entries.iter().zip(&oracle.entries).enumerate() {
                assert_eq!(entry.as_ref().map(bits), expected.as_ref().map(bits), "slot {slot}");
            }
            let bits = |(cost, expr): (f64, RecExpr<Math>)| (cost.to_bits(), expr);
            for &id in &ids {
                assert_eq!(lists.find_best(id).map(bits), oracle.find_best(id).map(bits));
                assert_eq!(lists.reach_len(id), oracle.reach_len(id));
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
            assert_eq!(ex.best_cost(sum), Some(3));
        }
        let members: usize = eg.classes().filter_map(|c| ex.reach_len(c.id)).sum();
        assert_eq!(members, 5 * TERMS);
    }
}
