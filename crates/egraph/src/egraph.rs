//! The [`EGraph`] itself: hash-consed e-node storage, unioning, and
//! congruence-closure rebuilding over dense slot-indexed class tables.

use crate::{Analysis, EClass, Id, Language, RecExpr, UnionFind};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::mem::Discriminant;

/// Sentinel for "this raw id is not (or no longer) a canonical class".
const NO_SLOT: u32 = u32::MAX;

/// Whether `TENSAT_CHECK_INVARIANTS=1` forces the (expensive) full
/// invariant check at the end of every [`EGraph::rebuild`] even in release
/// builds. Debug builds always check. Read once and cached: rebuild is a
/// hot path and the environment cannot change mid-process in any supported
/// configuration.
fn invariant_checks_forced() -> bool {
    static FORCED: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *FORCED.get_or_init(|| std::env::var("TENSAT_CHECK_INVARIANTS").is_ok_and(|v| v == "1"))
}

/// An e-graph: a set of e-classes, each a set of equivalent e-nodes, with
/// hash-consing (structural sharing) and incremental congruence closure.
///
/// The design follows egg (Willsey et al. 2021): mutations (`add`, `union`)
/// are cheap and may temporarily break the congruence invariant; calling
/// [`EGraph::rebuild`] restores it. Searching (pattern matching, extraction)
/// should only be done on a clean (rebuilt) e-graph.
///
/// # Storage layout
///
/// Classes live in a dense slot table: `slots[s]` holds the class occupying
/// slot `s`, and `slot_of[raw_id]` maps a *canonical* id to its slot, so
/// [`EGraph::eclass`] is a `find` plus two array reads — O(1) on the
/// e-matching hot path, where the old `BTreeMap` storage paid a tree walk
/// per [`crate::Instruction`]. Live slots are always in ascending-id order:
/// fresh classes append, a union tombstones the absorbed class's slot in
/// place, and [`EGraph::rebuild`] compacts the tombstones away. One side
/// table runs parallel to `slots`: each class's operator set. The operator
/// index is maintained incrementally at `add`/`union` time (a class's
/// operator set only ever grows), and `rebuild` repairs congruence with
/// worklists proportional to the classes actually touched instead of
/// re-canonicalizing the whole e-graph.
///
/// In addition to the egg feature set, this e-graph supports a *filter set*
/// of e-nodes that are considered removed: TENSAT's efficient cycle
/// filtering (paper §5.2, Algorithm 2) resolves cycles by adding the
/// offending e-nodes to this set; pattern matching and extraction skip them.
///
/// Every read accessor used by pattern search (`find`, `eclass`, `lookup`,
/// `is_filtered`, `classes_with_op`, `classes`) takes `&self` and avoids
/// interior mutability — in particular [`EGraph::find`] does *not* path
/// compress — so a clean e-graph can be shared across threads: `EGraph` is
/// `Sync` whenever `L`, `N`, and `N::Data` are. The parallel e-matching
/// driver ([`crate::search_all_parallel`]) relies on this.
///
/// # Examples
///
/// ```
/// use tensat_egraph::{EGraph, Id, Symbol};
/// use tensat_egraph::doctest_lang::SimpleMath as Math;
/// let mut eg: EGraph<Math, ()> = EGraph::new(());
/// let a = eg.add(Math::Sym(Symbol::new("a")));
/// let two = eg.add(Math::Num(2));
/// let mul = eg.add(Math::Mul([a, two]));
/// let mul2 = eg.add(Math::Mul([a, two]));
/// assert_eq!(mul, mul2); // hash-consing
/// let one = eg.add(Math::Num(1));
/// let shl = eg.add(Math::Shl([a, one]));
/// eg.union(mul, shl);
/// eg.rebuild();
/// assert_eq!(eg.find(mul), eg.find(shl));
/// ```
#[derive(Clone)]
pub struct EGraph<L: Language, N: Analysis<L>> {
    /// The user-provided analysis value (e.g. configuration for shape
    /// inference). Per-class data lives in each [`EClass`].
    pub analysis: N,
    unionfind: UnionFind,
    memo: HashMap<L, Id>,
    /// Dense class storage in ascending-id order among live entries; `None`
    /// marks a class absorbed by a union since the last rebuild (compacted
    /// away by [`EGraph::rebuild`]).
    slots: Vec<Option<EClass<L, N::Data>>>,
    /// Raw id → slot. Only entries for canonical ids are meaningful;
    /// absorbed ids hold [`NO_SLOT`].
    slot_of: Vec<u32>,
    /// Side table parallel to `slots`: operator discriminants present in
    /// the class. Grow-only (nodes are never removed from a class), which
    /// is what makes incremental operator-index upkeep sound.
    class_ops: Vec<Vec<Discriminant<L>>>,
    /// Number of live (non-tombstoned) slots.
    live: usize,
    /// Worklist of classes whose parent lists must be congruence-repaired:
    /// the surviving root of every union performed since the last rebuild.
    pending: Vec<Id>,
    /// Worklist of (e-node, class) pairs whose analysis data must be
    /// re-computed.
    analysis_pending: Vec<(L, Id)>,
    /// Worklist of classes whose node lists must be re-canonicalized:
    /// union roots plus the owning classes of repaired parent nodes.
    node_repair: Vec<Id>,
    /// E-nodes considered removed (TENSAT cycle filter list). Keys are kept
    /// canonical with respect to the union-find as of the last rebuild.
    filtered: HashSet<L>,
    /// True if a union since the last rebuild may have staled filter keys.
    filtered_dirty: bool,
    /// E-node birth counter: one tick per [`EGraph::add`] that creates a
    /// node. Readers (cycle resolution, the TASO baseline) compare birth
    /// *order* only.
    ticker: u64,
    /// Whether the congruence invariant currently holds.
    clean: bool,
    /// Number of successful (non-trivial) unions performed since creation.
    union_count: usize,
    /// Total e-nodes across all classes, maintained incrementally so limit
    /// checks in hot loops are O(1).
    num_nodes: usize,
    /// Operator index: maps an operator discriminant to the sorted, canonical
    /// ids of the classes containing at least one node with that operator
    /// (filtered nodes included — the matcher re-checks the filter set).
    /// Maintained incrementally by `add` and `union`.
    op_index: HashMap<Discriminant<L>, Vec<Id>>,
}

impl<L: Language, N: Analysis<L>> EGraph<L, N> {
    /// Creates an empty e-graph with the given analysis.
    pub fn new(analysis: N) -> Self {
        EGraph {
            analysis,
            unionfind: UnionFind::new(),
            memo: HashMap::new(),
            slots: vec![],
            slot_of: vec![],
            class_ops: vec![],
            live: 0,
            pending: vec![],
            analysis_pending: vec![],
            node_repair: vec![],
            filtered: HashSet::new(),
            filtered_dirty: false,
            ticker: 0,
            clean: true,
            union_count: 0,
            num_nodes: 0,
            op_index: HashMap::new(),
        }
    }

    /// True if the congruence invariant holds (no pending repairs).
    pub fn is_clean(&self) -> bool {
        self.clean
    }

    /// The number of e-classes.
    pub fn number_of_classes(&self) -> usize {
        self.live
    }

    /// The number of slots in the dense class tables — the exclusive upper
    /// bound of [`EGraph::slot_index`]. On a clean e-graph every slot is
    /// live, so this equals [`EGraph::number_of_classes`]; between a union
    /// and the next rebuild it also counts tombstoned slots. Extractors and
    /// cycle analyses size their per-class tables with this so they share
    /// the e-graph's class index space.
    pub fn num_slots(&self) -> usize {
        self.slots.len()
    }

    /// The dense slot of the class containing `id` (canonicalized first),
    /// or `None` if the id does not name a live class. Slots are stable
    /// between rebuilds; [`EGraph::rebuild`] compacts them, so slot indices
    /// must not be held across a rebuild.
    #[inline]
    pub fn slot_index(&self, id: Id) -> Option<usize> {
        let id = self.find(id);
        match self.slot_of.get(usize::from(id)) {
            Some(&s) if s != NO_SLOT => Some(s as usize),
            _ => None,
        }
    }

    /// The total number of e-nodes across all classes (including filtered
    /// nodes; see [`EGraph::num_unfiltered_nodes`]). O(1): the count is
    /// maintained incrementally so it can be polled inside apply loops.
    pub fn total_number_of_nodes(&self) -> usize {
        self.num_nodes
    }

    /// The number of e-nodes not in the filter set.
    pub fn num_unfiltered_nodes(&self) -> usize {
        self.classes()
            .flat_map(|c| c.nodes.iter())
            .filter(|n| !self.filtered.contains(*n))
            .count()
    }

    /// Number of successful unions performed so far.
    pub fn union_count(&self) -> usize {
        self.union_count
    }

    /// A deep copy of the e-graph: the snapshot/replay primitive for
    /// strategies that expand several candidate states from one parent
    /// (e.g. guided exploration). Ids, slots, match results, and the
    /// filter set on the snapshot are identical to the original until
    /// either side is mutated; neither copy observes the other's changes.
    pub fn snapshot(&self) -> Self
    where
        Self: Clone,
    {
        self.clone()
    }

    /// Canonicalizes an e-class id.
    #[inline]
    pub fn find(&self, id: Id) -> Id {
        self.unionfind.find(id)
    }

    /// Canonicalizes an e-class id with path compression.
    pub fn find_mut(&mut self, id: Id) -> Id {
        self.unionfind.find_mut(id)
    }

    /// Returns the canonical form of an e-node (children canonicalized).
    pub fn canonicalize(&self, enode: &L) -> L {
        enode.map_children(|c| self.find(c))
    }

    /// Iterates over all e-classes in ascending id order.
    pub fn classes(&self) -> impl Iterator<Item = &EClass<L, N::Data>> {
        self.slots.iter().filter_map(Option::as_ref)
    }

    /// Looks up an e-node, returning the canonical id of its class if it is
    /// already represented.
    pub fn lookup(&self, enode: &L) -> Option<Id> {
        let enode = self.canonicalize(enode);
        self.memo.get(&enode).map(|&id| self.find(id))
    }

    /// Adds an e-node, returning the id of its class. If an equivalent
    /// e-node already exists, no new class is created (hash-consing).
    pub fn add(&mut self, enode: L) -> Id {
        let enode = enode.map_children(|c| self.find_mut(c));
        if let Some(&existing) = self.memo.get(&enode) {
            return self.find_mut(existing);
        }
        let id = self.unionfind.make_set();
        let data = N::make(self, &enode);
        let birth = self.ticker;
        self.ticker += 1;
        // Register this node as a parent of each child class.
        for &child in enode.children() {
            let child = self.find(child);
            let slot = self.slot_of[usize::from(child)] as usize;
            self.slots[slot]
                .as_mut()
                .expect("child class must exist")
                .parents
                .push((enode.clone(), id));
        }
        let class = EClass {
            id,
            nodes: vec![enode.clone()],
            node_birth: vec![birth],
            data,
            parents: vec![],
        };
        let op = enode.discriminant();
        debug_assert_eq!(usize::from(id), self.slot_of.len());
        self.slot_of.push(self.slots.len() as u32);
        self.slots.push(Some(class));
        self.class_ops.push(vec![op]);
        self.live += 1;
        // Keep the operator index live across adds: plain adds preserve
        // cleanliness (no congruence repair is pending), so searches between
        // adds are legal and must see the new class. Fresh ids are strictly
        // increasing, so pushing keeps each bucket sorted.
        self.op_index.entry(op).or_default().push(id);
        self.memo.insert(enode, id);
        self.num_nodes += 1;
        N::modify(self, id);
        id
    }

    /// Adds every node of `expr`, returning the id of the class containing
    /// the root.
    ///
    /// # Panics
    ///
    /// Panics if `expr` is empty.
    pub fn add_expr(&mut self, expr: &RecExpr<L>) -> Id {
        let mut ids: Vec<Id> = Vec::with_capacity(expr.len());
        for (_, node) in expr.iter() {
            let node = node.map_children(|c| ids[usize::from(c)]);
            ids.push(self.add(node));
        }
        *ids.last().expect("cannot add an empty expression")
    }

    /// Looks up the class of an expression without adding it.
    pub fn lookup_expr(&self, expr: &RecExpr<L>) -> Option<Id> {
        let mut ids: Vec<Id> = Vec::with_capacity(expr.len());
        for (_, node) in expr.iter() {
            let node = node.map_children(|c| ids[usize::from(c)]);
            ids.push(self.lookup(&node)?);
        }
        ids.last().copied()
    }

    /// Unions two e-classes, returning the canonical id of the merged class
    /// and whether anything actually changed.
    ///
    /// The absorbed class's nodes and parent list are *moved* into the
    /// surviving root (no clones); the only copies taken are the parent
    /// snapshots queued for analysis repair, and only when
    /// [`Analysis::merge`] reports the corresponding side changed.
    pub fn union(&mut self, a: Id, b: Id) -> (Id, bool) {
        let a = self.find_mut(a);
        let b = self.find_mut(b);
        if a == b {
            return (a, false);
        }
        self.clean = false;
        self.filtered_dirty = true;
        self.union_count += 1;
        let root = self.unionfind.union(a, b);
        let other = if root == a { b } else { a };

        let other_slot = self.slot_of[usize::from(other)] as usize;
        let other_class = self.slots[other_slot]
            .take()
            .expect("non-root class must exist");
        self.slot_of[usize::from(other)] = NO_SLOT;
        self.live -= 1;
        let root_slot = self.slot_of[usize::from(root)] as usize;

        // Operator-index upkeep: the absorbed id leaves its buckets, the
        // root enters the buckets of any operator it just gained. A class's
        // operator set only ever grows (nodes are never removed), so this
        // is the *only* place merged membership changes.
        let other_ops = std::mem::take(&mut self.class_ops[other_slot]);
        for op in other_ops {
            let bucket = self.op_index.get_mut(&op).expect("op was indexed");
            if let Ok(i) = bucket.binary_search(&other) {
                bucket.remove(i);
            }
            if !self.class_ops[root_slot].contains(&op) {
                self.class_ops[root_slot].push(op);
                if let Err(i) = bucket.binary_search(&root) {
                    bucket.insert(i, root);
                }
            }
        }

        let root_class = self.slots[root_slot]
            .as_mut()
            .expect("root class must exist");
        // Merge the analysis data *before* concatenating the parent lists:
        // at this point `root_class.parents` is exactly the root's previous
        // parent set and `other_class.parents` the absorbed one's, so the
        // analysis worklist can be fed from them directly — no snapshot
        // clones, and none at all when the data is unchanged.
        let did = self.analysis.merge(&mut root_class.data, other_class.data);
        if did.0 {
            self.analysis_pending
                .extend(root_class.parents.iter().cloned());
        }
        if did.1 {
            self.analysis_pending
                .extend(other_class.parents.iter().cloned());
        }
        root_class.nodes.extend(other_class.nodes);
        root_class.node_birth.extend(other_class.node_birth);
        root_class.parents.extend(other_class.parents);
        root_class.id = root;
        // The root's parent list (now holding the absorbed class's parents
        // too) must be congruence-repaired; its node list (now holding the
        // absorbed nodes) must be re-canonicalized and deduplicated.
        self.pending.push(root);
        self.node_repair.push(root);
        N::modify(self, root);
        (root, true)
    }

    /// Restores the congruence and analysis invariants after a batch of
    /// `add`/`union` calls. Returns the number of unions performed during
    /// the repair.
    ///
    /// Repair work is proportional to the classes actually touched since
    /// the last rebuild: the parent lists of union roots are canonicalized
    /// in place (keeping the memo exact by removing each entry's previous
    /// key form before re-inserting the canonical one), only the node lists
    /// of touched classes are re-canonicalized, the operator index needs no
    /// repair at all (it is maintained by `add`/`union`), and tombstoned
    /// slots are compacted away at the end. In debug builds — or in any
    /// build when `TENSAT_CHECK_INVARIANTS=1` is set — the full
    /// [`EGraph::check_invariants`] validator runs after every rebuild.
    pub fn rebuild(&mut self) -> usize {
        let mut repairs = 0;
        loop {
            // Congruence repair, class-at-a-time over the union roots.
            while let Some(class) = self.pending.pop() {
                repairs += self.repair_parents(class);
            }
            // Analysis repair.
            while let Some((node, class)) = self.analysis_pending.pop() {
                let class = self.find_mut(class);
                let node = node.map_children(|c| self.find_mut(c));
                let data = N::make(self, &node);
                let slot = self.slot_of[usize::from(class)] as usize;
                let class_ref = self.slots[slot].as_mut().expect("class must exist");
                let did = self.analysis.merge(&mut class_ref.data, data);
                if did.0 {
                    let parents = class_ref.parents.clone();
                    self.analysis_pending.extend(parents);
                    N::modify(self, class);
                }
            }
            if self.pending.is_empty() && self.analysis_pending.is_empty() {
                break;
            }
        }
        self.repair_class_nodes();
        self.sweep_memo_if_stale();
        self.refresh_filtered();
        self.compact_slots();
        self.clean = true;
        if cfg!(debug_assertions) || invariant_checks_forced() {
            self.check_invariants();
        }
        repairs
    }

    /// Canonicalizes one class's parent list in place and re-establishes
    /// the congruence invariant for it: every entry's previous key form is
    /// removed from the memo, the canonical form re-inserted, and a key
    /// collision (two parents became congruent) triggers a union. Returns
    /// the number of unions performed.
    fn repair_parents(&mut self, class: Id) -> usize {
        let class = self.find_mut(class);
        let slot = self.slot_of[usize::from(class)] as usize;
        let mut parents = std::mem::take(
            &mut self.slots[slot]
                .as_mut()
                .expect("pending class must be live")
                .parents,
        );
        if parents.is_empty() {
            return 0;
        }
        for (n, p) in parents.iter_mut() {
            // Remove the entry under its previous key *before*
            // canonicalizing: the parent list always holds the exact form
            // last inserted into the memo, so the memo never accumulates
            // stale keys from this entry.
            self.memo.remove(n);
            *n = n.map_children(|c| self.unionfind.find_mut(c));
            *p = self.unionfind.find_mut(*p);
        }
        parents.sort_unstable();
        parents.dedup();
        let mut repairs = 0;
        for (n, p) in &parents {
            // The owning class's node list now holds a stale form of `n`.
            self.node_repair.push(*p);
            if let Some(old) = self.memo.insert(n.clone(), *p) {
                let old = self.find_mut(old);
                let p = self.find_mut(*p);
                if old != p {
                    let (_, did) = self.union(old, p);
                    if did {
                        repairs += 1;
                    }
                }
            }
        }
        // The unions above may have absorbed `class` itself; hand the
        // repaired entries to whatever root now owns them (a re-queued root
        // re-processes them — idempotently — on a later pop).
        let root = self.find_mut(class);
        let slot = self.slot_of[usize::from(root)] as usize;
        self.slots[slot]
            .as_mut()
            .expect("union root must be live")
            .parents
            .extend(parents);
        repairs
    }

    /// Re-canonicalizes, deduplicates (keeping the earliest birth stamp),
    /// and sorts the node lists of the classes queued in `node_repair` —
    /// exactly the classes whose nodes could have gone stale: union roots
    /// and owners of repaired parent nodes.
    fn repair_class_nodes(&mut self) {
        let mut ids: Vec<Id> = std::mem::take(&mut self.node_repair)
            .into_iter()
            .map(|id| self.find_mut(id))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        for id in ids {
            let slot = self.slot_of[usize::from(id)] as usize;
            let uf = &mut self.unionfind;
            let class = self.slots[slot].as_mut().expect("repaired class is live");
            let old_len = class.nodes.len();
            let mut dedup: HashMap<L, u64> = HashMap::with_capacity(old_len);
            for (node, birth) in class.nodes.drain(..).zip(class.node_birth.drain(..)) {
                let node = node.map_children(|c| uf.find_mut(c));
                let entry = dedup.entry(node).or_insert(birth);
                *entry = (*entry).min(birth);
            }
            let mut pairs: Vec<(L, u64)> = dedup.into_iter().collect();
            pairs.sort();
            class.nodes = pairs.iter().map(|(n, _)| n.clone()).collect();
            class.node_birth = pairs.iter().map(|(_, b)| *b).collect();
            let new_len = class.nodes.len();
            self.num_nodes -= old_len - new_len;
        }
    }

    /// Collapses stale memo keys. Parent repair removes each entry's
    /// previous key eagerly, but a chain of unions in one batch can strand
    /// an intermediate form: a node's key is updated via child `a`'s parent
    /// list, then child `c` is absorbed and `c`'s (older) copy of the entry
    /// no longer names the key that is actually in the map. Stale keys are
    /// harmless for lookups (queries are canonical) but break memo
    /// exactness, so they are swept here. The sweep is skipped entirely
    /// when the count proves the memo exact — `memo.len()` equals the node
    /// count exactly when every canonical node has its one canonical entry
    /// and nothing else — which is the common case for add-only or
    /// shallow-union batches.
    fn sweep_memo_if_stale(&mut self) {
        if self.memo.len() == self.num_nodes {
            return;
        }
        let memo = std::mem::take(&mut self.memo);
        self.memo.reserve(self.num_nodes);
        for (node, id) in memo {
            let node = node.map_children(|c| self.unionfind.find_mut(c));
            let id = self.unionfind.find_mut(id);
            self.memo.insert(node, id);
        }
    }

    /// Re-canonicalizes the filter set, if any union since the last rebuild
    /// could have staled its keys.
    fn refresh_filtered(&mut self) {
        if !self.filtered_dirty {
            return;
        }
        self.filtered_dirty = false;
        if self.filtered.is_empty() {
            return;
        }
        let filtered = std::mem::take(&mut self.filtered);
        self.filtered = filtered
            .into_iter()
            .map(|n| n.map_children(|c| self.unionfind.find_mut(c)))
            .collect();
    }

    /// Removes tombstoned slots, preserving ascending-id order of the
    /// survivors, and rewrites the slot map accordingly.
    fn compact_slots(&mut self) {
        if self.live == self.slots.len() {
            return;
        }
        let mut w = 0;
        for r in 0..self.slots.len() {
            if self.slots[r].is_some() {
                if w != r {
                    self.slots.swap(w, r);
                    self.class_ops[w] = std::mem::take(&mut self.class_ops[r]);
                }
                let id = self.slots[w].as_ref().expect("just checked").id;
                self.slot_of[usize::from(id)] = w as u32;
                w += 1;
            }
        }
        self.slots.truncate(w);
        self.class_ops.truncate(w);
    }

    /// The canonical ids of the classes containing at least one e-node with
    /// the given operator discriminant (see [`Language::discriminant`]), in
    /// ascending id order. Filtered nodes are indexed too — the index
    /// over-approximates, callers must still check the filter set.
    pub fn classes_with_op(&self, op: Discriminant<L>) -> &[Id] {
        self.op_index.get(&op).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Marks an e-node as filtered (treated as removed). The node is
    /// canonicalized before insertion. Filtered nodes are skipped by pattern
    /// matching and extraction but remain stored in their class.
    pub fn filter_node(&mut self, enode: &L) {
        let node = self.canonicalize(enode);
        self.filtered.insert(node);
    }

    /// True if the e-node is in the filter set.
    pub fn is_filtered(&self, enode: &L) -> bool {
        // The common path has no filtered nodes at all; skip the node clone
        // and child canonicalization that the set probe would need.
        if self.filtered.is_empty() {
            return false;
        }
        let node = self.canonicalize(enode);
        self.filtered.contains(&node)
    }

    /// Number of filtered e-nodes.
    pub fn filtered_count(&self) -> usize {
        self.filtered.len()
    }

    /// Clears the filter set.
    pub fn clear_filtered(&mut self) {
        self.filtered.clear();
    }

    /// The birth stamp (global insertion counter) of an e-node, if present.
    pub fn node_birth(&self, class: Id, enode: &L) -> Option<u64> {
        let node = self.canonicalize(enode);
        let c = self.eclass(class);
        c.nodes
            .iter()
            .position(|n| *n == node)
            .map(|i| c.node_birth[i])
    }

    /// Access a class by (possibly non-canonical) id: one `find` plus two
    /// dense array reads.
    ///
    /// # Panics
    ///
    /// Panics if the id does not name a live class.
    #[inline]
    pub fn eclass(&self, id: Id) -> &EClass<L, N::Data> {
        let id = self.find(id);
        self.slot_of
            .get(usize::from(id))
            .and_then(|&s| self.slots.get(s as usize))
            .and_then(Option::as_ref)
            .unwrap_or_else(|| panic!("no class for id {id}"))
    }

    /// Extracts *some* concrete expression represented by `id`, preferring
    /// small terms (useful for debugging and tests; cost-aware extraction
    /// lives in [`crate::Extractor`]).
    pub fn id_to_expr(&self, id: Id) -> RecExpr<L> {
        use crate::extract::{AstSize, Extractor};
        let extractor = Extractor::new(self, AstSize);
        let (_, expr) = extractor
            .find_best(id)
            .expect("every live class should represent at least one finite term");
        expr
    }

    /// Exhaustively validates the storage invariants; panics (with a
    /// description) on the first violation. O(e-graph), so
    /// [`EGraph::rebuild`] calls it after every repair in debug builds
    /// only — plus the proptest suites; release builds skip it unless the
    /// `TENSAT_CHECK_INVARIANTS=1` environment variable forces it on
    /// (useful for validating long release-mode saturation runs).
    ///
    /// Checked: the slot map is total and exact (every canonical id maps to
    /// the live slot holding its class, tombstones only for absorbed ids,
    /// live count right); on a *clean* e-graph additionally: class node
    /// lists are canonical, sorted, deduplicated, and keep the
    /// [`Language`] ordering contract (per class, the nodes of one operator
    /// are a single contiguous run ordered by `children()` — what the
    /// e-matching machine's range lookup relies on); the memo holds exactly
    /// one canonical entry per e-node and nothing else; the incremental
    /// node count is right; the operator index and per-class operator sets
    /// agree exactly with the node lists (buckets sorted ascending); and
    /// every parent list, canonicalized, equals the parent set derived from
    /// the node lists.
    ///
    /// # Panics
    ///
    /// Panics when an invariant is violated.
    pub fn check_invariants(&self) {
        use std::collections::BTreeSet;
        // --- slot map -------------------------------------------------------
        assert_eq!(
            self.slot_of.len(),
            self.unionfind.size(),
            "slot map must cover every id ever created"
        );
        let mut live = 0;
        for (s, slot) in self.slots.iter().enumerate() {
            if let Some(class) = slot {
                live += 1;
                assert_eq!(
                    self.find(class.id),
                    class.id,
                    "slot {s} holds a non-canonical class {}",
                    class.id
                );
                assert_eq!(
                    self.slot_of[usize::from(class.id)] as usize,
                    s,
                    "slot map disagrees with slot {s}"
                );
            }
        }
        assert_eq!(live, self.live, "live-slot count out of sync");
        for raw in 0..self.slot_of.len() {
            let id = Id::from(raw);
            if self.find(id) == id {
                let s = self.slot_of[raw];
                let ok = s != NO_SLOT
                    && self
                        .slots
                        .get(s as usize)
                        .is_some_and(|slot| slot.as_ref().is_some_and(|c| c.id == id));
                assert!(ok, "canonical id {id} has no live slot");
            }
        }
        if !self.clean {
            // Node lists, memo, and parents are allowed to be stale between
            // rebuilds; only the slot map is unconditionally exact.
            return;
        }

        // --- nodes, memo, operator index ------------------------------------
        let mut num_nodes = 0;
        let mut expected_parents: HashMap<Id, BTreeSet<(L, Id)>> = HashMap::new();
        for class in self.classes() {
            assert_eq!(
                class.nodes.len(),
                class.node_birth.len(),
                "birth stamps must parallel nodes in class {}",
                class.id
            );
            num_nodes += class.nodes.len();
            let mut node_ops: Vec<Discriminant<L>> = vec![];
            let mut prev: Option<&L> = None;
            // First node of each operator's run, for the ordering contract.
            let mut run_heads: Vec<&L> = vec![];
            for node in &class.nodes {
                assert_eq!(
                    &self.canonicalize(node),
                    node,
                    "non-canonical node in class {}",
                    class.id
                );
                if let Some(prev) = prev {
                    assert!(prev < node, "node list of class {} unsorted", class.id);
                }
                // The `Language` ordering contract, as the machine's range
                // lookup reads it: one contiguous run per operator, ordered
                // by children.
                match prev {
                    Some(prev) if prev.matches(node) => assert!(
                        prev.children() < node.children(),
                        "class {}: {prev:?} sorts before {node:?} of the same operator \
                         against their children (Language ordering contract)",
                        class.id
                    ),
                    _ => {
                        assert!(
                            !run_heads.iter().any(|head| head.matches(node)),
                            "class {}: the nodes with {node:?}'s operator are not one \
                             contiguous run (Language ordering contract)",
                            class.id
                        );
                        run_heads.push(node);
                    }
                }
                prev = Some(node);
                assert_eq!(
                    self.memo.get(node).map(|&v| self.find(v)),
                    Some(class.id),
                    "memo misses node of class {}",
                    class.id
                );
                let op = node.discriminant();
                if !node_ops.contains(&op) {
                    node_ops.push(op);
                }
                for &child in node.children() {
                    expected_parents
                        .entry(self.find(child))
                        .or_default()
                        .insert((node.clone(), class.id));
                }
            }
            let slot = self.slot_of[usize::from(class.id)] as usize;
            let mut class_ops = self.class_ops[slot].clone();
            assert_eq!(
                class_ops.len(),
                node_ops.len(),
                "operator membership wrong for class {}",
                class.id
            );
            class_ops.retain(|op| node_ops.contains(op));
            assert_eq!(
                class_ops.len(),
                node_ops.len(),
                "operator membership lists an absent operator for class {}",
                class.id
            );
            for op in &node_ops {
                assert!(
                    self.op_index
                        .get(op)
                        .is_some_and(|b| b.binary_search(&class.id).is_ok()),
                    "operator index misses class {}",
                    class.id
                );
            }
        }
        assert_eq!(num_nodes, self.num_nodes, "node count out of sync");
        assert_eq!(
            self.memo.len(),
            num_nodes,
            "memo must hold exactly one entry per e-node (stale keys present)"
        );
        for bucket in self.op_index.values() {
            for pair in bucket.windows(2) {
                assert!(pair[0] < pair[1], "operator-index bucket unsorted");
            }
            for &id in bucket {
                assert_eq!(self.find(id), id, "operator index holds a dead id");
            }
        }

        // --- parents --------------------------------------------------------
        for class in self.classes() {
            let got: BTreeSet<(L, Id)> = class
                .parents
                .iter()
                .map(|(n, p)| (self.canonicalize(n), self.find(*p)))
                .collect();
            let want = expected_parents.remove(&class.id).unwrap_or_default();
            assert_eq!(
                got, want,
                "parent list of class {} inconsistent with child membership",
                class.id
            );
        }
        assert!(
            expected_parents.is_empty(),
            "parent edges recorded for dead classes"
        );
    }

    /// Produces a Graphviz dot rendering of the e-graph (classes as
    /// clusters, e-nodes as records).
    pub fn to_dot(&self) -> String {
        let mut s = String::from("digraph egraph {\n  compound=true;\n  rankdir=TB;\n");
        for class in self.classes() {
            s.push_str(&format!(
                "  subgraph cluster_{} {{\n    label=\"{}\";\n",
                class.id, class.id
            ));
            for (i, node) in class.nodes.iter().enumerate() {
                let style = if self.filtered.contains(node) {
                    ",style=dashed"
                } else {
                    ""
                };
                s.push_str(&format!(
                    "    n_{}_{} [label=\"{}\"{}];\n",
                    class.id,
                    i,
                    node.display_op(),
                    style
                ));
            }
            s.push_str("  }\n");
        }
        for class in self.classes() {
            for (i, node) in class.nodes.iter().enumerate() {
                for &child in node.children() {
                    let child = self.find(child);
                    s.push_str(&format!(
                        "  n_{}_{} -> n_{}_0 [lhead=cluster_{}];\n",
                        class.id, i, child, child
                    ));
                }
            }
        }
        s.push_str("}\n");
        s
    }
}

impl<L: Language, N: Analysis<L>> fmt::Debug for EGraph<L, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EGraph")
            .field("classes", &self.live)
            .field("nodes", &self.total_number_of_nodes())
            .field("filtered", &self.filtered.len())
            .field("clean", &self.clean)
            .finish()
    }
}

impl<L: Language, N: Analysis<L>> std::ops::Index<Id> for EGraph<L, N> {
    type Output = EClass<L, N::Data>;
    fn index(&self, id: Id) -> &Self::Output {
        self.eclass(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::language::test_lang::Math;
    use crate::{DidMerge, Symbol};

    fn sym(s: &str) -> Math {
        Math::Sym(Symbol::new(s))
    }

    /// Pattern `(* ?x 2)`.
    fn mul_by_two() -> crate::Pattern<Math> {
        use crate::{ENodeOrVar, Var};
        let mut ast = RecExpr::default();
        let x = ast.add(ENodeOrVar::Var(Var::new("x")));
        let two = ast.add(ENodeOrVar::ENode(Math::Num(2)));
        ast.add(ENodeOrVar::ENode(Math::Mul([x, two])));
        crate::Pattern::new(ast)
    }

    #[test]
    fn hashcons_dedups() {
        let mut eg: EGraph<Math, ()> = EGraph::new(());
        let a = eg.add(sym("a"));
        let b = eg.add(sym("a"));
        assert_eq!(a, b);
        assert_eq!(eg.number_of_classes(), 1);
        let two = eg.add(Math::Num(2));
        let m1 = eg.add(Math::Mul([a, two]));
        let m2 = eg.add(Math::Mul([b, two]));
        assert_eq!(m1, m2);
        assert_eq!(eg.total_number_of_nodes(), 3);
    }

    #[test]
    fn union_merges_classes() {
        let mut eg: EGraph<Math, ()> = EGraph::new(());
        let a = eg.add(sym("a"));
        let b = eg.add(sym("b"));
        assert_ne!(eg.find(a), eg.find(b));
        let (_, did) = eg.union(a, b);
        assert!(did);
        let (_, did2) = eg.union(a, b);
        assert!(!did2);
        eg.rebuild();
        assert_eq!(eg.find(a), eg.find(b));
        assert_eq!(eg.number_of_classes(), 1);
        assert_eq!(eg.eclass(a).len(), 2);
    }

    #[test]
    fn congruence_closure_via_rebuild() {
        // If a == b then f(a) == f(b) after rebuild.
        let mut eg: EGraph<Math, ()> = EGraph::new(());
        let a = eg.add(sym("a"));
        let b = eg.add(sym("b"));
        let two = eg.add(Math::Num(2));
        let fa = eg.add(Math::Mul([a, two]));
        let fb = eg.add(Math::Mul([b, two]));
        assert_ne!(eg.find(fa), eg.find(fb));
        eg.union(a, b);
        eg.rebuild();
        assert_eq!(eg.find(fa), eg.find(fb));
        assert!(eg.is_clean());
    }

    #[test]
    fn nested_congruence() {
        // a == b  implies  g(f(a)) == g(f(b)) through two levels.
        let mut eg: EGraph<Math, ()> = EGraph::new(());
        let a = eg.add(sym("a"));
        let b = eg.add(sym("b"));
        let one = eg.add(Math::Num(1));
        let fa = eg.add(Math::Add([a, one]));
        let fb = eg.add(Math::Add([b, one]));
        let gfa = eg.add(Math::Mul([fa, fa]));
        let gfb = eg.add(Math::Mul([fb, fb]));
        eg.union(a, b);
        eg.rebuild();
        assert_eq!(eg.find(gfa), eg.find(gfb));
    }

    #[test]
    fn add_expr_and_lookup_expr() {
        let mut eg: EGraph<Math, ()> = EGraph::new(());
        let mut e = RecExpr::default();
        let a = e.add(sym("a"));
        let two = e.add(Math::Num(2));
        let m = e.add(Math::Mul([a, two]));
        e.add(Math::Div([m, two]));
        let root = eg.add_expr(&e);
        assert_eq!(eg.lookup_expr(&e), Some(eg.find(root)));
        assert_eq!(eg.number_of_classes(), 4);
        // Extracting it back gives the same term.
        assert_eq!(eg.id_to_expr(root).to_string(), "(/ (* a 2) 2)");
    }

    #[test]
    fn filtered_nodes_are_tracked() {
        let mut eg: EGraph<Math, ()> = EGraph::new(());
        let a = eg.add(sym("a"));
        let two = eg.add(Math::Num(2));
        let m = eg.add(Math::Mul([a, two]));
        let node = Math::Mul([a, two]);
        assert!(!eg.is_filtered(&node));
        eg.filter_node(&node);
        assert!(eg.is_filtered(&node));
        assert_eq!(eg.filtered_count(), 1);
        assert_eq!(eg.num_unfiltered_nodes(), 2);
        assert_eq!(eg.total_number_of_nodes(), 3);
        // Filter set survives a rebuild.
        let b = eg.add(sym("b"));
        eg.union(a, b);
        eg.rebuild();
        let node2 = eg.canonicalize(&node);
        assert!(eg.is_filtered(&node2));
        // A filtered node is invisible to search until the set is cleared.
        let pat = mul_by_two();
        assert!(pat.search(&eg).is_empty());
        eg.clear_filtered();
        assert!(!eg.is_filtered(&node2));
        assert_eq!(eg.filtered_count(), 0);
        let ms = pat.search(&eg);
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].eclass, eg.find(m));
    }

    #[test]
    fn birth_stamps_are_monotone() {
        let mut eg: EGraph<Math, ()> = EGraph::new(());
        let a = eg.add(sym("a"));
        let two = eg.add(Math::Num(2));
        let m = eg.add(Math::Mul([a, two]));
        let b_a = eg.node_birth(a, &sym("a")).unwrap();
        let b_m = eg.node_birth(m, &Math::Mul([a, two])).unwrap();
        assert!(b_a < b_m);
    }

    #[test]
    fn union_count_tracks_changes() {
        let mut eg: EGraph<Math, ()> = EGraph::new(());
        let a = eg.add(sym("a"));
        let b = eg.add(sym("b"));
        let c = eg.add(sym("c"));
        assert_eq!(eg.union_count(), 0);
        eg.union(a, b);
        eg.union(b, c);
        eg.union(a, c);
        assert_eq!(eg.union_count(), 2);
    }

    #[test]
    fn op_index_tracks_classes_per_operator() {
        let mut eg: EGraph<Math, ()> = EGraph::new(());
        let a = eg.add(sym("a"));
        let two = eg.add(Math::Num(2));
        let m1 = eg.add(Math::Mul([a, two]));
        let m2 = eg.add(Math::Mul([two, a]));
        eg.rebuild();
        let mul_key = Math::Mul([a, a]).discriminant();
        let ids = eg.classes_with_op(mul_key);
        assert_eq!(ids, &[eg.find(m1), eg.find(m2)]);
        // Add is absent entirely.
        assert!(eg
            .classes_with_op(Math::Add([a, a]).discriminant())
            .is_empty());
        // Merging the two Mul classes shrinks the bucket after rebuild.
        eg.union(m1, m2);
        eg.rebuild();
        assert_eq!(eg.classes_with_op(mul_key).len(), 1);
        // Num and Sym share no bucket even though both are leaves.
        assert_eq!(eg.classes_with_op(Math::Num(0).discriminant()), &[two]);
        assert_eq!(eg.classes_with_op(sym("zz").discriminant()), &[a]);
    }

    /// Plain adds keep the e-graph clean, so searching between adds is
    /// legal — the operator index must cover classes created since the last
    /// rebuild or the machine searcher silently misses their matches.
    #[test]
    fn op_index_covers_adds_since_last_rebuild() {
        let mut eg: EGraph<Math, ()> = EGraph::new(());
        let a = eg.add(sym("a"));
        let two = eg.add(Math::Num(2));
        eg.rebuild();
        // Added after the rebuild; no unions, so the e-graph stays clean.
        let mul = eg.add(Math::Mul([a, two]));
        assert!(eg.is_clean());

        let pat = mul_by_two();
        let ms = pat.search(&eg);
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].eclass, eg.find(mul));
        assert_eq!(ms.len(), pat.search_naive(&eg).len());
    }

    /// The operator index must stay exact *between* rebuilds too: a union
    /// performed mid-batch moves the absorbed id out of its buckets and
    /// enrolls the root for any operator it gained, so the next rebuild has
    /// nothing to repair.
    #[test]
    fn op_index_is_maintained_across_unions() {
        let mut eg: EGraph<Math, ()> = EGraph::new(());
        let a = eg.add(sym("a"));
        let two = eg.add(Math::Num(2));
        let m = eg.add(Math::Mul([a, two]));
        let s = eg.add(Math::Shl([a, two]));
        eg.union(m, s);
        let root = eg.find(m);
        let mul_key = Math::Mul([a, a]).discriminant();
        let shl_key = Math::Shl([a, a]).discriminant();
        assert_eq!(eg.classes_with_op(mul_key), &[root]);
        assert_eq!(eg.classes_with_op(shl_key), &[root]);
        eg.rebuild();
        assert_eq!(eg.classes_with_op(mul_key), &[eg.find(m)]);
        assert_eq!(eg.classes_with_op(shl_key), &[eg.find(m)]);
    }

    #[test]
    fn node_count_stays_consistent_across_rebuilds() {
        let mut eg: EGraph<Math, ()> = EGraph::new(());
        let a = eg.add(sym("a"));
        let b = eg.add(sym("b"));
        let two = eg.add(Math::Num(2));
        eg.add(Math::Mul([a, two]));
        eg.add(Math::Mul([b, two]));
        let recount = |eg: &EGraph<Math, ()>| -> usize { eg.classes().map(|c| c.len()).sum() };
        assert_eq!(eg.total_number_of_nodes(), recount(&eg));
        // a == b makes the two Mul nodes congruent: the count must reflect
        // the dedup done during rebuild.
        eg.union(a, b);
        assert_eq!(eg.total_number_of_nodes(), recount(&eg));
        eg.rebuild();
        // a, b, 2, and the single surviving Mul node (the two Mul nodes
        // became congruent and were deduplicated by the rebuild).
        assert_eq!(eg.total_number_of_nodes(), 4);
        assert_eq!(eg.total_number_of_nodes(), recount(&eg));
    }

    /// The parallel search driver shares `&EGraph` across scoped threads;
    /// this compile-time check pins the `Sync`-cleanliness of the read path
    /// (it breaks if anyone adds interior mutability, e.g. a memoizing
    /// `RefCell`, to a field reachable from the search accessors).
    #[test]
    fn egraph_is_sync_for_sync_parameters() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<EGraph<Math, ()>>();
    }

    #[test]
    fn dot_export_mentions_every_op() {
        let mut eg: EGraph<Math, ()> = EGraph::new(());
        let a = eg.add(sym("a"));
        let two = eg.add(Math::Num(2));
        eg.add(Math::Mul([a, two]));
        eg.rebuild();
        let dot = eg.to_dot();
        assert!(dot.contains("digraph"));
        assert!(dot.contains('*'));
        assert!(dot.contains('a'));
    }

    /// Analysis that tracks constant values (constant folding lattice).
    #[derive(Clone, Default)]
    struct ConstFold;
    impl Analysis<Math> for ConstFold {
        type Data = Option<i64>;
        fn make(egraph: &EGraph<Math, Self>, enode: &Math) -> Self::Data {
            let c = |id: Id| egraph.eclass(id).data;
            match enode {
                Math::Num(n) => Some(*n),
                Math::Add([a, b]) => Some(c(*a)? + c(*b)?),
                Math::Mul([a, b]) => Some(c(*a)? * c(*b)?),
                Math::Shl([a, b]) => Some(c(*a)? << c(*b)?),
                Math::Div([a, b]) => {
                    let (a, b) = (c(*a)?, c(*b)?);
                    if b != 0 && a % b == 0 {
                        Some(a / b)
                    } else {
                        None
                    }
                }
                Math::Sym(_) => None,
            }
        }
        fn merge(&mut self, to: &mut Self::Data, from: Self::Data) -> DidMerge {
            match (to.as_ref(), from) {
                (None, Some(v)) => {
                    *to = Some(v);
                    DidMerge(true, false)
                }
                (Some(_), None) => DidMerge(false, true),
                (Some(a), Some(b)) => {
                    assert_eq!(*a, b, "merged classes with different constants");
                    DidMerge(false, false)
                }
                (None, None) => DidMerge(false, false),
            }
        }
    }

    #[test]
    fn analysis_data_propagates_through_unions() {
        let mut eg: EGraph<Math, ConstFold> = EGraph::new(ConstFold);
        let a = eg.add(sym("a"));
        let two = eg.add(Math::Num(2));
        let a_plus_2 = eg.add(Math::Add([a, two]));
        assert_eq!(eg.eclass(a_plus_2).data, None);
        // Learn that a == 3; then a + 2 should fold to 5 after rebuild.
        let three = eg.add(Math::Num(3));
        eg.union(a, three);
        eg.rebuild();
        assert_eq!(eg.eclass(a_plus_2).data, Some(5));
    }

    /// The dense slot tables stay exact through add/union/rebuild cycles:
    /// tombstones appear on union, compaction removes them, and the slot
    /// order always matches ascending canonical-id order (which is what
    /// keeps `classes()` iteration — and with it every match and
    /// extraction order — identical to the old `BTreeMap` storage).
    #[test]
    fn slots_compact_and_stay_in_id_order() {
        let mut eg: EGraph<Math, ()> = EGraph::new(());
        let mut ids = vec![];
        for i in 0..10 {
            ids.push(eg.add(sym(&format!("s{i}"))));
        }
        assert_eq!(eg.num_slots(), 10);
        eg.union(ids[3], ids[7]);
        eg.union(ids[1], ids[9]);
        // Tombstones exist until the rebuild; live count is already right.
        assert_eq!(eg.number_of_classes(), 8);
        assert_eq!(eg.num_slots(), 10);
        eg.rebuild();
        assert_eq!(eg.num_slots(), 8);
        let listed: Vec<Id> = eg.classes().map(|c| c.id).collect();
        let mut sorted = listed.clone();
        sorted.sort();
        assert_eq!(listed, sorted, "classes() must iterate in id order");
        for (expect, &id) in listed.iter().enumerate() {
            assert_eq!(eg.slot_index(id), Some(expect));
        }
        // Absorbed ids resolve to their root's slot.
        assert_eq!(eg.slot_index(ids[7]), eg.slot_index(ids[3]));
        eg.check_invariants();
    }

    /// `EClass::lower_bound` on a class holding two operators: the start
    /// of an operator's run, of a prefix's run inside it, and the position
    /// just past a run when nothing qualifies.
    #[test]
    fn lower_bound_finds_operator_and_prefix_runs() {
        let mut eg: EGraph<Math, ()> = EGraph::new(());
        let l: Vec<Id> = (0..4).map(|i| eg.add(sym(&format!("l{i}")))).collect();
        let big = eg.add(Math::Add([l[0], l[1]]));
        for node in [
            Math::Mul([l[3], l[0]]),
            Math::Add([l[2], l[3]]),
            Math::Mul([l[1], l[1]]),
            Math::Add([l[2], l[0]]),
        ] {
            let id = eg.add(node);
            eg.union(big, id);
        }
        eg.rebuild();
        let class = eg.eclass(big);
        assert_eq!(
            class.nodes,
            vec![
                Math::Add([l[0], l[1]]),
                Math::Add([l[2], l[0]]),
                Math::Add([l[2], l[3]]),
                Math::Mul([l[1], l[1]]),
                Math::Mul([l[3], l[0]]),
            ]
        );
        // The probe's own children are ignored.
        let add = Math::Add([big, big]);
        let mul = Math::Mul([big, big]);
        assert_eq!(class.lower_bound(&add, &[]), 0);
        assert_eq!(class.lower_bound(&add, &[l[2]]), 1);
        assert_eq!(class.lower_bound(&add, &[l[2], l[3]]), 2);
        assert_eq!(
            class.lower_bound(&add, &[l[1]]),
            1,
            "no such prefix: next node"
        );
        assert_eq!(class.lower_bound(&add, &[l[3]]), 3, "past the `+` run");
        assert_eq!(class.lower_bound(&mul, &[]), 3);
        assert_eq!(class.lower_bound(&mul, &[l[3]]), 4);
        assert_eq!(
            class.lower_bound(&Math::Num(7), &[]),
            0,
            "literals sort first"
        );
        assert_eq!(class.lower_bound(&Math::Div([big, big]), &[]), 5);
    }

    /// Sorted by a `Language` whose `Ord` breaks the ordering contract, one
    /// class's `+` nodes end up on both sides of its `*` node — where the
    /// e-matching machine's range lookup would miss one of them. The
    /// validator names the contract (in debug builds already from inside
    /// `rebuild`).
    #[test]
    #[should_panic(expected = "Language ordering contract")]
    fn check_invariants_rejects_an_order_that_splits_an_operator_run() {
        use crate::language::test_lang::ByLastChild;
        let mut eg: EGraph<ByLastChild, ()> = EGraph::new(());
        let leaves: Vec<Id> = (0..3)
            .map(|i| eg.add(ByLastChild(sym(&format!("l{i}")))))
            .collect();
        let low = eg.add(ByLastChild(Math::Add([leaves[0], leaves[0]])));
        let mid = eg.add(ByLastChild(Math::Mul([leaves[0], leaves[1]])));
        let high = eg.add(ByLastChild(Math::Add([leaves[0], leaves[2]])));
        eg.union(low, mid);
        eg.union(low, high);
        eg.rebuild();
        eg.check_invariants();
    }
}
