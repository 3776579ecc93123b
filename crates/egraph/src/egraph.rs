//! The [`EGraph`] itself: hash-consed e-node storage, unioning, and
//! congruence-closure rebuilding over dense slot-indexed class tables.

use crate::memo::Memo;
use crate::{Analysis, BitSet, EClass, Id, Language, RecExpr, UnionFind};
use std::collections::HashMap;
use std::fmt;

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

/// Whether [`EGraph::rebuild`] validates: always in debug builds, in
/// release builds when [`invariant_checks_forced`].
fn validating() -> bool {
    cfg!(debug_assertions) || invariant_checks_forced()
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
/// fresh classes append, a union pops the absorbed class's slot if it is
/// the last one and was created since the last rebuild and tombstones it in
/// place otherwise, and [`EGraph::rebuild`] compacts the tombstones away.
/// A node table indexed by raw id holds the e-node each `add` created, and
/// it is the only copy of an e-node: class node lists, parent lists, the
/// analysis worklist and the memo's buckets are 4-byte ids into it
/// ([`EGraph::enode`]), so birth order is id order and the hashcons
/// compares e-nodes through the table. `rebuild` repairs congruence from
/// worklists of the classes unions touched instead of re-canonicalizing
/// the whole e-graph, walking a union root's parent list once however many
/// unions merged into it. The tables grow by doubling while
/// rules apply; exploration ends with [`EGraph::shrink_to_fit`], so
/// extraction reads them at their live length.
///
/// In addition to the egg feature set, this e-graph supports a *filter
/// list* of e-nodes that are considered removed: TENSAT's efficient cycle
/// filtering (paper §5.2, Algorithm 2) resolves cycles by putting the
/// offending e-nodes on it. It is a bit per listed node-table id, which a
/// rebuild moves onto the kept id when it merges congruent twins;
/// [`EGraph::enode_ids`] (and [`EGraph::enodes`], which reads it) skips
/// filtered e-nodes, so pattern matching and extraction do.
///
/// Pattern search reads a [`SearchSnapshot`](crate::SearchSnapshot) of a
/// clean e-graph and, of the e-graph itself, only the node table
/// ([`EGraph::enode`]). Every read accessor takes `&self` and avoids
/// interior mutability — in particular [`EGraph::find`] does *not* path
/// compress.
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
    /// The hashcons: holds, for each e-node, the node-table id of one entry
    /// equal to it. An entry it holds is never rewritten in place.
    memo: Memo,
    /// The node table, indexed by raw id: entry `i` is the e-node whose
    /// `add` created id `i` (so it lives in class `find(i)`); rebuild
    /// repair canonicalizes entries in place.
    nodes: Vec<L>,
    /// Dense class storage in ascending-id order among live entries; `None`
    /// marks a class absorbed by a union since the last rebuild (compacted
    /// away by [`EGraph::rebuild`]).
    slots: Vec<Option<EClass<N::Data>>>,
    /// Raw id → slot. Only entries for canonical ids are meaningful;
    /// absorbed ids hold [`NO_SLOT`].
    slot_of: Vec<u32>,
    /// `slots.len()` at the end of the last rebuild. Slots below it belong
    /// to classes that existed then, whose slot indices callers may hold
    /// until the next rebuild, so a union never frees one of them.
    rebuilt_slots: usize,
    /// Number of live (non-tombstoned) slots.
    live: usize,
    /// Worklist of classes whose parent lists must be congruence-repaired:
    /// the surviving root of every union performed since the last rebuild,
    /// one entry per union. The rebuild walks a root's list at the first
    /// pop after a union marked it [`EClass::dirty`] and skips the rest.
    pending: Vec<Id>,
    /// Worklist of parent e-nodes (node-table ids) whose analysis data
    /// must be re-computed.
    analysis_pending: Vec<Id>,
    /// Worklist of classes whose node lists must be re-canonicalized:
    /// union roots plus the owning classes of repaired parent nodes.
    node_repair: Vec<Id>,
    /// E-nodes considered removed (TENSAT cycle filter list): one bit per
    /// node-table id, set only on ids a class lists.
    filtered: BitSet,
    /// Whether the congruence invariant currently holds.
    clean: bool,
    /// Number of successful (non-trivial) unions performed since creation.
    union_count: usize,
    /// Total e-nodes across all classes, maintained incrementally so limit
    /// checks in hot loops are O(1).
    num_nodes: usize,
}

impl<L: Language, N: Analysis<L>> EGraph<L, N> {
    /// Creates an empty e-graph with the given analysis.
    pub fn new(analysis: N) -> Self {
        EGraph {
            analysis,
            unionfind: UnionFind::new(),
            memo: Memo::default(),
            nodes: vec![],
            slots: vec![],
            slot_of: vec![],
            rebuilt_slots: 0,
            live: 0,
            pending: vec![],
            analysis_pending: vec![],
            node_repair: vec![],
            filtered: BitSet::default(),
            clean: true,
            union_count: 0,
            num_nodes: 0,
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
    /// or `None` if the id does not name a live class. The slot of a class
    /// that existed at the last rebuild is stable until the next one; a
    /// class created since may give its slot to a later class when a union
    /// absorbs it. [`EGraph::rebuild`] compacts the slots, so slot indices
    /// must not be held across a rebuild.
    #[inline]
    pub fn slot_index(&self, id: Id) -> Option<usize> {
        let id = self.find(id);
        match self.slot_of.get(usize::from(id)) {
            Some(&s) if s != NO_SLOT => Some(s as usize),
            _ => None,
        }
    }

    /// The class occupying slot `s`, or `None` for a tombstone: for a
    /// reader that walks the slot space itself, as the DAG extractor does.
    #[inline]
    pub(crate) fn slot_class(&self, s: usize) -> Option<&EClass<N::Data>> {
        self.slots[s].as_ref()
    }

    /// The total number of e-nodes across all classes (including filtered
    /// nodes; see [`EGraph::num_unfiltered_nodes`]). O(1): the count is
    /// maintained incrementally so it can be polled inside apply loops.
    pub fn total_number_of_nodes(&self) -> usize {
        self.num_nodes
    }

    /// The number of e-nodes not on the filter list.
    pub fn num_unfiltered_nodes(&self) -> usize {
        self.num_nodes - self.filtered_count()
    }

    /// Number of successful unions performed so far.
    pub fn union_count(&self) -> usize {
        self.union_count
    }

    /// Releases the spare capacity that growth by doubling left in the
    /// node table, the slot table, the slot map, the union-find and the
    /// rebuild worklists. Nothing observable changes. For the end of
    /// exploration, when the e-graph stops growing and extraction is about
    /// to read it: trimmed between two apply phases, the tables would only
    /// regrow by doubling, copying themselves again.
    pub fn shrink_to_fit(&mut self) {
        self.nodes.shrink_to_fit();
        self.slots.shrink_to_fit();
        self.slot_of.shrink_to_fit();
        self.unionfind.shrink_to_fit();
        self.pending.shrink_to_fit();
        self.analysis_pending.shrink_to_fit();
        self.node_repair.shrink_to_fit();
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
    pub fn classes(&self) -> impl Iterator<Item = &EClass<N::Data>> {
        self.slots.iter().filter_map(Option::as_ref)
    }

    /// The e-node whose [`EGraph::add`] created `id` — canonical on a clean
    /// e-graph if a class lists `id` ([`EClass::node_ids`]).
    #[inline]
    pub fn enode(&self, id: Id) -> &L {
        &self.nodes[usize::from(id)]
    }

    /// The number of node-table ids — the exclusive upper bound of every id
    /// [`EGraph::enode`] reads. Tables indexed by node id size with this.
    pub fn num_node_ids(&self) -> usize {
        self.nodes.len()
    }

    /// The node-table ids of `class`'s unfiltered e-nodes
    /// ([`EGraph::filter_node`]) in list order: what every reader of a
    /// class's candidates walks, so none tests the filter list itself.
    /// [`EClass::node_ids`] lists filtered ones too.
    pub fn enode_ids<'a>(&'a self, class: &'a EClass<N::Data>) -> impl Iterator<Item = Id> + 'a {
        class
            .nodes
            .iter()
            .copied()
            .filter(|&id| !self.is_filtered(id))
    }

    /// The unfiltered e-nodes of `class` ([`EGraph::enode_ids`]), read
    /// from the node table — on a clean e-graph canonical and sorted.
    pub fn enodes<'a>(&'a self, class: &'a EClass<N::Data>) -> impl Iterator<Item = &'a L> + 'a {
        self.enode_ids(class).map(|id| self.enode(id))
    }

    /// The index in the node-id list `nodes` of the first e-node that has
    /// `op`'s operator ([`Language::matches`]; `op`'s own children are
    /// ignored) and whose leading children are not below `prefix` — or of
    /// the first node of a later operator, or the list's length. The nodes
    /// with that operator whose children start with exactly `prefix` are
    /// one contiguous run beginning there, so a reader finds them with one
    /// binary search however large the class is; an empty prefix gives the
    /// start of the operator's run.
    ///
    /// Reads a class's node list as [`EGraph::rebuild`] leaves it
    /// ([`EClass::node_ids`], or a sublist of it) — canonical and sorted
    /// by an `Ord` that keeps the [`Language`] ordering contract — whose
    /// entries have not been rewritten since, and `prefix` must hold
    /// canonical ids of that time; otherwise nodes are missed.
    pub fn lower_bound(&self, nodes: &[Id], op: &L, prefix: &[Id]) -> usize {
        // Operator-major order: against a node of another operator the
        // children decide nothing, so `op`'s pattern-internal ones are
        // harmless; within the operator the children alone decide.
        nodes.partition_point(|&id| {
            let enode = self.enode(id);
            if op.matches(enode) {
                enode.children()[..prefix.len()] < *prefix
            } else {
                enode < op
            }
        })
    }

    /// Looks up an e-node, returning the canonical id of its class if it is
    /// already represented.
    pub fn lookup(&self, enode: &L) -> Option<Id> {
        let enode = self.canonicalize(enode);
        self.memo.get(&self.nodes, &enode).map(|id| self.find(id))
    }

    /// Adds an e-node, returning the id of its class. If an equivalent
    /// e-node already exists, no new class is created (hash-consing).
    pub fn add(&mut self, enode: L) -> Id {
        let enode = enode.map_children(|c| self.find_mut(c));
        if let Some(existing) = self.memo.get(&self.nodes, &enode) {
            return self.find_mut(existing);
        }
        let id = self.unionfind.make_set();
        let data = N::make(self, &enode);
        // Register this node as a parent of each child class.
        for &child in enode.children() {
            let child = self.find(child);
            let slot = self.slot_of[usize::from(child)] as usize;
            self.slots[slot]
                .as_mut()
                .expect("child class must exist")
                .parents
                .push(id);
        }
        let class = EClass {
            id,
            nodes: vec![id],
            data,
            parents: vec![],
            dirty: false,
        };
        debug_assert_eq!(usize::from(id), self.slot_of.len());
        self.slot_of.push(self.slots.len() as u32);
        self.slots.push(Some(class));
        self.live += 1;
        self.nodes.push(enode);
        self.memo.insert(&self.nodes, id);
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

    /// Unions two e-classes, returning the canonical id of the merged class
    /// and whether anything actually changed.
    ///
    /// The absorbed class's nodes and parent list are *moved* into the
    /// surviving root (no clones); parent ids are queued for analysis
    /// repair only when [`Analysis::merge`] reports the corresponding side
    /// changed.
    pub fn union(&mut self, a: Id, b: Id) -> (Id, bool) {
        let a = self.find_mut(a);
        let b = self.find_mut(b);
        if a == b {
            return (a, false);
        }
        self.clean = false;
        self.union_count += 1;
        let root = self.unionfind.union(a, b);
        let other = if root == a { b } else { a };

        // A class created since the last rebuild in the last slot — apply's
        // fresh right-hand-side root, as a rule — gives the slot back.
        // Older slots stay tombstones until the rebuild compacts them: a
        // caller may hold their indices (the cycle pre-filter's map does).
        let other_slot = self.slot_of[usize::from(other)] as usize;
        let is_new_tail = other_slot + 1 == self.slots.len() && other_slot >= self.rebuilt_slots;
        let other_class = if is_new_tail {
            self.slots.pop().flatten()
        } else {
            self.slots[other_slot].take()
        }
        .expect("non-root class must exist");
        self.slot_of[usize::from(other)] = NO_SLOT;
        self.live -= 1;
        let root_slot = self.slot_of[usize::from(root)] as usize;
        let root_class = self.slots[root_slot]
            .as_mut()
            .expect("root class must exist");

        // Merge the analysis data *before* concatenating the parent lists:
        // at this point `root_class.parents` is exactly the root's previous
        // parent set and `other_class.parents` the absorbed one's, so the
        // analysis worklist can be fed from them directly.
        let did = self.analysis.merge(&mut root_class.data, other_class.data);
        if did.0 {
            self.analysis_pending.extend_from_slice(&root_class.parents);
        }
        if did.1 {
            self.analysis_pending
                .extend_from_slice(&other_class.parents);
        }
        root_class.nodes.extend(other_class.nodes);
        root_class.parents.extend(other_class.parents);
        root_class.id = root;
        root_class.dirty = true;
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
    /// Each union pushes its root on a worklist, and congruence repair
    /// walks a popped root's parent list only if a union has merged into
    /// the root since its last walk — once per rebuild for a root that
    /// many unions grew, where walking it at every pop re-walked it per
    /// union (BERT explored to 20 000 e-nodes pushes 13 294 roots; its
    /// rebuilds walk 1 017 parent lists, 16 099 entries, where walking at
    /// every pop took 171 068). A walk canonicalizes the node-table entries of the
    /// root's parents in place (keeping the memo exact: each entry's form
    /// is taken out before the rewrite and its id inserted after it, so no
    /// entry the memo holds is ever rewritten) and unions the parents it
    /// finds congruent, pushing their roots in turn. Then only the node
    /// lists of touched classes are re-canonicalized (their entries in
    /// place), and tombstoned slots are compacted
    /// away at the end; every class then existing keeps its slot until the
    /// next rebuild (see [`EGraph::slot_index`]). In debug builds — or in
    /// any build when `TENSAT_CHECK_INVARIANTS=1` is set — the full
    /// [`EGraph::check_invariants`] validator runs after every rebuild,
    /// and every skipped root is checked to have nothing to union.
    pub fn rebuild(&mut self) -> usize {
        self.rebuild_counting().0
    }

    /// [`EGraph::rebuild`], returning the unions it performed and how many
    /// parent lists it walked.
    fn rebuild_counting(&mut self) -> (usize, usize) {
        let validate = validating();
        let (mut unions, mut walks) = (0, 0);
        loop {
            // Congruence repair, class-at-a-time over the union roots, in
            // the order the unions pushed them (the last first): canonical
            // ids depend on the order of unions, so the stack is neither
            // sorted nor deduplicated. An entry whose root was walked since
            // the entry was pushed is skipped: a union that could have made
            // the root's parents congruent since then pushed its own root
            // later, and that root was popped and walked first.
            while let Some(class) = self.pending.pop() {
                let root = self.find_mut(class);
                let slot = self.slot_of[usize::from(root)] as usize;
                let class = self.slots[slot]
                    .as_mut()
                    .expect("pending class must be live");
                if std::mem::take(&mut class.dirty) {
                    walks += 1;
                    unions += self.repair_parents(root);
                } else if validate {
                    self.check_clean_root(root);
                }
            }
            self.repair_analysis();
            if self.pending.is_empty() {
                break;
            }
        }
        self.finish_rebuild();
        (unions, walks)
    }

    /// [`EGraph::rebuild`] walking the parent list of every root it pops,
    /// repaired since or not: the oracle the skipping is tested against.
    #[cfg(test)]
    fn rebuild_every_pop(&mut self) -> (usize, usize) {
        let (mut unions, mut walks) = (0, 0);
        loop {
            while let Some(class) = self.pending.pop() {
                let root = self.find_mut(class);
                let slot = self.slot_of[usize::from(root)] as usize;
                self.slots[slot]
                    .as_mut()
                    .expect("pending class must be live")
                    .dirty = false;
                walks += 1;
                unions += self.repair_parents(class);
            }
            self.repair_analysis();
            if self.pending.is_empty() {
                break;
            }
        }
        self.finish_rebuild();
        (unions, walks)
    }

    /// Checks that walking `root`'s parent list again, as a root repaired
    /// since it was pushed, would union nothing: no two of its parents are
    /// congruent across classes, and the memo holds none of them for
    /// another class. The validator's part of skipping such a root.
    fn check_clean_root(&self, root: Id) {
        let mut forms: HashMap<L, Id> = HashMap::new();
        for &p in &self.eclass(root).parents {
            let form = self.canonicalize(self.enode(p));
            let owner = self.find(p);
            if let Some(held) = self.memo.get(&self.nodes, &form) {
                assert_eq!(
                    self.find(held),
                    owner,
                    "a repair of clean root {root} would union parent {p} with {held}"
                );
            }
            let first = *forms.entry(form).or_insert(owner);
            assert_eq!(
                first, owner,
                "a repair of clean root {root} would union congruent parents"
            );
        }
    }

    /// Drains the analysis worklist: re-makes each queued parent's data and
    /// merges it into its class, queueing the class's parents in turn when
    /// the data changed. [`Analysis::modify`] may union, refilling
    /// `pending`.
    fn repair_analysis(&mut self) {
        while let Some(parent) = self.analysis_pending.pop() {
            let class = self.find_mut(parent);
            let node = self.nodes[usize::from(parent)].map_children(|c| self.unionfind.find_mut(c));
            let data = N::make(self, &node);
            let slot = self.slot_of[usize::from(class)] as usize;
            let class_ref = self.slots[slot].as_mut().expect("class must exist");
            let did = self.analysis.merge(&mut class_ref.data, data);
            if did.0 {
                self.analysis_pending.extend_from_slice(&class_ref.parents);
                N::modify(self, class);
            }
        }
    }

    /// The rebuild's last steps, once both worklists are empty: the touched
    /// node lists, the memo if stale, slot compaction, then the validator
    /// where it is on.
    fn finish_rebuild(&mut self) {
        self.repair_class_nodes();
        self.sweep_memo_if_stale();
        self.compact_slots();
        self.rebuilt_slots = self.slots.len();
        self.clean = true;
        if validating() {
            self.check_invariants();
        }
    }

    /// Canonicalizes one class's parents and re-establishes the congruence
    /// invariant for it: each parent's node-table entry is taken out of the
    /// memo under its previous form, canonicalized in place and its id
    /// inserted again; an insert that finds an equal entry held (two parents
    /// became congruent) unions the held id's class with the parent's.
    /// Returns the number of unions performed.
    fn repair_parents(&mut self, class: Id) -> usize {
        let class = self.find_mut(class);
        let slot = self.slot_of[usize::from(class)] as usize;
        let parents = std::mem::take(
            &mut self.slots[slot]
                .as_mut()
                .expect("pending class must be live")
                .parents,
        );
        if parents.is_empty() {
            return 0;
        }
        // (parent, its class) pairs, ordered and deduplicated by (e-node,
        // class) so congruent parents are unioned in a fixed order.
        let mut owned: Vec<(Id, Id)> = Vec::with_capacity(parents.len());
        for p in parents {
            // Take the entry's form out of the memo *before* canonicalizing
            // it in place: the memo never holds an entry that is rewritten.
            self.memo.remove(&self.nodes, &self.nodes[usize::from(p)]);
            for c in self.nodes[usize::from(p)].children_mut() {
                *c = self.unionfind.find_mut(*c);
            }
            owned.push((p, self.unionfind.find_mut(p)));
        }
        let nodes = &self.nodes;
        let key = |&(p, owner): &(Id, Id)| (&nodes[usize::from(p)], owner);
        owned.sort_unstable_by(|a, b| key(a).cmp(&key(b)));
        owned.dedup_by(|a, b| key(a) == key(b));
        let mut repairs = 0;
        for &(p, owner) in &owned {
            // The owning class's node list now holds a stale form of `p`.
            self.node_repair.push(owner);
            if let Some(held) = self.memo.insert(&self.nodes, p) {
                let held = self.find_mut(held);
                let owner = self.find_mut(owner);
                if held != owner {
                    let (_, did) = self.union(held, owner);
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
            .extend(owned.into_iter().map(|(p, _)| p));
        repairs
    }

    /// Canonicalizes, sorts and deduplicates (keeping the smallest id) the
    /// node lists of the classes queued in `node_repair`: union roots and
    /// owners of repaired parent nodes. Listed entries are canonicalized in
    /// place, as parent dedup may have repaired only a congruent twin —
    /// whose repair already took the stale form out of the memo, so none
    /// of the entries rewritten here is held. A dropped twin's filter bit
    /// moves onto the kept id (by value the twins are one e-node, filtered
    /// if either was), so only listed ids carry a bit.
    fn repair_class_nodes(&mut self) {
        let mut ids: Vec<Id> = std::mem::take(&mut self.node_repair)
            .into_iter()
            .map(|id| self.find_mut(id))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        for id in ids {
            let slot = self.slot_of[usize::from(id)] as usize;
            let class = self.slots[slot].as_mut().expect("repaired class is live");
            for &n in &class.nodes {
                for c in self.nodes[usize::from(n)].children_mut() {
                    *c = self.unionfind.find_mut(*c);
                }
            }
            let (nodes, filtered) = (&self.nodes, &mut self.filtered);
            let old_len = class.nodes.len();
            class
                .nodes
                .sort_unstable_by_key(|&n| (&nodes[usize::from(n)], n));
            class.nodes.dedup_by(|&mut dropped, &mut kept| {
                let twins = nodes[usize::from(dropped)] == nodes[usize::from(kept)];
                if twins && filtered.remove(usize::from(dropped)) {
                    filtered.insert(usize::from(kept));
                }
                twins
            });
            self.num_nodes -= old_len - class.nodes.len();
        }
    }

    /// Re-keys the memo from the ids it holds, if the count says an entry
    /// is stale: each held entry is canonicalized in place — the table
    /// emptied first, so no held entry is rewritten — and its id inserted
    /// again, congruent duplicates collapsing onto the first. Parent repair
    /// takes every entry's form out before rewriting it, and class-list
    /// repair rewrites only entries whose form a congruent twin's repair
    /// already took out; a stale held entry would make a twin's insert
    /// push the count above the node count. Measured at 0 sweeps on the
    /// repo benchmark's 19 cases and on the seeded add/union/rebuild fuzz
    /// loop; it stays as the repair should an entry be stranded anyway.
    /// The sweep is skipped when the count proves the memo exact —
    /// `memo.len()` equals the node count exactly when every canonical node
    /// has its one canonical entry and nothing else.
    fn sweep_memo_if_stale(&mut self) {
        if self.memo.len() == self.num_nodes {
            return;
        }
        let held: Vec<Id> = self.memo.ids().collect();
        self.memo.clear();
        for id in held {
            for c in self.nodes[usize::from(id)].children_mut() {
                *c = self.unionfind.find_mut(*c);
            }
            self.memo.insert(&self.nodes, id);
        }
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
                self.slots.swap(w, r);
                let id = self.slots[w].as_ref().expect("just checked").id;
                self.slot_of[usize::from(id)] = w as u32;
                w += 1;
            }
        }
        self.slots.truncate(w);
    }

    /// Puts the e-node with node-table id `id` on the filter list (treats
    /// it as removed). `id` must be one its class lists
    /// ([`EClass::node_ids`]). Filtered nodes stay stored in their class;
    /// [`EGraph::enode_ids`] and [`EGraph::enodes`] skip them, so pattern
    /// matching and extraction do. The mark follows the e-node through rebuilds: should it become
    /// congruent to a twin listed under a smaller id, that id carries it.
    pub fn filter_node(&mut self, id: Id) {
        self.filtered.insert(usize::from(id));
    }

    /// True if the e-node with node-table id `id` is on the filter list:
    /// one bit read.
    #[inline]
    pub fn is_filtered(&self, id: Id) -> bool {
        self.filtered.contains(usize::from(id))
    }

    /// Number of filtered e-nodes.
    pub fn filtered_count(&self) -> usize {
        self.filtered.count()
    }

    /// Clears the filter list.
    pub fn clear_filtered(&mut self) {
        self.filtered.clear();
    }

    /// Access a class by (possibly non-canonical) id: one `find` plus two
    /// dense array reads.
    ///
    /// # Panics
    ///
    /// Panics if the id does not name a live class.
    #[inline]
    pub fn eclass(&self, id: Id) -> &EClass<N::Data> {
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
        let (_, term) = extractor
            .find_best(id)
            .expect("every live class should represent at least one finite term");
        term.expr
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
    /// live count right) and the node table has one entry per id; on a
    /// *clean* e-graph additionally: class node lists' entries are canonical,
    /// sorted, deduplicated, and keep the [`Language`] ordering contract
    /// (per class, the nodes of one operator are a single contiguous run
    /// ordered by `children()` — what the e-matching machine's range lookup
    /// relies on); the memo holds exactly one canonical entry per e-node
    /// and nothing else, and finds every id it holds under that id's
    /// entry; the incremental node count is right; every node-table entry,
    /// canonicalized, is a node of its id's class, listed under the
    /// smallest id whose entry canonicalizes to it; every id on the filter
    /// list is one its class lists (so [`EGraph::filtered_count`] counts
    /// listed e-nodes); and every parent list, canonicalized, equals the
    /// parent set derived from the node lists.
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
        assert_eq!(
            self.nodes.len(),
            self.unionfind.size(),
            "node table must hold the e-node of every id ever created"
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

        // --- nodes, memo ----------------------------------------------------
        let mut num_nodes = 0;
        let mut expected_parents: HashMap<Id, BTreeSet<(L, Id)>> = HashMap::new();
        for class in self.classes() {
            num_nodes += class.nodes.len();
            let mut prev: Option<&L> = None;
            // First node of each operator's run, for the ordering contract.
            let mut run_heads: Vec<&L> = vec![];
            for node in class.nodes.iter().map(|&n| self.enode(n)) {
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
                    self.memo.get(&self.nodes, node).map(|v| self.find(v)),
                    Some(class.id),
                    "memo misses node of class {}",
                    class.id
                );
                for &child in node.children() {
                    expected_parents
                        .entry(self.find(child))
                        .or_default()
                        .insert((node.clone(), class.id));
                }
            }
        }
        assert_eq!(num_nodes, self.num_nodes, "node count out of sync");
        assert_eq!(
            self.memo.len(),
            num_nodes,
            "memo must hold exactly one entry per e-node (stale keys present)"
        );
        let mut held = 0;
        for id in self.memo.ids() {
            held += 1;
            let node = self.enode(id);
            assert_eq!(
                &self.canonicalize(node),
                node,
                "memo holds id {id} under a non-canonical entry"
            );
            assert_eq!(
                self.memo.get(&self.nodes, node),
                Some(id),
                "memo holds id {id} off the probe chain of its entry"
            );
        }
        assert_eq!(held, self.memo.len(), "memo length out of sync");

        // --- node table and parents -----------------------------------------
        // A class lists each e-node under the smallest id whose entry
        // canonicalizes to it: the "oldest" cycle resolution and TASO read.
        for (raw, node) in self.nodes.iter().enumerate() {
            let (id, node) = (Id::from(raw), self.canonicalize(node));
            let class = self.eclass(id);
            let listed = class.nodes.binary_search_by(|&n| self.enode(n).cmp(&node));
            assert!(
                listed.is_ok_and(|i| class.nodes[i] <= id),
                "node-table entry {id} is not listed by class {} under it or an earlier id",
                class.id
            );
        }
        // The filter list marks listed ids only: rebuild moved a dropped
        // twin's bit onto the id kept in its place.
        for raw in self.filtered.iter_ones() {
            let id = Id::from(raw);
            assert!(
                self.eclass(id).nodes.contains(&id),
                "filtered id {id} is not listed by its class"
            );
        }
        for class in self.classes() {
            let got: BTreeSet<(L, Id)> = class
                .parents
                .iter()
                .map(|&p| (self.canonicalize(&self.nodes[usize::from(p)]), self.find(p)))
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
}

impl<L: Language, N: Analysis<L>> fmt::Debug for EGraph<L, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EGraph")
            .field("classes", &self.live)
            .field("nodes", &self.total_number_of_nodes())
            .field("filtered", &self.filtered_count())
            .field("clean", &self.clean)
            .finish()
    }
}

impl<L: Language, N: Analysis<L>> std::ops::Index<Id> for EGraph<L, N> {
    type Output = EClass<N::Data>;
    fn index(&self, id: Id) -> &Self::Output {
        self.eclass(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::language::test_lang::{splitmix, Math};
    use crate::{DidMerge, ENodeOrVar, SearchMatches, Symbol, Var};

    fn sym(s: &str) -> Math {
        Math::Sym(Symbol::new(s))
    }

    /// Pattern `(* ?x 2)`.
    fn mul_by_two() -> crate::Pattern<Math> {
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
    fn add_expr_hash_conses_and_round_trips() {
        let mut eg: EGraph<Math, ()> = EGraph::new(());
        let mut e = RecExpr::default();
        let a = e.add(sym("a"));
        let two = e.add(Math::Num(2));
        let m = e.add(Math::Mul([a, two]));
        e.add(Math::Div([m, two]));
        let root = eg.add_expr(&e);
        let again = eg.add_expr(&e);
        assert_eq!(eg.find(again), eg.find(root));
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
        assert!(!eg.is_filtered(m));
        eg.filter_node(m);
        assert!(eg.is_filtered(m));
        assert_eq!(eg.filtered_count(), 1);
        assert_eq!(eg.num_unfiltered_nodes(), 2);
        assert_eq!(eg.total_number_of_nodes(), 3);
        // The filter list survives a rebuild.
        let b = eg.add(sym("b"));
        eg.union(a, b);
        eg.rebuild();
        assert!(eg.is_filtered(m));
        assert_eq!(eg.enodes(eg.eclass(m)).count(), 0);
        assert_eq!(eg.eclass(m).node_ids(), [m]);
        // A filtered node is invisible to search until the list is cleared.
        let pat = mul_by_two();
        assert!(pat.search(&eg).is_empty());
        eg.clear_filtered();
        assert!(!eg.is_filtered(m));
        assert_eq!(eg.filtered_count(), 0);
        let ms = pat.search(&eg);
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].eclass, eg.find(m));
    }

    /// Two e-nodes made congruent by a union are one e-node after the
    /// rebuild, listed under the id of whichever `add` came first — in
    /// both union directions.
    #[test]
    fn congruent_e_nodes_keep_the_earliest_id() {
        for flip in [false, true] {
            let mut eg: EGraph<Math, ()> = EGraph::new(());
            let a = eg.add(sym("a"));
            let b = eg.add(sym("b"));
            let two = eg.add(Math::Num(2));
            let earlier = eg.add(Math::Mul([b, two]));
            let later = eg.add(Math::Mul([a, two]));
            if flip {
                eg.union(b, a);
            } else {
                eg.union(a, b);
            }
            eg.rebuild();
            assert_eq!(eg.find(earlier), eg.find(later));
            assert_eq!(eg.eclass(later).node_ids(), [earlier]);
            let canonical = eg.canonicalize(&Math::Mul([a, two]));
            assert_eq!(eg.enode(earlier), &canonical);
            eg.check_invariants();
        }
    }

    /// Two congruent e-nodes are one e-node after the rebuild, and by value
    /// it is filtered if either was: the kept (earlier) id carries the mark
    /// whichever twin was filtered, in both union directions, filtered
    /// before the union or between it and the rebuild. The dropped id's
    /// bit is cleared, so the count is of listed e-nodes.
    #[test]
    fn a_filtered_e_node_stays_filtered_when_its_congruent_twin_is_kept() {
        for filter_earlier in [false, true] {
            for flip in [false, true] {
                for filter_when_dirty in [false, true] {
                    let mut eg: EGraph<Math, ()> = EGraph::new(());
                    let a = eg.add(sym("a"));
                    let b = eg.add(sym("b"));
                    let two = eg.add(Math::Num(2));
                    let earlier = eg.add(Math::Mul([b, two]));
                    let later = eg.add(Math::Mul([a, two]));
                    let filtered = if filter_earlier { earlier } else { later };
                    if !filter_when_dirty {
                        eg.filter_node(filtered);
                    }
                    if flip {
                        eg.union(b, a);
                    } else {
                        eg.union(a, b);
                    }
                    if filter_when_dirty {
                        eg.filter_node(filtered);
                    }
                    eg.rebuild();
                    eg.check_invariants();
                    let case = (filter_earlier, flip, filter_when_dirty);
                    assert_eq!(eg.eclass(later).node_ids(), [earlier], "{case:?}");
                    assert!(eg.is_filtered(earlier), "{case:?}");
                    assert!(!eg.is_filtered(later), "{case:?}");
                    assert_eq!(eg.filtered_count(), 1, "{case:?}");
                    assert_eq!(eg.num_unfiltered_nodes(), 3, "{case:?}");
                    assert_eq!(eg.enodes(eg.eclass(earlier)).count(), 0, "{case:?}");
                    assert!(mul_by_two().search(&eg).is_empty(), "{case:?}");
                }
            }
        }
    }

    /// Parent dedup may keep only the later of two congruent ids in a
    /// parent list while the class lists the earlier one: a later union
    /// then repairs the later id's node-table entry, not the listed one.
    /// Class-list repair canonicalizes the listed entry itself.
    #[test]
    fn a_kept_id_skipped_by_parent_dedup_is_canonical_after_rebuild() {
        let mut eg: EGraph<Math, ()> = EGraph::new(());
        let [a, b, c, d, e, f] = ["a", "b", "c", "d", "e", "f"].map(|s| eg.add(sym(s)));
        let p = eg.add(Math::Add([a, c]));
        let q = eg.add(Math::Add([b, d]));
        eg.union(b, a);
        eg.union(d, c);
        eg.rebuild();
        assert_eq!(eg.find(p), eg.find(q));
        assert_eq!(eg.eclass(p).node_ids(), [p]);
        eg.union(e, f);
        eg.union(e, b);
        eg.rebuild();
        eg.check_invariants();
        assert_eq!(eg.enode(p), &eg.canonicalize(eg.enode(p)));
    }

    /// Every e-node on one memo probe chain: hash-consing, lookups, and the
    /// remove/canonicalize/insert of parent repair only ever tell e-nodes
    /// apart by comparing them through the node table.
    #[test]
    fn memo_keeps_colliding_e_nodes_apart() {
        use crate::language::test_lang::SameHash;
        let mut eg: EGraph<SameHash, ()> = EGraph::new(());
        let [a, b, c] = ["a", "b", "c"].map(|s| eg.add(SameHash(sym(s))));
        let ab = eg.add(SameHash(Math::Add([a, b])));
        let cb = eg.add(SameHash(Math::Add([c, b])));
        let ba = eg.add(SameHash(Math::Mul([b, a])));
        assert_eq!(eg.add(SameHash(Math::Add([a, b]))), ab);
        assert_eq!(eg.lookup(&SameHash(Math::Mul([b, a]))), Some(ba));
        assert_eq!(eg.lookup(&SameHash(Math::Mul([a, b]))), None);
        eg.union(a, c);
        eg.rebuild();
        eg.check_invariants();
        assert_eq!(eg.find(ab), eg.find(cb));
        assert_eq!(eg.total_number_of_nodes(), 5);
        assert_eq!(eg.lookup(&SameHash(Math::Add([c, b]))), Some(eg.find(ab)));
        eg.union(ab, ba);
        eg.union(b, a);
        eg.rebuild();
        eg.check_invariants();
        assert_eq!(eg.number_of_classes(), 2);
        assert_eq!(eg.lookup(&SameHash(Math::Mul([c, c]))), Some(eg.find(ab)));
    }

    /// SplitMix64-seeded add/union/rebuild rounds on 500 small e-graphs:
    /// the memo stays exact through every rebuild, and every node-table
    /// entry — stale ones included — looks up to its id's class.
    #[test]
    fn memo_survives_random_add_union_rebuild() {
        let mut next = splitmix();
        for _ in 0..500 {
            let mut eg: EGraph<Math, ()> = EGraph::new(());
            let mut ids: Vec<Id> = (0..2 + next(4))
                .map(|i| eg.add(sym(&format!("l{i}"))))
                .collect();
            for _ in 0..1 + next(4) {
                for _ in 0..next(31) {
                    let children = [ids[next(ids.len())], ids[next(ids.len())]];
                    let enode = match next(3) {
                        0 => Math::Add(children),
                        1 => Math::Mul(children),
                        _ => Math::Div(children),
                    };
                    ids.push(eg.add(enode));
                }
                for _ in 0..next(17) {
                    eg.union(ids[next(ids.len())], ids[next(ids.len())]);
                }
                eg.rebuild();
                eg.check_invariants();
                for &id in &ids {
                    assert_eq!(eg.lookup(eg.enode(id)), Some(eg.find(id)));
                }
            }
        }
    }

    /// One seeded add/union round, as the operand picks it draws: operators
    /// (`+`, `*`, `/` or the constant 2) over earlier ids, then unions.
    struct Round {
        adds: Vec<(usize, usize, usize)>,
        unions: Vec<(usize, usize)>,
    }

    impl Round {
        fn draw(next: &mut impl FnMut(usize) -> usize, ids: usize) -> Round {
            let mut adds = vec![];
            for i in 0..next(31) {
                adds.push((next(4), next(ids + i), next(ids + i)));
            }
            let ids = ids + adds.len();
            let unions = (0..next(17)).map(|_| (next(ids), next(ids))).collect();
            Round { adds, unions }
        }

        /// Plays the round on `eg`, appending the added ids to `ids`, and
        /// rebuilds; returns every id the round's calls handed back.
        fn play(&self, eg: &mut EGraph<Math, ()>, ids: &mut Vec<Id>) -> Vec<Id> {
            let out = self.add_and_union(eg, ids);
            eg.rebuild();
            out
        }

        /// [`Round::play`] without the rebuild.
        fn add_and_union(&self, eg: &mut EGraph<Math, ()>, ids: &mut Vec<Id>) -> Vec<Id> {
            let mut out = vec![];
            for &(op, a, b) in &self.adds {
                let children = [ids[a], ids[b]];
                let id = eg.add(match op {
                    0 => Math::Add(children),
                    1 => Math::Mul(children),
                    2 => Math::Div(children),
                    _ => Math::Num(2),
                });
                ids.push(id);
                out.push(id);
            }
            for &(a, b) in &self.unions {
                out.push(eg.union(ids[a], ids[b]).0);
            }
            out
        }
    }

    /// Every class's id, node list and node values.
    type ClassView = Vec<(Id, Vec<Id>, Vec<Math>)>;

    /// What a reader can see of an e-graph: its classes, and what two
    /// patterns match.
    fn observed(eg: &EGraph<Math, ()>) -> (ClassView, Vec<SearchMatches>) {
        let classes = eg
            .classes()
            .map(|c| (c.id, c.node_ids().to_vec(), eg.enodes(c).cloned().collect()))
            .collect();
        let mut matches = mul_by_two().search(eg);
        let mut ast = RecExpr::default();
        let x = ast.add(ENodeOrVar::Var(Var::new("x")));
        let y = ast.add(ENodeOrVar::Var(Var::new("y")));
        ast.add(ENodeOrVar::ENode(Math::Add([x, y])));
        matches.extend(crate::Pattern::new(ast).search(eg));
        (classes, matches)
    }

    /// Trimming changes nothing observable: seeded add/union/rebuild
    /// rounds on 200 small e-graphs, a trim after a random round, then the
    /// same rounds on the trimmed e-graph and on an untrimmed clone give
    /// the same ids, classes and matches, and both pass the validator.
    #[test]
    fn shrink_to_fit_changes_nothing_observable() {
        let mut next = splitmix();
        for _ in 0..200 {
            let mut eg: EGraph<Math, ()> = EGraph::new(());
            let mut ids: Vec<Id> = (0..2 + next(4))
                .map(|i| eg.add(sym(&format!("l{i}"))))
                .collect();
            for _ in 0..1 + next(3) {
                Round::draw(&mut next, ids.len()).play(&mut eg, &mut ids);
            }
            let mut untrimmed = eg.clone();
            let mut untrimmed_ids = ids.clone();
            eg.shrink_to_fit();
            assert_eq!(eg.nodes.capacity(), eg.nodes.len());
            assert_eq!(eg.slots.capacity(), eg.slots.len());
            assert_eq!(observed(&eg), observed(&untrimmed));
            for _ in 0..1 + next(3) {
                let round = Round::draw(&mut next, ids.len());
                let got = round.play(&mut eg, &mut ids);
                assert_eq!(got, round.play(&mut untrimmed, &mut untrimmed_ids));
                eg.check_invariants();
                untrimmed.check_invariants();
                assert_eq!(observed(&eg), observed(&untrimmed));
            }
        }
    }

    /// Everything a rebuild decides: the `find` partition of every id,
    /// the union count, the classes and matches ([`observed`]) and the
    /// filter list.
    fn rebuilt_view(eg: &EGraph<Math, ()>) -> impl PartialEq + fmt::Debug {
        let partition: Vec<Id> = (0..eg.num_node_ids())
            .map(|i| eg.find(Id::from(i)))
            .collect();
        let filtered: Vec<usize> = eg.filtered.iter_ones().collect();
        (partition, eg.union_count(), observed(eg), filtered)
    }

    /// The rebuild against its every-pop oracle: seeded add/union rounds
    /// (the generator of `memo_survives_random_add_union_rebuild`, as
    /// [`Round`] draws it) on 500 small e-graphs, each round played on a
    /// pair of equal e-graphs, one rebuilt each way, then a random listed
    /// e-node filtered in both. After every round the two rebuilds
    /// performed the same unions and [`rebuilt_view`] is equal. The oracle
    /// walks a parent list per union and congruence repair, 8 461 of them;
    /// the rebuild walks 3 058, one per root a union touched since its last
    /// repair.
    #[test]
    fn rebuild_equals_the_every_pop_oracle() {
        let mut next = splitmix();
        let (mut walks, mut oracle_walks) = (0, 0);
        for _ in 0..500 {
            let mut eg: EGraph<Math, ()> = EGraph::new(());
            let mut ids: Vec<Id> = (0..2 + next(4))
                .map(|i| eg.add(sym(&format!("l{i}"))))
                .collect();
            let mut oracle = eg.clone();
            let mut oracle_ids = ids.clone();
            for _ in 0..1 + next(4) {
                let round = Round::draw(&mut next, ids.len());
                let got = round.add_and_union(&mut eg, &mut ids);
                assert_eq!(got, round.add_and_union(&mut oracle, &mut oracle_ids));
                let (unions, walked) = eg.rebuild_counting();
                let (oracle_unions, oracle_walked) = oracle.rebuild_every_pop();
                assert_eq!(unions, oracle_unions);
                walks += walked;
                oracle_walks += oracle_walked;
                eg.check_invariants();
                assert_eq!(rebuilt_view(&eg), rebuilt_view(&oracle));
                let class = eg.classes().nth(next(eg.number_of_classes())).unwrap();
                let id = class.node_ids()[next(class.len())];
                eg.filter_node(id);
                oracle.filter_node(id);
            }
        }
        assert_eq!((walks, oracle_walks), (3_058, 8_461));
    }

    /// A root that `k` unions merged into is walked once by the rebuild
    /// that follows, not once per union: the parent list of `r` (`m`
    /// parents `(+ r xi)`) after it absorbs `k` fresh classes.
    #[test]
    fn a_root_unioned_k_times_has_its_parents_walked_once() {
        let (k, m) = (8, 50);
        let mut eg: EGraph<Math, ()> = EGraph::new(());
        let r = eg.add(sym("r"));
        for i in 0..m {
            let x = eg.add(sym(&format!("x{i}")));
            eg.add(Math::Add([r, x]));
        }
        let mut oracle = eg.clone();
        for j in 0..k {
            for eg in [&mut eg, &mut oracle] {
                let s = eg.add(sym(&format!("s{j}")));
                assert_eq!(eg.union(r, s), (r, true));
            }
        }
        assert_eq!(eg.pending.len(), k);
        assert_eq!(eg.eclass(r).parents.len(), m);
        assert_eq!(eg.rebuild_counting(), (0, 1));
        assert_eq!(oracle.rebuild_every_pop(), (0, k));
        assert_eq!(rebuilt_view(&eg), rebuilt_view(&oracle));
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

    /// Plain adds keep the e-graph clean, so a search between adds is
    /// legal, and the snapshot it takes covers the classes created since
    /// the last rebuild.
    #[test]
    fn a_search_between_adds_sees_the_new_classes() {
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
    /// a union of classes that existed at the last rebuild tombstones the
    /// absorbed slot (the last one too), compaction removes the tombstones,
    /// and the slot order always matches ascending canonical-id order
    /// (which is what keeps `classes()` iteration — and with it every match
    /// and extraction order — identical to the old `BTreeMap` storage).
    #[test]
    fn slots_compact_and_stay_in_id_order() {
        let mut eg: EGraph<Math, ()> = EGraph::new(());
        let mut ids = vec![];
        for i in 0..10 {
            ids.push(eg.add(sym(&format!("s{i}"))));
        }
        eg.rebuild();
        assert_eq!(eg.num_slots(), 10);
        eg.union(ids[3], ids[7]);
        eg.union(ids[1], ids[9]);
        // Tombstones exist until the rebuild, in the last slot as well;
        // live count is already right.
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

    /// A union that absorbs the class in the last slot gives the slot back
    /// if the class was created since the last rebuild — what apply's fresh
    /// right-hand-side roots are — and leaves a tombstone if it existed at
    /// the rebuild, because callers may hold that slot until the next one.
    #[test]
    fn absorbing_the_newest_class_leaves_no_tombstone() {
        let mut eg: EGraph<Math, ()> = EGraph::new(());
        let a = eg.add(sym("a"));
        let b = eg.add(sym("b"));
        eg.rebuild();
        let c = eg.add(sym("c"));
        assert_eq!(eg.slot_index(c), Some(2));
        eg.union(a, c);
        assert_eq!((eg.num_slots(), eg.number_of_classes()), (2, 2));
        assert_eq!(eg.slot_index(c), Some(0));
        eg.check_invariants();

        // `b` is the last slot now, but it existed at the rebuild.
        eg.union(a, b);
        assert_eq!((eg.num_slots(), eg.number_of_classes()), (2, 1));
        assert_eq!(eg.slot_index(b), Some(0));
        let d = eg.add(sym("d"));
        assert_eq!(eg.slot_index(d), Some(2), "lands past the tombstone");
        eg.check_invariants();

        eg.rebuild();
        assert_eq!(eg.num_slots(), 2);
        assert_eq!(
            [a, b, c, d].map(|id| eg.slot_index(id)),
            [Some(0), Some(0), Some(0), Some(1)]
        );
        // `d` existed at this rebuild: absorbing it leaves a tombstone.
        eg.union(a, d);
        assert_eq!((eg.num_slots(), eg.number_of_classes()), (2, 1));
        assert_eq!(eg.slot_index(d), Some(0));
        eg.rebuild();
        assert_eq!(eg.num_slots(), 1);
        eg.check_invariants();
    }

    /// `EGraph::lower_bound` on a class holding two operators: the start
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
            eg.enodes(class).cloned().collect::<Vec<_>>(),
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
        let lower_bound = |op: &Math, prefix: &[Id]| eg.lower_bound(class.node_ids(), op, prefix);
        assert_eq!(lower_bound(&add, &[]), 0);
        assert_eq!(lower_bound(&add, &[l[2]]), 1);
        assert_eq!(lower_bound(&add, &[l[2], l[3]]), 2);
        assert_eq!(lower_bound(&add, &[l[1]]), 1, "no such prefix: next node");
        assert_eq!(lower_bound(&add, &[l[3]]), 3, "past the `+` run");
        assert_eq!(lower_bound(&mul, &[]), 3);
        assert_eq!(lower_bound(&mul, &[l[3]]), 4);
        assert_eq!(lower_bound(&Math::Num(7), &[]), 0, "literals sort first");
        assert_eq!(lower_bound(&Math::Div([big, big]), &[]), 5);
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
