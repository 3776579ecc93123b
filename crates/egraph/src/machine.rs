//! A compiled e-matching abstract machine (de Moura & Bjørner 2007, as in
//! egg): each [`Pattern`](crate::Pattern) is compiled once into a linear
//! instruction [`Program`] that is executed against candidate e-classes
//! with a single reusable register stack, instead of recursively cloning
//! per-branch substitution vectors. A match is not an allocation either:
//! the machine copies the registers that hold the pattern's variables into
//! a row buffer, and a class's rows become one flat id list
//! ([`SubstRows`](crate::SubstRows)).
//!
//! One instruction suffices:
//!
//! * [`Instruction::Bind`] — enumerate the e-nodes of the class in register
//!   `i` that the pattern node can match, writing each node's children into
//!   registers `out..`; the machine backtracks over the alternatives. A
//!   `Bind` is *join-aware*: the compiler folds every constraint on the
//!   node's children that is already decidable when the `Bind` runs — a
//!   repeated variable (`?x` bound by an earlier `Bind`, or twice inside
//!   this node) and a variable-free subterm — into the `Bind`'s
//!   **bound-children plan** ([`ChildSource`]). At run time the longest
//!   bound *prefix* of children, together with the operator, is the key of
//!   a binary search into the class's sorted node list
//!   ([`EClass::lower_bound`](crate::EClass::lower_bound)), and the
//!   machine enumerates from there until the operator or the prefix
//!   changes, so only nodes that agree with the prefix are visited at all;
//!   bound children outside the prefix are checked per node before any
//!   register is written. Seen as a conjunctive query over the
//!   e-graph-as-database (arXiv:2501.02413), this is the index lookup on
//!   the already-bound columns: work is proportional to the matches
//!   produced, not to the size of the classes joined. With nothing bound
//!   the key is the operator alone, which is egg's operator-range search.
//!
//! The machine is purely structural: whether a match is *semantically*
//! admissible (TENSAT's shape checks) is decided where the paper puts it,
//! by the rewrite's post-match [`Condition`](crate::Condition) when the
//! match is applied.
//!
//! A variable-free subterm below the root is never enumerated: it has
//! exactly one realization on a congruent e-graph, which is resolved through
//! the hash-cons once per search ([`Program::ground_terms`]; every node of
//! it is also checked against the filter set) and then acts as a bound
//! child of the `Bind` above it. A search whose pattern holds a ground term
//! the e-graph does not represent returns no matches without visiting a
//! class.
//!
//! The range lookup reads what [`EGraph::rebuild`] establishes: node lists
//! that are canonical, deduplicated and strictly sorted by the language's
//! `Ord`, which must be operator-major and then `children()`-lexicographic
//! (the contract documented on [`Language`] and asserted by
//! [`EGraph::check_invariants`]). On a dirty e-graph a binary search would
//! silently lose matches, so every search entry point asserts
//! [`EGraph::is_clean`] in all builds. Which nodes a `Bind` visits, and in
//! which order, does not show in the result: each class's rows are sorted
//! and deduplicated before they are returned (one pass over them finds out
//! whether there is anything to do).
//!
//! Search additionally consults the e-graph's operator index
//! ([`EGraph::classes_with_op`]): only classes containing at least one node
//! with the same operator discriminant as the pattern root are visited.
//!
//! The operator index also yields a natural *parallel* decomposition:
//! programs are immutable and the e-graph's read path is `Sync`-clean, so
//! candidate classes can be split into contiguous chunks and searched by
//! scoped threads, each with its own register stack
//! ([`Program::search_parallel`] and the batch driver behind
//! [`crate::search_all_parallel`]). Merging the chunk outputs in chunk
//! order reproduces the sequential result bit for bit.

use crate::{Analysis, EGraph, ENodeOrVar, Id, Language, RecExpr, SearchMatches, SubstRows, Var};
use std::collections::{HashMap, VecDeque};
use std::mem::Discriminant;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// A virtual register holding an e-class id during matching.
pub type Reg = usize;

/// Where a [`Instruction::Bind`] reads the class that one child of the
/// nodes it enumerates must equal — one entry of its bound-children plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChildSource {
    /// A register filled by an earlier `Bind`: a repeated pattern variable.
    Reg(Reg),
    /// The class of the ground subterm at this index of
    /// [`Program::ground_terms`], resolved once per search.
    Ground(usize),
    /// An earlier child of the same node: a variable that first occurs and
    /// repeats inside one pattern node, as in `(+ ?x ?x)`. Its value is
    /// only known per node, so it never takes part in the range lookup.
    Sibling(usize),
}

impl ChildSource {
    /// The class this source names: read from the registers filled so far,
    /// the search's resolved ground classes, or the children of the node
    /// under test.
    #[inline]
    fn class(self, regs: &[Id], grounds: &[Id], children: &[Id]) -> Id {
        match self {
            ChildSource::Reg(r) => regs[r],
            ChildSource::Ground(g) => grounds[g],
            ChildSource::Sibling(k) => children[k],
        }
    }
}

/// One step of a compiled pattern program.
#[derive(Debug, Clone)]
pub enum Instruction<L> {
    /// Try every unfiltered e-node of the class in register `i` that has
    /// `node`'s operator and agrees with the bound-children plan; write its
    /// children into `out..out+arity`.
    Bind {
        /// The pattern node to match (children ids are pattern-internal and
        /// ignored; only the operator matters).
        node: L,
        /// Register holding the class to search.
        i: Reg,
        /// First output register for the matched node's children.
        out: Reg,
        /// The bound-children plan: `(child index, source)` pairs in
        /// ascending child order, one per child whose class is fixed before
        /// the node is chosen.
        bound: Vec<(usize, ChildSource)>,
        /// How many leading entries of `bound` pin children `0..prefix`
        /// from outside the node ([`ChildSource::Reg`] or
        /// [`ChildSource::Ground`]): with the operator they are the key of
        /// the range lookup. The entries after them are checked per node.
        prefix: usize,
    },
}

/// A pattern compiled to a linear instruction sequence.
///
/// Obtained from [`Pattern::program`](crate::Pattern::program) (which
/// compiles lazily and caches) or directly via [`Program::compile`].
#[derive(Debug, Clone)]
pub struct Program<L> {
    instructions: Vec<Instruction<L>>,
    /// The variable-free subterms below the root, each as a standalone
    /// term; [`ChildSource::Ground`] indexes into this list.
    ground_terms: Vec<RecExpr<L>>,
    /// The substitution template: the pattern's variables in
    /// first-occurrence (AST) order, shared with every match list a search
    /// returns, and the register each is read from at a successful match.
    vars: Arc<[Var]>,
    var_regs: Vec<Reg>,
    /// Operator discriminant of the pattern root, if the root is a concrete
    /// node — used to restrict search via the e-graph's operator index.
    root_op: Option<Discriminant<L>>,
}

impl<L: Language> Program<L> {
    /// Compiles a pattern AST into an instruction program.
    ///
    /// # Panics
    ///
    /// Panics if the pattern is empty.
    pub fn compile(pattern: &RecExpr<ENodeOrVar<L>>) -> Self {
        assert!(!pattern.is_empty(), "cannot compile an empty pattern");
        let root = pattern.root();

        // A pattern node is ground if its subtree contains no variables
        // (children precede parents in a RecExpr, so one pass suffices).
        let mut ground = vec![false; pattern.len()];
        for (id, node) in pattern.iter() {
            ground[usize::from(id)] = match node {
                ENodeOrVar::Var(_) => false,
                ENodeOrVar::ENode(n) => n.children().iter().all(|&c| ground[usize::from(c)]),
            };
        }

        let mut instructions = vec![];
        let mut ground_terms = vec![];
        let mut v2r: HashMap<Var, Reg> = HashMap::new();
        let mut todo: VecDeque<(Reg, Id)> = VecDeque::new();
        let mut next_reg: Reg = 1;
        match &pattern[root] {
            ENodeOrVar::Var(v) => {
                // A variable root claims register 0 (the candidate class)
                // and the program has no instruction.
                v2r.insert(*v, 0);
            }
            ENodeOrVar::ENode(_) => todo.push_back((0, root)),
        }
        while let Some((reg, pat_id)) = todo.pop_front() {
            let ENodeOrVar::ENode(node) = &pattern[pat_id] else {
                unreachable!("only concrete nodes are queued");
            };
            let out = next_reg;
            next_reg += node.children().len();
            // Every child is resolved here, while its Bind is compiled. A
            // variable's first occurrence claims the register; a
            // repeat occurrence and a ground subterm are known before the
            // node is chosen and go into the plan; any other concrete child
            // is queued for a Bind of its own (BFS). The root stays a Bind
            // even when the whole pattern is ground, so the per-candidate
            // loop never repeats a whole-term lookup.
            let mut bound = vec![];
            for (k, &child) in node.children().iter().enumerate() {
                let child_reg = out + k;
                match &pattern[child] {
                    ENodeOrVar::Var(v) => match v2r.get(v) {
                        Some(&r) if r >= out => bound.push((k, ChildSource::Sibling(r - out))),
                        Some(&r) => bound.push((k, ChildSource::Reg(r))),
                        None => {
                            v2r.insert(*v, child_reg);
                        }
                    },
                    ENodeOrVar::ENode(_) if ground[usize::from(child)] => {
                        bound.push((k, ChildSource::Ground(ground_terms.len())));
                        ground_terms.push(ground_term(pattern, child));
                    }
                    ENodeOrVar::ENode(_) => todo.push_back((child_reg, child)),
                }
            }
            let prefix = bound
                .iter()
                .enumerate()
                .take_while(|&(n, &(k, src))| k == n && !matches!(src, ChildSource::Sibling(_)))
                .count();
            instructions.push(Instruction::Bind {
                node: node.clone(),
                i: reg,
                out,
                bound,
                prefix,
            });
        }

        // Substitution template in AST first-occurrence order. (For the
        // usual bottom-up-built patterns this coincides with the recursive
        // matcher's DFS binding order, but not for every AST layout —
        // comparisons across matchers must normalize binding order.)
        // Variables that only occur in AST nodes unreachable from the root
        // never got a register (the recursive matcher never binds them
        // either).
        let mut vars: Vec<Var> = vec![];
        let mut var_regs = vec![];
        for (_, node) in pattern.iter() {
            if let ENodeOrVar::Var(v) = node {
                if let Some(&reg) = v2r.get(v) {
                    if !vars.contains(v) {
                        vars.push(*v);
                        var_regs.push(reg);
                    }
                }
            }
        }

        let root_op = match &pattern[root] {
            ENodeOrVar::ENode(n) => Some(n.discriminant()),
            ENodeOrVar::Var(_) => None,
        };

        Program {
            instructions,
            ground_terms,
            vars: vars.into(),
            var_regs,
            root_op,
        }
    }

    /// The compiled instruction sequence.
    pub fn instructions(&self) -> &[Instruction<L>] {
        &self.instructions
    }

    /// The variable-free subterms below the pattern root, in the order
    /// [`ChildSource::Ground`] indexes them. Each is resolved to its class
    /// once per search instead of being matched node by node.
    pub fn ground_terms(&self) -> &[RecExpr<L>] {
        &self.ground_terms
    }

    /// The operator discriminant of the pattern root, if it is a concrete
    /// node (used as the operator-index key).
    pub fn root_op(&self) -> Option<Discriminant<L>> {
        self.root_op
    }

    /// Searches the whole e-graph, visiting only classes the operator index
    /// deems candidates.
    ///
    /// # Panics
    ///
    /// Panics, in every build, if the e-graph is not clean: a dirty
    /// e-graph's node lists are neither canonical nor sorted, and the range
    /// lookups would lose matches silently.
    pub fn search<N: Analysis<L>>(&self, egraph: &EGraph<L, N>) -> Vec<SearchMatches> {
        assert_clean(egraph);
        let Some(grounds) = self.resolve_grounds(egraph) else {
            return vec![];
        };
        let mut machine = Machine::default();
        let mut out = vec![];
        self.for_each_candidate(egraph, |id| {
            out.extend(self.search_class(egraph, &mut machine, &grounds, id));
        });
        out
    }

    /// Parallel version of [`Program::search`]: candidate classes are split
    /// into contiguous chunks sharded across `n_threads` scoped threads,
    /// each running the (immutable) program with its own register stack.
    /// Chunk outputs are merged in chunk order, so the result is
    /// bit-identical to the sequential search. `n_threads <= 1` runs the
    /// sequential driver.
    ///
    /// # Panics
    ///
    /// Panics if the e-graph is not clean (see [`Program::search`]).
    pub fn search_parallel<N>(&self, egraph: &EGraph<L, N>, n_threads: usize) -> Vec<SearchMatches>
    where
        L: Sync,
        N: Analysis<L> + Sync,
        N::Data: Sync,
    {
        let mut out = search_all_guarded_parallel(&[self], egraph, n_threads);
        out.pop().expect("one program in, one match list out")
    }

    /// Calls `visit` on the classes this program's search visits, in the
    /// deterministic order every driver uses (ascending class id,
    /// restricted by the operator index when the root is a concrete node).
    fn for_each_candidate<N: Analysis<L>>(&self, egraph: &EGraph<L, N>, visit: impl FnMut(Id)) {
        match self.root_op {
            Some(op) => egraph.classes_with_op(op).iter().copied().for_each(visit),
            None => egraph.classes().map(|class| class.id).for_each(visit),
        }
    }

    /// Resolves every ground subterm to its e-class, once per (e-graph,
    /// program) pair: the class is a constant for the whole search. `None`
    /// if some term is not represented, or only through a filtered node —
    /// every node of the (unique) realization must exist and be
    /// unfiltered, exactly as the naive matcher requires — in which case
    /// the pattern has no match anywhere.
    fn resolve_grounds<N: Analysis<L>>(&self, egraph: &EGraph<L, N>) -> Option<Vec<Id>> {
        self.ground_terms
            .iter()
            .map(|term| {
                let mut ids: Vec<Id> = Vec::with_capacity(term.len());
                for (_, node) in term.iter() {
                    let node = node.map_children(|c| ids[usize::from(c)]);
                    if egraph.is_filtered(&node) {
                        return None;
                    }
                    ids.push(egraph.lookup(&node)?);
                }
                ids.last().copied()
            })
            .collect()
    }

    /// Searches a single e-class.
    ///
    /// # Panics
    ///
    /// Panics if the e-graph is not clean (see [`Program::search`]).
    pub fn search_eclass<N: Analysis<L>>(
        &self,
        egraph: &EGraph<L, N>,
        eclass: Id,
    ) -> Option<SearchMatches> {
        assert_clean(egraph);
        let grounds = self.resolve_grounds(egraph)?;
        let mut machine = Machine::default();
        self.search_class(egraph, &mut machine, &grounds, egraph.find(eclass))
    }

    fn search_class<N: Analysis<L>>(
        &self,
        egraph: &EGraph<L, N>,
        machine: &mut Machine,
        grounds: &[Id],
        eclass: Id,
    ) -> Option<SearchMatches> {
        machine.regs.clear();
        machine.regs.push(eclass);
        machine.rows.clear();
        machine.n_rows = 0;
        machine.run(
            &MachineCtx {
                egraph,
                instructions: &self.instructions,
                grounds,
                var_regs: &self.var_regs,
            },
            0,
        );
        // Distinct derivations can in principle yield the same binding;
        // the rows are sorted before dedup so non-adjacent duplicates are
        // removed too. The sort is also what makes the list independent of
        // the order in which a Bind's range lookup happens to visit the
        // nodes.
        (machine.n_rows > 0).then(|| SearchMatches {
            eclass,
            substs: SubstRows::from_unsorted(self.vars.clone(), &machine.rows, machine.n_rows),
        })
    }
}

/// Chunks per worker thread in the parallel search driver. More chunks than
/// threads lets the atomic work queue rebalance when candidate classes have
/// very uneven node counts (common: a few classes hold most of a model's
/// operator nodes); contiguous chunks keep the merge deterministic.
const CHUNKS_PER_THREAD: usize = 8;

/// Candidate-count threshold below which the parallel search driver runs
/// the sequential path even when asked for several threads. Spawning scoped
/// workers, sharding the queue, and merging slots costs a few hundred
/// microseconds; batches this small finish sequentially in less (the
/// seven models' full rule batches at the default scale span 50–1100
/// candidate classes; of the repo benchmark's workloads only
/// `nasnet_search` exceeds the threshold), so the threads would only add
/// overhead. Batches at or above the threshold keep the bit-identical
/// chunk-ordered merge path.
pub const PARALLEL_SEARCH_SPAWN_THRESHOLD: usize = 2048;

/// Searches a batch of compiled programs — e.g. from
/// [`Pattern::program`](crate::Pattern::program) or
/// [`Rewrite::searcher_query`](crate::Rewrite::searcher_query) — over one
/// e-graph, sharding all their candidate classes across `n_threads` scoped
/// threads. Returns one match list per program, each bit-identical to that
/// program's sequential [`Program::search`].
///
/// The name is historical: programs once came with a table of analysis
/// guards. The repo benchmark (`benchmark/src/trace.rs`) calls this
/// function by this name, so it stays until a `benchmark` PR renames it;
/// [`search_all_parallel`](crate::search_all_parallel) is the same driver
/// over patterns.
///
/// Work items — contiguous chunks of each program's candidate list — go
/// into a single atomic queue, so threads load-balance *across* programs:
/// one hot rule's chunks spread over every thread instead of serializing
/// the batch. Each thread owns a private register stack; the shared e-graph
/// is only read (its search accessors are `Sync`-clean). Chunk outputs are
/// written to per-item slots and merged in item order, which reproduces the
/// sequential per-program match lists bit for bit.
///
/// `n_threads <= 1`, an empty candidate set, or a batch below
/// `spawn_threshold` candidates (see [`PARALLEL_SEARCH_SPAWN_THRESHOLD`])
/// runs the sequential driver directly — identical behavior, no thread
/// overhead.
///
/// # Panics
///
/// Panics if the e-graph is not clean (see [`Program::search`]).
pub fn search_all_guarded_parallel<L, N>(
    programs: &[&Program<L>],
    egraph: &EGraph<L, N>,
    n_threads: usize,
) -> Vec<Vec<SearchMatches>>
where
    L: Language + Sync,
    N: Analysis<L> + Sync,
    N::Data: Sync,
{
    search_all_guarded_parallel_with_threshold(
        programs,
        egraph,
        n_threads,
        PARALLEL_SEARCH_SPAWN_THRESHOLD,
    )
}

/// [`search_all_guarded_parallel`] with an explicit spawn threshold
/// instead of the default [`PARALLEL_SEARCH_SPAWN_THRESHOLD`]: batches with
/// fewer candidate classes run on the sequential driver even when
/// `n_threads > 1`, because thread spawn + merge overhead exceeds the work.
/// `0` forces the parallel driver for any nonempty batch and `usize::MAX`
/// forces the sequential driver; every dispatch produces bit-identical
/// match lists, which the regression tests pin.
pub fn search_all_guarded_parallel_with_threshold<L, N>(
    programs: &[&Program<L>],
    egraph: &EGraph<L, N>,
    n_threads: usize,
    spawn_threshold: usize,
) -> Vec<Vec<SearchMatches>>
where
    L: Language + Sync,
    N: Analysis<L> + Sync,
    N::Data: Sync,
{
    // The sequential mode IS the sequential driver — no candidate vectors,
    // no duplicated iteration logic that could drift from `search`.
    let sequential = || programs.iter().map(|p| p.search(egraph)).collect();
    if n_threads <= 1 {
        return sequential();
    }
    assert_clean(egraph);
    // Ground-term classes are a per-(program, e-graph) constant: resolve
    // them once here and share them read-only with every shard. A program
    // with an unrepresented ground term matches nowhere and gets no
    // candidates.
    let grounds: Vec<Option<Vec<Id>>> =
        programs.iter().map(|p| p.resolve_grounds(egraph)).collect();
    let candidates: Vec<Vec<Id>> = programs
        .iter()
        .zip(&grounds)
        .map(|(p, grounds)| {
            let mut classes = vec![];
            if grounds.is_some() {
                p.for_each_candidate(egraph, |id| classes.push(id));
            }
            classes
        })
        .collect();
    let total: usize = candidates.iter().map(Vec::len).sum();

    // Tiny batches lose more to thread spawn + merge than the threads can
    // win back — run them on the sequential driver (which is the
    // correctness reference, so results are identical by construction).
    if total < spawn_threshold {
        return sequential();
    }

    // Clamp the worker count: more workers than candidate classes would
    // spawn threads with nothing to do, and more than a few per core is
    // pure oversubscription (a caller passing `1000` must not create 999
    // OS threads). The small multiple still lets CI force a >1 count on a
    // single-core runner to exercise this path. A clamp to 1 means every
    // spawned worker would idle — run sequentially.
    let max_workers = std::thread::available_parallelism().map_or(4, |n| n.get() * 4);
    let n_threads = n_threads.min(max_workers).min(total.max(1));
    if n_threads == 1 {
        return sequential();
    }

    let chunk_size = total.div_ceil(n_threads * CHUNKS_PER_THREAD).max(1);
    let mut items: Vec<(usize, std::ops::Range<usize>)> = vec![];
    for (prog_idx, classes) in candidates.iter().enumerate() {
        let mut start = 0;
        while start < classes.len() {
            let end = (start + chunk_size).min(classes.len());
            items.push((prog_idx, start..end));
            start = end;
        }
    }

    // One result slot per work item; each slot is written exactly once, by
    // the thread that claimed the item off the queue.
    let slots: Vec<OnceLock<Vec<SearchMatches>>> = items.iter().map(|_| OnceLock::new()).collect();
    let next = AtomicUsize::new(0);
    let work = || {
        let mut machine = Machine::default();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some((prog_idx, range)) = items.get(i) else {
                break;
            };
            let program = programs[*prog_idx];
            let grounds = grounds[*prog_idx]
                .as_deref()
                .expect("a program with candidates has its grounds resolved");
            let found: Vec<SearchMatches> = candidates[*prog_idx][range.clone()]
                .iter()
                .filter_map(|&id| program.search_class(egraph, &mut machine, grounds, id))
                .collect();
            slots[i].set(found).expect("each work item is claimed once");
        }
    };
    std::thread::scope(|scope| {
        // The calling thread is the n-th worker: it drains the queue too,
        // so one spawn is saved and the search still makes progress while
        // the OS brings the workers up.
        for _ in 1..n_threads {
            scope.spawn(work);
        }
        work();
    });

    // Items were generated per program in candidate order, so concatenating
    // the slots in item order reproduces the sequential output exactly.
    let mut out: Vec<Vec<SearchMatches>> = programs.iter().map(|_| vec![]).collect();
    for ((prog_idx, _), slot) in items.iter().zip(slots) {
        out[*prog_idx].extend(slot.into_inner().expect("every work item was processed"));
    }
    out
}

/// Every search entry point calls this, in all builds: a `Bind` finds its
/// nodes by binary search in node lists that only a rebuilt e-graph keeps
/// canonical and sorted, so on a dirty one matches would be lost silently.
fn assert_clean<L: Language, N: Analysis<L>>(egraph: &EGraph<L, N>) {
    assert!(
        egraph.is_clean(),
        "pattern search on a dirty e-graph loses matches; call rebuild() first"
    );
}

/// Builds the standalone `RecExpr` of a ground pattern subtree.
fn ground_term<L: Language>(pattern: &RecExpr<ENodeOrVar<L>>, id: Id) -> RecExpr<L> {
    fn go<L: Language>(
        pattern: &RecExpr<ENodeOrVar<L>>,
        id: Id,
        out: &mut RecExpr<L>,
        memo: &mut HashMap<Id, Id>,
    ) -> Id {
        if let Some(&done) = memo.get(&id) {
            return done;
        }
        let node = match &pattern[id] {
            ENodeOrVar::ENode(n) => n.map_children(|c| go(pattern, c, out, memo)),
            ENodeOrVar::Var(v) => unreachable!("ground subterm contains variable {v}"),
        };
        let added = out.add(node);
        memo.insert(id, added);
        added
    }
    let mut out = RecExpr::default();
    go(pattern, id, &mut out, &mut HashMap::new());
    out
}

/// Read-only per-search state shared by every backtracking frame of one
/// [`Machine::run`] invocation: the e-graph, the compiled instructions, the
/// resolved ground-term classes, and the substitution template's registers.
struct MachineCtx<'a, L: Language, N: Analysis<L>> {
    egraph: &'a EGraph<L, N>,
    instructions: &'a [Instruction<L>],
    grounds: &'a [Id],
    var_regs: &'a [Reg],
}

/// The register stack and the row buffer. One instance is reused across
/// all candidate classes of a search; backtracking truncates instead of
/// cloning, and a class's rows are copied out at their final size.
#[derive(Debug, Default)]
struct Machine {
    regs: Vec<Id>,
    /// The matches found in the class being searched: per match, the
    /// template's registers, back to back.
    rows: Vec<Id>,
    /// How many — a ground pattern's rows are empty.
    n_rows: usize,
}

impl Machine {
    fn run<L: Language, N: Analysis<L>>(&mut self, ctx: &MachineCtx<'_, L, N>, pc: usize) {
        let Some(Instruction::Bind {
            node,
            i,
            out: reg,
            bound,
            prefix,
        }) = ctx.instructions.get(pc)
        else {
            // All instructions passed: read the bindings out of the
            // registers.
            let regs = &self.regs;
            self.rows.extend(ctx.var_regs.iter().map(|&r| regs[r]));
            self.n_rows += 1;
            return;
        };
        let egraph = ctx.egraph;
        let class = egraph.eclass(self.regs[*i]);
        // The key of the range lookup is what registers
        // `reg..reg + prefix` hold for every node in the range, so it is
        // built in place there. (A prefix source is never a sibling: there
        // is no node yet to read.)
        self.regs.truncate(*reg);
        for &(_, source) in &bound[..*prefix] {
            let id = source.class(&self.regs, ctx.grounds, &[]);
            self.regs.push(id);
        }
        let filled = self.regs.len();
        // In a sorted list the nodes of this operator that start with the
        // key are one run: binary-search its first node, stop at the first
        // node past it.
        let first = class.lower_bound(node, &self.regs[*reg..]);
        for enode in &class.nodes[first..] {
            let children = enode.children();
            if !node.matches(enode) || children[..*prefix] != self.regs[*reg..filled] {
                break;
            }
            let agrees = bound[*prefix..]
                .iter()
                .all(|&(k, source)| children[k] == source.class(&self.regs, ctx.grounds, children));
            if !agrees || egraph.is_filtered(enode) {
                continue;
            }
            // Node lists of a clean e-graph are canonical: the children
            // are class ids as they stand.
            self.regs.truncate(filled);
            self.regs.extend_from_slice(&children[*prefix..]);
            self.run(ctx, pc + 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::language::test_lang::Math;
    use crate::{Pattern, Symbol};

    fn sym(s: &str) -> Math {
        Math::Sym(Symbol::new(s))
    }

    fn pat(build: impl FnOnce(&mut RecExpr<ENodeOrVar<Math>>)) -> Pattern<Math> {
        let mut ast = RecExpr::default();
        build(&mut ast);
        Pattern::new(ast)
    }

    /// (* ?x 2)
    fn mul_by_two() -> Pattern<Math> {
        pat(|p| {
            let x = p.add(ENodeOrVar::Var(Var::new("x")));
            let two = p.add(ENodeOrVar::ENode(Math::Num(2)));
            p.add(ENodeOrVar::ENode(Math::Mul([x, two])));
        })
    }

    #[test]
    fn ground_subterm_compiles_into_the_bind_plan() {
        let program = Program::compile(&mul_by_two().ast);
        // One Bind: ?x claims a register without an instruction, and the
        // literal 2 is a bound child resolved through the hash-cons. It is
        // child 1 with child 0 free, so no prefix: checked per node.
        let [Instruction::Bind { bound, prefix, .. }] = program.instructions() else {
            panic!("expected a single Bind, got {:?}", program.instructions());
        };
        assert_eq!(bound, &[(1, ChildSource::Ground(0))]);
        assert_eq!(*prefix, 0);
        assert_eq!(program.ground_terms().len(), 1);
        assert!(program.root_op().is_some());
    }

    #[test]
    fn repeat_inside_one_node_compiles_to_a_sibling_source() {
        let program = Program::compile(
            &pat(|p| {
                let x1 = p.add(ENodeOrVar::Var(Var::new("x")));
                let x2 = p.add(ENodeOrVar::Var(Var::new("x")));
                p.add(ENodeOrVar::ENode(Math::Add([x1, x2])));
            })
            .ast,
        );
        let [Instruction::Bind { bound, prefix, .. }] = program.instructions() else {
            panic!("expected a single Bind, got {:?}", program.instructions());
        };
        assert_eq!(bound, &[(1, ChildSource::Sibling(0))]);
        assert_eq!(*prefix, 0, "a sibling's class is only known per node");
    }

    /// (+ (* ?x 2) (* ?x ?z)): the shape of the shared-input rules. The
    /// second `*` is entered with ?x already in a register, so its child 0
    /// is a bound prefix and the Bind is a range lookup on (`*`, ?x).
    #[test]
    fn shared_variable_compiles_to_a_bound_prefix() {
        let p = pat(|p| {
            let x = p.add(ENodeOrVar::Var(Var::new("x")));
            let two = p.add(ENodeOrVar::ENode(Math::Num(2)));
            let left = p.add(ENodeOrVar::ENode(Math::Mul([x, two])));
            let z = p.add(ENodeOrVar::Var(Var::new("z")));
            let right = p.add(ENodeOrVar::ENode(Math::Mul([x, z])));
            p.add(ENodeOrVar::ENode(Math::Add([left, right])));
        });
        let program = Program::compile(&p.ast);
        let plans: Vec<_> = program
            .instructions()
            .iter()
            .map(
                |Instruction::Bind {
                     i, bound, prefix, ..
                 }| (*i, bound.clone(), *prefix),
            )
            .collect();
        assert_eq!(
            plans,
            vec![
                (0, vec![], 0),
                (1, vec![(1, ChildSource::Ground(0))], 0),
                (2, vec![(0, ChildSource::Reg(3))], 1),
            ]
        );

        // One class holding many `*` nodes: the lookup must find exactly
        // the ones whose first child is the ?x of the enclosing alternative.
        let mut eg: EGraph<Math, ()> = EGraph::new(());
        let two = eg.add(Math::Num(2));
        let leaves: Vec<Id> = (0..40).map(|i| eg.add(sym(&format!("v{i}")))).collect();
        let big = eg.add(Math::Mul([leaves[0], two]));
        for (n, &l) in leaves.iter().enumerate() {
            let m = eg.add(Math::Mul([l, two]));
            eg.union(big, m);
            let m = eg.add(Math::Mul([l, leaves[(n * 7 + 3) % 40]]));
            eg.union(big, m);
        }
        eg.add(Math::Add([big, big]));
        eg.rebuild();
        assert!(eg.eclass(big).len() >= 64);
        let machine = program.search(&eg);
        assert_eq!(machine.len(), 1);
        assert_eq!(machine[0].substs.len(), 40 * 2);
        let naive = p.search_naive(&eg);
        assert_eq!(naive.len(), 1);
        assert_eq!(machine[0].eclass, naive[0].eclass);
        assert_eq!(sorted_bindings(&machine[0]), sorted_bindings(&naive[0]));
    }

    /// The naive matcher binds variables in DFS order, the machine reads
    /// them out in AST first-occurrence order; sorting each binding list
    /// (and then the list) makes one class's matches comparable.
    fn sorted_bindings(m: &SearchMatches) -> Vec<Vec<(Var, Id)>> {
        let mut substs: Vec<Vec<(Var, Id)>> = m
            .substs
            .iter()
            .map(|s| {
                let mut pairs: Vec<_> = s.iter().collect();
                pairs.sort();
                pairs
            })
            .collect();
        substs.sort();
        substs
    }

    /// A ground subterm the e-graph does not hold ends the search before
    /// any class is visited — for every driver.
    #[test]
    fn unrepresented_ground_term_matches_nowhere() {
        let mut eg: EGraph<Math, ()> = EGraph::new(());
        let a = eg.add(sym("a"));
        let three = eg.add(Math::Num(3));
        let mul = eg.add(Math::Mul([a, three]));
        eg.rebuild();
        let p = mul_by_two();
        assert!(p.program().search(&eg).is_empty());
        assert!(p.program().search_eclass(&eg, mul).is_none());
        let forced = search_all_guarded_parallel_with_threshold(&[p.program()], &eg, 4, 0);
        assert_eq!(forced, vec![vec![]]);
        assert!(p.search_naive(&eg).is_empty());
    }

    #[test]
    fn var_root_has_no_root_op_and_matches_everything() {
        let program = Program::compile(
            &pat(|p| {
                p.add(ENodeOrVar::Var(Var::new("x")));
            })
            .ast,
        );
        assert!(program.root_op().is_none());
        let mut eg: EGraph<Math, ()> = EGraph::new(());
        eg.add(sym("a"));
        let two = eg.add(Math::Num(2));
        eg.add(Math::Mul([eg.find(two), two]));
        eg.rebuild();
        assert_eq!(program.search(&eg).len(), eg.number_of_classes());
    }

    #[test]
    fn machine_search_agrees_with_naive_on_basics() {
        let mut eg: EGraph<Math, ()> = EGraph::new(());
        let a = eg.add(sym("a"));
        let two = eg.add(Math::Num(2));
        let mul = eg.add(Math::Mul([a, two]));
        eg.add(Math::Mul([mul, two]));
        eg.rebuild();
        let p = mul_by_two();
        let machine = p.program().search(&eg);
        let naive = p.search_naive(&eg);
        assert_eq!(machine.len(), naive.len());
        for (m, n) in machine.iter().zip(&naive) {
            assert_eq!(m.eclass, n.eclass);
            assert_eq!(m.substs, n.substs);
        }
    }

    #[test]
    fn lookup_respects_filtered_ground_nodes() {
        let mut eg: EGraph<Math, ()> = EGraph::new(());
        let a = eg.add(sym("a"));
        let two = eg.add(Math::Num(2));
        eg.add(Math::Mul([a, two]));
        eg.rebuild();
        let p = mul_by_two();
        assert_eq!(p.program().search(&eg).len(), 1);
        // Filtering the literal 2 kills the ground lookup, exactly like the
        // naive matcher skipping the filtered node.
        eg.filter_node(&Math::Num(2));
        assert_eq!(p.program().search(&eg).len(), 0);
        assert_eq!(p.search_naive(&eg).len(), 0);
    }

    /// The parallel driver must return *bit-identical* output to the
    /// sequential one for every thread count, including counts far above
    /// the candidate count (shards degenerate to single classes) — the
    /// chunk-order merge is what guarantees this.
    #[test]
    fn parallel_search_is_bit_identical_for_all_thread_counts() {
        let mut eg: EGraph<Math, ()> = EGraph::new(());
        let two = eg.add(Math::Num(2));
        for i in 0..37 {
            let s = eg.add(sym(&format!("s{i}")));
            let m = eg.add(Math::Mul([s, two]));
            eg.add(Math::Mul([m, two]));
        }
        eg.rebuild();
        let p = mul_by_two();
        let sequential = p.program().search(&eg);
        assert!(!sequential.is_empty());
        for threads in [1, 2, 3, 4, 8, 64, 1000] {
            let parallel = p.program().search_parallel(&eg, threads);
            assert_eq!(sequential, parallel, "thread count {threads}");
        }
    }

    /// Batch driver: every program's match list equals its standalone
    /// sequential search, even when one "hot" pattern dominates the work.
    #[test]
    fn batch_parallel_search_matches_each_program() {
        let mut eg: EGraph<Math, ()> = EGraph::new(());
        let two = eg.add(Math::Num(2));
        let mut prev = eg.add(sym("seed"));
        for i in 0..25 {
            let s = eg.add(sym(&format!("x{i}")));
            let m = eg.add(Math::Mul([s, two]));
            prev = eg.add(Math::Add([prev, m]));
        }
        eg.rebuild();
        let hot = pat(|p| {
            let x = p.add(ENodeOrVar::Var(Var::new("x")));
            let y = p.add(ENodeOrVar::Var(Var::new("y")));
            p.add(ENodeOrVar::ENode(Math::Add([x, y])));
        });
        let cold = mul_by_two();
        let var_root = pat(|p| {
            p.add(ENodeOrVar::Var(Var::new("x")));
        });
        let programs = [hot.program(), cold.program(), var_root.program()];
        let batch = search_all_guarded_parallel(&programs, &eg, 4);
        assert_eq!(batch.len(), 3);
        assert_eq!(batch[0], hot.program().search(&eg));
        assert_eq!(batch[1], cold.program().search(&eg));
        assert_eq!(batch[2], var_root.program().search(&eg));
    }

    fn dirty_egraph() -> EGraph<Math, ()> {
        let mut eg: EGraph<Math, ()> = EGraph::new(());
        let a = eg.add(sym("a"));
        let b = eg.add(sym("b"));
        eg.union(a, b);
        eg
    }

    /// The clean check is a real `assert!` — a range lookup in unsorted,
    /// non-canonical node lists would lose matches silently — so it fires
    /// in release builds too, from every entry point.
    #[test]
    #[should_panic(expected = "dirty")]
    fn machine_search_asserts_clean() {
        let _ = mul_by_two().program().search(&dirty_egraph());
    }

    #[test]
    #[should_panic(expected = "dirty")]
    fn machine_search_eclass_asserts_clean() {
        let _ = mul_by_two()
            .program()
            .search_eclass(&dirty_egraph(), Id::from(0usize));
    }

    #[test]
    #[should_panic(expected = "dirty")]
    fn parallel_search_asserts_clean() {
        let p = mul_by_two();
        let _ = search_all_guarded_parallel_with_threshold(&[p.program()], &dirty_egraph(), 4, 0);
    }
}
