//! Patterns over a [`Language`]: terms with variables, searched for in an
//! e-graph (e-matching) and instantiated to apply rewrites.

use crate::machine::Program;
use crate::{Analysis, EGraph, Id, Language, RecExpr, Symbol};
use std::fmt::{self, Display};
use std::sync::{Arc, OnceLock};

/// A pattern variable, written `?name` in the textual form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(pub Symbol);

impl Var {
    /// Creates a variable from a name (with or without the leading `?`).
    pub fn new(name: impl AsRef<str>) -> Self {
        let name = name.as_ref();
        let name = name.strip_prefix('?').unwrap_or(name);
        Var(Symbol::new(name))
    }
}

impl Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "?{}", self.0)
    }
}

/// A node in a pattern: either a concrete language node (whose children are
/// pattern ids) or a variable.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ENodeOrVar<L> {
    /// A concrete operator node.
    ENode(L),
    /// A pattern variable that matches any e-class.
    Var(Var),
}

impl<L: Language> Language for ENodeOrVar<L> {
    fn matches(&self, other: &Self) -> bool {
        match (self, other) {
            (ENodeOrVar::ENode(a), ENodeOrVar::ENode(b)) => a.matches(b),
            (ENodeOrVar::Var(a), ENodeOrVar::Var(b)) => a == b,
            _ => false,
        }
    }
    fn children(&self) -> &[Id] {
        match self {
            ENodeOrVar::ENode(n) => n.children(),
            ENodeOrVar::Var(_) => &[],
        }
    }
    fn children_mut(&mut self) -> &mut [Id] {
        match self {
            ENodeOrVar::ENode(n) => n.children_mut(),
            ENodeOrVar::Var(_) => &mut [],
        }
    }
    fn display_op(&self) -> String {
        match self {
            ENodeOrVar::ENode(n) => n.display_op(),
            ENodeOrVar::Var(v) => v.to_string(),
        }
    }
}

/// A variable binding produced by a successful match: maps pattern
/// variables to e-class ids. The one owned binding type: match lists store
/// their bindings as id rows ([`SubstRows`]) and hand out a `Subst` where
/// one is read or kept.
///
/// The `Ord` instance (lexicographic over the binding list) exists so the
/// naive matcher can sort before deduplication; it is not otherwise
/// meaningful.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct Subst {
    vec: Vec<(Var, Id)>,
}

impl Subst {
    /// An empty substitution.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a binding, returning the previous id if the variable was
    /// already bound.
    pub fn insert(&mut self, var: Var, id: Id) -> Option<Id> {
        for pair in &mut self.vec {
            if pair.0 == var {
                return Some(std::mem::replace(&mut pair.1, id));
            }
        }
        self.vec.push((var, id));
        None
    }

    /// Looks up a binding.
    pub fn get(&self, var: Var) -> Option<Id> {
        self.vec.iter().find(|(v, _)| *v == var).map(|(_, id)| *id)
    }

    /// Iterates over `(variable, e-class)` bindings.
    pub fn iter(&self) -> impl Iterator<Item = (Var, Id)> + '_ {
        self.vec.iter().copied()
    }

    /// Number of bound variables.
    pub fn len(&self) -> usize {
        self.vec.len()
    }

    /// True if no variables are bound.
    pub fn is_empty(&self) -> bool {
        self.vec.is_empty()
    }
}

impl std::ops::Index<Var> for Subst {
    type Output = Id;
    fn index(&self, var: Var) -> &Id {
        self.vec
            .iter()
            .find(|(v, _)| *v == var)
            .map(|(_, id)| id)
            .unwrap_or_else(|| panic!("variable {var} not bound in substitution"))
    }
}

/// The substitutions of one [`SearchMatches`], stored as rows of e-class
/// ids: every substitution of a list binds the same variables, so the
/// variables are kept once ([`SubstRows::vars`], shared with the compiled
/// program) and each substitution is one `vars().len()`-wide row of a
/// single flat `Vec<Id>` — no allocation per match.
///
/// Rows are strictly ascending in lexicographic order, hence distinct.
/// That is the order the derived `Ord` of [`Subst`] gives the same
/// bindings, so [`SubstRows::iter`] yields an already sorted, deduplicated
/// list of substitutions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubstRows {
    vars: Arc<[Var]>,
    ids: Vec<Id>,
    /// Number of rows. Not `ids.len() / vars.len()`: a ground pattern
    /// binds nothing and still matches.
    len: usize,
}

impl SubstRows {
    /// Sorts and deduplicates the `n_rows` rows a search of one class
    /// wrote back to back into `rows`. One linear pass finds the common
    /// case, rows that are strictly ascending already, and then the rows
    /// are copied as they are.
    pub(crate) fn from_unsorted(vars: Arc<[Var]>, rows: &[Id], n_rows: usize) -> Self {
        let width = vars.len();
        debug_assert_eq!(rows.len(), n_rows * width);
        if width == 0 {
            // Every row is the empty binding.
            let (ids, len) = (vec![], n_rows.min(1));
            return SubstRows { vars, ids, len };
        }
        let ascending = rows
            .chunks_exact(width)
            .zip(rows.chunks_exact(width).skip(1))
            .all(|(a, b)| a < b);
        let ids = if ascending {
            rows.to_vec()
        } else {
            let mut sorted: Vec<&[Id]> = rows.chunks_exact(width).collect();
            sorted.sort_unstable();
            sorted.dedup();
            sorted.concat()
        };
        let len = ids.len() / width;
        SubstRows { vars, ids, len }
    }

    /// The rows of a non-empty substitution list that is already sorted
    /// and deduplicated and whose substitutions all bind the same variables
    /// in the same order — what the naive matcher produces.
    fn from_sorted_substs(substs: &[Subst]) -> Self {
        let vars: Arc<[Var]> = substs[0].iter().map(|(v, _)| v).collect();
        let mut ids = Vec::with_capacity(substs.len() * vars.len());
        for subst in substs {
            debug_assert!(subst.iter().map(|(v, _)| v).eq(vars.iter().copied()));
            ids.extend(subst.iter().map(|(_, id)| id));
        }
        let len = substs.len();
        SubstRows { vars, ids, len }
    }

    /// The variables every row binds, in row order.
    pub fn vars(&self) -> &[Var] {
        &self.vars
    }

    /// Number of substitutions.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the list holds no substitution (never the case for a list
    /// a search returned).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The `i`-th substitution's e-class ids, parallel to
    /// [`SubstRows::vars`].
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn row(&self, i: usize) -> &[Id] {
        assert!(i < self.len, "row {i} of a list of {}", self.len);
        let width = self.vars.len();
        &self.ids[i * width..(i + 1) * width]
    }

    /// The rows in list order.
    pub fn rows(&self) -> impl Iterator<Item = &[Id]> + '_ {
        (0..self.len).map(|i| self.row(i))
    }

    /// Overwrites `subst` with the `i`-th substitution, reusing its
    /// buffer: how a loop over the list reads every row through one
    /// scratch `Subst` ([`Rewrite::apply_while`](crate::Rewrite::apply_while)).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn read_into(&self, i: usize, subst: &mut Subst) {
        subst.vec.clear();
        subst
            .vec
            .extend(self.vars.iter().copied().zip(self.row(i).iter().copied()));
    }

    /// The `i`-th substitution as an owned [`Subst`].
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn subst(&self, i: usize) -> Subst {
        let mut subst = Subst::new();
        self.read_into(i, &mut subst);
        subst
    }

    /// The substitutions in list order, each materialized as an owned
    /// [`Subst`].
    pub fn iter(&self) -> impl Iterator<Item = Subst> + '_ {
        (0..self.len).map(|i| self.subst(i))
    }
}

/// All matches of a pattern inside one e-class.
///
/// The `PartialEq` instance is exact (same class id, same substitution
/// list in the same order); differential tests use it to check that the
/// parallel search driver is bit-identical to the sequential one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchMatches {
    /// The e-class in which the pattern root matched.
    pub eclass: Id,
    /// The substitutions (one per distinct way the pattern matched).
    pub substs: SubstRows,
}

/// A pattern: a term with variables, stored as a [`RecExpr`] of
/// [`ENodeOrVar`] whose root is the last node.
///
/// # Examples
///
/// ```
/// use tensat_egraph::{EGraph, Pattern, RecExpr, Id, Symbol, Var, ENodeOrVar};
/// use tensat_egraph::doctest_lang::SimpleMath as Math;
/// // Build the pattern (* ?x 2) programmatically.
/// let mut ast = RecExpr::<ENodeOrVar<Math>>::default();
/// let x = ast.add(ENodeOrVar::Var(Var::new("x")));
/// let two = ast.add(ENodeOrVar::ENode(Math::Num(2)));
/// ast.add(ENodeOrVar::ENode(Math::Mul([x, two])));
/// let pat = Pattern::new(ast);
///
/// let mut eg: EGraph<Math, ()> = EGraph::new(());
/// let a = eg.add(Math::Sym(Symbol::new("a")));
/// let two = eg.add(Math::Num(2));
/// let root = eg.add(Math::Mul([a, two]));
/// eg.rebuild();
/// let matches = pat.search(&eg);
/// assert_eq!(matches.len(), 1);
/// assert_eq!(matches[0].eclass, eg.find(root));
/// assert_eq!(matches[0].substs.subst(0)[Var::new("x")], eg.find(a));
/// ```
#[derive(Debug, Clone)]
pub struct Pattern<L> {
    /// The pattern term; the root is the last node.
    pub ast: RecExpr<ENodeOrVar<L>>,
    /// The compiled e-matching program, built lazily on first search and
    /// cached for the lifetime of the pattern (clones inherit the cache).
    program: OnceLock<Program<L>>,
}

impl<L: Language> PartialEq for Pattern<L> {
    fn eq(&self, other: &Self) -> bool {
        self.ast == other.ast
    }
}

impl<L: Language> Eq for Pattern<L> {}

impl<L: Language> Pattern<L> {
    /// Creates a pattern from its AST.
    ///
    /// # Panics
    ///
    /// Panics if the AST is empty.
    pub fn new(ast: RecExpr<ENodeOrVar<L>>) -> Self {
        assert!(!ast.is_empty(), "empty pattern");
        Pattern {
            ast,
            program: OnceLock::new(),
        }
    }

    /// The compiled e-matching program for this pattern, compiling it on
    /// first use and caching the result.
    pub fn program(&self) -> &Program<L> {
        self.program.get_or_init(|| Program::compile(&self.ast))
    }

    /// Forces compilation of the e-matching program now (e.g. at rule
    /// construction time) instead of on the first search.
    pub fn precompile(&self) {
        let _ = self.program();
    }

    /// The root id within the pattern AST.
    pub fn root(&self) -> Id {
        self.ast.root()
    }

    /// The distinct variables appearing in the pattern, in first-occurrence
    /// order.
    pub fn vars(&self) -> Vec<Var> {
        let mut vars = vec![];
        for (_, node) in self.ast.iter() {
            if let ENodeOrVar::Var(v) = node {
                if !vars.contains(v) {
                    vars.push(*v);
                }
            }
        }
        vars
    }

    /// Searches the entire e-graph for matches of this pattern, using the
    /// compiled e-matching machine and the operator index: only classes
    /// containing a node with the pattern root's operator are visited.
    ///
    /// Filtered e-nodes (see [`EGraph::filter_node`]) are never matched.
    ///
    /// # Examples
    ///
    /// ```
    /// use tensat_egraph::{EGraph, Pattern, RecExpr, Symbol, Var, ENodeOrVar};
    /// use tensat_egraph::doctest_lang::SimpleMath as Math;
    /// // Pattern (+ ?x ?x): non-linear, matches only same-class operands.
    /// let mut ast = RecExpr::<ENodeOrVar<Math>>::default();
    /// let x1 = ast.add(ENodeOrVar::Var(Var::new("x")));
    /// let x2 = ast.add(ENodeOrVar::Var(Var::new("x")));
    /// ast.add(ENodeOrVar::ENode(Math::Add([x1, x2])));
    /// let pat = Pattern::new(ast);
    ///
    /// let mut eg: EGraph<Math, ()> = EGraph::new(());
    /// let a = eg.add(Math::Sym(Symbol::new("a")));
    /// let b = eg.add(Math::Sym(Symbol::new("b")));
    /// eg.add(Math::Add([a, b])); // does not match
    /// let good = eg.add(Math::Add([a, a])); // matches
    /// eg.rebuild(); // search requires a clean e-graph
    /// let matches = pat.search(&eg);
    /// assert_eq!(matches.len(), 1);
    /// assert_eq!(matches[0].eclass, eg.find(good));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics, in every build, if the e-graph is not clean
    /// ([`EGraph::is_clean`]): the machine binary-searches node lists that
    /// only [`EGraph::rebuild`] leaves canonical and sorted, so on a dirty
    /// e-graph it would lose matches silently.
    pub fn search<N: Analysis<L>>(&self, egraph: &EGraph<L, N>) -> Vec<SearchMatches> {
        self.program().search(egraph)
    }

    /// Parallel version of [`Pattern::search`]: shards the candidate
    /// classes (from the operator index) into contiguous chunks searched by
    /// `n_threads` scoped threads, then merges the chunk outputs in chunk
    /// order — the result is bit-identical to [`Pattern::search`].
    /// `n_threads <= 1` runs the sequential driver. To search many patterns
    /// with cross-pattern load balancing, prefer [`crate::search_all_parallel`].
    ///
    /// # Panics
    ///
    /// Panics if the e-graph is not clean (see [`Pattern::search`]).
    pub fn search_parallel<N>(&self, egraph: &EGraph<L, N>, n_threads: usize) -> Vec<SearchMatches>
    where
        L: Sync,
        N: Analysis<L> + Sync,
        N::Data: Sync,
    {
        self.program().search_parallel(egraph, n_threads)
    }

    /// Searches a single e-class for matches of this pattern's root, using
    /// the compiled e-matching machine.
    ///
    /// # Panics
    ///
    /// Panics if the e-graph is not clean (see [`Pattern::search`]).
    pub fn search_eclass<N: Analysis<L>>(
        &self,
        egraph: &EGraph<L, N>,
        eclass: Id,
    ) -> Option<SearchMatches> {
        self.program().search_eclass(egraph, eclass)
    }

    /// Reference implementation of [`Pattern::search`]: the legacy
    /// recursive matcher, kept as the oracle for differential tests and
    /// benchmarks. It scans every class (no operator index) and every node
    /// of a class (no range lookup — the only full-class scan left), and
    /// clones substitution vectors per branch, converting the list to rows
    /// at the end. Unlike [`Pattern::search`] it does not assert
    /// cleanliness, so tests can exercise dirty-graph behaviour.
    pub fn search_naive<N: Analysis<L>>(&self, egraph: &EGraph<L, N>) -> Vec<SearchMatches> {
        let mut out = vec![];
        for class in egraph.classes() {
            if let Some(m) = self.search_eclass_naive(egraph, class.id) {
                out.push(m);
            }
        }
        out
    }

    /// Reference implementation of [`Pattern::search_eclass`] (see
    /// [`Pattern::search_naive`]).
    pub fn search_eclass_naive<N: Analysis<L>>(
        &self,
        egraph: &EGraph<L, N>,
        eclass: Id,
    ) -> Option<SearchMatches> {
        let eclass = egraph.find(eclass);
        let substs = self.match_in_class(egraph, self.root(), eclass, Subst::new());
        (!substs.is_empty()).then(|| SearchMatches {
            eclass,
            substs: SubstRows::from_sorted_substs(&substs),
        })
    }

    fn match_in_class<N: Analysis<L>>(
        &self,
        egraph: &EGraph<L, N>,
        pat_id: Id,
        eclass: Id,
        subst: Subst,
    ) -> Vec<Subst> {
        let eclass = egraph.find(eclass);
        match &self.ast[pat_id] {
            ENodeOrVar::Var(v) => match subst.get(*v) {
                Some(bound) if egraph.find(bound) == eclass => vec![subst],
                Some(_) => vec![],
                None => {
                    let mut s = subst;
                    s.insert(*v, eclass);
                    vec![s]
                }
            },
            ENodeOrVar::ENode(pnode) => {
                let mut results = vec![];
                for enode in egraph.eclass(eclass).iter() {
                    if egraph.is_filtered(enode) {
                        continue;
                    }
                    if !pnode.matches(enode) {
                        continue;
                    }
                    debug_assert_eq!(pnode.children().len(), enode.children().len());
                    let mut partial = vec![subst.clone()];
                    for (&pchild, &echild) in pnode.children().iter().zip(enode.children()) {
                        let mut next = vec![];
                        for s in partial {
                            next.extend(self.match_in_class(egraph, pchild, echild, s));
                        }
                        partial = next;
                        if partial.is_empty() {
                            break;
                        }
                    }
                    results.extend(partial);
                }
                // Deduplicate identical substitutions (can arise when the
                // same term is reachable through multiple e-nodes, e.g. via
                // not-yet-canonicalized duplicates on a dirty e-graph).
                // Duplicates are not necessarily adjacent, so sort first —
                // a bare `dedup()` on the unsorted list let non-adjacent
                // duplicates through, inflating match counts and triggering
                // redundant rewrite applications.
                results.sort_unstable();
                results.dedup();
                results
            }
        }
    }

    /// Instantiates the pattern under `subst`, adding the resulting term to
    /// the e-graph and returning the id of the class containing its root.
    ///
    /// # Panics
    ///
    /// Panics if a pattern variable is unbound in `subst`.
    pub fn instantiate<N: Analysis<L>>(&self, egraph: &mut EGraph<L, N>, subst: &Subst) -> Id {
        let mut ids: Vec<Id> = Vec::with_capacity(self.ast.len());
        for (_, node) in self.ast.iter() {
            let id = match node {
                ENodeOrVar::Var(v) => subst
                    .get(*v)
                    .unwrap_or_else(|| panic!("unbound pattern variable {v}")),
                ENodeOrVar::ENode(n) => {
                    let concrete = n.map_children(|c| ids[usize::from(c)]);
                    egraph.add(concrete)
                }
            };
            ids.push(id);
        }
        *ids.last().expect("pattern is non-empty")
    }

    /// Applies the pattern as a rewrite right-hand side: instantiates it and
    /// unions the result with `eclass`. Returns the canonical id and whether
    /// the union changed anything.
    pub fn apply_one<N: Analysis<L>>(
        &self,
        egraph: &mut EGraph<L, N>,
        eclass: Id,
        subst: &Subst,
    ) -> (Id, bool) {
        let new_root = self.instantiate(egraph, subst);
        egraph.union(eclass, new_root)
    }

    /// Converts a concrete expression into a (variable-free) pattern.
    pub fn from_expr(expr: &RecExpr<L>) -> Self {
        let mut ast = RecExpr::default();
        for (_, node) in expr.iter() {
            ast.add(ENodeOrVar::ENode(node.clone()));
        }
        Pattern::new(ast)
    }
}

impl<L: Language> Display for Pattern<L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.ast)
    }
}

/// Searches a whole batch of patterns over one e-graph in parallel,
/// returning one match list per pattern (same order as `patterns`).
///
/// All patterns' candidate-class chunks share a single work queue, so
/// threads load-balance *across* rules: one rule with a huge candidate set
/// does not serialize the batch. Every returned match list is bit-identical
/// to the corresponding sequential [`Pattern::search`]. `n_threads <= 1`
/// runs the sequential driver for each pattern in order.
///
/// # Panics
///
/// Panics if the e-graph is not clean (see [`Pattern::search`]).
pub fn search_all_parallel<L, N>(
    patterns: &[&Pattern<L>],
    egraph: &EGraph<L, N>,
    n_threads: usize,
) -> Vec<Vec<SearchMatches>>
where
    L: Language + Sync,
    N: Analysis<L> + Sync,
    N::Data: Sync,
{
    let programs: Vec<&Program<L>> = patterns.iter().map(|p| p.program()).collect();
    crate::machine::search_all_guarded_parallel(&programs, egraph, n_threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::language::test_lang::Math;

    fn sym(s: &str) -> Math {
        Math::Sym(Symbol::new(s))
    }

    /// Pattern (* ?x 2)
    fn mul_by_two_pattern() -> Pattern<Math> {
        let mut ast = RecExpr::default();
        let x = ast.add(ENodeOrVar::Var(Var::new("x")));
        let two = ast.add(ENodeOrVar::ENode(Math::Num(2)));
        ast.add(ENodeOrVar::ENode(Math::Mul([x, two])));
        Pattern::new(ast)
    }

    #[test]
    fn var_display_and_parse() {
        assert_eq!(Var::new("?x"), Var::new("x"));
        assert_eq!(Var::new("x").to_string(), "?x");
    }

    #[test]
    fn search_finds_single_match() {
        let mut eg: EGraph<Math, ()> = EGraph::new(());
        let a = eg.add(sym("a"));
        let two = eg.add(Math::Num(2));
        let root = eg.add(Math::Mul([a, two]));
        eg.rebuild();
        let pat = mul_by_two_pattern();
        let ms = pat.search(&eg);
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].eclass, eg.find(root));
        assert_eq!(ms[0].substs.len(), 1);
        assert_eq!(ms[0].substs.vars(), [Var::new("x")]);
        assert_eq!(ms[0].substs.row(0), [eg.find(a)]);
        assert_eq!(ms[0].substs.subst(0)[Var::new("x")], eg.find(a));
    }

    #[test]
    fn search_respects_nonlinear_variables() {
        // Pattern (+ ?x ?x) must only match when both children are the same
        // e-class.
        let mut ast = RecExpr::default();
        let x1 = ast.add(ENodeOrVar::Var(Var::new("x")));
        let x2 = ast.add(ENodeOrVar::Var(Var::new("x")));
        ast.add(ENodeOrVar::ENode(Math::Add([x1, x2])));
        let pat = Pattern::new(ast);

        let mut eg: EGraph<Math, ()> = EGraph::new(());
        let a = eg.add(sym("a"));
        let b = eg.add(sym("b"));
        eg.add(Math::Add([a, b]));
        let good = eg.add(Math::Add([a, a]));
        eg.rebuild();
        let ms = pat.search(&eg);
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].eclass, eg.find(good));
    }

    #[test]
    fn search_skips_filtered_nodes() {
        let mut eg: EGraph<Math, ()> = EGraph::new(());
        let a = eg.add(sym("a"));
        let two = eg.add(Math::Num(2));
        eg.add(Math::Mul([a, two]));
        eg.rebuild();
        let pat = mul_by_two_pattern();
        assert_eq!(pat.search(&eg).len(), 1);
        eg.filter_node(&Math::Mul([a, two]));
        assert_eq!(pat.search(&eg).len(), 0);
    }

    #[test]
    fn apply_adds_and_unions() {
        // Rewrite (* ?x 2) => (<< ?x 1)
        let mut eg: EGraph<Math, ()> = EGraph::new(());
        let a = eg.add(sym("a"));
        let two = eg.add(Math::Num(2));
        let mul = eg.add(Math::Mul([a, two]));
        eg.rebuild();

        let lhs = mul_by_two_pattern();
        let mut rhs_ast = RecExpr::default();
        let x = rhs_ast.add(ENodeOrVar::Var(Var::new("x")));
        let one = rhs_ast.add(ENodeOrVar::ENode(Math::Num(1)));
        rhs_ast.add(ENodeOrVar::ENode(Math::Shl([x, one])));
        let rhs = Pattern::new(rhs_ast);

        let ms = lhs.search(&eg);
        for m in ms {
            for s in m.substs.iter() {
                rhs.apply_one(&mut eg, m.eclass, &s);
            }
        }
        eg.rebuild();
        let shl = eg.lookup(&Math::Shl([a, eg.lookup(&Math::Num(1)).unwrap()]));
        assert_eq!(shl.map(|i| eg.find(i)), Some(eg.find(mul)));
    }

    #[test]
    fn pattern_vars_in_order() {
        let mut ast = RecExpr::default();
        let y = ast.add(ENodeOrVar::Var(Var::new("y")));
        let x = ast.add(ENodeOrVar::Var(Var::new("x")));
        ast.add(ENodeOrVar::ENode(Math::Add([y, x])));
        let pat = Pattern::new(ast);
        assert_eq!(pat.vars(), vec![Var::new("y"), Var::new("x")]);
        assert_eq!(pat.to_string(), "(+ ?y ?x)");
    }

    #[test]
    fn from_expr_matches_itself() {
        let mut e = RecExpr::default();
        let a = e.add(sym("a"));
        let two = e.add(Math::Num(2));
        e.add(Math::Mul([a, two]));
        let pat = Pattern::from_expr(&e);
        let mut eg: EGraph<Math, ()> = EGraph::new(());
        let root = eg.add_expr(&e);
        eg.rebuild();
        let ms = pat.search(&eg);
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].eclass, eg.find(root));
    }

    /// Regression test for the duplicate-substitution bug: `dedup()` on an
    /// unsorted match list only removes *adjacent* duplicates. A dirty
    /// class holding a not-yet-canonicalized duplicate node separated from
    /// its twin by an unrelated node produces the duplicate substitution in
    /// a non-adjacent position; the old code returned 3 substitutions, the
    /// sort-then-dedup fix returns 2.
    #[test]
    fn nonadjacent_duplicate_substs_are_deduped() {
        let mut eg: EGraph<Math, ()> = EGraph::new(());
        let a = eg.add(sym("a"));
        let b = eg.add(sym("b"));
        let c = eg.add(sym("c"));
        let d = eg.add(sym("d"));
        let a2 = eg.add(sym("a2"));
        let m1 = eg.add(Math::Mul([a, b]));
        let m2 = eg.add(Math::Mul([c, d]));
        let m3 = eg.add(Math::Mul([a2, b]));
        // Make `a2` equivalent to `a` (so Mul([a2, b]) canonicalizes to
        // Mul([a, b])) and put all three Mul nodes in one class, WITHOUT
        // rebuilding: the class node list is now
        // [Mul(a,b), Mul(c,d), Mul(a2,b)] — a non-adjacent duplicate pair.
        eg.union(a, a2);
        eg.union(m1, m2);
        eg.union(m1, m3);

        let mut ast = RecExpr::default();
        let x = ast.add(ENodeOrVar::Var(Var::new("x")));
        let y = ast.add(ENodeOrVar::Var(Var::new("y")));
        ast.add(ENodeOrVar::ENode(Math::Mul([x, y])));
        let pat = Pattern::new(ast);

        // The naive oracle tolerates dirty e-graphs; its dedup must remove
        // the non-adjacent duplicate.
        let m = pat.search_eclass_naive(&eg, m1).expect("matches exist");
        assert_eq!(
            m.substs.len(),
            2,
            "expected {{x:a,y:b}} and {{x:c,y:d}} exactly once each, got {:?}",
            m.substs
        );
    }

    /// The dirty-e-graph check is a `debug_assert!`, so the panic only
    /// exists in debug builds; release builds skip the test rather than
    /// fail waiting for a panic that cannot happen.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "dirty")]
    fn search_on_dirty_egraph_asserts() {
        let mut eg: EGraph<Math, ()> = EGraph::new(());
        let a = eg.add(sym("a"));
        let two = eg.add(Math::Num(2));
        eg.add(Math::Mul([a, two]));
        let b = eg.add(sym("b"));
        eg.union(a, b); // leaves the e-graph dirty
        let _ = mul_by_two_pattern().search(&eg);
    }

    /// Debug-build-only for the same reason as
    /// [`search_on_dirty_egraph_asserts`].
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "dirty")]
    fn search_eclass_on_dirty_egraph_asserts() {
        let mut eg: EGraph<Math, ()> = EGraph::new(());
        let a = eg.add(sym("a"));
        let b = eg.add(sym("b"));
        eg.union(a, b);
        let _ = mul_by_two_pattern().search_eclass(&eg, a);
    }

    /// `SubstRows::from_unsorted` on what no search of a clean e-graph
    /// hands it — duplicate rows — and on the two shapes it does: rows in
    /// order, rows out of order. A ground pattern's rows are empty and
    /// collapse to one.
    #[test]
    fn subst_rows_are_sorted_and_deduplicated() {
        let ids = |raw: &[usize]| raw.iter().map(|&i| Id::from(i)).collect::<Vec<Id>>();
        let vars: Arc<[Var]> = [Var::new("x"), Var::new("y")].into();
        let in_order = SubstRows::from_unsorted(vars.clone(), &ids(&[1, 2, 1, 3, 2, 0]), 3);
        assert_eq!(in_order.len(), 3);
        assert_eq!(in_order.vars(), &*vars);
        let rows: Vec<&[Id]> = in_order.rows().collect();
        assert_eq!(rows, [ids(&[1, 2]), ids(&[1, 3]), ids(&[2, 0])]);
        // Out of order, with a duplicate that is not adjacent.
        let shuffled = SubstRows::from_unsorted(vars, &ids(&[2, 0, 1, 3, 2, 0, 1, 2]), 4);
        assert_eq!(shuffled, in_order);
        assert_eq!(shuffled.subst(2)[Var::new("x")], Id::from(2usize));
        assert_eq!(shuffled.subst(2)[Var::new("y")], Id::from(0usize));

        let ground = SubstRows::from_unsorted(Arc::from([]), &[], 2);
        assert_eq!(ground.len(), 1);
        assert!(ground.row(0).is_empty());
        assert_eq!(ground.iter().collect::<Vec<_>>(), [Subst::new()]);
    }

    #[test]
    fn subst_insert_and_index() {
        let mut s = Subst::new();
        assert!(s.is_empty());
        assert_eq!(s.insert(Var::new("x"), Id::from(1usize)), None);
        assert_eq!(
            s.insert(Var::new("x"), Id::from(2usize)),
            Some(Id::from(1usize))
        );
        assert_eq!(s[Var::new("x")], Id::from(2usize));
        assert_eq!(s.get(Var::new("y")), None);
        assert_eq!(s.len(), 1);
    }
}
