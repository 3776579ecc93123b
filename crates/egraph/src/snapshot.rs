//! [`SearchSnapshot`]: what e-matching reads of an e-graph, taken once from
//! a clean e-graph, so that searches run after later `add`/`union` calls
//! still see the e-graph as it was when the snapshot was taken.

use crate::machine::Program;
use crate::{Analysis, EGraph, Id, Language};
use std::collections::HashMap;
use std::mem::Discriminant;

/// The e-graph as pattern search reads it, frozen at one clean state: each
/// class's sorted, unfiltered node-id list, stored back to back; the
/// operator buckets (the classes holding an unfiltered e-node of each
/// operator); and, for every program the snapshot was taken for, the
/// class of each of its ground subterms. The e-matching machine reads
/// nothing else of the e-graph but its node table
/// ([`EGraph::enode`]): an entry below the snapshot's node-table length is
/// rewritten only by [`EGraph::rebuild`], never by `add` or `union`.
///
/// So a snapshot can be searched between the `add`/`union` calls of an
/// apply phase — the search returns, bit for bit, what searching the
/// e-graph at the snapshot would have returned — but not after the next
/// rebuild. The exploration loop takes one per iteration and searches each
/// rule against it right before applying that rule; [`Program::search`]
/// and the batch shim ([`crate::search_all_guarded_parallel`]) take one for
/// the call. [`SearchSnapshot::search`] is the one driver: it searches one
/// program on the calling thread.
///
/// # Examples
///
/// ```
/// use tensat_egraph::{EGraph, Pattern, RecExpr, SearchSnapshot, Symbol, Var, ENodeOrVar};
/// use tensat_egraph::doctest_lang::SimpleMath as Math;
/// // Pattern (* ?x 2).
/// let mut ast = RecExpr::<ENodeOrVar<Math>>::default();
/// let x = ast.add(ENodeOrVar::Var(Var::new("x")));
/// let two = ast.add(ENodeOrVar::ENode(Math::Num(2)));
/// ast.add(ENodeOrVar::ENode(Math::Mul([x, two])));
/// let pat = Pattern::new(ast);
///
/// let mut eg: EGraph<Math, ()> = EGraph::new(());
/// let a = eg.add(Math::Sym(Symbol::new("a")));
/// let two = eg.add(Math::Num(2));
/// eg.add(Math::Mul([a, two]));
/// eg.rebuild();
/// let snapshot = SearchSnapshot::new(&eg, &[pat.program()]);
/// // A later match, and a union, leave the snapshot's answer as it was.
/// let b = eg.add(Math::Sym(Symbol::new("b")));
/// eg.add(Math::Mul([b, two]));
/// eg.union(a, b);
/// let matches = snapshot.search(&eg, 0);
/// assert_eq!(matches.len(), 1);
/// assert_eq!(matches[0].substs.subst(0)[Var::new("x")], a);
/// ```
#[derive(Debug)]
pub struct SearchSnapshot<'p, L> {
    /// The programs the snapshot was taken for, in the caller's order.
    pub(crate) programs: Vec<&'p Program<L>>,
    /// Per program, its ground subterms' classes
    /// ([`Program::ground_terms`] order), or `None` if one is not
    /// represented by unfiltered e-nodes, in which case it matches nowhere.
    pub(crate) grounds: Vec<Option<Vec<Id>>>,
    /// The canonical class ids, ascending: a variable root's candidates.
    classes: Vec<Id>,
    /// Raw id `i` → where its class's run in `nodes` starts; the run ends
    /// at entry `i + 1`. A non-canonical id has an empty run.
    starts: Vec<u32>,
    /// Every class's unfiltered node-table ids, sorted by e-node, one run
    /// per class in ascending class-id order.
    nodes: Vec<Id>,
    /// Operator discriminant → the classes holding an unfiltered e-node
    /// with it, ascending.
    buckets: HashMap<Discriminant<L>, Vec<Id>>,
}

impl<'p, L: Language> SearchSnapshot<'p, L> {
    /// Takes the snapshot of `egraph` for `programs`.
    ///
    /// # Panics
    ///
    /// Panics, in every build, if the e-graph is not clean
    /// ([`EGraph::is_clean`]): the machine binary-searches node lists that
    /// only [`EGraph::rebuild`] leaves canonical and sorted, so on a dirty
    /// e-graph it would lose matches silently.
    pub fn new<N: Analysis<L>>(egraph: &EGraph<L, N>, programs: &[&'p Program<L>]) -> Self {
        assert!(
            egraph.is_clean(),
            "pattern search on a dirty e-graph loses matches; call rebuild() first"
        );
        let mut classes = Vec::with_capacity(egraph.number_of_classes());
        let mut starts = Vec::with_capacity(egraph.num_node_ids() + 1);
        let mut nodes = Vec::with_capacity(egraph.num_unfiltered_nodes());
        let mut buckets: HashMap<Discriminant<L>, Vec<Id>> = HashMap::new();
        // Classes come in ascending id order, so every bucket is pushed in
        // order, and a class already in a bucket is its last entry.
        for class in egraph.classes() {
            let start = nodes.len() as u32;
            starts.resize(usize::from(class.id) + 1, start);
            classes.push(class.id);
            nodes.extend(egraph.enode_ids(class));
            let mut prev = None;
            for &id in &nodes[start as usize..] {
                let op = egraph.enode(id).discriminant();
                if prev != Some(op) {
                    prev = Some(op);
                    let bucket = buckets.entry(op).or_default();
                    if bucket.last() != Some(&class.id) {
                        bucket.push(class.id);
                    }
                }
            }
        }
        starts.resize(egraph.num_node_ids() + 1, nodes.len() as u32);
        let grounds = programs.iter().map(|p| p.resolve_grounds(egraph)).collect();
        SearchSnapshot {
            programs: programs.to_vec(),
            grounds,
            classes,
            starts,
            nodes,
            buckets,
        }
    }

    /// The unfiltered node-table ids of class `id` at the snapshot, sorted
    /// by e-node. `id` must have been canonical then.
    #[inline]
    pub(crate) fn class_nodes(&self, id: Id) -> &[Id] {
        let i = usize::from(id);
        &self.nodes[self.starts[i] as usize..self.starts[i + 1] as usize]
    }

    /// The classes the search of program `i` visits, ascending: the
    /// bucket of its root's operator, every class for a variable root, and
    /// none if one of its ground subterms is not represented.
    pub fn candidates(&self, i: usize) -> &[Id] {
        if self.grounds[i].is_none() {
            return &[];
        }
        match self.programs[i].root_op() {
            Some(op) => self.buckets.get(&op).map_or(&[], Vec::as_slice),
            None => &self.classes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::language::test_lang::{splitmix, Math};
    use crate::{ENodeOrVar, Pattern, RecExpr, Symbol, Var};

    fn sym(s: &str) -> Math {
        Math::Sym(Symbol::new(s))
    }

    /// A pattern built by `build` over a fresh AST.
    fn pat(build: impl FnOnce(&mut RecExpr<ENodeOrVar<Math>>)) -> Pattern<Math> {
        let mut ast = RecExpr::default();
        build(&mut ast);
        Pattern::new(ast)
    }

    fn var(ast: &mut RecExpr<ENodeOrVar<Math>>, name: &str) -> Id {
        ast.add(ENodeOrVar::Var(Var::new(name)))
    }

    fn node(ast: &mut RecExpr<ENodeOrVar<Math>>, enode: Math) -> Id {
        ast.add(ENodeOrVar::ENode(enode))
    }

    /// The differential's patterns, one per way a search reads the
    /// e-graph: a ground subterm `(* ?x 2)`, a non-linear variable
    /// `(+ ?x ?x)`, a root variable `?x`, a root operator no snapshot holds
    /// `(<< ?x ?y)`, and a bound prefix `(+ (* ?x 2) (* ?x ?y))`.
    fn patterns() -> Vec<Pattern<Math>> {
        vec![
            pat(|p| {
                let (x, two) = (var(p, "x"), node(p, Math::Num(2)));
                node(p, Math::Mul([x, two]));
            }),
            pat(|p| {
                let (x1, x2) = (var(p, "x"), var(p, "x"));
                node(p, Math::Add([x1, x2]));
            }),
            pat(|p| {
                var(p, "x");
            }),
            pat(|p| {
                let (x, y) = (var(p, "x"), var(p, "y"));
                node(p, Math::Shl([x, y]));
            }),
            pat(|p| {
                let (x, two) = (var(p, "x"), node(p, Math::Num(2)));
                let left = node(p, Math::Mul([x, two]));
                let y = var(p, "y");
                let right = node(p, Math::Mul([x, y]));
                node(p, Math::Add([left, right]));
            }),
        ]
    }

    /// Adds `n` random e-nodes over `ids` — `+`, `*`, `/`, the constant 2,
    /// and `<<` where `shl` allows; a third of them with `two` as their
    /// second child — and `unions` random unions.
    fn grow(
        eg: &mut EGraph<Math, ()>,
        ids: &mut Vec<Id>,
        next: &mut impl FnMut(usize) -> usize,
        two: Id,
        n: usize,
        unions: usize,
        shl: bool,
    ) {
        for _ in 0..n {
            let second = if next(3) == 0 {
                two
            } else {
                ids[next(ids.len())]
            };
            let children = [ids[next(ids.len())], second];
            let enode = match next(if shl { 5 } else { 4 }) {
                0 => Math::Add(children),
                1 => Math::Mul(children),
                2 => Math::Div(children),
                3 => Math::Num(2),
                _ => Math::Shl(children),
            };
            ids.push(eg.add(enode));
        }
        for _ in 0..unions {
            eg.union(ids[next(ids.len())], ids[next(ids.len())]);
        }
    }

    /// A snapshot of a clean random e-graph, searched after a random batch
    /// of `add`/`union` calls, returns bit for bit what searching the
    /// e-graph before the batch returns, on 300 seeded e-graphs with a
    /// filtered e-node each. The test counts how often the cases it is for
    /// happened: the batch unioned the constant 2's class (the ground
    /// subterm's) with another while `(* ?x 2)` matched (97 times), added
    /// `<<`, an operator the snapshot has no bucket for (249), `(+ ?x ?x)`
    /// matched (219), and a search of the rebuilt e-graph found something
    /// else (277).
    #[test]
    fn a_snapshot_searched_after_adds_and_unions_equals_the_search_before_them() {
        let patterns = patterns();
        let programs: Vec<&Program<Math>> = patterns.iter().map(Pattern::program).collect();
        let mut next = splitmix();
        let (mut ground_unioned, mut shl_added, mut nonlinear, mut changed) = (0, 0, 0, 0);
        for _ in 0..300 {
            let mut eg: EGraph<Math, ()> = EGraph::new(());
            let mut ids: Vec<Id> = (0..2 + next(4))
                .map(|i| eg.add(sym(&format!("l{i}"))))
                .collect();
            let two = eg.add(Math::Num(2));
            ids.push(two);
            for _ in 0..1 + next(3) {
                let (n, unions) = (next(25), next(9));
                grow(&mut eg, &mut ids, &mut next, two, n, unions, false);
                eg.rebuild();
            }
            let class = eg.eclass(ids[next(ids.len())]);
            let filtered = class.node_ids()[next(class.len())];
            eg.filter_node(filtered);

            let before = eg.clone();
            let want: Vec<_> = patterns.iter().map(|p| p.search(&before)).collect();
            let snapshot = SearchSnapshot::new(&eg, &programs);
            let nodes = eg.total_number_of_nodes();
            let (n, unions) = (1 + next(25), next(9));
            grow(&mut eg, &mut ids, &mut next, two, n, unions, true);
            let (_, two_unioned) = eg.union(two, ids[next(ids.len())]);

            let got: Vec<_> = (0..programs.len())
                .map(|i| snapshot.search(&eg, i))
                .collect();
            assert_eq!(got, want);
            ground_unioned += usize::from(two_unioned && !want[0].is_empty());
            shl_added += usize::from(
                eg.classes()
                    .any(|c| eg.enodes(c).any(|n| matches!(n, Math::Shl(_)))),
            );
            nonlinear += usize::from(!want[1].is_empty());
            eg.rebuild();
            changed += usize::from(
                eg.total_number_of_nodes() != nodes
                    && patterns
                        .iter()
                        .map(|p| p.search(&eg))
                        .ne(want.iter().cloned()),
            );
        }
        assert!(
            ground_unioned >= 90,
            "{ground_unioned} batches unioned the ground class"
        );
        assert!(shl_added >= 240, "{shl_added} batches added `<<`");
        assert!(nonlinear >= 200, "{nonlinear} e-graphs matched `(+ ?x ?x)`");
        assert!(
            changed >= 270,
            "{changed} batches changed what a fresh search finds"
        );
    }

    /// The buckets hold the classes with an unfiltered e-node of the
    /// operator, ascending, one entry per class: a filtered e-node leaves
    /// its class out of its operator's bucket, and a variable root's
    /// candidates are every class.
    #[test]
    fn buckets_list_the_classes_with_an_unfiltered_enode_of_the_operator() {
        let mut eg: EGraph<Math, ()> = EGraph::new(());
        let a = eg.add(sym("a"));
        let two = eg.add(Math::Num(2));
        let m1 = eg.add(Math::Mul([a, two]));
        let m2 = eg.add(Math::Mul([two, a]));
        let m3 = eg.add(Math::Mul([two, two]));
        let s = eg.add(Math::Shl([a, two]));
        eg.union(m1, s);
        eg.rebuild();
        eg.filter_node(m3);
        let patterns = [
            pat(|p| {
                let (x, y) = (var(p, "x"), var(p, "y"));
                node(p, Math::Mul([x, y]));
            }),
            pat(|p| {
                let (x, y) = (var(p, "x"), var(p, "y"));
                node(p, Math::Shl([x, y]));
            }),
            pat(|p| {
                let (x, y) = (var(p, "x"), var(p, "y"));
                node(p, Math::Add([x, y]));
            }),
            pat(|p| {
                node(p, Math::Num(7));
            }),
            pat(|p| {
                var(p, "x");
            }),
        ];
        let programs: Vec<_> = patterns.iter().map(Pattern::program).collect();
        let snapshot = SearchSnapshot::new(&eg, &programs);
        let mut muls = vec![eg.find(m1), eg.find(m2)];
        muls.sort();
        assert_eq!(snapshot.candidates(0), muls);
        assert_eq!(snapshot.candidates(1), [eg.find(m1)]);
        assert!(snapshot.candidates(2).is_empty());
        // Every literal shares one bucket.
        assert_eq!(snapshot.candidates(3), [two]);
        let all: Vec<Id> = eg.classes().map(|c| c.id).collect();
        assert_eq!(snapshot.candidates(4), all);
    }
}
