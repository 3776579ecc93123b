//! Property-based tests of the e-graph invariants: hash-consing,
//! congruence closure, and extraction soundness under random workloads.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::sync::{Arc, Mutex};
use tensat_egraph::doctest_lang::SimpleMath as Math;
use tensat_egraph::{
    search_all_guarded_parallel, search_all_guarded_parallel_with_threshold, search_all_parallel,
    Analysis, AstSize, EGraph, ENodeOrVar, Extractor, Id, Language, Pattern, RecExpr, Rewrite,
    SearchMatches, Subst, Symbol, Var,
};

/// A random expression generator: a sequence of build steps referencing
/// earlier nodes only.
#[derive(Debug, Clone)]
enum Step {
    Num(i64),
    Sym(u8),
    Add(usize, usize),
    Mul(usize, usize),
    Div(usize, usize),
}

fn steps_strategy(max_len: usize) -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        prop_oneof![
            (-4i64..=4).prop_map(Step::Num),
            (0u8..4).prop_map(Step::Sym),
            (any::<usize>(), any::<usize>()).prop_map(|(a, b)| Step::Add(a, b)),
            (any::<usize>(), any::<usize>()).prop_map(|(a, b)| Step::Mul(a, b)),
            (any::<usize>(), any::<usize>()).prop_map(|(a, b)| Step::Div(a, b)),
        ],
        1..max_len,
    )
}

fn build_expr(steps: &[Step]) -> RecExpr<Math> {
    let mut e = RecExpr::default();
    for (i, step) in steps.iter().enumerate() {
        let pick = |r: usize| Id::from(if i == 0 { 0 } else { r % i });
        let node = match step {
            Step::Num(n) => Math::Num(*n),
            Step::Sym(s) => Math::Sym(Symbol::new(format!("s{s}"))),
            Step::Add(a, b) if i > 0 => Math::Add([pick(*a), pick(*b)]),
            Step::Mul(a, b) if i > 0 => Math::Mul([pick(*a), pick(*b)]),
            Step::Div(a, b) if i > 0 => Math::Div([pick(*a), pick(*b)]),
            // Fall back to a leaf when there is no earlier node to refer to.
            _ => Math::Num(0),
        };
        e.add(node);
    }
    e
}

/// A random pattern generator, mirroring [`Step`]: a linear build sequence
/// whose nodes reference earlier nodes only. Variables come from a pool of
/// three names, so repeated draws produce non-linear patterns like
/// `(+ ?x ?x)` naturally.
#[derive(Debug, Clone)]
enum PatStep {
    Var(u8),
    Num(i64),
    Sym(u8),
    Add(usize, usize),
    Mul(usize, usize),
    Div(usize, usize),
}

fn pattern_strategy(max_len: usize) -> impl Strategy<Value = Vec<PatStep>> {
    prop::collection::vec(
        prop_oneof![
            (0u8..3).prop_map(PatStep::Var),
            (-4i64..=4).prop_map(PatStep::Num),
            (0u8..4).prop_map(PatStep::Sym),
            (any::<usize>(), any::<usize>()).prop_map(|(a, b)| PatStep::Add(a, b)),
            (any::<usize>(), any::<usize>()).prop_map(|(a, b)| PatStep::Mul(a, b)),
            (any::<usize>(), any::<usize>()).prop_map(|(a, b)| PatStep::Div(a, b)),
        ],
        1..max_len,
    )
}

fn build_pattern(steps: &[PatStep]) -> Pattern<Math> {
    let mut ast = RecExpr::default();
    for (i, step) in steps.iter().enumerate() {
        let pick = |r: usize| Id::from(if i == 0 { 0 } else { r % i });
        let node = match step {
            PatStep::Var(v) => ENodeOrVar::Var(Var::new(format!("v{v}"))),
            PatStep::Num(n) => ENodeOrVar::ENode(Math::Num(*n)),
            PatStep::Sym(s) => ENodeOrVar::ENode(Math::Sym(Symbol::new(format!("s{s}")))),
            PatStep::Add(a, b) if i > 0 => ENodeOrVar::ENode(Math::Add([pick(*a), pick(*b)])),
            PatStep::Mul(a, b) if i > 0 => ENodeOrVar::ENode(Math::Mul([pick(*a), pick(*b)])),
            PatStep::Div(a, b) if i > 0 => ENodeOrVar::ENode(Math::Div([pick(*a), pick(*b)])),
            _ => ENodeOrVar::Var(Var::new("v0")),
        };
        ast.add(node);
    }
    Pattern::new(ast)
}

/// Normalizes a match list into a canonical set representation: canonical
/// class id -> set of substitutions, each a sorted list of canonical
/// `(variable, class)` bindings. Two searches are equivalent iff their
/// normal forms are equal.
type NormalMatches = BTreeMap<Id, BTreeSet<Vec<(Var, Id)>>>;

fn normalize<N: Analysis<Math>>(eg: &EGraph<Math, N>, matches: &[SearchMatches]) -> NormalMatches {
    let mut out: NormalMatches = BTreeMap::new();
    for m in matches {
        let substs = out.entry(eg.find(m.eclass)).or_default();
        for row in m.substs.rows() {
            let vars = m.substs.vars().iter().copied();
            let mut bindings: Vec<(Var, Id)> =
                vars.zip(row.iter().map(|&id| eg.find(id))).collect();
            bindings.sort();
            substs.insert(bindings);
        }
    }
    out
}

/// Every node-table id a class lists, class by class: what the filter list
/// takes ([`EGraph::filter_node`]). On a clean e-graph with nothing filtered
/// yet these are exactly the e-nodes, one id each.
fn listed_ids<N: Analysis<Math>>(eg: &EGraph<Math, N>) -> Vec<Id> {
    eg.classes().flat_map(|c| c.node_ids().to_vec()).collect()
}

proptest! {
    /// Differential test of the tentpole: the compiled, op-indexed
    /// e-matching machine and the legacy recursive matcher must return
    /// identical match sets (same classes, same substitution sets) on
    /// random e-graphs and random patterns — including non-linear patterns,
    /// which the small variable pool generates frequently.
    #[test]
    fn machine_search_equals_naive_search(
        steps in steps_strategy(40),
        pat_steps in pattern_strategy(12),
        unions in prop::collection::vec((any::<usize>(), any::<usize>()), 0..6)
    ) {
        let expr = build_expr(&steps);
        let mut eg: EGraph<Math, ()> = EGraph::new(());
        eg.add_expr(&expr);
        eg.rebuild();
        let class_ids: Vec<Id> = eg.classes().map(|c| c.id).collect();
        for (a, b) in unions {
            let a = class_ids[a % class_ids.len()];
            let b = class_ids[b % class_ids.len()];
            eg.union(a, b);
        }
        eg.rebuild();
        let pattern = build_pattern(&pat_steps);
        let machine = pattern.search(&eg);
        let naive = pattern.search_naive(&eg);
        prop_assert_eq!(normalize(&eg, &machine), normalize(&eg, &naive));
    }

    /// Same differential property with a random subset of e-nodes filtered:
    /// both matchers must skip filtered nodes identically (the machine
    /// requires every node of a ground subterm to be an unfiltered e-node
    /// when it resolves the term).
    #[test]
    fn machine_search_equals_naive_search_with_filtered_nodes(
        steps in steps_strategy(40),
        pat_steps in pattern_strategy(12),
        filter_picks in prop::collection::vec(any::<usize>(), 0..8)
    ) {
        let expr = build_expr(&steps);
        let mut eg: EGraph<Math, ()> = EGraph::new(());
        eg.add_expr(&expr);
        eg.rebuild();
        let all_nodes = listed_ids(&eg);
        for pick in filter_picks {
            eg.filter_node(all_nodes[pick % all_nodes.len()]);
        }
        let pattern = build_pattern(&pat_steps);
        let machine = pattern.search(&eg);
        let naive = pattern.search_naive(&eg);
        prop_assert_eq!(normalize(&eg, &machine), normalize(&eg, &naive));
    }

    /// Differential test of the parallel search driver against the
    /// sequential machine, mirroring the machine-vs-naive oracle above:
    /// on random e-graphs (with random unions and a random filter list) and
    /// random patterns — including non-linear ones — the batch driver
    /// forced to spawn its `n` threads must return *bit-identical* match lists (same class order, same
    /// substitution order) for every thread count 1..=8, not merely
    /// set-equal ones.
    #[test]
    fn parallel_search_is_bit_identical_to_sequential(
        steps in steps_strategy(40),
        pat_steps in pattern_strategy(12),
        n_threads in 1usize..=8,
        unions in prop::collection::vec((any::<usize>(), any::<usize>()), 0..6),
        filter_picks in prop::collection::vec(any::<usize>(), 0..6)
    ) {
        let expr = build_expr(&steps);
        let mut eg: EGraph<Math, ()> = EGraph::new(());
        eg.add_expr(&expr);
        eg.rebuild();
        let class_ids: Vec<Id> = eg.classes().map(|c| c.id).collect();
        for (a, b) in unions {
            let a = class_ids[a % class_ids.len()];
            let b = class_ids[b % class_ids.len()];
            eg.union(a, b);
        }
        eg.rebuild();
        let all_nodes = listed_ids(&eg);
        for pick in filter_picks {
            eg.filter_node(all_nodes[pick % all_nodes.len()]);
        }
        let pattern = build_pattern(&pat_steps);
        let sequential = pattern.search(&eg);
        let mut parallel =
            search_all_guarded_parallel_with_threshold(&[pattern.program()], &eg, n_threads, 0);
        let parallel = parallel.pop().expect("one pattern in, one match list out");
        prop_assert_eq!(&sequential, &parallel);
        // And therefore also set-equal to the naive oracle.
        prop_assert_eq!(normalize(&eg, &parallel), normalize(&eg, &pattern.search_naive(&eg)));
    }

    /// The batch driver (one shared work queue across many patterns) must
    /// hand each pattern exactly the match list its standalone sequential
    /// search produces, in pattern order.
    #[test]
    fn batch_parallel_search_matches_per_pattern_search(
        steps in steps_strategy(40),
        pats in prop::collection::vec(pattern_strategy(10), 1..4),
        n_threads in 1usize..=8
    ) {
        let expr = build_expr(&steps);
        let mut eg: EGraph<Math, ()> = EGraph::new(());
        eg.add_expr(&expr);
        eg.rebuild();
        let patterns: Vec<Pattern<Math>> = pats.iter().map(|p| build_pattern(p)).collect();
        let refs: Vec<&Pattern<Math>> = patterns.iter().collect();
        let batch = search_all_parallel(&refs, &eg, n_threads);
        prop_assert_eq!(batch.len(), patterns.len());
        for (pattern, got) in patterns.iter().zip(&batch) {
            prop_assert_eq!(&pattern.search(&eg), got);
        }
    }

    /// The spawn-threshold dispatch in the batch driver must be invisible:
    /// whatever path the candidate count selects, the result must be
    /// bit-identical to both the forced-parallel driver (threshold 0) and
    /// the forced-sequential fallback (threshold `usize::MAX`). The small
    /// random e-graphs here always fall below
    /// `PARALLEL_SEARCH_SPAWN_THRESHOLD`, so the default dispatch takes the
    /// sequential fallback while the threshold-0 run still exercises the
    /// real worker spawn/merge machinery — making this the differential
    /// test between the two.
    #[test]
    fn spawn_threshold_dispatch_is_bit_identical(
        steps in steps_strategy(40),
        pats in prop::collection::vec(pattern_strategy(10), 1..4),
        n_threads in 2usize..=8
    ) {
        let expr = build_expr(&steps);
        let mut eg: EGraph<Math, ()> = EGraph::new(());
        eg.add_expr(&expr);
        eg.rebuild();
        let patterns: Vec<Pattern<Math>> = pats.iter().map(|p| build_pattern(p)).collect();
        let programs: Vec<_> = patterns.iter().map(|p| p.program()).collect();
        let dispatched = search_all_guarded_parallel(&programs, &eg, n_threads);
        let forced_parallel =
            search_all_guarded_parallel_with_threshold(&programs, &eg, n_threads, 0);
        let forced_sequential =
            search_all_guarded_parallel_with_threshold(&programs, &eg, n_threads, usize::MAX);
        prop_assert_eq!(&dispatched, &forced_parallel);
        prop_assert_eq!(&dispatched, &forced_sequential);
        for (pattern, got) in patterns.iter().zip(&dispatched) {
            prop_assert_eq!(&pattern.search(&eg), got);
        }
    }
}

// ---------------------------------------------------------------------------
// Match lists as id rows
// ---------------------------------------------------------------------------

/// A random e-graph as the differential tests above build it: an
/// expression, a few unions, rebuilt.
fn random_egraph(steps: &[Step], unions: &[(usize, usize)]) -> EGraph<Math, ()> {
    let mut eg: EGraph<Math, ()> = EGraph::new(());
    eg.add_expr(&build_expr(steps));
    eg.rebuild();
    let class_ids: Vec<Id> = eg.classes().map(|c| c.id).collect();
    for (a, b) in unions {
        eg.union(
            class_ids[a % class_ids.len()],
            class_ids[b % class_ids.len()],
        );
    }
    eg.rebuild();
    eg
}

proptest! {
    /// A match list stores rows of ids; read back as owned `Subst`s they
    /// must already be what sorting and deduplicating that `Vec<Subst>`
    /// gives — the order match lists had when they *were* a `Vec<Subst>`,
    /// which is the order the apply loop consumes them in. (Which set it
    /// is, the machine-vs-naive tests pin; a set has one sorted,
    /// duplicate-free listing.) The machine emits rows in register order
    /// and stores them in template order, so on classes of many nodes the
    /// rows of one class arrive out of order — the e-graph is the
    /// big-class one — and the last pattern is written to make sure: the
    /// template of `(+ ?v0 (* ?v1 ?v2))` reads ?v1 ?v2 ?v0 while the
    /// machine binds ?v0 first.
    #[test]
    fn rows_read_back_as_a_sorted_deduplicated_subst_list(
        nodes in prop::collection::vec((0u8..3, any::<usize>(), any::<usize>(), 0usize..3), 280..320),
        pat_steps in pattern_strategy(12)
    ) {
        let eg = big_class_egraph(&nodes);
        let mut patterns = bind_plan_patterns();
        patterns.push(("random", build_pattern(&pat_steps)));
        patterns.push(("disordered", build_pattern(&[
            PatStep::Var(1),
            PatStep::Var(2),
            PatStep::Mul(0, 1),
            PatStep::Var(0),
            PatStep::Add(3, 2),
        ])));
        let mut emitted_out_of_order = false;
        for (name, pattern) in &patterns {
            for m in pattern.search(&eg) {
                let substs: Vec<Subst> = m.substs.iter().collect();
                let mut expected = substs.clone();
                expected.sort();
                expected.dedup();
                prop_assert_eq!(&substs, &expected, "{}", name);
                prop_assert_eq!(m.substs.len(), substs.len());
                prop_assert!(!m.substs.is_empty());
                // Every accessor reads the same rows.
                for (i, subst) in substs.iter().enumerate() {
                    prop_assert_eq!(&m.substs.subst(i), subst);
                    let pairs: Vec<(Var, Id)> = m.substs.vars().iter().copied()
                        .zip(m.substs.row(i).iter().copied())
                        .collect();
                    prop_assert_eq!(subst.iter().collect::<Vec<_>>(), pairs);
                }
                prop_assert_eq!(m.substs.rows().count(), substs.len());
                // The machine finds this pattern's rows in ascending ?v0,
                // the last column: where that column is not ascending in
                // the list, the rows arrived out of order and were sorted.
                if *name == "disordered" {
                    let last: Vec<Id> = m.substs.rows().map(|r| r[2]).collect();
                    emitted_out_of_order |= last.windows(2).any(|w| w[0] > w[1]);
                }
            }
        }
        prop_assert!(emitted_out_of_order, "no class needed its rows sorted");
    }

    /// A ground pattern binds nothing, so its rows are empty — and still
    /// counted: exactly one per matching class, which the hash-cons makes
    /// exactly the class of the term.
    #[test]
    fn ground_pattern_yields_one_empty_row_per_matching_class(
        steps in steps_strategy(40),
        unions in prop::collection::vec((any::<usize>(), any::<usize>()), 0..6),
        pick in any::<usize>()
    ) {
        let eg = random_egraph(&steps, &unions);
        let class_ids: Vec<Id> = eg.classes().map(|c| c.id).collect();
        let class = class_ids[pick % class_ids.len()];
        let pattern = Pattern::from_expr(&eg.id_to_expr(class));
        let matches = pattern.search(&eg);
        prop_assert_eq!(matches.len(), 1);
        prop_assert_eq!(matches[0].eclass, class);
        prop_assert_eq!(matches[0].substs.len(), 1);
        prop_assert!(matches[0].substs.vars().is_empty());
        prop_assert!(matches[0].substs.row(0).is_empty());
        prop_assert_eq!(matches[0].substs.iter().collect::<Vec<_>>(), vec![Subst::new()]);
        prop_assert_eq!(normalize(&eg, &matches), normalize(&eg, &pattern.search_naive(&eg)));
    }

    /// `Rewrite::apply_while` reads every row into one scratch `Subst`. A
    /// condition that records what it is shown (and refuses, so nothing is
    /// applied) must see exactly the list's substitutions, class by class,
    /// in list order: the refill neither skips nor repeats a row, and
    /// leaves nothing of the previous row behind.
    #[test]
    fn apply_while_shows_the_condition_every_row_in_order(
        steps in steps_strategy(40),
        pat_steps in pattern_strategy(12),
        unions in prop::collection::vec((any::<usize>(), any::<usize>()), 0..6)
    ) {
        let mut eg = random_egraph(&steps, &unions);
        let pattern = build_pattern(&pat_steps);
        let matches = pattern.search(&eg);
        let expected: Vec<(Id, Subst)> = matches
            .iter()
            .flat_map(|m| m.substs.iter().map(move |s| (m.eclass, s)))
            .collect();

        let shown: Arc<Mutex<Vec<(Id, Subst)>>> = Arc::default();
        let record = shown.clone();
        let rewrite: Rewrite<Math, ()> = Rewrite::new_conditional(
            "record-and-refuse",
            pattern.clone(),
            pattern,
            Arc::new(move |_, eclass, subst| {
                record.lock().unwrap().push((eclass, subst.clone()));
                false
            }),
        );
        let nodes_before = eg.total_number_of_nodes();
        prop_assert_eq!(rewrite.apply(&mut eg, &matches), 0);
        prop_assert_eq!(eg.total_number_of_nodes(), nodes_before);
        prop_assert_eq!(&*shown.lock().unwrap(), &expected);
    }
}

// ---------------------------------------------------------------------------
// Big classes: the range lookup inside `Bind`
// ---------------------------------------------------------------------------

/// Patterns that between them reach every branch of a `Bind`'s
/// bound-children plan, written as [`PatStep`] programs (an operand index
/// below the step's own index refers to that earlier step).
fn bind_plan_patterns() -> Vec<(&'static str, Pattern<Math>)> {
    use PatStep::*;
    let pats: Vec<(&'static str, Vec<PatStep>)> = vec![
        // (+ (* ?v0 ?v1) (* ?v0 ?v2)): the second `*` has child 0 bound —
        // a prefix, found by range lookup.
        (
            "bound prefix",
            vec![Var(0), Var(1), Mul(0, 1), Var(2), Mul(0, 3), Add(2, 4)],
        ),
        // (+ (* ?v0 ?v1) (* ?v0 ?v1)): every child bound, the lookup finds
        // at most one node.
        (
            "fully bound",
            vec![Var(0), Var(1), Mul(0, 1), Mul(0, 1), Add(2, 3)],
        ),
        // (+ (* ?v0 ?v1) (* ?v2 ?v1)): child 1 bound with child 0 free —
        // no prefix, the bound child is checked per node.
        (
            "bound non-prefix",
            vec![Var(0), Var(1), Mul(0, 1), Var(2), Mul(3, 1), Add(2, 4)],
        ),
        // (+ ?v0 ?v0) and (* (+ ?v0 ?v0) ?v0): a repeat inside one node,
        // and that repeat bound from outside as well.
        ("same node", vec![Var(0), Add(0, 0)]),
        ("same node, nested", vec![Var(0), Add(0, 0), Mul(1, 0)]),
        // (+ s0 ?v0): a ground leaf as prefix.
        ("ground prefix", vec![Sym(0), Var(0), Add(0, 1)]),
        // (* ?v0 (+ s0 1)): a composite ground subterm outside the prefix.
        (
            "ground non-prefix",
            vec![Var(0), Sym(0), Num(1), Add(1, 2), Mul(0, 3)],
        ),
        // (/ (+ s1 s0) (* ?v0 s1)): ground prefix at the root, ground
        // non-prefix one level down.
        (
            "ground and nested",
            vec![Sym(1), Sym(0), Add(0, 1), Var(0), Mul(3, 0), Div(2, 4)],
        ),
    ];
    pats.into_iter()
        .map(|(name, steps)| (name, build_pattern(&steps)))
        .collect()
}

/// Random binary nodes over a few leaves, unioned into three classes (and
/// taking those classes as operands): `(operator, operand, operand, class
/// to join)` per node.
fn big_class_egraph(nodes: &[(u8, usize, usize, usize)]) -> EGraph<Math, ()> {
    let mut eg: EGraph<Math, ()> = EGraph::new(());
    let mut operands: Vec<Id> = (0..4)
        .map(|s| eg.add(Math::Sym(Symbol::new(format!("s{s}")))))
        .collect();
    operands.extend((0..3).map(|n| eg.add(Math::Num(n))));
    // The three big classes start as `(+ s0 1)`, `(* s1 s0)`, `(/ s2 s3)`
    // — the first two are what the ground patterns look for.
    let bigs = [
        eg.add(Math::Add([operands[0], operands[5]])),
        eg.add(Math::Mul([operands[1], operands[0]])),
        eg.add(Math::Div([operands[2], operands[3]])),
    ];
    operands.extend(bigs);
    for &(op, a, b, into) in nodes {
        let children = [operands[a % operands.len()], operands[b % operands.len()]];
        let id = eg.add(match op {
            0 => Math::Add(children),
            1 => Math::Mul(children),
            _ => Math::Div(children),
        });
        eg.union(bigs[into], id);
    }
    eg.rebuild();
    eg
}

proptest! {
    /// The range lookup only does work a scan would not once classes are
    /// big, and `steps_strategy(40)` rarely builds one above a handful of
    /// nodes. Here ~300 random binary nodes over a few leaves are unioned
    /// into three classes (and take those classes as operands), so the
    /// largest class holds at least 64 nodes; some nodes are then filtered.
    /// On that e-graph, for one pattern per branch of the bound-children
    /// plan and a random one: the machine equals the naive oracle, and the
    /// forced-parallel batch driver equals the sequential searches bit for
    /// bit.
    #[test]
    fn big_class_search_equals_naive_and_forced_parallel(
        nodes in prop::collection::vec((0u8..3, any::<usize>(), any::<usize>(), 0usize..3), 280..320),
        pat_steps in pattern_strategy(12),
        filter_picks in prop::collection::vec(any::<usize>(), 0..12),
        n_threads in 2usize..=8
    ) {
        let mut eg = big_class_egraph(&nodes);
        let largest = eg.classes().map(|c| c.len()).max().unwrap_or(0);
        prop_assert!(largest >= 64, "largest class holds only {} nodes", largest);
        let all_nodes = listed_ids(&eg);
        for pick in filter_picks {
            eg.filter_node(all_nodes[pick % all_nodes.len()]);
        }

        let mut patterns = bind_plan_patterns();
        patterns.push(("random", build_pattern(&pat_steps)));
        let programs: Vec<_> = patterns.iter().map(|(_, p)| p.program()).collect();
        let parallel =
            search_all_guarded_parallel_with_threshold(&programs, &eg, n_threads, 0);

        for ((name, pattern), parallel) in patterns.iter().zip(&parallel) {
            let sequential = pattern.search(&eg);
            prop_assert_eq!(
                normalize(&eg, &sequential),
                normalize(&eg, &pattern.search_naive(&eg)),
                "{}: machine != naive", name
            );
            prop_assert_eq!(parallel, &sequential, "{}: parallel != sequential", name);
        }
    }
}

proptest! {
    /// Adding the same expression twice always yields the same root class,
    /// and the node count does not grow the second time (hash-consing).
    #[test]
    fn adding_twice_is_idempotent(steps in steps_strategy(40)) {
        let expr = build_expr(&steps);
        let mut eg: EGraph<Math, ()> = EGraph::new(());
        let r1 = eg.add_expr(&expr);
        let nodes_after_first = eg.total_number_of_nodes();
        let r2 = eg.add_expr(&expr);
        prop_assert_eq!(eg.find(r1), eg.find(r2));
        prop_assert_eq!(eg.total_number_of_nodes(), nodes_after_first);
    }

    /// The number of e-nodes never exceeds the number of added nodes, and
    /// extraction returns a term no larger than the input (AstSize is
    /// monotone under equality saturation with no rules: it is the input).
    #[test]
    fn extraction_roundtrips_without_rules(steps in steps_strategy(40)) {
        let expr = build_expr(&steps);
        let mut eg: EGraph<Math, ()> = EGraph::new(());
        let root = eg.add_expr(&expr);
        eg.rebuild();
        prop_assert!(eg.total_number_of_nodes() <= expr.len());
        let ex = Extractor::new(&eg, AstSize);
        let (cost, best) = ex.find_best(root).unwrap();
        prop_assert!(cost >= 1.0);
        // Extracted term must itself be representable and re-add to the
        // same class.
        let again = eg.add_expr(&best.expr);
        prop_assert_eq!(eg.find(again), eg.find(root));
    }

    /// Random unions never break the congruence invariant: after rebuild,
    /// congruent nodes (same op, equivalent children) are in the same class.
    #[test]
    fn rebuild_restores_congruence(
        steps in steps_strategy(30),
        unions in prop::collection::vec((any::<usize>(), any::<usize>()), 1..10)
    ) {
        let expr = build_expr(&steps);
        let mut eg: EGraph<Math, ()> = EGraph::new(());
        eg.add_expr(&expr);
        eg.rebuild();
        let class_ids: Vec<Id> = eg.classes().map(|c| c.id).collect();
        for (a, b) in unions {
            let a = class_ids[a % class_ids.len()];
            let b = class_ids[b % class_ids.len()];
            eg.union(a, b);
        }
        eg.rebuild();
        prop_assert!(eg.is_clean());
        // Check congruence: collect all (canonical node -> class) pairs; a
        // canonical node must never appear in two different classes.
        let mut seen: std::collections::HashMap<Math, Id> = Default::default();
        for class in eg.classes() {
            for node in eg.enodes(class) {
                let canon = eg.canonicalize(node);
                if let Some(prev) = seen.insert(canon, eg.find(class.id)) {
                    prop_assert_eq!(prev, eg.find(class.id),
                        "congruent node appears in two distinct classes");
                }
            }
        }
    }

    /// Union is order-insensitive: performing the same set of unions in any
    /// order yields the same partition of classes.
    #[test]
    fn union_order_does_not_matter(
        steps in steps_strategy(25),
        mut unions in prop::collection::vec((any::<usize>(), any::<usize>()), 1..8)
    ) {
        let expr = build_expr(&steps);
        let build = |pairs: &[(usize, usize)]| {
            let mut eg: EGraph<Math, ()> = EGraph::new(());
            let root = eg.add_expr(&expr);
            eg.rebuild();
            let ids: Vec<Id> = eg.classes().map(|c| c.id).collect();
            for &(a, b) in pairs {
                let a = ids[a % ids.len()];
                let b = ids[b % ids.len()];
                eg.union(a, b);
            }
            eg.rebuild();
            (eg, root)
        };
        let (eg1, root1) = build(&unions);
        unions.reverse();
        let (eg2, root2) = build(&unions);
        prop_assert_eq!(eg1.number_of_classes(), eg2.number_of_classes());
        prop_assert_eq!(eg1.total_number_of_nodes(), eg2.total_number_of_nodes());
        // The root must extract to the same minimal cost in both.
        let c1 = Extractor::new(&eg1, AstSize).best_cost(root1);
        let c2 = Extractor::new(&eg2, AstSize).best_cost(root2);
        prop_assert_eq!(c1, c2);
    }
}

// ---------------------------------------------------------------------------
// Dense slot-indexed storage: rebuild-schedule independence
// ---------------------------------------------------------------------------

/// One step of a refactor-era operation sequence over an e-graph: add the
/// next node of a pre-generated expression, union two previously added
/// nodes' classes, rebuild, filter a previously added node, or clear the
/// filter list. Operations are expressed against *expression node indices*
/// (not raw ids), so the identical semantic sequence can be replayed
/// against e-graphs with different rebuild schedules — whose internal ids
/// and slots legitimately diverge.
#[derive(Debug, Clone)]
enum SeqOp {
    Add,
    Union(usize, usize),
    Rebuild,
    Filter(usize),
    ClearFiltered,
}

fn seq_strategy(max_len: usize) -> impl Strategy<Value = Vec<SeqOp>> {
    // The vendored proptest stub has no weighted `prop_oneof!`; bias
    // towards adds by listing the variant several times.
    prop::collection::vec(
        prop_oneof![
            Just(SeqOp::Add),
            Just(SeqOp::Add),
            Just(SeqOp::Add),
            (any::<usize>(), any::<usize>()).prop_map(|(a, b)| SeqOp::Union(a, b)),
            (any::<usize>(), any::<usize>()).prop_map(|(a, b)| SeqOp::Union(a, b)),
            Just(SeqOp::Rebuild),
            any::<usize>().prop_map(SeqOp::Filter),
            Just(SeqOp::ClearFiltered),
        ],
        1..max_len,
    )
}

/// Replays `ops` against a fresh e-graph. `rebuild_every_op` is the
/// per-operation-rebuild baseline schedule; `false` rebuilds only at
/// explicit `Rebuild` ops (and both schedules end with a final rebuild).
/// Returns the e-graph, the expr-index → id map, and the filter list as a
/// set of e-nodes by value — the form it had before it was a bit per id,
/// canonical only once [`assert_filter_list_is_the_value_set`] reads it.
fn replay(
    expr: &RecExpr<Math>,
    ops: &[SeqOp],
    rebuild_every_op: bool,
) -> (EGraph<Math, ()>, Vec<Id>, HashSet<Math>) {
    let mut eg: EGraph<Math, ()> = EGraph::new(());
    let mut ids: Vec<Id> = vec![];
    let mut filtered: HashSet<Math> = HashSet::new();
    let nodes: Vec<(Id, &Math)> = expr.iter().collect();
    // Always seed at least one node so Union/Filter have a target.
    let mut next_add = 0usize;
    let mut add_one = |eg: &mut EGraph<Math, ()>, ids: &mut Vec<Id>| {
        if next_add < nodes.len() {
            let node = nodes[next_add].1.map_children(|c| ids[usize::from(c)]);
            ids.push(eg.add(node));
            next_add += 1;
        }
    };
    add_one(&mut eg, &mut ids);
    for op in ops {
        match op {
            SeqOp::Add => add_one(&mut eg, &mut ids),
            SeqOp::Union(a, b) => {
                let a = ids[a % ids.len()];
                let b = ids[b % ids.len()];
                eg.union(a, b);
            }
            SeqOp::Rebuild => {
                eg.rebuild();
            }
            SeqOp::Filter(k) => {
                // Filter the semantic node at expr index k (reconstructed
                // from the expression, so both schedules filter the same
                // term) under the id its class lists for it. On a dirty
                // e-graph the list may hold a congruent twin as well;
                // either id will do, the rebuild keeps one and its mark.
                let k = *k % ids.len();
                let node = nodes[k].1.map_children(|c| ids[usize::from(c)]);
                let canonical = eg.canonicalize(&node);
                let listed = eg
                    .eclass(ids[k])
                    .node_ids()
                    .iter()
                    .copied()
                    .find(|&id| eg.canonicalize(eg.enode(id)) == canonical)
                    .expect("a class lists every e-node added to it");
                eg.filter_node(listed);
                filtered.insert(node);
            }
            SeqOp::ClearFiltered => {
                eg.clear_filtered();
                filtered.clear();
            }
        }
        if rebuild_every_op {
            eg.rebuild();
        }
    }
    eg.rebuild();
    (eg, ids, filtered)
}

/// The filter list as a bit per listed id means what it meant as a set of
/// e-nodes by value: a listed e-node is filtered exactly when it
/// canonicalizes to a filtered value canonicalized now.
fn assert_filter_list_is_the_value_set(eg: &EGraph<Math, ()>, filtered: &HashSet<Math>) {
    let filtered: HashSet<Math> = filtered.iter().map(|n| eg.canonicalize(n)).collect();
    for id in listed_ids(eg) {
        let enode = eg.canonicalize(eg.enode(id));
        assert_eq!(
            eg.is_filtered(id),
            filtered.contains(&enode),
            "listed id {id}: {enode:?}"
        );
    }
}

/// The schedule-independent name of a class: the sorted set of expression
/// node indices whose classes merged into it. Two e-graphs built from the
/// same semantic sequence are compared through these keys, because raw ids
/// (and union-find roots) legitimately differ between rebuild schedules.
fn class_key(eg: &EGraph<Math, ()>, ids: &[Id], id: Id) -> Vec<usize> {
    let root = eg.find(id);
    (0..ids.len())
        .filter(|&i| eg.find(ids[i]) == root)
        .collect()
}

/// Normalizes a match list into schedule-independent form: class key →
/// set of substitutions over class keys.
type IndexedMatches = BTreeMap<Vec<usize>, BTreeSet<Vec<(Var, Vec<usize>)>>>;

fn normalize_by_index(
    eg: &EGraph<Math, ()>,
    ids: &[Id],
    matches: &[SearchMatches],
) -> IndexedMatches {
    let mut out: IndexedMatches = BTreeMap::new();
    for m in matches {
        let substs = out.entry(class_key(eg, ids, m.eclass)).or_default();
        for row in m.substs.rows() {
            let vars = m.substs.vars().iter().copied();
            let mut bindings: Vec<(Var, Vec<usize>)> = vars
                .zip(row.iter().map(|&id| class_key(eg, ids, id)))
                .collect();
            bindings.sort();
            substs.insert(bindings);
        }
    }
    out
}

proptest! {
    /// The dense-storage acceptance property: an e-graph driven through a
    /// random refactor-era operation sequence (add / union / rebuild /
    /// filter / clear-filter) with the *incremental* rebuild schedule must
    /// be indistinguishable from the per-op-rebuild sequential baseline —
    /// same class partition, same class count, same node count, same match
    /// sets (machine *and* naive oracle), same greedy extraction costs —
    /// and both must pass the full storage-invariant validator, with a
    /// filter list that marks exactly the e-nodes a by-value set of the
    /// filtered terms names.
    #[test]
    fn rebuild_schedule_does_not_change_the_egraph(
        steps in steps_strategy(30),
        ops in seq_strategy(40),
        pat_steps in pattern_strategy(10),
    ) {
        let expr = build_expr(&steps);
        let (a, ids_a, filtered_a) = replay(&expr, &ops, false);
        let (b, ids_b, filtered_b) = replay(&expr, &ops, true);
        a.check_invariants();
        b.check_invariants();
        assert_filter_list_is_the_value_set(&a, &filtered_a);
        assert_filter_list_is_the_value_set(&b, &filtered_b);
        prop_assert_eq!(ids_a.len(), ids_b.len());
        let n = ids_a.len();

        // Identical class partitions over the added nodes...
        for i in 0..n {
            for j in (i + 1)..n {
                prop_assert_eq!(
                    a.find(ids_a[i]) == a.find(ids_a[j]),
                    b.find(ids_b[i]) == b.find(ids_b[j]),
                    "partition diverged at indices {} / {}", i, j
                );
            }
        }
        // ...and identical aggregate shape.
        prop_assert_eq!(a.number_of_classes(), b.number_of_classes());
        prop_assert_eq!(a.classes().count(), b.classes().count());
        prop_assert_eq!(a.total_number_of_nodes(), b.total_number_of_nodes());
        prop_assert_eq!(a.filtered_count(), b.filtered_count());
        prop_assert_eq!(a.num_unfiltered_nodes(), b.num_unfiltered_nodes());

        // Identical match sets, by the machine and by the naive oracle.
        let pattern = build_pattern(&pat_steps);
        prop_assert_eq!(
            normalize_by_index(&a, &ids_a, &pattern.search(&a)),
            normalize_by_index(&b, &ids_b, &pattern.search(&b))
        );
        prop_assert_eq!(
            normalize_by_index(&a, &ids_a, &pattern.search_naive(&a)),
            normalize_by_index(&b, &ids_b, &pattern.search_naive(&b))
        );

        // Identical greedy extraction costs for every added node's class.
        let ex_a = Extractor::new(&a, AstSize);
        let ex_b = Extractor::new(&b, AstSize);
        for i in 0..n {
            prop_assert_eq!(
                ex_a.best_cost(ids_a[i]),
                ex_b.best_cost(ids_b[i]),
                "extraction cost diverged at index {}", i
            );
        }
    }

    /// The filter list through congruence merges, where the operation
    /// sequences above rarely take it: about half the e-nodes of a random
    /// e-graph filtered, then many random unions, rebuilt. About a third
    /// of the cases merge a filtered e-node with an unfiltered congruent
    /// twin, so a rebuild that dropped a twin's mark instead of moving it
    /// onto the kept id fails the by-value oracle here.
    #[test]
    fn filter_marks_follow_congruent_twins_like_a_value_set(
        steps in steps_strategy(30),
        marks in prop::collection::vec(any::<bool>(), 30..31),
        unions in prop::collection::vec((any::<usize>(), any::<usize>()), 1..20)
    ) {
        let mut eg: EGraph<Math, ()> = EGraph::new(());
        eg.add_expr(&build_expr(&steps));
        eg.rebuild();
        let mut filtered: HashSet<Math> = HashSet::new();
        for (id, mark) in listed_ids(&eg).into_iter().zip(marks) {
            if mark {
                eg.filter_node(id);
                filtered.insert(eg.enode(id).clone());
            }
        }
        let class_ids: Vec<Id> = eg.classes().map(|c| c.id).collect();
        for (a, b) in unions {
            eg.union(class_ids[a % class_ids.len()], class_ids[b % class_ids.len()]);
        }
        eg.rebuild();
        eg.check_invariants();
        assert_filter_list_is_the_value_set(&eg, &filtered);
    }
}
