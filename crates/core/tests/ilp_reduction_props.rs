//! Differential property test of the reduced ILP extraction against the
//! monolithic §5.1 oracle on random explored tensor e-graphs.
//!
//! The reduction pipeline (root-reachable restriction, dominated-candidate
//! pruning, transitive single-candidate forcing, component decomposition —
//! see `tensat_core::extract::reduce`) is a pile of claimed-sound
//! transformations. Each has a hand-written proof sketch and unit tests,
//! but the property that actually matters is end-to-end: on *any* e-graph
//! produced by exploration, the reduced problem's optimum must equal the
//! unreduced encoding's optimum exactly, and both must be at most the
//! greedy-DAG heuristic's cost (the ILP is exact; greedy is its upper
//! bound and warm start). Random graphs plus commutativity /
//! associativity / distributivity churn produce e-classes with many
//! incomparable candidates, exercising dominance ties, forced closures,
//! and multi-component residues far beyond the hand-built unit fixtures.

use proptest::prelude::*;
use std::time::Duration;
use tensat_core::{
    explore, extract_greedy_dag, extract_ilp, ExplorationConfig, ExplorationMode, IlpConfig,
};
use tensat_egraph::RecExpr;
use tensat_ilp::Status;
use tensat_ir::{CostModel, GraphBuilder, TensorAnalysis, TensorEGraph, TensorLang};
use tensat_rules::{multi_rules, rw, single_rules, TensorRewrite};

/// A random graph-building step over `[8, 8]` tensors; operand indices
/// pick among earlier nodes modulo the current length, so any `usize` is
/// valid.
#[derive(Debug, Clone)]
enum Op {
    Relu(usize),
    Matmul(usize, usize),
    Ewadd(usize, usize),
    Ewmul(usize, usize),
}

fn ops_strategy(max_len: usize) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            any::<usize>().prop_map(Op::Relu),
            (any::<usize>(), any::<usize>()).prop_map(|(a, b)| Op::Matmul(a, b)),
            (any::<usize>(), any::<usize>()).prop_map(|(a, b)| Op::Ewadd(a, b)),
            (any::<usize>(), any::<usize>()).prop_map(|(a, b)| Op::Ewmul(a, b)),
        ],
        1..max_len,
    )
}

/// Builds the random graph over two `[8, 8]` inputs and two `[8, 8]`
/// weights (square shapes keep every matmul well-formed); every node is an
/// output, so nothing is dead and the root `noop` tuple forces the ILP to
/// cover the whole graph.
fn build_graph(ops: &[Op]) -> RecExpr<TensorLang> {
    let mut g = GraphBuilder::new();
    let mut ids = vec![
        g.input("p", &[8, 8]),
        g.input("q", &[8, 8]),
        g.weight("w1", &[8, 8]),
        g.weight("w2", &[8, 8]),
    ];
    for op in ops {
        let pick = |r: &usize| ids[r % ids.len()];
        let id = match op {
            Op::Relu(a) => {
                let x = pick(a);
                g.relu(x)
            }
            Op::Matmul(a, b) => {
                let (x, y) = (pick(a), pick(b));
                g.matmul(x, y)
            }
            Op::Ewadd(a, b) => {
                let (x, y) = (pick(a), pick(b));
                g.ewadd(x, y)
            }
            Op::Ewmul(a, b) => {
                let (x, y) = (pick(a), pick(b));
                g.ewmul(x, y)
            }
        };
        ids.push(id);
    }
    g.finish(&ids)
}

/// The full TENSAT rule set plus extra elementwise churn. The real rules
/// (matmul associativity, the merged-matmul multi-pattern economics)
/// create classes whose candidates trade node cost against sharing — the
/// cases where greedy is suboptimal and the residual ILP must actually
/// decide; commutativity and distribution add equal-cost incomparable
/// candidates (dominance must not fire) and node-count differences.
fn churn_rules() -> Vec<TensorRewrite> {
    let mut rules = single_rules();
    rules.push(rw("ewadd-comm", "(ewadd ?a ?b)", "(ewadd ?b ?a)"));
    rules.push(rw(
        "ewmul-distribute",
        "(ewmul ?x (ewadd ?a ?b))",
        "(ewadd (ewmul ?x ?a) (ewmul ?x ?b))",
    ));
    rules
}

proptest! {
    #[test]
    fn reduced_ilp_optimum_equals_monolithic_optimum(
        ops in ops_strategy(12),
        node_limit in 200usize..1_000,
    ) {
        let graph = build_graph(&ops);
        let mut eg = TensorEGraph::new(TensorAnalysis);
        let root = eg.add_expr(&graph);
        eg.rebuild();
        explore(
            &mut eg,
            root,
            &churn_rules(),
            &multi_rules(),
            &ExplorationConfig {
                mode: ExplorationMode::Saturate,
                k_multi: 1,
                max_iter: 2,
                node_limit,
                time_limit: Duration::from_secs(600),
                search_threads: 1,
                ..Default::default()
            },
        );

        let model = CostModel::default();
        let greedy = extract_greedy_dag(&eg, root, &model).unwrap();
        let reduced = extract_ilp(&eg, root, &model, &IlpConfig::default()).unwrap();
        let monolithic = extract_ilp(
            &eg,
            root,
            &model,
            &IlpConfig { reduce: false, ..Default::default() },
        )
        .unwrap();

        let rs = reduced.ilp.clone().unwrap();
        let ms = monolithic.ilp.clone().unwrap();
        prop_assert_eq!(rs.status, Status::Optimal);
        prop_assert_eq!(ms.status, Status::Optimal);
        // Exactness: the reduced problem's optimum is the oracle's optimum.
        prop_assert!(
            (reduced.dag_cost - monolithic.dag_cost).abs() < 1e-9,
            "reduced optimum {} != monolithic optimum {}",
            reduced.dag_cost,
            monolithic.dag_cost
        );
        // Both are true optima, so neither exceeds the greedy upper bound.
        prop_assert!(reduced.dag_cost <= greedy.dag_cost + 1e-9);
        prop_assert!(monolithic.dag_cost <= greedy.dag_cost + 1e-9);
        // The reduction's "before" stats are exactly the monolithic
        // encoding's size, and the residual problem never grows.
        prop_assert_eq!(rs.vars_before, ms.num_vars);
        prop_assert_eq!(rs.constraints_before, ms.num_constraints);
        prop_assert!(rs.num_vars <= ms.num_vars);
        prop_assert!(rs.num_constraints <= ms.num_constraints);
    }
}
