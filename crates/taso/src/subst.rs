//! Graph-level substitution: matching rewrite-rule patterns directly on a
//! concrete tensor graph and applying them destructively (producing a new
//! graph), the way sequential optimizers like TASO work.
//!
//! The trick used here keeps the implementation small and obviously
//! consistent with TENSAT: a concrete graph is loaded into a fresh e-graph
//! (without running any rewrites), which gives hash-consing and pattern
//! matching for free; a match is then applied by *replacing* the matched
//! node's class representative when rebuilding the concrete graph, rather
//! than by unioning.

use tensat_egraph::{build_term, Id, RecExpr, Subst};
use tensat_ir::{TensorAnalysis, TensorData, TensorEGraph, TensorLang};
use tensat_rules::TensorRewrite;

/// One applicable substitution site on a concrete graph.
#[derive(Debug, Clone)]
pub struct GraphMatch {
    /// Index of the rewrite rule in the rule list.
    pub rule_index: usize,
    /// The e-class (node) of the loaded graph where the rule's left-hand
    /// side matched.
    pub eclass: Id,
    /// The variable binding.
    pub subst: Subst,
}

/// Loads a concrete graph into an e-graph without applying any rewrites.
/// Returns the e-graph and the root class.
pub fn load_graph(graph: &RecExpr<TensorLang>) -> (TensorEGraph, Id) {
    let mut egraph = TensorEGraph::new(TensorAnalysis);
    let root = egraph.add_expr(graph);
    egraph.rebuild();
    (egraph, root)
}

/// Finds every applicable substitution of `rules` on `graph` (all rules, all
/// sites, all bindings), including the rules' shape-check conditions.
pub fn find_substitutions(graph: &RecExpr<TensorLang>, rules: &[TensorRewrite]) -> Vec<GraphMatch> {
    let (egraph, _) = load_graph(graph);
    let mut out = vec![];
    for (rule_index, rule) in rules.iter().enumerate() {
        for m in rule.search(&egraph) {
            for subst in m.substs.iter() {
                if let Some(cond) = &rule.condition {
                    if !cond(&egraph, m.eclass, &subst) {
                        continue;
                    }
                }
                out.push(GraphMatch {
                    rule_index,
                    eclass: m.eclass,
                    subst,
                });
            }
        }
    }
    out
}

/// Applies one substitution to the graph, producing the rewritten graph.
/// Returns `None` if the rewritten graph is ill-typed (the destructive
/// application lost a precondition) or the match no longer applies.
pub fn apply_substitution(
    graph: &RecExpr<TensorLang>,
    rules: &[TensorRewrite],
    m: &GraphMatch,
) -> Option<RecExpr<TensorLang>> {
    let (mut egraph, root) = load_graph(graph);
    let rule = &rules[m.rule_index];

    // Instantiate the right-hand side and remember which class it landed in;
    // this may create new classes.
    let new_root = rule.applier.instantiate(&mut egraph, &m.subst);
    egraph.rebuild();

    // Destructive replacement: rebuild the concrete graph from the e-graph,
    // but represent the matched class by the instantiated right-hand side
    // (the replacement class's newest node; node ids are handed out in
    // `add` order) and every other class by its original node (its oldest).
    let slot = |class: Id| egraph.slot_index(class).expect("a loaded class is live");
    let mut choice = vec![None; egraph.num_slots()];
    for class in egraph.classes() {
        choice[slot(class.id)] = class.node_ids().iter().min().copied();
    }
    choice[slot(m.eclass)] = egraph.eclass(new_root).node_ids().iter().max().copied();
    // A replacement that reaches the matched class again has no term.
    let out = build_term(&egraph, root, |slot| choice[slot]).ok()?.expr;
    // Reject ill-typed results (e.g. a rule applied at a site whose shapes
    // were only valid inside the e-graph union).
    let data = tensat_ir::infer_recexpr(&out);
    if data.iter().all(TensorData::is_valid) {
        Some(out)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensat_ir::{Activation, CostModel, GraphBuilder};
    use tensat_rules::single_rules;

    fn relu_matmul_graph() -> RecExpr<TensorLang> {
        let mut g = GraphBuilder::new();
        let x = g.input("x", &[32, 64]);
        let w = g.weight("w", &[64, 64]);
        let m = g.matmul(x, w);
        let r = g.relu(m);
        g.finish(&[r])
    }

    #[test]
    fn finds_fusion_substitution() {
        let graph = relu_matmul_graph();
        let rules = single_rules();
        let matches = find_substitutions(&graph, &rules);
        assert!(!matches.is_empty());
        let fuse_idx = rules
            .iter()
            .position(|r| r.name == "fuse-matmul-relu")
            .unwrap();
        assert!(matches.iter().any(|m| m.rule_index == fuse_idx));
    }

    #[test]
    fn applying_fusion_reduces_cost() {
        let graph = relu_matmul_graph();
        let rules = single_rules();
        let model = CostModel::default();
        let before = model.graph_cost(&graph);
        let fuse_idx = rules
            .iter()
            .position(|r| r.name == "fuse-matmul-relu")
            .unwrap();
        let m = find_substitutions(&graph, &rules)
            .into_iter()
            .find(|m| m.rule_index == fuse_idx)
            .unwrap();
        let rewritten = apply_substitution(&graph, &rules, &m).unwrap();
        let after = model.graph_cost(&rewritten);
        assert!(after < before, "{after} should be < {before}");
        assert!(rewritten.to_string().contains("(matmul 1"));
        assert!(!rewritten.to_string().contains("relu"));
    }

    #[test]
    fn commutativity_keeps_cost_identical() {
        let mut g = GraphBuilder::new();
        let a = g.input("a", &[8, 8]);
        let b = g.input("b", &[8, 8]);
        let s = g.ewadd(a, b);
        let graph = g.finish(&[s]);
        let rules = single_rules();
        let model = CostModel::default();
        let comm_idx = rules.iter().position(|r| r.name == "ewadd-comm").unwrap();
        let m = find_substitutions(&graph, &rules)
            .into_iter()
            .find(|m| m.rule_index == comm_idx)
            .unwrap();
        let rewritten = apply_substitution(&graph, &rules, &m).unwrap();
        assert!((model.graph_cost(&rewritten) - model.graph_cost(&graph)).abs() < 1e-9);
    }

    #[test]
    fn rewritten_graphs_stay_well_typed() {
        let mut g = GraphBuilder::new();
        let x = g.input("x", &[16, 32]);
        let w1 = g.weight("w1", &[32, 32]);
        let w2 = g.weight("w2", &[32, 32]);
        let m1 = g.matmul_act(Activation::Relu, x, w1);
        let m2 = g.matmul_act(Activation::Relu, x, w2);
        let s = g.ewadd(m1, m2);
        let graph = g.finish(&[s]);
        let rules = single_rules();
        for m in find_substitutions(&graph, &rules).into_iter().take(50) {
            if let Some(rewritten) = apply_substitution(&graph, &rules, &m) {
                assert!(tensat_ir::infer_recexpr(&rewritten)
                    .iter()
                    .all(|d| d.is_valid()));
            }
        }
    }
}
