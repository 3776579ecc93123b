//! The single-pattern rewrite-rule set.
//!
//! These rules follow TASO's generated substitution set (Jia et al. 2019),
//! restricted to the hand-auditable core that drives the optimizations the
//! paper reports: operator fusion, linearity of matmul/conv over addition,
//! concat/split algebra, and transpose algebra. Every rule carries the
//! standard shape-checking condition of [`crate::conditions::shape_check`].

use crate::conditions::{involutive_permutation, shape_check};
use crate::parser::parse_pattern;
use std::sync::Arc;
use tensat_egraph::{Rewrite, Var};
use tensat_ir::{decode_permutation, TensorAnalysis, TensorData, TensorLang};

/// A rewrite over the tensor language with shape analysis.
pub type TensorRewrite = Rewrite<TensorLang, TensorAnalysis>;

/// Builds a shape-checked rewrite from textual left/right patterns: the
/// rule's condition is [`shape_check`] of the right-hand side.
///
/// # Panics
///
/// Panics if either pattern fails to parse or the right-hand side uses a
/// variable not bound on the left — rule definitions are static program
/// data, so failing fast at construction is the right behaviour.
pub fn rw(name: &str, lhs: &str, rhs: &str) -> TensorRewrite {
    let searcher =
        parse_pattern(lhs).unwrap_or_else(|e| panic!("rule {name}: bad LHS pattern `{lhs}`: {e}"));
    let applier =
        parse_pattern(rhs).unwrap_or_else(|e| panic!("rule {name}: bad RHS pattern `{rhs}`: {e}"));
    // Rule definitions are static program data: compile the e-matching
    // program up front so the first exploration iteration pays no
    // compilation cost (clones of the rule inherit the compiled program).
    searcher.precompile();
    Rewrite::new_conditional(name, searcher, applier.clone(), shape_check(applier))
}

/// Builds both directions of a bidirectional rule, naming them `name` and
/// `name-rev`.
pub fn rw_bidi(name: &str, lhs: &str, rhs: &str) -> Vec<TensorRewrite> {
    vec![rw(name, lhs, rhs), rw(&format!("{name}-rev"), rhs, lhs)]
}

/// The double-transpose elimination rule. Its
/// [`Condition`](tensat_egraph::Condition) requires the permutation bound
/// to `?p` to be self-inverse: search finds every structural match, and the
/// condition is what keeps `x` from being unioned with a non-involutive
/// double transpose.
fn double_transpose_rule() -> TensorRewrite {
    let searcher = parse_pattern("(transpose (transpose ?x ?p) ?p)").unwrap();
    let applier = parse_pattern("?x").unwrap();
    fn involutive_data(d: &TensorData) -> bool {
        match d {
            TensorData::Str(sym) => decode_permutation(*sym)
                .map(|perm| involutive_permutation(&perm))
                .unwrap_or(false),
            _ => false,
        }
    }
    let cond = Arc::new(
        |egraph: &tensat_egraph::EGraph<TensorLang, TensorAnalysis>,
         _class: tensat_egraph::Id,
         subst: &tensat_egraph::Subst| {
            subst
                .get(Var::new("p"))
                .is_some_and(|p| involutive_data(&egraph.eclass(p).data))
        },
    );
    Rewrite::new_conditional("double-transpose", searcher, applier, cond)
}

/// The full single-pattern rule set.
///
/// Rule families (names in parentheses):
///
/// * element-wise algebra: commutativity and associativity of `ewadd` /
///   `ewmul`, distributivity (`ewadd-*`, `ewmul-*`)
/// * matmul algebra: associativity, linearity over `ewadd`
///   (`matmul-assoc`, `matmul-linear*`)
/// * operator fusion: activations fused into matmul/conv
///   (`fuse-*`, and the reverse unfuse rules)
/// * conv linearity over weights and inputs (`conv-add-weights`,
///   `conv-concat-inputs`)
/// * concat/split algebra: split of concat, concat of matmuls/convs
///   sharing an input (`split-concat-*`, `concat-matmul`, `concat-conv`)
/// * transpose algebra (`double-transpose`, `transpose-matmul`)
/// * the Figure 11 batching rule (`batch-matmul-add`)
pub fn single_rules() -> Vec<TensorRewrite> {
    let mut rules = vec![];

    // --- element-wise algebra ------------------------------------------------
    rules.push(rw("ewadd-comm", "(ewadd ?x ?y)", "(ewadd ?y ?x)"));
    rules.extend(rw_bidi(
        "ewadd-assoc",
        "(ewadd ?x (ewadd ?y ?z))",
        "(ewadd (ewadd ?x ?y) ?z)",
    ));
    rules.push(rw("ewmul-comm", "(ewmul ?x ?y)", "(ewmul ?y ?x)"));
    rules.extend(rw_bidi(
        "ewmul-assoc",
        "(ewmul ?x (ewmul ?y ?z))",
        "(ewmul (ewmul ?x ?y) ?z)",
    ));
    rules.extend(rw_bidi(
        "distribute-mul-over-add",
        "(ewmul (ewadd ?x ?y) ?z)",
        "(ewadd (ewmul ?x ?z) (ewmul ?y ?z))",
    ));

    // --- matmul algebra ------------------------------------------------------
    rules.extend(rw_bidi(
        "matmul-assoc",
        "(matmul 0 ?a (matmul 0 ?b ?c))",
        "(matmul 0 (matmul 0 ?a ?b) ?c)",
    ));
    rules.extend(rw_bidi(
        "matmul-linear-rhs",
        "(matmul 0 ?a (ewadd ?b ?c))",
        "(ewadd (matmul 0 ?a ?b) (matmul 0 ?a ?c))",
    ));
    rules.extend(rw_bidi(
        "matmul-linear-lhs",
        "(matmul 0 (ewadd ?a ?b) ?c)",
        "(ewadd (matmul 0 ?a ?c) (matmul 0 ?b ?c))",
    ));

    // --- operator fusion -----------------------------------------------------
    rules.extend(rw_bidi(
        "fuse-matmul-relu",
        "(relu (matmul 0 ?a ?b))",
        "(matmul 1 ?a ?b)",
    ));
    rules.extend(rw_bidi(
        "fuse-matmul-tanh",
        "(tanh (matmul 0 ?a ?b))",
        "(matmul 2 ?a ?b)",
    ));
    rules.extend(rw_bidi(
        "fuse-matmul-sigmoid",
        "(sigmoid (matmul 0 ?a ?b))",
        "(matmul 3 ?a ?b)",
    ));
    rules.extend(rw_bidi(
        "fuse-conv-relu",
        "(relu (conv ?sh ?sw ?p 0 ?x ?w))",
        "(conv ?sh ?sw ?p 1 ?x ?w)",
    ));

    // --- conv linearity ------------------------------------------------------
    // conv(x, w1) + conv(x, w2) == conv(x, w1 + w2): convolution is linear
    // in the weights; the weight addition is pre-computable.
    rules.extend(rw_bidi(
        "conv-add-weights",
        "(ewadd (conv ?sh ?sw ?p 0 ?x ?w1) (conv ?sh ?sw ?p 0 ?x ?w2))",
        "(conv ?sh ?sw ?p 0 ?x (ewadd ?w1 ?w2))",
    ));
    // conv(x1, w1) + conv(x2, w2) == conv(concat_c(x1,x2), concat_c(w1,w2)):
    // summing over concatenated input channels (paper Fig. 10).
    rules.extend(rw_bidi(
        "conv-concat-inputs",
        "(ewadd (conv ?sh ?sw ?p 0 ?x1 ?w1) (conv ?sh ?sw ?p 0 ?x2 ?w2))",
        "(conv ?sh ?sw ?p 0 (concat2 1 ?x1 ?x2) (concat2 1 ?w1 ?w2))",
    ));

    // --- concat / split algebra ---------------------------------------------
    rules.push(rw(
        "split0-of-concat",
        "(split0 (split ?ax (concat2 ?ax ?x ?y)))",
        "?x",
    ));
    rules.push(rw(
        "split1-of-concat",
        "(split1 (split ?ax (concat2 ?ax ?x ?y)))",
        "?y",
    ));
    // concat of two matmuls sharing the data input == matmul of concatenated
    // weights (paper Fig. 8 as a single-pattern rule).
    rules.extend(rw_bidi(
        "concat-matmul",
        "(concat2 1 (matmul ?act ?x ?w1) (matmul ?act ?x ?w2))",
        "(matmul ?act ?x (concat2 1 ?w1 ?w2))",
    ));
    // concat (over output channels) of two convs sharing the input == conv
    // with concatenated weights (paper Fig. 9 as a single-pattern rule).
    rules.extend(rw_bidi(
        "concat-conv",
        "(concat2 1 (conv ?sh ?sw ?p ?act ?x ?w1) (conv ?sh ?sw ?p ?act ?x ?w2))",
        "(conv ?sh ?sw ?p ?act ?x (concat2 0 ?w1 ?w2))",
    ));
    // Batching two matmuls whose outputs are added (paper Fig. 11):
    // x·w1 + y·w2 == [x y]·[w1; w2].
    rules.extend(rw_bidi(
        "batch-matmul-add",
        "(ewadd (matmul 0 ?x ?w1) (matmul 0 ?y ?w2))",
        "(matmul 0 (concat2 1 ?x ?y) (concat2 0 ?w1 ?w2))",
    ));

    // --- transpose algebra ---------------------------------------------------
    rules.push(double_transpose_rule());
    rules.extend(rw_bidi(
        "transpose-matmul",
        "(transpose (matmul 0 ?a ?b) \"1_0\")",
        "(matmul 0 (transpose ?b \"1_0\") (transpose ?a \"1_0\"))",
    ));

    rules
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensat_egraph::{AstSize, Extractor};
    use tensat_ir::{CostModel, GraphBuilder, TensorEGraph};

    /// Up to 10 rounds of search every rule, apply every match list,
    /// rebuild — stopping early once a round applies nothing.
    fn saturate(expr: &tensat_egraph::RecExpr<TensorLang>) -> (TensorEGraph, tensat_egraph::Id) {
        let rules = single_rules();
        let mut egraph = TensorEGraph::new(TensorAnalysis);
        let root = egraph.add_expr(expr);
        egraph.rebuild();
        for _ in 0..10 {
            let matches: Vec<_> = rules.iter().map(|rw| rw.search(&egraph)).collect();
            let applied: usize = rules
                .iter()
                .zip(&matches)
                .map(|(rw, ms)| rw.apply(&mut egraph, ms))
                .sum();
            egraph.rebuild();
            if applied == 0 {
                break;
            }
        }
        (egraph, root)
    }

    #[test]
    fn rule_set_is_well_formed() {
        let rules = single_rules();
        assert!(rules.len() >= 25, "expected a substantial rule set");
        let mut names: Vec<&str> = rules.iter().map(|r| r.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), rules.len(), "rule names must be unique");
    }

    #[test]
    fn fusion_rule_fires_and_improves_cost() {
        let mut g = GraphBuilder::new();
        let x = g.input("x", &[64, 256]);
        let w = g.weight("w", &[256, 256]);
        let m = g.matmul(x, w);
        let r = g.relu(m);
        let expr = g.finish(&[r]);
        let cm = CostModel::default();
        let original = cm.graph_cost(&expr);

        let (eg, root) = saturate(&expr);
        // The fused matmul must now be represented in the root class.
        let ex = Extractor::new(&eg, AstSize);
        let (_, smallest) = ex.find_best(root).unwrap();
        assert!(
            smallest.to_string().contains("matmul 1") || smallest.to_string().contains("(matmul 1")
        );
        assert!(cm.graph_cost(&smallest) < original);
    }

    #[test]
    fn split_of_concat_cancels() {
        let mut g = GraphBuilder::new();
        let a = g.weight("a", &[16, 8]);
        let b = g.weight("b", &[16, 8]);
        let cat = g.concat2(1, a, b);
        let sp = g.split(1, cat);
        let s0 = g.split0(sp);
        let expr = g.finish(&[s0]);
        let (eg, root) = saturate(&expr);
        let ex = Extractor::new(&eg, AstSize);
        let (_, best) = ex.find_best(root).unwrap();
        // The best term is just the weight `a`.
        assert!(best.to_string().contains("weight"));
        assert!(!best.to_string().contains("concat"));
    }

    #[test]
    fn conv_add_weights_precomputes() {
        // conv(x,w1) + conv(x,w2) should collapse to a single conv with a
        // pre-computed weight sum, halving the conv work.
        let mut g = GraphBuilder::new();
        let x = g.input("x", &[1, 64, 28, 28]);
        let w1 = g.weight("w1", &[64, 64, 3, 3]);
        let w2 = g.weight("w2", &[64, 64, 3, 3]);
        let c1 = g.conv(
            x,
            w1,
            (1, 1),
            tensat_ir::Padding::Same,
            tensat_ir::Activation::None,
        );
        let c2 = g.conv(
            x,
            w2,
            (1, 1),
            tensat_ir::Padding::Same,
            tensat_ir::Activation::None,
        );
        let sum = g.ewadd(c1, c2);
        let expr = g.finish(&[sum]);
        let cm = CostModel::default();
        let original = cm.graph_cost(&expr);
        let (eg, root) = saturate(&expr);
        // Extract by actual cost: pick per-class min-cost nodes greedily.
        let ex = Extractor::new(&eg, crate::testing::GraphCost::new(cm.clone(), &eg));
        let (_, best) = ex.find_best(root).unwrap();
        assert!(
            cm.graph_cost(&best) < original * 0.75,
            "expected ≥25% improvement, got {} -> {}",
            original,
            cm.graph_cost(&best)
        );
    }

    #[test]
    fn shape_check_blocks_invalid_batching() {
        // Two matmuls with incompatible inner dimensions must not be batched
        // by the Fig. 11 rule into an ill-typed graph: saturation must never
        // produce an invalid e-class that extraction could pick.
        let mut g = GraphBuilder::new();
        let x = g.input("x", &[8, 32]);
        let y = g.input("y", &[8, 16]);
        let w1 = g.weight("w1", &[32, 8]);
        let w2 = g.weight("w2", &[16, 8]);
        let m1 = g.matmul(x, w1);
        let m2 = g.matmul(y, w2);
        let s = g.ewadd(m1, m2);
        let expr = g.finish(&[s]);
        let (eg, root) = saturate(&expr);
        let ex = Extractor::new(&eg, AstSize);
        let (_, best) = ex.find_best(root).unwrap();
        let data = tensat_ir::infer_recexpr(&best);
        assert!(data.iter().all(|d| d.is_valid()));
    }

    /// Search finds a non-involutive double transpose — it is a structural
    /// match — and the rule's condition is what refuses it: applying the
    /// matches unions nothing.
    #[test]
    fn non_involutive_double_transpose_is_rejected_by_its_condition() {
        let mut g = GraphBuilder::new();
        let x = g.input("x", &[4, 5, 6]);
        let t1 = g.transpose(x, &[1, 2, 0]); // 3-cycle: not self-inverse
        let t2 = g.transpose(t1, &[1, 2, 0]);
        let expr = g.finish(&[t2]);
        let mut eg = TensorEGraph::new(TensorAnalysis);
        eg.add_expr(&expr);
        eg.rebuild();

        let rule = single_rules()
            .into_iter()
            .find(|r| r.name == "double-transpose")
            .expect("rule exists");
        let matches = rule.search(&eg);
        assert_eq!(matches.len(), 1);
        let unions_before = eg.union_count();
        assert_eq!(rule.apply(&mut eg, &matches), 0);
        assert_eq!(eg.union_count(), unions_before);
        // An involutive permutation still goes through end to end.
        let mut g = GraphBuilder::new();
        let x = g.input("x", &[4, 5]);
        let t1 = g.transpose(x, &[1, 0]);
        let t2 = g.transpose(t1, &[1, 0]);
        let expr = g.finish(&[t2]);
        let mut eg = TensorEGraph::new(TensorAnalysis);
        eg.add_expr(&expr);
        eg.rebuild();
        assert_eq!(rule.search(&eg).len(), 1);
    }

    #[test]
    fn double_transpose_eliminated() {
        let mut g = GraphBuilder::new();
        let x = g.input("x", &[8, 16]);
        let t1 = g.transpose(x, &[1, 0]);
        let t2 = g.transpose(t1, &[1, 0]);
        let expr = g.finish(&[t2]);
        let (eg, root) = saturate(&expr);
        let ex = Extractor::new(&eg, AstSize);
        let (_, best) = ex.find_best(root).unwrap();
        assert!(!best.to_string().contains("transpose"));
    }
}

/// Test-support cost function shared by this crate's tests and downstream
/// crates' tests: greedy extraction directly by the analytical cost model.
pub mod testing {
    use tensat_egraph::{CostFunction, Id, Language};
    use tensat_ir::{CostModel, TensorAnalysis, TensorData, TensorLang};

    /// A [`CostFunction`] that charges each e-node its cost-model cost.
    /// Children data is read from a snapshot of the e-graph analysis taken
    /// at construction time.
    #[derive(Debug, Clone)]
    pub struct GraphCost {
        model: CostModel,
        class_data: std::collections::HashMap<Id, TensorData>,
    }

    impl GraphCost {
        /// Snapshots the analysis data of `egraph` for cost evaluation.
        pub fn new(
            model: CostModel,
            egraph: &tensat_egraph::EGraph<TensorLang, TensorAnalysis>,
        ) -> Self {
            let class_data = egraph.classes().map(|c| (c.id, c.data.clone())).collect();
            GraphCost { model, class_data }
        }
    }

    impl CostFunction<TensorLang> for GraphCost {
        type Cost = f64;
        fn cost<C>(&mut self, enode: &TensorLang, mut costs: C) -> f64
        where
            C: FnMut(Id) -> f64,
        {
            let get = |id: Id| {
                self.class_data
                    .get(&id)
                    .cloned()
                    .unwrap_or_else(|| TensorData::invalid("unknown class"))
            };
            let own = self.model.node_cost(enode, &get);
            enode.children().iter().fold(own, |acc, &c| acc + costs(c))
        }
    }
}
