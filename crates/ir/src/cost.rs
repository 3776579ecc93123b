//! The analytical operator cost model.
//!
//! TASO and TENSAT use the *measured* runtime of each operator on the
//! target GPU as its cost, and the cost of a graph is the sum of its
//! operator costs (paper §5). This reproduction has no GPU, so the cost
//! model is analytical: a roofline over FLOPs and memory traffic plus a
//! per-kernel launch overhead, with the two properties that drive every
//! profitable rewrite in the paper:
//!
//! 1. *Kernel launch amortisation* — merging two operators into one larger
//!    operator saves a launch overhead (and usually improves the roofline),
//!    so the concat/split merging rewrites (paper Fig. 8, 9, 11) pay off.
//! 2. *Weight pre-computation* — any operator whose output depends only on
//!    weights costs nothing at inference time (paper Fig. 10), so concats
//!    of weight kernels are free.
//!
//! Latency is the one objective: an e-node costs its roofline time in µs
//! ([`CostModel::node_cost`]), and every extractor — tree-greedy,
//! greedy-DAG, the ILP (paper §5.1, objective Σ cᵢxᵢ) — minimizes the sum
//! of those times over the chosen e-nodes. The greedy extractors take the
//! model itself as their [`CostFunction`].

use crate::shape::{infer, infer_recexpr, TensorData};
use crate::{TensorAnalysis, TensorLang};
use std::cmp::Ordering;
use tensat_egraph::{CostFunction, EGraph, Id, Language, RecExpr};

/// The cost of an extracted graph: its summed operator latency. A struct
/// around the one `f64` that [`CostModel::graph_cost`] returns, kept for
/// the readers of `ExtractionOutcome::cost` and
/// [`CostModel::graph_cost_composite`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cost {
    /// Summed operator latency in microseconds — the paper's objective.
    pub latency: f64,
}

impl Cost {
    /// True if the latency is finite.
    pub fn is_finite(&self) -> bool {
        self.latency.is_finite()
    }

    /// The latencies under [`f64::total_cmp`]: a NaN, which
    /// [`CostModel::node_cost`] returns without the sign bit, orders above
    /// `+inf` and never wins a minimum.
    pub fn total_order(&self, other: &Cost) -> Ordering {
        self.latency.total_cmp(&other.latency)
    }
}

/// Analytical GPU cost model. Costs are in microseconds.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Peak arithmetic throughput in FLOPs per microsecond.
    pub flops_per_us: f64,
    /// Peak memory bandwidth in bytes per microsecond.
    pub bytes_per_us: f64,
    /// Fixed overhead per kernel launch, in microseconds.
    pub launch_overhead_us: f64,
    /// Bytes per tensor element (fp32).
    pub bytes_per_element: f64,
    /// Additional cost charged for a fused activation, in microseconds
    /// (small but non-zero so fused and unfused graphs are distinguishable).
    pub fused_activation_us: f64,
}

impl Default for CostModel {
    /// Parameters loosely modelled on an NVIDIA T4: ~8 TFLOPS fp32,
    /// ~300 GB/s, ~5 µs launch overhead.
    fn default() -> Self {
        CostModel {
            flops_per_us: 8.0e6,
            bytes_per_us: 300.0e3,
            launch_overhead_us: 5.0,
            bytes_per_element: 4.0,
            fused_activation_us: 0.1,
        }
    }
}

impl CostModel {
    fn roofline(&self, flops: f64, bytes: f64) -> f64 {
        self.launch_overhead_us + (flops / self.flops_per_us).max(bytes / self.bytes_per_us)
    }

    fn memory_only(&self, bytes: f64) -> f64 {
        self.launch_overhead_us + bytes / self.bytes_per_us
    }

    /// The latency in µs of a single operator node — its roofline time —
    /// given a function borrowing the [`TensorData`] of each child; children
    /// are read in place, so the only allocation is the inferred output.
    ///
    /// Free nodes cost 0: parameter leaves, `input`/`weight`, `noop`,
    /// metadata-only ops (`split0`, `split1`, `reshape`, `merge`), and any
    /// operator whose output is computable from weights alone. An
    /// ill-typed node costs `+inf`, and a NaN latency (from a NaN
    /// parameter) is always the positive [`f64::NAN`].
    pub fn node_cost<'a>(&self, node: &TensorLang, get: &dyn Fn(Id) -> &'a TensorData) -> f64 {
        use TensorLang as L;

        // Parameter leaves and graph plumbing are free.
        match node {
            L::Num(_) | L::Str(_) | L::Input(_) | L::Weight(_) | L::Noop(_) => return 0.0,
            L::Split0(_) | L::Split1(_) | L::Reshape(_) | L::Merge(_) => return 0.0,
            _ => {}
        }

        let out = infer(node, get);
        // Ill-typed nodes are given an infinite cost so that extraction
        // never selects them.
        let TensorData::Tensor(out_info) = &out else {
            return f64::INFINITY;
        };
        // Anything computable from weights alone is pre-computed before
        // inference and costs nothing at run time.
        if out_info.weights_only {
            return 0.0;
        }

        let out_elems = out_info.elements().max(0) as f64;
        let child_tensor =
            |id: Id| -> Option<f64> { get(id).as_tensor().map(|t| t.elements().max(0) as f64) };
        let sum_input_elems =
            |ids: &[Id]| -> f64 { ids.iter().filter_map(|&id| child_tensor(id)).sum() };
        // A fused activation: one more FLOP per output element, and its
        // fixed charge in µs.
        let activation = |act: Id| -> (f64, f64) {
            match get(act).as_scalar().unwrap_or(0) {
                0 => (0.0, 0.0),
                _ => (out_elems, self.fused_activation_us),
            }
        };

        let latency = match node {
            L::Ewadd([a, b]) | L::Ewmul([a, b]) => {
                let bytes = (sum_input_elems(&[*a, *b]) + out_elems) * self.bytes_per_element;
                self.roofline(out_elems, bytes)
            }
            L::Relu([x]) | L::Tanh([x]) | L::Sigmoid([x]) => {
                let bytes = (sum_input_elems(&[*x]) + out_elems) * self.bytes_per_element;
                self.roofline(out_elems, bytes)
            }
            L::Matmul([act, a, b]) => {
                let sa = match (get(*a).shape(), get(*b).shape()) {
                    (Some(sa), Some(_)) => sa,
                    _ => return f64::INFINITY,
                };
                let (act_flops, act_us) = activation(*act);
                let flops = 2.0 * out_elems * sa[sa.len() - 1] as f64 + act_flops;
                let bytes = (sum_input_elems(&[*a, *b]) + out_elems) * self.bytes_per_element;
                self.roofline(flops, bytes) + act_us
            }
            L::Conv([_sh, _sw, _pad, act, x, w]) => {
                let (ci, kh, kw) = match get(*w).shape() {
                    Some(&[_, ci, kh, kw]) => (ci as f64, kh as f64, kw as f64),
                    _ => return f64::INFINITY,
                };
                let (act_flops, act_us) = activation(*act);
                let flops = 2.0 * out_elems * ci * kh * kw + act_flops;
                let bytes = (sum_input_elems(&[*x, *w]) + out_elems) * self.bytes_per_element;
                self.roofline(flops, bytes) + act_us
            }
            L::Poolmax([x, kh, kw, ..]) | L::Poolavg([x, kh, kw, ..]) => {
                let k = get(*kh).as_scalar().unwrap_or(1) as f64
                    * get(*kw).as_scalar().unwrap_or(1) as f64;
                let flops = out_elems * k;
                let bytes = (sum_input_elems(&[*x]) + out_elems) * self.bytes_per_element;
                self.roofline(flops, bytes)
            }
            L::Transpose([x, _]) => {
                let bytes = (sum_input_elems(&[*x]) + out_elems) * self.bytes_per_element;
                self.memory_only(bytes)
            }
            L::Enlarge([x, _]) => {
                let bytes = (sum_input_elems(&[*x]) + out_elems) * self.bytes_per_element;
                self.memory_only(bytes)
            }
            L::Concat2(_) | L::Concat3(_) | L::Concat4(_) | L::Concat5(_) => {
                let rest = &node.children()[1..];
                let bytes = (sum_input_elems(rest) + out_elems) * self.bytes_per_element;
                self.memory_only(bytes)
            }
            // Handled above (zero cost) — unreachable here.
            L::Num(_)
            | L::Str(_)
            | L::Input(_)
            | L::Weight(_)
            | L::Noop(_)
            | L::Split0(_)
            | L::Split1(_)
            | L::Reshape(_)
            | L::Merge(_) => 0.0,
        };
        // A NaN parameter makes a NaN latency, which x86 arithmetic gives
        // the sign bit that puts it below `-inf` under `f64::total_cmp`;
        // cleared, every NaN orders above `+inf` and never wins a minimum.
        if latency.is_nan() {
            f64::NAN
        } else {
            latency
        }
    }

    /// The latency of an e-node inside an e-graph ([`CostModel::node_cost`]
    /// over its children's class data).
    pub fn enode_cost(
        &self,
        egraph: &EGraph<TensorLang, TensorAnalysis>,
        enode: &TensorLang,
    ) -> f64 {
        self.node_cost(enode, &|id| &egraph.eclass(id).data)
    }

    /// The total cost (µs) of a concrete tensor graph. Structurally
    /// identical nodes are counted once (the graph is a DAG; shared
    /// sub-computations run once), matching how TASO costs graphs.
    pub fn graph_cost(&self, expr: &RecExpr<TensorLang>) -> f64 {
        let data = infer_recexpr(expr);
        let get_all = |id: Id| &data[usize::from(id)];
        let mut seen: std::collections::HashSet<&TensorLang> = Default::default();
        let mut total = 0.0;
        for (_, node) in expr.iter() {
            if seen.insert(node) {
                total += self.node_cost(node, &get_all);
            }
        }
        total
    }

    /// [`CostModel::graph_cost`] as a [`Cost`].
    pub fn graph_cost_composite(&self, expr: &RecExpr<TensorLang>) -> Cost {
        Cost {
            latency: self.graph_cost(expr),
        }
    }

    /// The *tree* cost (µs) of a concrete tensor graph: each node charged
    /// once **per use**, i.e. what the cost would be if shared subgraphs
    /// were recomputed at every reference. This is the objective the
    /// tree-greedy extractor actually minimizes; reporting it next to the
    /// DAG cost ([`CostModel::graph_cost`]) keeps extractor comparisons
    /// honest.
    pub fn tree_cost(&self, expr: &RecExpr<TensorLang>) -> f64 {
        let data = infer_recexpr(expr);
        let get_all = |id: Id| &data[usize::from(id)];
        // Multiplicity pass: the root is used once; every node passes its
        // own multiplicity to each child reference. Children precede
        // parents in a RecExpr, so iterate in reverse.
        let n = expr.len();
        let mut mult = vec![0.0f64; n];
        if n > 0 {
            mult[n - 1] = 1.0;
        }
        let mut total = 0.0;
        for (i, node) in expr.nodes().iter().enumerate().rev() {
            let m = mult[i];
            if m == 0.0 {
                continue;
            }
            total += m * self.node_cost(node, &get_all);
            for &c in node.children() {
                mult[usize::from(c)] += m;
            }
        }
        total
    }
}

/// Tree-greedy and greedy-DAG price an e-node of an e-graph at its latency
/// ([`CostModel::enode_cost`]).
impl CostFunction<TensorLang, TensorAnalysis> for CostModel {
    fn node_cost(&self, egraph: &EGraph<TensorLang, TensorAnalysis>, enode: &TensorLang) -> f64 {
        self.enode_cost(egraph, enode)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::lang::Activation;
    use tensat_egraph::{DagExtractor, Extractor};

    #[test]
    fn weights_only_subgraphs_are_free() {
        let mut g = GraphBuilder::new();
        let w1 = g.weight("w1", &[64, 64]);
        let w2 = g.weight("w2", &[64, 64]);
        let cat = g.concat2(1, w1, w2);
        let expr = g.finish(&[cat]);
        let cm = CostModel::default();
        assert_eq!(cm.graph_cost(&expr), 0.0);
    }

    #[test]
    fn merged_matmul_is_cheaper_than_two() {
        // Two matmuls sharing an input versus one matmul on concatenated
        // weights followed by split: the merged form must be cheaper (this
        // is the economics behind the paper's Fig. 8/Fig. 2 rewrite).
        let cm = CostModel::default();

        let mut g = GraphBuilder::new();
        let x = g.input("x", &[64, 256]);
        let w1 = g.weight("w1", &[256, 256]);
        let w2 = g.weight("w2", &[256, 256]);
        let m1 = g.matmul(x, w1);
        let m2 = g.matmul(x, w2);
        let two = g.finish(&[m1, m2]);

        let mut g = GraphBuilder::new();
        let x = g.input("x", &[64, 256]);
        let w1 = g.weight("w1", &[256, 256]);
        let w2 = g.weight("w2", &[256, 256]);
        let cat = g.concat2(1, w1, w2);
        let mm = g.matmul(x, cat);
        let s0 = g.split0(1, 256, mm);
        let s1 = g.split1(1, 256, mm);
        let merged = g.finish(&[s0, s1]);

        let c_two = cm.graph_cost(&two);
        let c_merged = cm.graph_cost(&merged);
        assert!(
            c_merged < c_two,
            "merged {c_merged} should be cheaper than separate {c_two}"
        );
    }

    #[test]
    fn fused_activation_is_cheaper_than_separate_relu() {
        let cm = CostModel::default();
        let mut g = GraphBuilder::new();
        let x = g.input("x", &[64, 256]);
        let w = g.weight("w", &[256, 256]);
        let m = g.matmul(x, w);
        let r = g.relu(m);
        let unfused = g.finish(&[r]);

        let mut g = GraphBuilder::new();
        let x = g.input("x", &[64, 256]);
        let w = g.weight("w", &[256, 256]);
        let m = g.matmul_act(Activation::Relu, x, w);
        let fused = g.finish(&[m]);

        assert!(cm.graph_cost(&fused) < cm.graph_cost(&unfused));
    }

    #[test]
    fn shared_subgraphs_counted_once() {
        let cm = CostModel::default();
        let mut g = GraphBuilder::new();
        let x = g.input("x", &[64, 256]);
        let w = g.weight("w", &[256, 256]);
        let m = g.matmul(x, w);
        let s = g.ewadd(m, m);
        let expr = g.finish(&[s]);
        let cost_shared = cm.graph_cost(&expr);

        let mut g = GraphBuilder::new();
        let x = g.input("x", &[64, 256]);
        let w = g.weight("w", &[256, 256]);
        let m = g.matmul(x, w);
        let expr_single = g.finish(&[m]);
        let cost_single = cm.graph_cost(&expr_single);

        // The shared version adds only an elementwise op on top of a single
        // matmul (the matmul is not double counted), so it must cost less
        // than two matmuls and more than one.
        assert!(cost_shared < cost_single * 2.0);
        assert!(cost_shared > cost_single);
    }

    #[test]
    fn invalid_nodes_cost_infinity() {
        let cm = CostModel::default();
        let mut g = GraphBuilder::new();
        let a = g.input("a", &[8, 100]);
        let b = g.weight("b", &[128, 64]);
        let m = g.matmul(a, b); // inner dims mismatch
        let expr = g.finish(&[m]);
        assert!(cm.graph_cost(&expr).is_infinite());
        assert!(!cm.graph_cost_composite(&expr).is_finite());
    }

    #[test]
    fn element_counts_that_overflow_i64_are_invalid_and_cost_infinity() {
        let cm = CostModel::default();
        let invalid = |expr: &RecExpr<TensorLang>| {
            let data = infer_recexpr(expr);
            data.iter().filter(|d| !d.is_valid()).count()
        };
        // An input of 2^66 elements, and the relu reading it.
        let mut g = GraphBuilder::new();
        let x = g.input("x", &[1 << 32, 1 << 32, 4]);
        let r = g.relu(x);
        let relu = g.finish(&[r]);
        assert_eq!(invalid(&relu), 2);
        // [2^31, 1] x [1, 2^33]: both operands fit, the 2^64-element output
        // does not.
        let mut g = GraphBuilder::new();
        let a = g.input("a", &[1 << 31, 1]);
        let b = g.weight("b", &[1, 1 << 33]);
        let m = g.matmul(a, b);
        let matmul = g.finish(&[m]);
        assert_eq!(invalid(&matmul), 1);
        // A concat whose axis length overflows.
        let mut g = GraphBuilder::new();
        let a = g.input("a", &[1 << 62]);
        let b = g.input("b", &[1 << 62]);
        let c = g.concat2(0, a, b);
        let concat = g.finish(&[c]);
        assert_eq!(invalid(&concat), 1);
        for expr in [&relu, &matmul, &concat] {
            assert!(cm.graph_cost(expr).is_infinite(), "{expr}");
            assert!(!cm.graph_cost_composite(expr).is_finite(), "{expr}");
        }
        // A merge whose channel count overflows (merge is metadata-only, so
        // it costs nothing either way).
        let mut g = GraphBuilder::new();
        let w = g.weight("w", &[1, 1 << 62, 1, 1]);
        let m = g.merge(w, 4);
        assert_eq!(invalid(&g.finish(&[m])), 1);
        // A reshape to an overflowing target is the same invalid, and a
        // plain mismatch names both counts.
        let reason = |shape: &[i64]| {
            let mut g = GraphBuilder::new();
            let x = g.input("x", &[2, 3]);
            let r = g.reshape(x, shape);
            infer_recexpr(&g.finish(&[r])).pop().unwrap()
        };
        assert_eq!(
            reason(&[1 << 32, 1 << 32]),
            TensorData::invalid("element count overflows i64")
        );
        assert_eq!(
            reason(&[2, 4]),
            TensorData::invalid("reshape element count mismatch: 6 vs 8")
        );
        // Same padding on a dimension of i64::MAX: the output fits.
        let mut g = GraphBuilder::new();
        let x = g.input("x", &[1, 1, 1, i64::MAX]);
        let p = g.poolmax(x, (1, 1), (2, 2), crate::Padding::Same);
        let pool = g.finish(&[p]);
        assert_eq!(invalid(&pool), 0);
        assert!(cm.graph_cost(&pool).is_finite());
    }

    #[test]
    fn composite_cost_components_are_consistent() {
        let cm = CostModel::default();
        let mut g = GraphBuilder::new();
        let x = g.input("x", &[64, 256]);
        let w = g.weight("w", &[256, 256]);
        let m = g.matmul(x, w);
        let r = g.relu(m);
        let expr = g.finish(&[r]);
        // The wrapper's latency is the scalar model's, to the bit.
        let composite = cm.graph_cost_composite(&expr);
        assert_eq!(composite.latency.to_bits(), cm.graph_cost(&expr).to_bits());
        assert!(composite.is_finite());
    }

    /// A NaN-priced e-node never wins its class: the extractors compare
    /// by [`f64::total_cmp`] (a NaN without the sign bit above `+inf`): a cost model whose fused-activation charge is NaN prices
    /// the fused `matmul` NaN, and both greedy extractors pick the unfused
    /// `relu(matmul)` it is unioned with, whichever of the two the class
    /// lists first. The charge is NaN of either sign: `0.0 / 0.0` computed
    /// at run time on x86 has the sign bit set.
    #[test]
    fn a_nan_priced_enode_never_wins_its_class() {
        for nan in [f64::NAN, -f64::NAN] {
            assert_nan_priced_enode_loses(nan);
        }
    }

    fn assert_nan_priced_enode_loses(nan: f64) {
        let cm = CostModel {
            fused_activation_us: nan,
            ..CostModel::default()
        };
        let graph = |fused: bool| {
            let mut g = GraphBuilder::new();
            let x = g.input("x", &[64, 256]);
            let w = g.weight("w", &[256, 256]);
            let out = if fused {
                g.matmul_act(Activation::Relu, x, w)
            } else {
                let m = g.matmul(x, w);
                g.relu(m)
            };
            g.finish(&[out])
        };
        let (fused, unfused) = (graph(true), graph(false));
        assert!(cm.graph_cost(&fused).is_nan());
        for (first, second) in [(&fused, &unfused), (&unfused, &fused)] {
            let mut eg = EGraph::new(TensorAnalysis);
            let root = eg.add_expr(first);
            let other = eg.add_expr(second);
            eg.union(root, other);
            eg.rebuild();
            let root = eg.find(root);
            let tree = Extractor::new(&eg, &cm).find_best(root);
            let dag = DagExtractor::new(&eg, &cm).find_best(root);
            for (cost, expr) in [tree.unwrap(), dag.unwrap()] {
                assert_eq!(expr.to_string(), unfused.to_string(), "{nan:?}");
                assert!(cost.is_finite(), "{nan:?}: {cost}");
            }
        }
    }

    #[test]
    fn tree_cost_charges_shared_subgraphs_per_use() {
        let cm = CostModel::default();
        let mut g = GraphBuilder::new();
        let x = g.input("x", &[64, 256]);
        let w = g.weight("w", &[256, 256]);
        let m = g.matmul(x, w);
        let s = g.ewadd(m, m);
        let expr = g.finish(&[s]);

        let dag = cm.graph_cost(&expr);
        let tree = cm.tree_cost(&expr);
        // The matmul is shared by both ewadd operands: tree pays it twice.
        let mut g = GraphBuilder::new();
        let x = g.input("x", &[64, 256]);
        let w = g.weight("w", &[256, 256]);
        let m = g.matmul(x, w);
        let single = g.finish(&[m]);
        let matmul_cost = cm.graph_cost(&single);
        assert!((tree - dag - matmul_cost).abs() < 1e-9);

        // On a sharing-free graph the two costs agree.
        let mut g = GraphBuilder::new();
        let x = g.input("x", &[64, 256]);
        let w = g.weight("w", &[256, 256]);
        let m = g.matmul(x, w);
        let r = g.relu(m);
        let linear = g.finish(&[r]);
        assert!((cm.tree_cost(&linear) - cm.graph_cost(&linear)).abs() < 1e-9);
    }
}
