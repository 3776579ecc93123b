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

use crate::shape::{infer, infer_recexpr, TensorData};
use crate::{TensorAnalysis, TensorLang};
use std::cmp::Ordering;
use std::ops::{Add, AddAssign};
use tensat_egraph::{EGraph, Id, Language, RecExpr};

/// A composite, Pareto-comparable extraction cost.
///
/// The paper optimizes a single scalar (summed operator runtime); real
/// deployment also cares about memory footprint and kernel-launch count, so
/// the extraction seam carries all three and lets strategies trade them
/// off. Comparisons used by extraction are *lexicographic* — latency first,
/// peak memory, then launches — so latency remains the paper-faithful
/// primary objective and the other fields only break ties deterministically.
/// [`Cost::dominates`] gives the Pareto order for frontier surfacing.
///
/// The lexicographic order is total (each field compares with
/// [`f64::total_cmp`], under which NaN orders above `+inf` and therefore
/// never wins a minimum), so `PartialOrd::partial_cmp` never returns `None`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cost {
    /// Summed operator latency in microseconds — the paper's objective.
    pub latency: f64,
    /// Approximate peak memory in bytes: the sum of materialized operator
    /// outputs (free/metadata-only nodes materialize nothing new).
    pub peak_memory: f64,
    /// Number of kernel launches (one per non-free operator).
    pub launches: f64,
}

impl Cost {
    /// The additive identity (a free node / empty graph).
    pub const ZERO: Cost = Cost {
        latency: 0.0,
        peak_memory: 0.0,
        launches: 0.0,
    };

    /// The cost of an ill-typed node: never selected by any extractor.
    pub const INFINITE: Cost = Cost {
        latency: f64::INFINITY,
        peak_memory: f64::INFINITY,
        launches: f64::INFINITY,
    };

    /// True if every component is finite.
    pub fn is_finite(&self) -> bool {
        self.latency.is_finite() && self.peak_memory.is_finite() && self.launches.is_finite()
    }

    /// The total lexicographic order used by extraction: latency, then
    /// peak memory, then launches, each via [`f64::total_cmp`].
    pub fn total_order(&self, other: &Cost) -> Ordering {
        self.latency
            .total_cmp(&other.latency)
            .then_with(|| self.peak_memory.total_cmp(&other.peak_memory))
            .then_with(|| self.launches.total_cmp(&other.launches))
    }

    /// Pareto dominance: no component worse, at least one strictly better.
    pub fn dominates(&self, other: &Cost) -> bool {
        self.latency <= other.latency
            && self.peak_memory <= other.peak_memory
            && self.launches <= other.launches
            && (self.latency < other.latency
                || self.peak_memory < other.peak_memory
                || self.launches < other.launches)
    }
}

impl PartialOrd for Cost {
    /// Always `Some`: the lexicographic [`Cost::total_order`] is total.
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.total_order(other))
    }
}

impl Add for Cost {
    type Output = Cost;
    fn add(mut self, rhs: Cost) -> Cost {
        self += rhs;
        self
    }
}

impl AddAssign for Cost {
    fn add_assign(&mut self, rhs: Cost) {
        self.latency += rhs.latency;
        self.peak_memory += rhs.peak_memory;
        self.launches += rhs.launches;
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

    /// The cost (µs) of a single operator node, given a function yielding
    /// the [`TensorData`] of each child.
    ///
    /// Zero-cost nodes: parameter leaves, `input`/`weight`, `noop`,
    /// metadata-only ops (`split`, `split0`, `split1`, `reshape`, `merge`),
    /// and any operator whose output is computable from weights alone.
    pub fn node_cost(&self, node: &TensorLang, get: &dyn Fn(Id) -> TensorData) -> f64 {
        self.latency_and_out_elems(node, get).0
    }

    /// [`CostModel::node_cost`] and the element count of the node's output,
    /// from one shape inference (every `get` clones a child's data). The
    /// count is 0 where the latency is 0 or infinite: nothing is
    /// materialized, or nothing is selected.
    fn latency_and_out_elems(
        &self,
        node: &TensorLang,
        get: &dyn Fn(Id) -> TensorData,
    ) -> (f64, f64) {
        use TensorLang as L;
        const FREE: (f64, f64) = (0.0, 0.0);
        const ILL_TYPED: (f64, f64) = (f64::INFINITY, 0.0);

        // Parameter leaves and graph plumbing are free.
        match node {
            L::Num(_) | L::Str(_) | L::Input(_) | L::Weight(_) | L::Noop(_) => return FREE,
            L::Split(_) | L::Split0(_) | L::Split1(_) | L::Reshape(_) | L::Merge(_) => return FREE,
            _ => {}
        }

        let out = infer(node, get);
        // Ill-typed nodes are given an effectively infinite cost so that
        // extraction never selects them.
        let out_info = match &out {
            TensorData::Tensor(t) => t,
            TensorData::Tuple(a, _) => &**a,
            _ => return ILL_TYPED,
        };
        // Anything computable from weights alone is pre-computed before
        // inference and costs nothing at run time.
        if out_info.weights_only {
            return FREE;
        }

        let out_elems = out_info.elements().max(0) as f64;
        let child_tensor =
            |id: Id| -> Option<f64> { get(id).as_tensor().map(|t| t.elements().max(0) as f64) };
        let sum_input_elems =
            |ids: &[Id]| -> f64 { ids.iter().filter_map(|&id| child_tensor(id)).sum() };

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
                let ta = get(*a);
                let tb = get(*b);
                let sa = match (ta.shape(), tb.shape()) {
                    (Some(sa), Some(_)) => sa.to_vec(),
                    _ => return ILL_TYPED,
                };
                let k = sa[sa.len() - 1] as f64;
                let mut flops = 2.0 * out_elems * k;
                if get(*act).as_scalar().unwrap_or(0) != 0 {
                    flops += out_elems;
                }
                let bytes = (sum_input_elems(&[*a, *b]) + out_elems) * self.bytes_per_element;
                let fused = if get(*act).as_scalar().unwrap_or(0) != 0 {
                    self.fused_activation_us
                } else {
                    0.0
                };
                self.roofline(flops, bytes) + fused
            }
            L::Conv([_sh, _sw, _pad, act, x, w]) => {
                let tw = get(*w);
                let sw_shape = match tw.shape() {
                    Some(s) if s.len() == 4 => s.to_vec(),
                    _ => return ILL_TYPED,
                };
                let (ci, kh, kw) = (sw_shape[1] as f64, sw_shape[2] as f64, sw_shape[3] as f64);
                let mut flops = 2.0 * out_elems * ci * kh * kw;
                if get(*act).as_scalar().unwrap_or(0) != 0 {
                    flops += out_elems;
                }
                let bytes = (sum_input_elems(&[*x, *w]) + out_elems) * self.bytes_per_element;
                let fused = if get(*act).as_scalar().unwrap_or(0) != 0 {
                    self.fused_activation_us
                } else {
                    0.0
                };
                self.roofline(flops, bytes) + fused
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
            | L::Split(_)
            | L::Split0(_)
            | L::Split1(_)
            | L::Reshape(_)
            | L::Merge(_) => 0.0,
        };
        (latency, out_elems)
    }

    /// The composite [`Cost`] of a single operator node. Latency is
    /// [`CostModel::node_cost`]; a node with zero latency (parameter leaf,
    /// metadata-only op, weights-only subgraph) is wholly free — it
    /// materializes nothing new and launches no kernel — while every other
    /// node charges its output bytes as peak memory and one kernel launch.
    pub fn node_cost_composite(&self, node: &TensorLang, get: &dyn Fn(Id) -> TensorData) -> Cost {
        let (latency, out_elems) = self.latency_and_out_elems(node, get);
        if latency == 0.0 {
            return Cost::ZERO;
        }
        if latency.is_infinite() {
            return Cost::INFINITE;
        }
        Cost {
            latency,
            peak_memory: out_elems * self.bytes_per_element,
            launches: 1.0,
        }
    }

    /// The composite [`Cost`] of an e-node inside an e-graph.
    pub fn enode_cost_composite(
        &self,
        egraph: &EGraph<TensorLang, TensorAnalysis>,
        enode: &TensorLang,
    ) -> Cost {
        let get = |id: Id| egraph.eclass(id).data.clone();
        self.node_cost_composite(enode, &get)
    }

    /// The total cost (µs) of a concrete tensor graph. Structurally
    /// identical nodes are counted once (the graph is a DAG; shared
    /// sub-computations run once), matching how TASO costs graphs.
    pub fn graph_cost(&self, expr: &RecExpr<TensorLang>) -> f64 {
        self.graph_cost_composite(expr).latency
    }

    /// Alias of [`CostModel::graph_cost`] under the name the extraction
    /// seam reports it as: the *DAG* cost, each node charged once.
    pub fn dag_cost(&self, expr: &RecExpr<TensorLang>) -> f64 {
        self.graph_cost(expr)
    }

    /// The composite DAG cost of a concrete tensor graph (each structurally
    /// distinct node charged once).
    pub fn graph_cost_composite(&self, expr: &RecExpr<TensorLang>) -> Cost {
        let data = infer_recexpr(expr);
        let get_all = |id: Id| data[usize::from(id)].clone();
        let mut seen: std::collections::HashSet<&TensorLang> = Default::default();
        let mut total = Cost::ZERO;
        for (_, node) in expr.iter() {
            if seen.insert(node) {
                total += self.node_cost_composite(node, &get_all);
            }
        }
        total
    }

    /// The *tree* cost (µs) of a concrete tensor graph: each node charged
    /// once **per use**, i.e. what the cost would be if shared subgraphs
    /// were recomputed at every reference. This is the objective the
    /// tree-greedy extractor actually minimizes; reporting it next to
    /// [`CostModel::dag_cost`] keeps extractor comparisons honest.
    pub fn tree_cost(&self, expr: &RecExpr<TensorLang>) -> f64 {
        let data = infer_recexpr(expr);
        let get_all = |id: Id| data[usize::from(id)].clone();
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::lang::Activation;

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
        let split = g.split(1, mm);
        let s0 = g.split0(split);
        let s1 = g.split1(split);
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
    fn composite_order_is_total_and_latency_first() {
        let a = Cost {
            latency: 1.0,
            peak_memory: 100.0,
            launches: 9.0,
        };
        let b = Cost {
            latency: 2.0,
            peak_memory: 1.0,
            launches: 1.0,
        };
        // Lexicographic: latency dominates regardless of the other fields.
        assert!(a < b);
        // Ties broken by memory, then launches.
        let c = Cost {
            latency: 1.0,
            peak_memory: 50.0,
            launches: 100.0,
        };
        assert!(c < a);
        // NaN is ordered (above +inf), never equal to itself being a trap.
        let nan = Cost {
            latency: f64::NAN,
            peak_memory: 0.0,
            launches: 0.0,
        };
        assert_eq!(nan.partial_cmp(&Cost::INFINITE), Some(Ordering::Greater));
        assert!(a < nan);
        // Pareto dominance is distinct from the lexicographic order: `a`
        // is lexicographically smaller than `b` but does not dominate it.
        assert!(!a.dominates(&b));
        assert!(Cost::ZERO.dominates(&a));
        assert!(!a.dominates(&a));
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
        let composite = cm.graph_cost_composite(&expr);
        // Latency agrees with the scalar model.
        assert_eq!(composite.latency, cm.graph_cost(&expr));
        // Two non-free operators: matmul and relu.
        assert_eq!(composite.launches, 2.0);
        // Each materializes a [64, 256] fp32 output.
        assert_eq!(composite.peak_memory, 2.0 * 64.0 * 256.0 * 4.0);
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

        let dag = cm.dag_cost(&expr);
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
        assert!((cm.tree_cost(&linear) - cm.dag_cost(&linear)).abs() < 1e-9);
    }
}
