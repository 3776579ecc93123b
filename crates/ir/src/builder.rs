//! [`GraphBuilder`]: an ergonomic, hash-consing DSL for constructing tensor
//! computation graphs ([`RecExpr<TensorLang>`]).
//!
//! The benchmark models in `tensat-models` are written against this API.

use crate::lang::{
    encode_identifier, encode_permutation, encode_shape, Activation, Padding, TensorLang,
};
use tensat_egraph::{Id, Language, RecExpr};

/// Builds a tensor computation graph with structural sharing: adding the
/// same node twice returns the same id, so the resulting [`RecExpr`] is a
/// DAG whose shared sub-computations appear once.
///
/// # Examples
///
/// ```
/// use tensat_ir::GraphBuilder;
/// let mut g = GraphBuilder::new();
/// let x = g.input("x", &[8, 128]);
/// let w = g.weight("w", &[128, 64]);
/// let y = g.matmul(x, w);
/// let expr = g.finish(&[y]);
/// assert!(expr.to_string().contains("matmul"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    expr: RecExpr<TensorLang>,
    memo: std::collections::HashMap<TensorLang, Id>,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct nodes added so far.
    pub fn len(&self) -> usize {
        self.expr.len()
    }

    /// True if nothing has been added.
    pub fn is_empty(&self) -> bool {
        self.expr.is_empty()
    }

    /// Adds a raw node with hash-consing.
    pub fn add(&mut self, node: TensorLang) -> Id {
        if let Some(&id) = self.memo.get(&node) {
            return id;
        }
        let id = self.expr.add(node.clone());
        self.memo.insert(node, id);
        id
    }

    /// An integer parameter node.
    pub fn num(&mut self, v: i64) -> Id {
        self.add(TensorLang::Num(v))
    }

    /// An input tensor with the given name and shape.
    pub fn input(&mut self, name: &str, shape: &[i64]) -> Id {
        let s = self.add(TensorLang::Str(encode_identifier(name, shape)));
        self.add(TensorLang::Input([s]))
    }

    /// A weight tensor with the given name and shape.
    pub fn weight(&mut self, name: &str, shape: &[i64]) -> Id {
        let s = self.add(TensorLang::Str(encode_identifier(name, shape)));
        self.add(TensorLang::Weight([s]))
    }

    /// Element-wise addition.
    pub fn ewadd(&mut self, a: Id, b: Id) -> Id {
        self.add(TensorLang::Ewadd([a, b]))
    }

    /// Element-wise multiplication.
    pub fn ewmul(&mut self, a: Id, b: Id) -> Id {
        self.add(TensorLang::Ewmul([a, b]))
    }

    /// Matrix multiplication with no fused activation.
    pub fn matmul(&mut self, a: Id, b: Id) -> Id {
        self.matmul_act(Activation::None, a, b)
    }

    /// Matrix multiplication with a fused activation.
    pub fn matmul_act(&mut self, act: Activation, a: Id, b: Id) -> Id {
        let act = self.num(act.code());
        self.add(TensorLang::Matmul([act, a, b]))
    }

    /// Convolution with square stride, explicit padding and activation.
    pub fn conv(&mut self, x: Id, w: Id, stride: (i64, i64), pad: Padding, act: Activation) -> Id {
        let sh = self.num(stride.0);
        let sw = self.num(stride.1);
        let pad = self.num(pad.code());
        let act = self.num(act.code());
        self.add(TensorLang::Conv([sh, sw, pad, act, x, w]))
    }

    /// ReLU activation.
    pub fn relu(&mut self, x: Id) -> Id {
        self.add(TensorLang::Relu([x]))
    }

    /// Tanh activation.
    pub fn tanh(&mut self, x: Id) -> Id {
        self.add(TensorLang::Tanh([x]))
    }

    /// Sigmoid activation.
    pub fn sigmoid(&mut self, x: Id) -> Id {
        self.add(TensorLang::Sigmoid([x]))
    }

    /// Max pooling.
    pub fn poolmax(&mut self, x: Id, kernel: (i64, i64), stride: (i64, i64), pad: Padding) -> Id {
        let kh = self.num(kernel.0);
        let kw = self.num(kernel.1);
        let sh = self.num(stride.0);
        let sw = self.num(stride.1);
        let pad = self.num(pad.code());
        let act = self.num(Activation::None.code());
        self.add(TensorLang::Poolmax([x, kh, kw, sh, sw, pad, act]))
    }

    /// Average pooling.
    pub fn poolavg(&mut self, x: Id, kernel: (i64, i64), stride: (i64, i64), pad: Padding) -> Id {
        let kh = self.num(kernel.0);
        let kw = self.num(kernel.1);
        let sh = self.num(stride.0);
        let sw = self.num(stride.1);
        let pad = self.num(pad.code());
        let act = self.num(Activation::None.code());
        self.add(TensorLang::Poolavg([x, kh, kw, sh, sw, pad, act]))
    }

    /// Transpose with an axis permutation.
    pub fn transpose(&mut self, x: Id, perm: &[usize]) -> Id {
        let p = self.add(TensorLang::Str(encode_permutation(perm)));
        self.add(TensorLang::Transpose([x, p]))
    }

    /// Reshape to a target shape.
    pub fn reshape(&mut self, x: Id, shape: &[i64]) -> Id {
        let s = self.add(TensorLang::Str(encode_shape(shape)));
        self.add(TensorLang::Reshape([x, s]))
    }

    /// Pad kernel `x` with zeros to the spatial size of `reference`.
    pub fn enlarge(&mut self, x: Id, reference: Id) -> Id {
        self.add(TensorLang::Enlarge([x, reference]))
    }

    /// Concatenation of two tensors along `axis`.
    pub fn concat2(&mut self, axis: i64, a: Id, b: Id) -> Id {
        let ax = self.num(axis);
        self.add(TensorLang::Concat2([ax, a, b]))
    }

    /// Concatenation of many tensors along `axis` (folded into binary
    /// concats beyond five inputs).
    pub fn concat_many(&mut self, axis: i64, parts: &[Id]) -> Id {
        assert!(!parts.is_empty(), "concat of zero tensors");
        let ax = self.num(axis);
        match parts.len() {
            1 => parts[0],
            2 => self.add(TensorLang::Concat2([ax, parts[0], parts[1]])),
            3 => self.add(TensorLang::Concat3([ax, parts[0], parts[1], parts[2]])),
            4 => self.add(TensorLang::Concat4([
                ax, parts[0], parts[1], parts[2], parts[3],
            ])),
            5 => self.add(TensorLang::Concat5([
                ax, parts[0], parts[1], parts[2], parts[3], parts[4],
            ])),
            _ => {
                let first = self.concat_many(axis, &parts[..5]);
                let mut rest = vec![first];
                rest.extend_from_slice(&parts[5..]);
                self.concat_many(axis, &rest)
            }
        }
    }

    /// The first `extent` entries of `x` along `axis`.
    pub fn split0(&mut self, axis: i64, extent: i64, x: Id) -> Id {
        let (ax, n) = (self.num(axis), self.num(extent));
        self.add(TensorLang::Split0([ax, n, x]))
    }

    /// The entries of `x` from `extent` on along `axis`.
    pub fn split1(&mut self, axis: i64, extent: i64, x: Id) -> Id {
        let (ax, n) = (self.num(axis), self.num(extent));
        self.add(TensorLang::Split1([ax, n, x]))
    }

    /// Merge grouped-convolution weight groups.
    pub fn merge(&mut self, weight: Id, count: i64) -> Id {
        let c = self.num(count);
        self.add(TensorLang::Merge([weight, c]))
    }

    /// Finishes the graph: combines `outputs` into a single root with
    /// `noop` nodes (paper §3.1) and returns the compacted expression.
    ///
    /// # Panics
    ///
    /// Panics if `outputs` is empty.
    pub fn finish(mut self, outputs: &[Id]) -> RecExpr<TensorLang> {
        assert!(!outputs.is_empty(), "graph must have at least one output");
        let mut root = outputs[0];
        for &out in &outputs[1..] {
            root = self.add(TensorLang::Noop([root, out]));
        }
        self.expr.extract(root)
    }

    /// Access the expression built so far (without compaction).
    pub fn expr(&self) -> &RecExpr<TensorLang> {
        &self.expr
    }
}

/// Statistics about a tensor graph, used by tests and the harness to sanity
/// check the benchmark models.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GraphStats {
    /// Total nodes (including parameter leaves).
    pub total_nodes: usize,
    /// Number of operator nodes (excluding `Num`/`Str`/`input`/`weight`/`noop`).
    pub op_nodes: usize,
    /// Number of matmul nodes.
    pub matmuls: usize,
    /// Number of convolution nodes.
    pub convs: usize,
}

/// Computes [`GraphStats`] for an expression.
pub fn graph_stats(expr: &RecExpr<TensorLang>) -> GraphStats {
    let mut stats = GraphStats {
        total_nodes: expr.len(),
        ..Default::default()
    };
    for (_, node) in expr.iter() {
        match node {
            TensorLang::Num(_)
            | TensorLang::Str(_)
            | TensorLang::Input(_)
            | TensorLang::Weight(_)
            | TensorLang::Noop(_) => {}
            TensorLang::Matmul(_) => {
                stats.op_nodes += 1;
                stats.matmuls += 1;
            }
            TensorLang::Conv(_) => {
                stats.op_nodes += 1;
                stats.convs += 1;
            }
            _ => stats.op_nodes += 1,
        }
    }
    let _ = expr.nodes().iter().map(|n| n.children().len());
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::infer_recexpr;

    #[test]
    fn builder_hashconses() {
        let mut g = GraphBuilder::new();
        let x1 = g.input("x", &[8, 128]);
        let x2 = g.input("x", &[8, 128]);
        assert_eq!(x1, x2);
        let w = g.weight("w", &[128, 64]);
        let m1 = g.matmul(x1, w);
        let m2 = g.matmul(x2, w);
        assert_eq!(m1, m2);
    }

    #[test]
    fn finish_combines_outputs_with_noop() {
        let mut g = GraphBuilder::new();
        let x = g.input("x", &[8, 128]);
        let w1 = g.weight("w1", &[128, 64]);
        let w2 = g.weight("w2", &[128, 64]);
        let m1 = g.matmul(x, w1);
        let m2 = g.matmul(x, w2);
        let expr = g.finish(&[m1, m2]);
        assert!(expr.to_string().starts_with("(noop"));
        // The whole graph must be well-typed.
        let data = infer_recexpr(&expr);
        assert!(data.iter().all(|d| d.is_valid()));
    }

    #[test]
    fn single_output_has_no_noop() {
        let mut g = GraphBuilder::new();
        let x = g.input("x", &[8, 8]);
        let r = g.relu(x);
        let expr = g.finish(&[r]);
        assert!(!expr.to_string().contains("noop"));
    }

    #[test]
    fn concat_many_folds() {
        let mut g = GraphBuilder::new();
        let parts: Vec<Id> = (0..7)
            .map(|i| g.weight(&format!("w{i}"), &[16, 16]))
            .collect();
        let cat = g.concat_many(0, &parts);
        let expr = g.finish(&[cat]);
        let data = infer_recexpr(&expr);
        assert_eq!(data.last().unwrap().shape().unwrap(), &[16 * 7, 16]);
    }

    #[test]
    fn stats_count_ops() {
        let mut g = GraphBuilder::new();
        let x = g.input("x", &[1, 64, 28, 28]);
        let w = g.weight("w", &[64, 64, 3, 3]);
        let c = g.conv(x, w, (1, 1), Padding::Same, Activation::Relu);
        let p = g.poolmax(c, (2, 2), (2, 2), Padding::Valid);
        let expr = g.finish(&[p]);
        let stats = graph_stats(&expr);
        assert_eq!(stats.convs, 1);
        assert_eq!(stats.matmuls, 0);
        assert_eq!(stats.op_nodes, 2);
    }
}
