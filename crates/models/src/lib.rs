//! # tensat-models
//!
//! Scaled, structurally faithful replicas of the seven inference graphs the
//! paper evaluates on (§6.1): NasRNN, BERT, ResNeXt-50, NasNet-A,
//! SqueezeNet, VGG-19 and Inception-v3.
//!
//! The replicas keep the *structures* that TENSAT's rewrites exploit —
//! parallel matmuls/convolutions sharing inputs, conv+activation chains,
//! multi-branch cells — while scaling channel counts and layer counts down
//! so that the e-graphs and extraction ILPs stay laptop-sized. Every
//! constructor takes a [`ModelScale`] so the harness can sweep sizes.
//!
//! ```
//! use tensat_models::{bert, ModelScale};
//! let graph = bert(ModelScale::default());
//! assert!(graph.len() > 20);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use tensat_egraph::RecExpr;
use tensat_ir::{Activation, GraphBuilder, Padding, TensorLang};

/// Controls how large the replica models are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelScale {
    /// Number of repeated blocks / cells / layers.
    pub blocks: usize,
    /// Base hidden size / channel count.
    pub hidden: i64,
    /// Batch size (sequence length for NLP models).
    pub batch: i64,
}

impl Default for ModelScale {
    fn default() -> Self {
        ModelScale {
            blocks: 2,
            hidden: 128,
            batch: 8,
        }
    }
}

impl ModelScale {
    /// A smaller scale for quick tests.
    pub fn tiny() -> Self {
        ModelScale {
            blocks: 1,
            hidden: 64,
            batch: 4,
        }
    }
}

/// The list of benchmark names in the order used by the paper's tables.
pub const BENCHMARKS: &[&str] = &[
    "NasRNN",
    "BERT",
    "ResNeXt-50",
    "NasNet-A",
    "SqueezeNet",
    "VGG-19",
    "Inception-v3",
];

/// Builds a benchmark graph by name (see [`BENCHMARKS`]).
///
/// # Panics
///
/// Panics if the name is unknown.
pub fn build_benchmark(name: &str, scale: ModelScale) -> RecExpr<TensorLang> {
    match name {
        "NasRNN" => nasrnn(scale),
        "BERT" => bert(scale),
        "ResNeXt-50" => resnext50(scale),
        "NasNet-A" => nasnet_a(scale),
        "SqueezeNet" => squeezenet(scale),
        "VGG-19" => vgg19(scale),
        "Inception-v3" => inception_v3(scale),
        other => panic!("unknown benchmark `{other}`"),
    }
}

/// NasRNN: an RNN cell discovered by neural architecture search. Each step
/// applies many matmuls to the same hidden state and combines them with
/// element-wise operations and activations — the ideal case for matmul
/// merging (paper Fig. 11), which is why TENSAT finds its largest speedups
/// here.
pub fn nasrnn(scale: ModelScale) -> RecExpr<TensorLang> {
    let mut g = GraphBuilder::new();
    let h = scale.hidden;
    let mut hidden = g.input("h0", &[scale.batch, h]);
    let x = g.input("x", &[scale.batch, h]);
    for step in 0..scale.blocks {
        // Eight parallel matmuls: four on the hidden state, four on the input.
        let mut gates = vec![];
        for i in 0..4 {
            let wh = g.weight(&format!("wh_{step}_{i}"), &[h, h]);
            let wx = g.weight(&format!("wx_{step}_{i}"), &[h, h]);
            let mh = g.matmul(hidden, wh);
            let mx = g.matmul(x, wx);
            let sum = g.ewadd(mh, mx);
            let act = match i % 2 {
                0 => g.relu(sum),
                _ => g.sigmoid(sum),
            };
            gates.push(act);
        }
        let a = g.ewmul(gates[0], gates[1]);
        let b = g.ewmul(gates[2], gates[3]);
        let combined = g.ewadd(a, b);
        hidden = g.tanh(combined);
    }
    g.finish(&[hidden])
}

/// BERT: transformer encoder layers. The multi-head attention projections
/// are parallel matmuls over the same activations (Q, K, V and output), the
/// feed-forward block is a pair of matmuls with a fused activation.
pub fn bert(scale: ModelScale) -> RecExpr<TensorLang> {
    let mut g = GraphBuilder::new();
    let h = scale.hidden;
    let seq = scale.batch;
    let mut x = g.input("embeddings", &[seq, h]);
    for layer in 0..scale.blocks {
        // Attention projections: three matmuls sharing the layer input.
        let wq = g.weight(&format!("wq_{layer}"), &[h, h]);
        let wk = g.weight(&format!("wk_{layer}"), &[h, h]);
        let wv = g.weight(&format!("wv_{layer}"), &[h, h]);
        let q = g.matmul(x, wq);
        let k = g.matmul(x, wk);
        let v = g.matmul(x, wv);
        // Scores and context (simplified single-head attention).
        let kt = g.transpose(k, &[1, 0]);
        let scores = g.matmul(q, kt);
        let probs = g.sigmoid(scores);
        let context = g.matmul(probs, v);
        let wo = g.weight(&format!("wo_{layer}"), &[h, h]);
        let attn_out = g.matmul(context, wo);
        let res1 = g.ewadd(x, attn_out);
        // Feed-forward block.
        let w1 = g.weight(&format!("ffn1_{layer}"), &[h, 4 * h]);
        let w2 = g.weight(&format!("ffn2_{layer}"), &[4 * h, h]);
        let ff1 = g.matmul_act(Activation::Relu, res1, w1);
        let ff2 = g.matmul(ff1, w2);
        x = g.ewadd(res1, ff2);
    }
    g.finish(&[x])
}

/// ResNeXt-50: residual blocks built around grouped convolutions.
pub fn resnext50(scale: ModelScale) -> RecExpr<TensorLang> {
    let mut g = GraphBuilder::new();
    let c = scale.hidden;
    let mut x = g.input("image", &[1, c, 14, 14]);
    for block in 0..scale.blocks {
        // 1x1 reduce, grouped 3x3, 1x1 expand, plus the identity shortcut.
        let w_reduce = g.weight(&format!("reduce_{block}"), &[c / 2, c, 1, 1]);
        let reduced = g.conv(x, w_reduce, (1, 1), Padding::Same, Activation::Relu);
        // Grouped conv: 32 groups when channels allow, else 4.
        let groups = if (c / 2) % 32 == 0 { 32 } else { 4 };
        let w_group = g.weight(
            &format!("grouped_{block}"),
            &[c / 2, (c / 2) / groups, 3, 3],
        );
        let grouped = g.conv(reduced, w_group, (1, 1), Padding::Same, Activation::Relu);
        let w_expand = g.weight(&format!("expand_{block}"), &[c, c / 2, 1, 1]);
        let expanded = g.conv(grouped, w_expand, (1, 1), Padding::Same, Activation::None);
        let sum = g.ewadd(x, expanded);
        x = g.relu(sum);
    }
    g.finish(&[x])
}

/// NasNet-A: architecture-search cells with several parallel convolutions
/// whose outputs are summed — the structure behind the paper's Fig. 10
/// rewrite (merging four convolutions into two via weight concatenation).
pub fn nasnet_a(scale: ModelScale) -> RecExpr<TensorLang> {
    let mut g = GraphBuilder::new();
    let c = scale.hidden;
    let mut prev = g.input("stem", &[1, c, 14, 14]);
    let mut cur = g.input("stem2", &[1, c, 14, 14]);
    for cell in 0..scale.blocks {
        let mut branch_outputs = vec![];
        for b in 0..3 {
            // Each branch: two convolutions (on cur and prev) summed.
            let w1 = g.weight(&format!("cell{cell}_b{b}_w1"), &[c, c, 3, 3]);
            let w2 = g.weight(&format!("cell{cell}_b{b}_w2"), &[c, c, 3, 3]);
            let c1 = g.conv(cur, w1, (1, 1), Padding::Same, Activation::None);
            let c2 = g.conv(prev, w2, (1, 1), Padding::Same, Activation::None);
            branch_outputs.push(g.ewadd(c1, c2));
        }
        let s1 = g.ewadd(branch_outputs[0], branch_outputs[1]);
        let out = g.ewadd(s1, branch_outputs[2]);
        prev = cur;
        cur = g.relu(out);
    }
    g.finish(&[cur])
}

/// SqueezeNet: fire modules — a squeeze 1x1 convolution feeding two
/// parallel expand convolutions (1x1 and 3x3) whose outputs are
/// concatenated. The parallel expands share their input, which is exactly
/// the conv-merging pattern of the paper's Fig. 9.
pub fn squeezenet(scale: ModelScale) -> RecExpr<TensorLang> {
    let mut g = GraphBuilder::new();
    let c = scale.hidden;
    let mut x = g.input("image", &[1, c, 28, 28]);
    for module in 0..scale.blocks {
        let w_squeeze = g.weight(&format!("squeeze_{module}"), &[c / 4, c, 1, 1]);
        let squeezed = g.conv(x, w_squeeze, (1, 1), Padding::Same, Activation::Relu);
        let w_e1 = g.weight(&format!("expand1_{module}"), &[c / 2, c / 4, 1, 1]);
        let w_e3 = g.weight(&format!("expand3_{module}"), &[c / 2, c / 4, 3, 3]);
        let e1 = g.conv(squeezed, w_e1, (1, 1), Padding::Same, Activation::Relu);
        let e3 = g.conv(squeezed, w_e3, (1, 1), Padding::Same, Activation::Relu);
        x = g.concat2(1, e1, e3);
    }
    let pooled = g.poolavg(x, (2, 2), (2, 2), Padding::Valid);
    g.finish(&[pooled])
}

/// VGG-19: a plain chain of convolution + pooling. Little graph-level
/// parallelism exists, so (as in the paper) almost all of the gain comes
/// from operator fusion.
pub fn vgg19(scale: ModelScale) -> RecExpr<TensorLang> {
    let mut g = GraphBuilder::new();
    let c = scale.hidden.max(16);
    let stages = scale.blocks.max(2);
    let mut x = g.input("image", &[1, c, 32, 32]);
    let mut side = 32i64;
    for stage in 0..stages {
        for layer in 0..2 {
            let w = g.weight(&format!("conv_{stage}_{layer}"), &[c, c, 3, 3]);
            let conv = g.conv(x, w, (1, 1), Padding::Same, Activation::None);
            x = g.relu(conv);
        }
        x = g.poolmax(x, (2, 2), (2, 2), Padding::Valid);
        side /= 2;
    }
    let wfc = g.weight("fc", &[c, c]);
    let reshaped = g.reshape(x, &[side * side, c]);
    let logits = g.matmul(reshaped, wfc);
    g.finish(&[logits])
}

/// Inception-v3: inception modules with four parallel branches over the
/// same input (1x1, 3x3, 5x5-ish and pooled), concatenated along channels.
pub fn inception_v3(scale: ModelScale) -> RecExpr<TensorLang> {
    let mut g = GraphBuilder::new();
    let c = scale.hidden;
    let mut x = g.input("image", &[1, c, 14, 14]);
    for module in 0..scale.blocks {
        let w1 = g.weight(&format!("inc{module}_1x1"), &[c / 4, c, 1, 1]);
        let b1 = g.conv(x, w1, (1, 1), Padding::Same, Activation::Relu);

        let w3r = g.weight(&format!("inc{module}_3x3r"), &[c / 4, c, 1, 1]);
        let b3r = g.conv(x, w3r, (1, 1), Padding::Same, Activation::Relu);
        let w3 = g.weight(&format!("inc{module}_3x3"), &[c / 4, c / 4, 3, 3]);
        let b3 = g.conv(b3r, w3, (1, 1), Padding::Same, Activation::Relu);

        let w5r = g.weight(&format!("inc{module}_5x5r"), &[c / 4, c, 1, 1]);
        let b5r = g.conv(x, w5r, (1, 1), Padding::Same, Activation::Relu);
        let w5 = g.weight(&format!("inc{module}_5x5"), &[c / 4, c / 4, 3, 3]);
        let b5 = g.conv(b5r, w5, (1, 1), Padding::Same, Activation::Relu);

        let pooled = g.poolavg(x, (3, 3), (1, 1), Padding::Same);
        let wp = g.weight(&format!("inc{module}_pool"), &[c / 4, c, 1, 1]);
        let bp = g.conv(pooled, wp, (1, 1), Padding::Same, Activation::Relu);

        let c12 = g.concat2(1, b1, b3);
        let c34 = g.concat2(1, b5, bp);
        x = g.concat2(1, c12, c34);
    }
    g.finish(&[x])
}

/// Returns `(name, graph)` pairs for all seven paper benchmarks at the
/// given scale.
pub fn all_benchmarks(scale: ModelScale) -> Vec<(&'static str, RecExpr<TensorLang>)> {
    BENCHMARKS
        .iter()
        .map(|&name| (name, build_benchmark(name, scale)))
        .collect()
}

/// Helper used by tests: true if every node of the graph is well-typed.
pub fn is_well_typed(graph: &RecExpr<TensorLang>) -> bool {
    tensat_ir::infer_recexpr(graph).iter().all(|d| d.is_valid())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensat_ir::CostModel;

    #[test]
    fn all_benchmarks_are_well_typed() {
        for (name, graph) in all_benchmarks(ModelScale::default()) {
            assert!(is_well_typed(&graph), "{name} is not well-typed");
            assert!(graph.len() > 10, "{name} is suspiciously small");
        }
    }

    #[test]
    fn all_benchmarks_have_finite_cost() {
        let model = CostModel::default();
        for (name, graph) in all_benchmarks(ModelScale::default()) {
            let cost = model.graph_cost(&graph);
            assert!(cost.is_finite() && cost > 0.0, "{name} cost = {cost}");
        }
    }

    #[test]
    fn scaling_up_increases_size() {
        let small = bert(ModelScale::tiny());
        let big = bert(ModelScale {
            blocks: 3,
            hidden: 128,
            batch: 8,
        });
        assert!(big.len() > small.len());
    }

    #[test]
    fn nasrnn_has_many_parallel_matmuls() {
        let graph = nasrnn(ModelScale::default());
        let stats = tensat_ir::graph_stats(&graph);
        assert!(stats.matmuls >= 8, "NasRNN should contain many matmuls");
    }

    #[test]
    fn conv_models_have_convs() {
        for name in [
            "ResNeXt-50",
            "NasNet-A",
            "SqueezeNet",
            "VGG-19",
            "Inception-v3",
        ] {
            let graph = build_benchmark(name, ModelScale::default());
            let stats = tensat_ir::graph_stats(&graph);
            assert!(stats.convs >= 2, "{name} should contain convolutions");
        }
    }

    #[test]
    #[should_panic]
    fn unknown_benchmark_panics() {
        build_benchmark("AlexNet", ModelScale::default());
    }
}
