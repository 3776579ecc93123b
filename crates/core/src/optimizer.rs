//! The end-to-end TENSAT optimizer: exploration followed by extraction.
//!
//! What it minimizes is one number, the graph's summed operator latency
//! under [`OptimizerConfig::cost_model`]: every extractor's objective, and
//! the comparison that keeps the input when nothing extracted is cheaper.

use crate::explore::{explore, CycleFilter, ExplorationMode, ExplorationStats};
use crate::extract::{extract, ExtractError, ExtractionMode, IlpConfig, IlpStats};
use std::time::Duration;
use tensat_egraph::RecExpr;
use tensat_ir::{CostModel, TensorAnalysis, TensorEGraph, TensorLang};
use tensat_rules::{multi_rules, single_rules, MultiPatternRule, TensorRewrite};

/// Full optimizer configuration: the one set of parameters the paper's
/// TENSAT takes (§6.1). Exploration ([`explore`] and every
/// [`ExplorationStrategy`](crate::ExplorationStrategy)) and extraction both
/// read it; there is no second exploration-only copy.
///
/// The defaults follow the paper's experimental setup: efficient cycle
/// filtering, ILP extraction without cycle constraints, `k_multi = 1`,
/// `k_max = 15`, `N_max = 50 000`.
#[derive(Debug, Clone)]
pub struct OptimizerConfig {
    /// Iterations in which multi-pattern rules are applied (`k_multi`).
    pub k_multi: usize,
    /// Total exploration iteration limit (`k_max`).
    pub max_iter: usize,
    /// E-node limit for the exploration phase (`N_max`).
    /// [`Saturate`](crate::Saturate) asks it before every application, so
    /// the e-graph overshoots it by at most the e-nodes one application
    /// adds (of the seven models at a 2 000 limit, only NasRNN at
    /// `k_multi` 2 overshoots, ending at 2 002), and the iteration whose
    /// apply phase it cuts is the last one — the final count may sit
    /// *below* the limit, because the rebuild closing that iteration
    /// deduplicates (NasNet-A at 30 000 ends with 28 025 e-nodes).
    pub node_limit: usize,
    /// Wall-clock limit for the whole exploration phase.
    pub exploration_time_limit: Duration,
    /// The cycle-filtering algorithm used during exploration. `Off` makes
    /// [`Optimizer::optimize`] turn the ILP cycle constraints on.
    pub cycle_filter: CycleFilter,
    /// Accepted and ignored, like `apply_threads`: every search runs on
    /// the calling thread. Kept (`1` by default) because the repo
    /// benchmark's `benchmark/src/workloads.rs` writes it; the next change
    /// to the benchmark retires it.
    pub search_threads: usize,
    /// Accepted and ignored: the apply phase is Algorithm 1's in-place
    /// loop and has no thread setting. Kept (`None` by default) because
    /// the repo benchmark's `benchmark/src/workloads.rs` writes it; the
    /// next change to the benchmark retires it.
    pub apply_threads: Option<usize>,
    /// Accepted and ignored, like `apply_threads`: [`explore`] always runs
    /// [`Saturate`](crate::Saturate), the one variant of
    /// [`ExplorationMode`]. Kept because the repo benchmark's
    /// `benchmark/src/workloads.rs` writes it; the next change to the
    /// benchmark retires it.
    pub exploration: ExplorationMode,
    /// Accepted and ignored, like `apply_threads`: no exploration strategy
    /// reads it. Kept because the repo benchmark's
    /// `benchmark/src/workloads.rs` writes it; the next change to the
    /// benchmark retires it.
    pub guided: GuidedConfig,
    /// Accepted and ignored, like `apply_threads`: the TASO baseline is
    /// not an exploration strategy (it runs as `tensat-taso`'s
    /// `BacktrackingSearch`, outside the optimizer). Kept because the repo
    /// benchmark's `benchmark/src/workloads.rs` writes it; the next change
    /// to the benchmark retires it.
    pub taso: TasoConfig,
    /// Which extraction algorithm to use.
    pub extraction: ExtractionMode,
    /// Include the ILP acyclicity constraints even though the cycle filter
    /// ran (only meaningful with [`ExtractionMode::Ilp`]). With
    /// `cycle_filter` `Off` the e-graph may hold cycles, and
    /// [`Optimizer::optimize`] includes them whatever this says.
    pub ilp_cycle_constraints: bool,
    /// Use integer topological-order variables instead of reals.
    pub ilp_integer_topo_vars: bool,
    /// Wall-clock limit for ILP extraction (see [`IlpConfig::time_limit`]);
    /// the solver also stops at 2 000 000 branch-and-bound nodes.
    pub ilp_time_limit: Duration,
    /// The operator cost model extraction prices e-nodes with;
    /// exploration never consults it.
    pub cost_model: CostModel,
}

/// Accepted and ignored: the type of [`OptimizerConfig::taso`], which
/// configures nothing. Braced rather than a unit struct, because callers
/// build it with `TasoConfig::default()`, which clippy rejects on a unit
/// struct.
#[derive(Debug, Clone, Default)]
pub struct TasoConfig {}

/// Accepted and ignored: the type of [`OptimizerConfig::guided`], which
/// configures nothing. Braced for the same reason as [`TasoConfig`].
#[derive(Debug, Clone, Default)]
pub struct GuidedConfig {}

impl Default for OptimizerConfig {
    /// Paper defaults — saturate-all exploration, ILP extraction. Nothing
    /// is read from the environment: what [`Optimizer::optimize`] returns
    /// is a function of the graph, the rules and this configuration.
    fn default() -> Self {
        OptimizerConfig {
            k_multi: 1,
            max_iter: 15,
            node_limit: 50_000,
            exploration_time_limit: Duration::from_secs(60),
            cycle_filter: CycleFilter::Efficient,
            search_threads: 1,
            apply_threads: None,
            exploration: ExplorationMode::Saturate,
            guided: GuidedConfig::default(),
            taso: TasoConfig::default(),
            extraction: ExtractionMode::Ilp,
            ilp_cycle_constraints: false,
            ilp_integer_topo_vars: false,
            ilp_time_limit: Duration::from_secs(60),
            cost_model: CostModel::default(),
        }
    }
}

impl OptimizerConfig {
    /// This configuration: exploration reads `OptimizerConfig` itself.
    /// Kept because the repo benchmark's `benchmark/src/trace.rs` calls it;
    /// the next change to the benchmark retires it, like `apply_threads`.
    pub fn exploration_config(&self) -> &Self {
        self
    }

    /// Always 1: the apply phase is Algorithm 1's in-place loop and has no
    /// thread setting. Kept because the repo benchmark's own
    /// `labels_are_unique_and_threads_pinned` test calls it; the next
    /// change to the benchmark retires it, like `apply_threads`.
    pub fn resolved_apply_threads(&self) -> usize {
        1
    }
}

/// Statistics of one optimization run.
#[derive(Debug, Clone)]
pub struct OptimizationStats {
    /// Exploration phase statistics.
    pub exploration: ExplorationStats,
    /// Extraction wall-clock time.
    pub extraction_time: Duration,
    /// ILP statistics (when ILP extraction ran).
    pub ilp: Option<IlpStats>,
}

/// The result of optimizing one graph.
#[derive(Debug, Clone)]
pub struct OptimizationResult {
    /// Estimated cost of the input graph (µs, DAG-counted).
    pub original_cost: f64,
    /// Estimated cost of the optimized graph (µs, DAG-counted).
    pub optimized_cost: f64,
    /// The optimized graph.
    pub optimized_graph: RecExpr<TensorLang>,
    /// Run statistics.
    pub stats: OptimizationStats,
}

impl OptimizationResult {
    /// Speedup of the optimized graph over the original, in percent
    /// (`(T_original / T_optimized - 1) * 100`, as reported in the paper's
    /// Table 1 and Figure 4).
    pub fn speedup_percent(&self) -> f64 {
        if self.optimized_cost <= 0.0 {
            return 0.0;
        }
        (self.original_cost / self.optimized_cost - 1.0) * 100.0
    }

    /// Total optimizer time (exploration + extraction).
    pub fn optimizer_time(&self) -> Duration {
        self.stats.exploration.time + self.stats.extraction_time
    }
}

/// The TENSAT optimizer.
///
/// # Examples
///
/// ```
/// use tensat_core::{Optimizer, OptimizerConfig};
/// use tensat_ir::GraphBuilder;
/// let mut g = GraphBuilder::new();
/// let x = g.input("x", &[32, 64]);
/// let w1 = g.weight("w1", &[64, 64]);
/// let w2 = g.weight("w2", &[64, 64]);
/// let m1 = g.matmul(x, w1);
/// let m2 = g.matmul(x, w2);
/// let graph = g.finish(&[m1, m2]);
/// let result = Optimizer::new(OptimizerConfig::default()).optimize(&graph).unwrap();
/// assert!(result.optimized_cost <= result.original_cost);
/// ```
#[derive(Debug, Clone)]
pub struct Optimizer {
    config: OptimizerConfig,
    single_rules: Vec<TensorRewrite>,
    multi_rules: Vec<MultiPatternRule>,
}

impl Optimizer {
    /// Creates an optimizer with the standard TASO rule set.
    pub fn new(config: OptimizerConfig) -> Self {
        Optimizer::with_rules(config, single_rules(), multi_rules())
    }

    /// Creates an optimizer with a custom rule set (TENSAT supports
    /// flexible rule choices, paper §6.1 footnote 3).
    pub fn with_rules(
        config: OptimizerConfig,
        single_rules: Vec<TensorRewrite>,
        multi_rules: Vec<MultiPatternRule>,
    ) -> Self {
        Optimizer {
            config,
            single_rules,
            multi_rules,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &OptimizerConfig {
        &self.config
    }

    /// Optimizes a tensor graph: runs exploration then extraction and
    /// returns the best graph found together with statistics.
    ///
    /// # Examples
    ///
    /// ```
    /// use tensat_core::{ExtractionMode, Optimizer, OptimizerConfig};
    /// use tensat_ir::{Activation, GraphBuilder};
    /// // Two relu-matmuls sharing an input: mergeable plus fusable.
    /// let mut g = GraphBuilder::new();
    /// let x = g.input("x", &[32, 64]);
    /// let w1 = g.weight("w1", &[64, 64]);
    /// let w2 = g.weight("w2", &[64, 64]);
    /// let m1 = g.matmul_act(Activation::Relu, x, w1);
    /// let m2 = g.matmul_act(Activation::Relu, x, w2);
    /// let graph = g.finish(&[m1, m2]);
    ///
    /// let config = OptimizerConfig {
    ///     extraction: ExtractionMode::Greedy, // fast for a doc example
    ///     ..Default::default()
    /// };
    /// let result = Optimizer::new(config).optimize(&graph).unwrap();
    /// assert!(result.optimized_cost <= result.original_cost);
    /// assert!(result.speedup_percent() >= 0.0);
    /// // The optimized graph is always well-typed.
    /// let data = tensat_ir::infer_recexpr(&result.optimized_graph);
    /// assert!(data.iter().all(|d| d.is_valid()));
    /// ```
    ///
    /// # Errors
    ///
    /// Returns an [`ExtractError`] if extraction cannot produce a valid
    /// graph (e.g. the ILP is infeasible under an exhausted time budget),
    /// and [`ExtractError::NoFiniteTerm`] for an empty `graph`, before
    /// anything runs.
    pub fn optimize(
        &self,
        graph: &RecExpr<TensorLang>,
    ) -> Result<OptimizationResult, ExtractError> {
        if graph.is_empty() {
            return Err(ExtractError::NoFiniteTerm);
        }
        let model = &self.config.cost_model;
        let original_cost = model.graph_cost(graph);

        let mut egraph = TensorEGraph::new(TensorAnalysis);
        let root = egraph.add_expr(graph);
        egraph.rebuild();

        let exploration = explore(
            &mut egraph,
            root,
            &self.single_rules,
            &self.multi_rules,
            &self.config,
        );

        // Without the cycle filter the e-graph may hold cycles, and only
        // the cycle constraints keep the ILP from selecting one.
        let ilp = IlpConfig {
            cycle_constraints: self.config.ilp_cycle_constraints
                || self.config.cycle_filter == CycleFilter::Off,
            integer_topo_vars: self.config.ilp_integer_topo_vars,
            time_limit: self.config.ilp_time_limit,
        };
        let outcome = extract(self.config.extraction, &egraph, root, model, &ilp)?;

        // Never return a graph worse than the input: the input itself is
        // always represented in the e-graph. A tie keeps the extracted
        // graph.
        let ilp_stats = outcome.ilp;
        let (optimized_graph, optimized_cost) =
            if outcome.dag_cost.total_cmp(&original_cost).is_le() {
                (outcome.expr, outcome.dag_cost)
            } else {
                (graph.clone(), original_cost)
            };

        Ok(OptimizationResult {
            original_cost,
            optimized_cost,
            optimized_graph,
            stats: OptimizationStats {
                exploration,
                extraction_time: outcome.time,
                ilp: ilp_stats,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensat_ir::{Activation, GraphBuilder, Padding};

    fn parallel_matmul_graph() -> RecExpr<TensorLang> {
        let mut g = GraphBuilder::new();
        let x = g.input("x", &[64, 256]);
        let w1 = g.weight("w1", &[256, 128]);
        let w2 = g.weight("w2", &[256, 128]);
        let w3 = g.weight("w3", &[256, 128]);
        let m1 = g.matmul_act(Activation::Relu, x, w1);
        let m2 = g.matmul_act(Activation::Relu, x, w2);
        let m3 = g.matmul_act(Activation::Relu, x, w3);
        g.finish(&[m1, m2, m3])
    }

    #[test]
    fn optimizer_improves_parallel_matmuls() {
        let graph = parallel_matmul_graph();
        let result = Optimizer::new(OptimizerConfig::default())
            .optimize(&graph)
            .unwrap();
        assert!(
            result.optimized_cost < result.original_cost,
            "expected improvement: {} -> {}",
            result.original_cost,
            result.optimized_cost
        );
        assert!(result.speedup_percent() > 0.0);
        // Extracted graph must be well-typed.
        let data = tensat_ir::infer_recexpr(&result.optimized_graph);
        assert!(data.iter().all(|d| d.is_valid()));
    }

    #[test]
    fn greedy_mode_never_worsens() {
        let graph = parallel_matmul_graph();
        let config = OptimizerConfig {
            extraction: ExtractionMode::Greedy,
            ..Default::default()
        };
        let result = Optimizer::new(config).optimize(&graph).unwrap();
        assert!(result.optimized_cost <= result.original_cost);
    }

    #[test]
    fn greedy_dag_mode_at_least_matches_greedy() {
        let graph = parallel_matmul_graph();
        let greedy = Optimizer::new(OptimizerConfig {
            extraction: ExtractionMode::Greedy,
            ..Default::default()
        })
        .optimize(&graph)
        .unwrap();
        let dag = Optimizer::new(OptimizerConfig {
            extraction: ExtractionMode::GreedyDag,
            ..Default::default()
        })
        .optimize(&graph)
        .unwrap();
        assert!(dag.optimized_cost <= greedy.optimized_cost + 1e-9);
        assert!(dag.optimized_cost <= dag.original_cost);
    }

    /// `VGG-19` at `blocks: 6` is ill-typed (a pooling window outgrows its
    /// input): every term of the root class holds an invalid operator, so
    /// there is no finite-cost graph to return, and every extractor says so
    /// — the greedy ones used to answer `Ok` with cost `inf → inf`.
    #[test]
    fn an_input_without_a_finite_cost_is_an_error_under_every_extractor() {
        let scale = tensat_models::ModelScale {
            blocks: 6,
            ..Default::default()
        };
        let graph = tensat_models::build_benchmark("VGG-19", scale);
        assert!(!CostModel::default().graph_cost(&graph).is_finite());
        for extraction in [
            ExtractionMode::Greedy,
            ExtractionMode::GreedyDag,
            ExtractionMode::Ilp,
        ] {
            let config = OptimizerConfig {
                extraction,
                ..Default::default()
            };
            let refused = Optimizer::new(config).optimize(&graph).unwrap_err();
            assert_eq!(refused, ExtractError::NoFiniteTerm, "{extraction:?}");
        }
    }

    /// An empty graph has no root to seed the e-graph with: every mode
    /// refuses it instead of panicking in `EGraph::add_expr`.
    #[test]
    fn an_empty_graph_is_an_error_under_every_extractor() {
        for extraction in [
            ExtractionMode::Greedy,
            ExtractionMode::GreedyDag,
            ExtractionMode::Ilp,
        ] {
            let config = OptimizerConfig {
                extraction,
                ..Default::default()
            };
            let refused = Optimizer::new(config).optimize(&RecExpr::default());
            assert_eq!(refused.unwrap_err(), ExtractError::NoFiniteTerm);
        }
    }

    /// Inception-v3 at `k_multi: 2` is where the ILP's selection once built
    /// a graph of infinite cost (a `split` that read its cut from class
    /// data). ILP extraction answers there with a well-typed graph no worse
    /// than the input, falling back to the greedy incumbent it holds should
    /// its own selection have no finite cost.
    #[test]
    fn ilp_falls_back_to_greedy_when_its_selection_has_no_finite_cost() {
        let graph =
            tensat_models::build_benchmark("Inception-v3", tensat_models::ModelScale::tiny());
        let config = OptimizerConfig {
            k_multi: 2,
            extraction: ExtractionMode::Ilp,
            ..Default::default()
        };
        let result = Optimizer::new(config).optimize(&graph).unwrap();
        assert!(result.optimized_cost <= result.original_cost);
        let data = tensat_ir::infer_recexpr(&result.optimized_graph);
        assert!(data.iter().all(|d| d.is_valid()));
    }

    #[test]
    fn ilp_mode_at_least_matches_greedy() {
        let graph = parallel_matmul_graph();
        let greedy = Optimizer::new(OptimizerConfig {
            extraction: ExtractionMode::Greedy,
            ..Default::default()
        })
        .optimize(&graph)
        .unwrap();
        let ilp = Optimizer::new(OptimizerConfig::default())
            .optimize(&graph)
            .unwrap();
        assert!(ilp.optimized_cost <= greedy.optimized_cost + 1e-9);
    }

    #[test]
    fn conv_relu_fusion_is_found() {
        let mut g = GraphBuilder::new();
        let x = g.input("x", &[1, 64, 28, 28]);
        let w = g.weight("w", &[64, 64, 3, 3]);
        let c = g.conv(x, w, (1, 1), Padding::Same, Activation::None);
        let r = g.relu(c);
        let graph = g.finish(&[r]);
        let result = Optimizer::new(OptimizerConfig::default())
            .optimize(&graph)
            .unwrap();
        assert!(result.optimized_cost < result.original_cost);
        // The optimized graph fuses the relu into the conv (activation
        // parameter 1) and drops the standalone relu operator.
        assert!(!result.optimized_graph.to_string().contains("(relu"));
    }

    #[test]
    fn zero_iterations_returns_original() {
        let graph = parallel_matmul_graph();
        let config = OptimizerConfig {
            max_iter: 0,
            ..Default::default()
        };
        let result = Optimizer::new(config).optimize(&graph).unwrap();
        assert_eq!(result.speedup_percent(), 0.0);
        assert!((result.optimized_cost - result.original_cost).abs() < 1e-9);
    }
}
