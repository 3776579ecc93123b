//! The end-to-end TENSAT optimizer: exploration followed by extraction.

use crate::explore::{
    default_search_threads, defaults, explore, CycleFilter, ExplorationConfig, ExplorationMode,
    ExplorationStats, GuidedConfig, TasoConfig,
};
use crate::extract::{extract, ExtractError, ExtractionMode, IlpConfig, IlpStats};
use std::time::Duration;
use tensat_egraph::RecExpr;
use tensat_ir::{Cost, CostModel, TensorAnalysis, TensorEGraph, TensorLang};
use tensat_rules::{multi_rules, single_rules, MultiPatternRule, TensorRewrite};

/// Whether `TENSAT_VERIFY_RULES=1` turns on static rule verification at
/// [`Optimizer`] construction time (see `tensat-verify`). Off by default —
/// the full analysis takes seconds in debug builds, and the shipped corpus
/// is already gated in CI by the `verify_rules` binary — but cheap
/// insurance when experimenting with custom rule sets. Read once and
/// cached, mirroring the e-graph's `TENSAT_CHECK_INVARIANTS` gate.
fn rule_verification_forced() -> bool {
    static FORCED: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *FORCED.get_or_init(|| std::env::var("TENSAT_VERIFY_RULES").is_ok_and(|v| v == "1"))
}

/// Statically verifies a rule set at registration time when
/// [`rule_verification_forced`] is on.
///
/// # Panics
///
/// Panics with the full per-rule report when any rule has an
/// error-severity finding (unsound shape change, dead rule, unbound RHS
/// variable, ...).
fn verify_rule_set(singles: &[TensorRewrite], multis: &[MultiPatternRule]) {
    if !rule_verification_forced() {
        return;
    }
    let report = tensat_verify::verify_corpus(singles, multis);
    if report.error_count() > 0 {
        panic!("TENSAT_VERIFY_RULES: rule set failed static verification:\n{report}");
    }
}

/// Full optimizer configuration.
///
/// The defaults follow the paper's experimental setup (§6.1): efficient
/// cycle filtering, ILP extraction without cycle constraints, `k_multi = 1`,
/// `k_max = 15`, `N_max = 50 000`.
#[derive(Debug, Clone)]
pub struct OptimizerConfig {
    /// Iterations in which multi-pattern rules are applied.
    pub k_multi: usize,
    /// Total exploration iteration limit.
    pub max_iter: usize,
    /// E-node limit for the exploration phase.
    pub node_limit: usize,
    /// Wall-clock limit for the exploration phase.
    pub exploration_time_limit: Duration,
    /// The cycle-filtering algorithm used during exploration.
    pub cycle_filter: CycleFilter,
    /// Threads used by the exploration search phase (1 = sequential; the
    /// parallel driver returns bit-identical matches, so this only affects
    /// wall-clock time). Defaults to
    /// [`default_search_threads`].
    pub search_threads: usize,
    /// Accepted and ignored: the apply phase is Algorithm 1's in-place
    /// loop and has no thread setting, so this is the one field
    /// [`OptimizerConfig::exploration_config`] does not map. Kept (`None`
    /// by default) because the repo benchmark's `benchmark/src/workloads.rs`
    /// writes it and nothing under `benchmark/` may change in a library
    /// PR; a later `benchmark` PR retires it.
    pub apply_threads: Option<usize>,
    /// Which exploration strategy to run (saturate-all, guided beam
    /// search, or the TASO backtracking baseline).
    pub exploration: ExplorationMode,
    /// Parameters of the guided strategy (used when `exploration` is
    /// [`ExplorationMode::Guided`]).
    pub guided: GuidedConfig,
    /// Parameters of the TASO baseline (used when `exploration` is
    /// [`ExplorationMode::Taso`]).
    pub taso: TasoConfig,
    /// Which extraction algorithm to use.
    pub extraction: ExtractionMode,
    /// Include the ILP acyclicity constraints (only meaningful with
    /// [`ExtractionMode::Ilp`]; required if `cycle_filter` is `Off`).
    pub ilp_cycle_constraints: bool,
    /// Use integer topological-order variables instead of reals.
    pub ilp_integer_topo_vars: bool,
    /// Wall-clock limit for the ILP solver.
    pub ilp_time_limit: Duration,
    /// The operator cost model.
    pub cost_model: CostModel,
}

impl Default for OptimizerConfig {
    /// Paper defaults — saturate-all exploration, ILP extraction, the
    /// exploration limits from the one source of truth, [`defaults`] — plus
    /// [`default_search_threads`]. Nothing is read from the environment:
    /// what [`Optimizer::optimize`] returns is a function of the graph, the
    /// rules and this configuration.
    fn default() -> Self {
        OptimizerConfig {
            k_multi: defaults::K_MULTI,
            max_iter: defaults::MAX_ITER,
            node_limit: defaults::NODE_LIMIT,
            exploration_time_limit: defaults::TIME_LIMIT,
            cycle_filter: CycleFilter::Efficient,
            search_threads: default_search_threads(),
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
    /// The [`ExplorationConfig`] this optimizer configuration implies —
    /// the one conversion between the two views of the exploration limits,
    /// so the optimizer cannot drift from the exploration defaults.
    pub fn exploration_config(&self) -> ExplorationConfig {
        ExplorationConfig {
            k_multi: self.k_multi,
            max_iter: self.max_iter,
            node_limit: self.node_limit,
            time_limit: self.exploration_time_limit,
            cycle_filter: self.cycle_filter,
            search_threads: self.search_threads,
            mode: self.exploration,
            cost_model: self.cost_model.clone(),
            guided: self.guided.clone(),
            taso: self.taso.clone(),
        }
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
    /// Composite cost of the optimized graph (latency, peak memory,
    /// launches); `optimized_cost` is its latency component.
    pub optimized_composite: Cost,
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
    ///
    /// # Panics
    ///
    /// Panics if `TENSAT_VERIFY_RULES=1` is set and the rule set fails
    /// static verification (see `tensat-verify`).
    pub fn new(config: OptimizerConfig) -> Self {
        Optimizer::with_rules(config, single_rules(), multi_rules())
    }

    /// Creates an optimizer with a custom rule set (TENSAT supports
    /// flexible rule choices, paper §6.1 footnote 3).
    ///
    /// # Panics
    ///
    /// Panics if `TENSAT_VERIFY_RULES=1` is set and the rule set fails
    /// static verification (see `tensat-verify`).
    pub fn with_rules(
        config: OptimizerConfig,
        single_rules: Vec<TensorRewrite>,
        multi_rules: Vec<MultiPatternRule>,
    ) -> Self {
        verify_rule_set(&single_rules, &multi_rules);
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
    /// graph (e.g. the ILP is infeasible under an exhausted time budget).
    pub fn optimize(
        &self,
        graph: &RecExpr<TensorLang>,
    ) -> Result<OptimizationResult, ExtractError> {
        let model = &self.config.cost_model;
        let original_composite = model.graph_cost_composite(graph);
        let original_cost = original_composite.latency;

        let mut egraph = TensorEGraph::new(TensorAnalysis);
        let root = egraph.add_expr(graph);
        egraph.rebuild();

        let exploration_config = self.config.exploration_config();
        let exploration = explore(
            &mut egraph,
            root,
            &self.single_rules,
            &self.multi_rules,
            &exploration_config,
        );

        let ilp = IlpConfig {
            cycle_constraints: self.config.ilp_cycle_constraints,
            integer_topo_vars: self.config.ilp_integer_topo_vars,
            time_limit: self.config.ilp_time_limit,
            ..Default::default()
        };
        let outcome = extract(self.config.extraction, &egraph, root, model, &ilp)?;

        // Never return a graph worse than the input: the input itself is
        // always represented in the e-graph. Comparison is the composite
        // lexicographic order, so ties on latency break toward the graph
        // with less memory/fewer launches — deterministically.
        let ilp_stats = outcome.ilp;
        let (optimized_graph, optimized_composite) =
            if outcome.cost.total_order(&original_composite).is_le() {
                (outcome.expr, outcome.cost)
            } else {
                (graph.clone(), original_composite)
            };

        Ok(OptimizationResult {
            original_cost,
            optimized_cost: optimized_composite.latency,
            optimized_composite,
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
        // The composite view is consistent with the scalar one.
        assert_eq!(dag.optimized_composite.latency, dag.optimized_cost);
        assert!(dag.optimized_composite.launches >= 1.0);
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
                search_threads: 1,
                ..Default::default()
            };
            let refused = Optimizer::new(config).optimize(&graph).unwrap_err();
            assert_eq!(refused, ExtractError::NoFiniteTerm, "{extraction:?}");
        }
    }

    #[test]
    fn exploration_limits_have_one_source_of_truth() {
        // The optimizer defaults and the exploration defaults must be the
        // same values — both now read `explore::defaults` — and the
        // conversion helper must carry every shared field across.
        let opt = OptimizerConfig::default();
        let exp = ExplorationConfig::default();
        assert_eq!(opt.k_multi, exp.k_multi);
        assert_eq!(opt.max_iter, exp.max_iter);
        assert_eq!(opt.node_limit, exp.node_limit);
        assert_eq!(opt.exploration_time_limit, exp.time_limit);
        assert_eq!(opt.cycle_filter, exp.cycle_filter);

        // Exhaustive destructuring (no `..`): an `ExplorationConfig` field
        // added without a mapping in `exploration_config()` fails to
        // compile here instead of silently keeping a hard-coded value.
        let ExplorationConfig {
            k_multi,
            max_iter,
            node_limit,
            time_limit,
            cycle_filter,
            search_threads,
            mode,
            cost_model,
            guided,
            taso,
        } = OptimizerConfig {
            k_multi: 3,
            max_iter: 7,
            node_limit: 123,
            exploration_time_limit: Duration::from_millis(250),
            cycle_filter: CycleFilter::Vanilla,
            search_threads: 2,
            // Inert: the apply loop has no thread setting, so no
            // `ExplorationConfig` field carries this one.
            apply_threads: Some(5),
            exploration: ExplorationMode::Guided,
            cost_model: CostModel {
                launch_overhead_us: 11.0,
                ..Default::default()
            },
            guided: GuidedConfig {
                beam_width: 9,
                ..Default::default()
            },
            taso: TasoConfig {
                iterations: 13,
                ..Default::default()
            },
            ..Default::default()
        }
        .exploration_config();
        assert_eq!(k_multi, 3);
        assert_eq!(max_iter, 7);
        assert_eq!(node_limit, 123);
        assert_eq!(time_limit, Duration::from_millis(250));
        assert_eq!(cycle_filter, CycleFilter::Vanilla);
        assert_eq!(search_threads, 2);
        assert_eq!(mode, ExplorationMode::Guided);
        assert_eq!(cost_model.launch_overhead_us, 11.0);
        assert_eq!(guided.beam_width, 9);
        assert_eq!(taso.iterations, 13);
    }

    #[test]
    fn guided_exploration_never_worsens_and_respects_budget() {
        let graph = parallel_matmul_graph();
        let config = OptimizerConfig {
            exploration: ExplorationMode::Guided,
            node_limit: 200,
            extraction: ExtractionMode::GreedyDag,
            ..Default::default()
        };
        let result = Optimizer::new(config).optimize(&graph).unwrap();
        assert_eq!(result.stats.exploration.strategy, "guided");
        assert!(result.stats.exploration.enodes <= 200);
        assert!(result.optimized_cost <= result.original_cost);
        let data = tensat_ir::infer_recexpr(&result.optimized_graph);
        assert!(data.iter().all(|d| d.is_valid()));
    }

    #[test]
    fn taso_exploration_never_worsens() {
        let graph = parallel_matmul_graph();
        let config = OptimizerConfig {
            exploration: ExplorationMode::Taso,
            extraction: ExtractionMode::GreedyDag,
            ..Default::default()
        };
        let result = Optimizer::new(config).optimize(&graph).unwrap();
        assert_eq!(result.stats.exploration.strategy, "taso");
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
