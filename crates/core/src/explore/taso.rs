//! The TASO baseline wired through the exploration seam: sequential
//! cost-based backtracking over concrete graphs (`tensat-taso`,
//! Jia et al. 2019, Algorithm 2), whose best trajectory graph is unioned
//! back into the e-graph so downstream extraction sees it as one more
//! candidate — the comparison the paper's Tables 1/Figures 4–6 make,
//! runnable through the same `explore()` entry point as TENSAT itself.

use super::context::ExplorationContext;
use super::{CycleFilter, ExplorationStats, ExplorationStrategy};
use tensat_ir::TensorEGraph;
use tensat_taso::{BacktrackingConfig, BacktrackingSearch};

/// Parameters of the [`TasoBacktracking`] baseline (the subset of
/// [`BacktrackingConfig`] not already covered by
/// [`OptimizerConfig`](crate::OptimizerConfig): the time limit and cost
/// model come from its `exploration_time_limit` and `cost_model`).
#[derive(Debug, Clone)]
pub struct TasoConfig {
    /// Search iterations (graphs popped from the priority queue); the
    /// TASO artifact default is 100.
    pub iterations: usize,
    /// Admission threshold: a candidate is enqueued if its cost is below
    /// `alpha * best_cost` (the paper uses 1.0).
    pub alpha: f64,
    /// Maximum queue size (candidates beyond this are dropped).
    pub max_queue: usize,
}

impl Default for TasoConfig {
    fn default() -> Self {
        TasoConfig {
            iterations: 100,
            alpha: 1.0,
            max_queue: 10_000,
        }
    }
}

/// The TASO-style backtracking baseline run through the exploration seam.
///
/// The strategy extracts the current tree-greedy best graph from the
/// e-graph as the search seed (the input graph itself when the e-graph is
/// unexplored), runs [`BacktrackingSearch`] over the single-pattern rule
/// set, and unions the best graph of the trajectory with the root class.
/// Rewrites preserve semantics and output shapes, so the union is sound,
/// and extraction afterwards chooses between the original graph and the
/// baseline's best find under the one cost model.
#[derive(Debug, Clone, Copy, Default)]
pub struct TasoBacktracking;

impl ExplorationStrategy for TasoBacktracking {
    fn name(&self) -> &'static str {
        "taso"
    }

    fn run(&self, egraph: &mut TensorEGraph, ctx: &ExplorationContext<'_>) -> ExplorationStats {
        let mut stats = ExplorationStats::default();
        egraph.rebuild();
        let config = ctx.config();

        let seed = match crate::extract::extract_greedy(egraph, ctx.root(), &config.cost_model) {
            Ok(outcome) => outcome.expr,
            Err(_) => {
                // No extractable seed: nothing for the baseline to search.
                ctx.finish(egraph, &mut stats);
                return stats;
            }
        };

        let search = BacktrackingSearch::new(
            ctx.single_rules().to_vec(),
            BacktrackingConfig {
                iterations: config.taso.iterations,
                alpha: config.taso.alpha,
                time_limit: config.exploration_time_limit.saturating_sub(ctx.elapsed()),
                max_queue: config.taso.max_queue,
                cost_model: config.cost_model.clone(),
            },
        );
        let result = search.run(&seed);

        // Wire the trajectory's best graph back into the e-graph: its
        // output equals the seed's output by rewrite soundness, so the
        // root class may absorb it and extraction picks the cheaper form.
        let best = egraph.add_expr(&result.best_graph);
        egraph.union(ctx.root(), best);
        egraph.rebuild();
        if config.cycle_filter == CycleFilter::Efficient {
            stats.filtered_nodes += crate::cycles::remove_all_cycles(egraph, ctx.root());
        }

        stats.iterations = result.graphs_explored;
        stats
            .nodes_per_iteration
            .push(egraph.total_number_of_nodes());
        ctx.finish(egraph, &mut stats);
        stats
    }
}
