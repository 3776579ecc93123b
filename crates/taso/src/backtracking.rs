//! TASO-style cost-based backtracking search (Jia et al. 2019, Alg. 2).
//!
//! The search maintains a priority queue of candidate graphs ordered by
//! cost. At each step it pops the cheapest graph, enumerates every
//! applicable substitution at every site, and enqueues each rewritten graph
//! whose cost is below `alpha * best_cost`, the best cost found before it.
//! The search runs for a fixed number of iterations (popped graphs),
//! recording both the total search time and the time at which the best
//! graph was *first* found — the paper's "TASO total" and "TASO best"
//! lines in Figure 5.

use crate::subst::{apply_substitution, find_substitutions};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};
use std::time::{Duration, Instant};
use tensat_egraph::RecExpr;
use tensat_ir::{CostModel, TensorLang};
use tensat_rules::TensorRewrite;

/// Configuration of the backtracking search.
#[derive(Debug, Clone)]
pub struct BacktrackingConfig {
    /// Number of search iterations (graphs popped from the queue); the
    /// paper's artifact default is 100.
    pub iterations: usize,
    /// Admission threshold: a candidate is enqueued if its cost is below
    /// `alpha * best_cost`. The paper uses 1.0 (and reports 1.05 makes
    /// almost no difference).
    pub alpha: f64,
    /// Wall-clock limit for the search.
    pub time_limit: Duration,
    /// Maximum queue size (candidates beyond this are dropped).
    pub max_queue: usize,
    /// The operator cost model (shared with TENSAT).
    pub cost_model: CostModel,
}

impl Default for BacktrackingConfig {
    fn default() -> Self {
        BacktrackingConfig {
            iterations: 100,
            alpha: 1.0,
            time_limit: Duration::from_secs(60),
            max_queue: 10_000,
            cost_model: CostModel::default(),
        }
    }
}

/// The outcome of a backtracking search.
#[derive(Debug, Clone)]
pub struct BacktrackingResult {
    /// The best graph found.
    pub best_graph: RecExpr<TensorLang>,
    /// Cost of the input graph (µs).
    pub original_cost: f64,
    /// Cost of the best graph (µs).
    pub best_cost: f64,
    /// Total search time ("TASO total").
    pub total_time: Duration,
    /// Time at which the best graph was first reached ("TASO best").
    pub time_to_best: Duration,
    /// Number of graphs popped from the queue.
    pub graphs_explored: usize,
    /// Number of candidate graphs generated.
    pub candidates_generated: usize,
}

impl BacktrackingResult {
    /// Speedup of the best graph over the original, in percent.
    pub fn speedup_percent(&self) -> f64 {
        if self.best_cost <= 0.0 {
            return 0.0;
        }
        (self.original_cost / self.best_cost - 1.0) * 100.0
    }
}

/// A candidate graph in the priority queue (min-heap by cost).
struct Candidate {
    cost: f64,
    graph: RecExpr<TensorLang>,
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.cost == other.cost
    }
}
impl Eq for Candidate {}
impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse so that BinaryHeap (a max-heap) pops the *cheapest* graph.
        other
            .cost
            .partial_cmp(&self.cost)
            .unwrap_or(Ordering::Equal)
    }
}

/// The sequential backtracking optimizer.
#[derive(Debug, Clone)]
pub struct BacktrackingSearch {
    rules: Vec<TensorRewrite>,
    config: BacktrackingConfig,
}

impl BacktrackingSearch {
    /// Creates a search over the given rule set.
    pub fn new(rules: Vec<TensorRewrite>, config: BacktrackingConfig) -> Self {
        BacktrackingSearch { rules, config }
    }

    /// Creates a search with the standard TASO single-pattern rule set.
    pub fn with_default_rules(config: BacktrackingConfig) -> Self {
        Self::new(tensat_rules::single_rules(), config)
    }

    /// The configuration in use.
    pub fn config(&self) -> &BacktrackingConfig {
        &self.config
    }

    /// Runs the search on a graph.
    pub fn run(&self, graph: &RecExpr<TensorLang>) -> BacktrackingResult {
        let start = Instant::now();
        let model = &self.config.cost_model;
        let original_cost = model.graph_cost(graph);

        let mut best_graph = graph.clone();
        let mut best_cost = original_cost;
        let mut time_to_best = Duration::from_secs(0);

        let mut queue: BinaryHeap<Candidate> = BinaryHeap::new();
        let mut seen: HashSet<String> = HashSet::new();
        queue.push(Candidate {
            cost: original_cost,
            graph: graph.clone(),
        });
        seen.insert(graph.to_string());

        let mut graphs_explored = 0;
        let mut candidates_generated = 0;

        while let Some(Candidate { graph: current, .. }) = queue.pop() {
            if graphs_explored >= self.config.iterations
                || start.elapsed() >= self.config.time_limit
            {
                break;
            }
            graphs_explored += 1;

            for m in find_substitutions(&current, &self.rules) {
                if start.elapsed() >= self.config.time_limit {
                    break;
                }
                let Some(rewritten) = apply_substitution(&current, &self.rules, &m) else {
                    continue;
                };
                let key = rewritten.to_string();
                if !seen.insert(key) {
                    continue;
                }
                candidates_generated += 1;
                let cost = model.graph_cost(&rewritten);
                // Admission compares against the best cost *before* this
                // candidate: tested after the update, a new best at
                // α = 1 would have to beat itself and never be expanded.
                let admit = cost < self.config.alpha * best_cost;
                if cost < best_cost {
                    best_cost = cost;
                    best_graph = rewritten.clone();
                    time_to_best = start.elapsed();
                }
                if admit && queue.len() < self.config.max_queue {
                    queue.push(Candidate {
                        cost,
                        graph: rewritten,
                    });
                }
            }
        }

        BacktrackingResult {
            best_graph,
            original_cost,
            best_cost,
            total_time: start.elapsed(),
            time_to_best,
            graphs_explored,
            candidates_generated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensat_ir::GraphBuilder;

    fn parallel_matmuls() -> RecExpr<TensorLang> {
        let mut g = GraphBuilder::new();
        let x = g.input("x", &[32, 64]);
        let w1 = g.weight("w1", &[64, 64]);
        let w2 = g.weight("w2", &[64, 64]);
        let m1 = g.matmul(x, w1);
        let m2 = g.matmul(x, w2);
        let r1 = g.relu(m1);
        let r2 = g.relu(m2);
        g.finish(&[r1, r2])
    }

    #[test]
    fn search_improves_fusable_graph() {
        let graph = parallel_matmuls();
        let search = BacktrackingSearch::with_default_rules(BacktrackingConfig {
            iterations: 20,
            ..Default::default()
        });
        let result = search.run(&graph);
        assert!(result.best_cost < result.original_cost);
        assert!(result.speedup_percent() > 0.0);
        assert!(result.time_to_best <= result.total_time);
        assert!(result.graphs_explored >= 1);
        assert!(tensat_ir::infer_recexpr(&result.best_graph)
            .iter()
            .all(|d| d.is_valid()));
    }

    #[test]
    fn zero_iterations_returns_original() {
        let graph = parallel_matmuls();
        let search = BacktrackingSearch::with_default_rules(BacktrackingConfig {
            iterations: 0,
            ..Default::default()
        });
        let result = search.run(&graph);
        assert_eq!(result.best_cost, result.original_cost);
        assert_eq!(result.graphs_explored, 0);
    }

    #[test]
    fn more_iterations_never_hurt() {
        let graph = parallel_matmuls();
        let short = BacktrackingSearch::with_default_rules(BacktrackingConfig {
            iterations: 2,
            ..Default::default()
        })
        .run(&graph);
        let long = BacktrackingSearch::with_default_rules(BacktrackingConfig {
            iterations: 30,
            ..Default::default()
        })
        .run(&graph);
        assert!(long.best_cost <= short.best_cost + 1e-9);
    }

    #[test]
    fn a_new_best_is_expanded_at_alpha_one() {
        // At the paper's α = 1 every improvement must enter the queue and
        // be expanded in turn.
        let result = BacktrackingSearch::with_default_rules(BacktrackingConfig {
            iterations: 20,
            alpha: 1.0,
            ..Default::default()
        })
        .run(&parallel_matmuls());
        assert!(
            result.graphs_explored > 1,
            "explored {} graph(s)",
            result.graphs_explored
        );
    }

    #[test]
    fn alpha_above_one_explores_more_candidates() {
        let graph = parallel_matmuls();
        let strict = BacktrackingSearch::with_default_rules(BacktrackingConfig {
            iterations: 15,
            alpha: 1.0,
            ..Default::default()
        })
        .run(&graph);
        let relaxed = BacktrackingSearch::with_default_rules(BacktrackingConfig {
            iterations: 15,
            alpha: 1.2,
            ..Default::default()
        })
        .run(&graph);
        assert!(relaxed.candidates_generated >= strict.candidates_generated);
        assert!(relaxed.best_cost <= strict.best_cost + 1e-9);
    }
}
