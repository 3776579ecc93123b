//! Guided exploration: a deterministic beam search (MCTS-lite) over
//! rule-batch actions, in the spirit of Hartmann & He (arXiv:2410.05534),
//! which treats rule application as a sequential decision problem instead
//! of saturating.
//!
//! Where [`Saturate`](super::Saturate) applies *every* admissible match
//! every iteration — and therefore blows past tight node limits on large
//! models — [`Guided`] holds a beam of candidate e-graph states and, at
//! each step, expands every state by one *action*: the budgeted
//! application of a single rule's whole match batch (or one multi-pattern
//! rule's Cartesian combinations). Each child state is an e-graph
//! snapshot ([`tensat_egraph::EGraph::snapshot`]) sealed by
//! rebuild + cycle filtering, then scored with the cheap rollout
//! evaluator from the extraction seam: the greedy-DAG extracted cost of
//! the root ([`DagExtractor`] over [`DagCost`]) plus a per-node growth
//! penalty. The top-k states survive (elitism: parents compete with their
//! children, so the best score is monotone), and the search stops when a
//! step improves nothing, when no action changes any state, or when a
//! limit is hit.
//!
//! Determinism: no randomness and no wall-clock-dependent tie-breaks —
//! match lists are bit-identical across thread counts, candidates are
//! generated in (beam index, rule index) order, scores compare via
//! `f64::total_cmp`, and the sort is stable. Two runs under the same
//! budget produce bit-identical e-graphs (the time limit is the only
//! nondeterministic input; give the search headroom when comparing runs).
//!
//! The node budget is *hard*: an action is applied only while the state
//! plus the applier's worst-case growth stays within
//! `OptimizerConfig::node_limit`, so no candidate — and hence the final
//! e-graph — ever exceeds it.

use super::context::ExplorationContext;
use super::{ExplorationStats, ExplorationStrategy};
use crate::extract::DagCost;
use std::time::Instant;
use tensat_egraph::{DagExtractor, Id};
use tensat_ir::{Cost, CostModel, TensorEGraph};

/// Parameters of the [`Guided`] strategy.
#[derive(Debug, Clone)]
pub struct GuidedConfig {
    /// Candidate e-graph states kept per step (top-k beam; minimum 1).
    pub beam_width: usize,
    /// Maximum beam steps. Each step expands every beam state by every
    /// applicable rule-batch action, so the work per step is roughly
    /// `beam_width × rules` searches/scorings on budget-bounded e-graphs.
    pub max_steps: usize,
    /// Score penalty per e-node in the state (µs per node): biases the
    /// search against growth that does not pay for itself in extracted
    /// cost, and breaks ties between equal-cost states toward the smaller
    /// e-graph.
    pub growth_penalty: f64,
}

impl Default for GuidedConfig {
    fn default() -> Self {
        GuidedConfig {
            beam_width: 2,
            max_steps: 8,
            growth_penalty: 0.01,
        }
    }
}

/// The guided beam-search strategy (see the module docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct Guided;

/// One candidate e-graph state in the beam.
struct State {
    egraph: TensorEGraph,
    /// `extracted cost.latency + growth_penalty * enodes` — the beam
    /// ordering key.
    score: f64,
    /// Cheap identity signature used to drop duplicate states (two
    /// actions can produce the same e-graph) before they eat beam slots.
    signature: (usize, usize, usize, u64),
}

fn evaluate(
    egraph: &TensorEGraph,
    root: Id,
    model: &CostModel,
    growth_penalty: f64,
) -> (Cost, f64) {
    let best = DagExtractor::new(egraph, DagCost::new(model.clone(), egraph)).find_best(root);
    match best {
        Some((cost, _)) => (
            cost,
            cost.latency + growth_penalty * egraph.total_number_of_nodes() as f64,
        ),
        // No extractable term (every candidate filtered): dead state.
        None => (Cost::INFINITE, f64::INFINITY),
    }
}

fn state_of(egraph: TensorEGraph, root: Id, model: &CostModel, growth_penalty: f64) -> State {
    let (_cost, score) = evaluate(&egraph, root, model, growth_penalty);
    let signature = (
        egraph.total_number_of_nodes(),
        egraph.number_of_classes(),
        egraph.union_count(),
        score.to_bits(),
    );
    State {
        egraph,
        score,
        signature,
    }
}

impl ExplorationStrategy for Guided {
    fn name(&self) -> &'static str {
        "guided"
    }

    fn run(&self, egraph: &mut TensorEGraph, ctx: &ExplorationContext<'_>) -> ExplorationStats {
        let mut stats = ExplorationStats::default();
        egraph.rebuild();
        let config = ctx.config();
        let gcfg = &config.guided;
        let budget = config.node_limit;
        let beam_width = gcfg.beam_width.max(1);
        let model = &config.cost_model;
        let root = ctx.root();

        if egraph.total_number_of_nodes() > budget {
            // The seed alone exceeds the budget: nothing can be explored.
            ctx.finish(egraph, &mut stats);
            return stats;
        }

        let mut beam = vec![state_of(
            egraph.snapshot(),
            root,
            model,
            gcfg.growth_penalty,
        )];

        for step in 0..gcfg.max_steps {
            if ctx.elapsed() >= config.exploration_time_limit {
                break;
            }
            // Multi-pattern actions follow the saturation schedule: only
            // the first `k_multi` steps may apply them.
            let include_multi = step < config.k_multi;
            let mut candidates: Vec<State> = Vec::new();
            'expand: for state in &beam {
                let search_start = Instant::now();
                let (single_matches, multi_matches) =
                    ctx.search_state(&state.egraph, include_multi);
                stats.search_time += search_start.elapsed();
                let nodes_before = state.egraph.total_number_of_nodes();
                let unions_before = state.egraph.union_count();
                let push = |next: TensorEGraph, candidates: &mut Vec<State>| {
                    let changed = next.total_number_of_nodes() != nodes_before
                        || next.union_count() != unions_before;
                    debug_assert!(next.total_number_of_nodes() <= budget);
                    if changed && next.total_number_of_nodes() <= budget {
                        candidates.push(state_of(next, root, model, gcfg.growth_penalty));
                    }
                };
                // One action per single-pattern rule with any match.
                for (ri, matches) in single_matches.iter().enumerate() {
                    if ctx.elapsed() >= config.exploration_time_limit {
                        break 'expand;
                    }
                    if matches.iter().all(|m| m.substs.is_empty()) {
                        continue;
                    }
                    let mut next = state.egraph.snapshot();
                    ctx.apply_single_budgeted(&mut next, ri, matches, budget, &mut stats);
                    push(next, &mut candidates);
                }
                // One action per multi-pattern rule (first k_multi steps).
                if include_multi && multi_matches.iter().any(|ms| !ms.is_empty()) {
                    for mi in 0..ctx.multi_rule_count() {
                        if ctx.elapsed() >= config.exploration_time_limit {
                            break 'expand;
                        }
                        let mut next = state.egraph.snapshot();
                        ctx.apply_multi_budgeted(&mut next, mi, &multi_matches, budget, &mut stats);
                        push(next, &mut candidates);
                    }
                }
            }
            if candidates.is_empty() {
                // No action changes any beam state within the budget: the
                // guided analogue of saturation.
                stats.saturated = true;
                break;
            }
            let best_before = beam[0].score;
            // Elitism: parents compete with their children, so the best
            // score never worsens and convergence is detectable.
            let mut pool = std::mem::take(&mut beam);
            pool.extend(candidates);
            pool.sort_by(|a, b| a.score.total_cmp(&b.score));
            let mut seen = std::collections::HashSet::new();
            pool.retain(|s| seen.insert(s.signature));
            pool.truncate(beam_width);
            beam = pool;
            stats.iterations = step + 1;
            stats
                .nodes_per_iteration
                .push(beam[0].egraph.total_number_of_nodes());
            if beam[0].score >= best_before && step > 0 {
                // A whole step of expansions improved nothing: converged.
                break;
            }
        }

        // The beam is sorted (or is the untouched seed): index 0 is the
        // best state ever seen, by elitism.
        *egraph = beam.swap_remove(0).egraph;
        debug_assert!(egraph.total_number_of_nodes() <= budget);
        ctx.finish(egraph, &mut stats);
        stats
    }
}
