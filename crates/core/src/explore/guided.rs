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
//! rule's Cartesian combinations). An action runs through the engine's
//! apply phase and seal — the code an iteration of `Saturate` runs — on a
//! clone of its parent e-graph; the child state is then scored with
//! the cheap rollout evaluator from the extraction seam: the greedy-DAG
//! extracted cost of the root ([`DagExtractor`] over [`ModelCost`]) plus
//! a per-node growth penalty. The top-k states survive (elitism: parents
//! compete with their children, so the best score is monotone), and the
//! search stops when a step improves nothing, when no action changes any
//! state, or when a limit is hit.
//!
//! Determinism: no randomness and no wall-clock-dependent tie-breaks —
//! match lists are bit-identical across thread counts, candidates are
//! generated in (beam index, rule index) order, scores compare via
//! `f64::total_cmp`, and the sort is stable. Two runs under the same
//! budget produce bit-identical e-graphs (the time limit is the only
//! nondeterministic input; give the search headroom when comparing runs).
//!
//! The node budget is *hard*: an application is attempted only while the
//! state plus the action's worst-case growth (its right-hand sides' size)
//! stays within `OptimizerConfig::node_limit`, so no candidate — and hence
//! the final e-graph — ever exceeds it.

use super::context::{Action, ExplorationContext};
use super::{ExplorationStats, ExplorationStrategy};
use tensat_egraph::{DagExtractor, Id, SearchMatches};
use tensat_ir::{CostModel, ModelCost, TensorEGraph};

/// Candidate e-graph states kept per step (the top-k beam).
const BEAM_WIDTH: usize = 2;
/// Maximum beam steps. Each step expands every beam state by every
/// applicable rule action, so the work per step is roughly `BEAM_WIDTH ×
/// rules` scorings of budget-bounded e-graphs.
const MAX_STEPS: usize = 8;
/// Score penalty per e-node in the state (µs per node): biases the search
/// against growth that does not pay for itself in extracted cost, and
/// breaks ties between equal-cost states toward the smaller e-graph.
const GROWTH_PENALTY: f64 = 0.01;

/// Accepted and ignored: the type of
/// [`OptimizerConfig::guided`](crate::OptimizerConfig::guided), which
/// configures nothing — the beam's width, step count and growth penalty
/// are constants of [`Guided`]. Braced rather than a unit struct, because
/// callers build it with `GuidedConfig::default()`, which clippy rejects
/// on a unit struct.
#[derive(Debug, Clone, Default)]
pub struct GuidedConfig {}

/// The guided beam-search strategy (see the module docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct Guided;

/// One candidate e-graph state in the beam.
struct State {
    egraph: TensorEGraph,
    /// `extracted cost.latency + GROWTH_PENALTY * enodes` — the beam
    /// ordering key.
    score: f64,
    /// Cheap identity signature used to drop duplicate states (two
    /// actions can produce the same e-graph) before they eat beam slots.
    signature: (usize, usize, usize, u64),
}

/// Scores `egraph` by the cheap rollout evaluator: the greedy-DAG extracted
/// latency of the root plus the growth penalty; a state with no extractable
/// term (every candidate filtered) is dead.
fn state_of(egraph: TensorEGraph, root: Id, model: &CostModel) -> State {
    let best = DagExtractor::new(&egraph, ModelCost::new(model, &egraph)).find_best(root);
    let score = best.map_or(f64::INFINITY, |(cost, _)| {
        cost.latency + GROWTH_PENALTY * egraph.total_number_of_nodes() as f64
    });
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

/// One action on a candidate state: `action`'s matches applied through
/// the engine's apply phase under a *hard* node budget, then sealed
/// (rebuild + cycle post-filter) for scoring. An application is attempted
/// only while the state plus the action's headroom stays within `budget`,
/// so the state never exceeds it.
pub(super) fn act(
    ctx: &ExplorationContext<'_>,
    egraph: &mut TensorEGraph,
    action: Action,
    matches: &[Vec<SearchMatches>],
    budget: usize,
    stats: &mut ExplorationStats,
) {
    let headroom = ctx.headroom(action);
    let keep_going = |egraph: &TensorEGraph| {
        egraph.total_number_of_nodes() + headroom <= budget && !ctx.out_of_time()
    };
    ctx.apply_phase(
        egraph,
        stats,
        |_, _| matches,
        |egraph, matches, desc| ctx.apply_action(egraph, action, matches, desc, keep_going),
    );
    ctx.seal(egraph, stats);
}

impl ExplorationStrategy for Guided {
    fn name(&self) -> &'static str {
        "guided"
    }

    fn run(&self, egraph: &mut TensorEGraph, ctx: &ExplorationContext<'_>) -> ExplorationStats {
        let mut stats = ExplorationStats::default();
        egraph.rebuild();
        let config = ctx.config();
        let budget = config.node_limit;
        let model = &config.cost_model;
        let root = ctx.root();

        if egraph.total_number_of_nodes() > budget {
            // The seed alone exceeds the budget: nothing can be explored.
            ctx.finish(egraph, &mut stats);
            return stats;
        }

        let mut beam = vec![state_of(egraph.clone(), root, model)];

        for step in 0..MAX_STEPS {
            if ctx.out_of_time() {
                break;
            }
            // Multi-pattern actions follow the saturation schedule: only
            // the first `k_multi` steps may apply them.
            let include_multi = step < config.k_multi;
            let mut candidates: Vec<State> = Vec::new();
            'expand: for state in &beam {
                let (single, multi) = ctx.search_state(&state.egraph, include_multi, &mut stats);
                let nodes_before = state.egraph.total_number_of_nodes();
                let unions_before = state.egraph.union_count();
                // One action per rule, single-pattern rules first. Past the
                // first k_multi steps `multi` is empty, so no multi-pattern
                // rule has a match.
                let singles = (0..single.len()).map(Action::Single);
                for action in singles.chain((0..ctx.multi_rule_count()).map(Action::Multi)) {
                    if ctx.out_of_time() {
                        break 'expand;
                    }
                    let matches = match action {
                        Action::Single(rule) => std::slice::from_ref(&single[rule]),
                        Action::Multi(_) => &multi[..],
                    };
                    // An action with no match, or whose one application
                    // would not fit the budget, cannot change the state.
                    if matches.iter().all(Vec::is_empty)
                        || nodes_before + ctx.headroom(action) > budget
                    {
                        continue;
                    }
                    let mut next = state.egraph.clone();
                    act(ctx, &mut next, action, matches, budget, &mut stats);
                    debug_assert!(next.total_number_of_nodes() <= budget);
                    if next.total_number_of_nodes() != nodes_before
                        || next.union_count() != unions_before
                    {
                        candidates.push(state_of(next, root, model));
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
            pool.truncate(BEAM_WIDTH);
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
