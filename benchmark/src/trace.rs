//! The traced op: one extra sweep assembled from the library's public
//! functions in the order `Optimizer::optimize` calls them, with a span
//! around every call and replay probes between iterations. It gives the
//! per-layer metrics; end-to-end metrics never come from here.

use crate::alloc;
use crate::clock::ThreadCpu;
use crate::json::Json;
use crate::reference::Reference;
use crate::run::{Measured, Prepared, Signature};
use crate::workloads::ilp_hard_probes;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;
use tensat_core::{
    explore_with, extract_greedy, extract_greedy_dag, extract_ilp, find_cycles, DescendantsMap,
    ExplorationContext, ExplorationStats, ExplorationStrategy, ExtractionMode, ExtractionOutcome,
    IlpConfig, Optimizer,
};
use tensat_egraph::search_all_guarded_parallel;
use tensat_ilp::Status;
use tensat_ir::{infer_recexpr, TensorAnalysis, TensorEGraph};
use tensat_rules::{multi_rules, single_rules, MultiPatternRule, TensorRewrite};

/// A per-layer metric: name, unit and direction, which `BENCHMARK.json`
/// lists too, and the prediction written down before measuring: the
/// end-to-end metric a change to this layer should move and on which
/// workloads, as `<metric> on <workload>, ..`. Empty predicts no change.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

/// Sums over the traced op's cases; ratios are of the sums. A layer the
/// workload does not run (the ILP under greedy-DAG extraction) reads 0.
#[rustfmt::skip]
pub const PER_LAYER: [PerLayer; 51] = [
    layer("rules.build_ms", "ms", "lower", "setup_s on every workload"),
    layer("rules.single_count", "count", "lower", ""),
    layer("rules.multi_count", "count", "lower", ""),
    layer("ir.infer_input_ms", "ms", "lower", "opt_cpu_s on zoo7_small"),
    layer("ir.cost_input_ms", "ms", "lower", "opt_cpu_s on zoo7_small"),
    layer("egraph.seed_ms", "ms", "lower", "opt_cpu_s on zoo7_small"),
    layer("egraph.search_sweep_ms", "ms", "lower", "opt_cpu_s on nasnet_search"),
    layer("egraph.search_matches", "count", "lower", ""),
    layer("egraph.search_ns_per_match", "ns", "lower", "opt_cpu_s on nasnet_search"),
    layer("egraph.search_unguarded_sweep_ms", "ms", "lower", ""),
    layer("egraph.guard_overhead_pct", "%", "lower", "opt_cpu_s on nasnet_search"),
    layer("egraph.search_par2_sweep_ms", "ms", "lower", ""),
    layer("egraph.clone_ms", "ms", "lower", ""),
    layer("egraph.final_enodes", "count", "higher", ""),
    layer("egraph.final_eclasses", "count", "higher", ""),
    layer("egraph.final_heap_mb", "MB", "lower", "peak_mem_mb on bert_apply, nasnet_search"),
    layer("explore.context_new_ms", "ms", "lower", "opt_cpu_s on zoo7_small"),
    layer("explore.iterations", "count", "lower", ""),
    layer("explore.iter_ms_total", "ms", "lower", ""),
    layer("explore.search_ms", "ms", "lower", "opt_cpu_s on nasnet_search"),
    layer("explore.apply_ms", "ms", "lower", "opt_cpu_s on bert_apply"),
    layer("explore.rebuild_ms", "ms", "lower", "opt_cpu_s on nasnet_search"),
    layer("explore.unattributed_ms", "ms", "lower", ""),
    layer("explore.apply_share", "share", "lower", "opt_cpu_s on bert_apply"),
    layer("explore.nodes_added_per_match", "ratio", "higher", "opt_cpu_s on bert_apply"),
    layer("explore.filtered_nodes", "count", "lower", ""),
    layer("cycles.descendants_ms", "ms", "lower", "opt_cpu_s on bert_apply"),
    layer("cycles.descendants_mb", "MB", "lower", "peak_mem_mb on bert_apply"),
    layer("cycles.find_cycles_ms", "ms", "lower", "opt_cpu_s on nasnet_search"),
    layer("extract.tree_greedy_ms", "ms", "lower", ""),
    layer("extract.greedy_dag_ms", "ms", "lower", "opt_cpu_s on bert_apply"),
    layer("extract.ilp_ms", "ms", "lower", "opt_cpu_s on ilp_extract"),
    layer("extract.ilp_reduce_encode_ms", "ms", "lower", "opt_cpu_s on ilp_extract"),
    layer("extract.ilp_vars_before", "count", "lower", ""),
    layer("extract.ilp_vars", "count", "lower", ""),
    layer("extract.ilp_constraints", "count", "lower", ""),
    layer("extract.forced_classes", "count", "higher", ""),
    layer("extract.dominated_pruned", "count", "higher", ""),
    layer("extract.dag_cost_us", "us", "lower", "graph_speedup_x on zoo7_small, bert_apply, nasnet_search"),
    layer("extract.ilp_cost_us", "us", "lower", "graph_speedup_x on ilp_extract"),
    layer("extract.dag_vs_ilp_gap_pct", "%", "lower", "graph_speedup_x on every workload"),
    layer("extract.ilp_hard_proved_share", "share", "higher", ""),
    layer("ilp.solve_ms", "ms", "lower", "opt_cpu_s on ilp_extract"),
    layer("ilp.bb_nodes", "count", "lower", "opt_cpu_s on ilp_extract"),
    layer("ilp.ns_per_bb_node", "ns", "lower", "opt_cpu_s on ilp_extract"),
    layer("ilp.presolve_fixed", "count", "higher", "opt_cpu_s on ilp_extract"),
    layer("alloc.allocs_per_op", "count", "lower", "opt_cpu_s on bert_apply"),
    layer("alloc.bytes_per_op", "bytes", "lower", "peak_mem_mb on every workload"),
    layer("trace.op_ms", "ms", "lower", ""),
    layer("trace.uncovered_pct", "%", "lower", ""),
    layer("trace.overhead_pct", "%", "lower", ""),
];

/// One timed interval. Spans of one traced op share `op_id`.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// The case label on `optimize` spans, else empty.
    pub detail: String,
    /// Wall nanoseconds since the tracer was made.
    pub start_ns: u64,
    pub end_ns: u64,
    /// On-CPU nanoseconds of the calling thread inside the span.
    pub cpu_ns: u64,
    /// The span that was open when this one began.
    pub parent: Option<usize>,
    pub op_id: u64,
    /// A replay the optimizer itself does not make: not part of the op's time.
    pub probe: bool,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans and counts, kept in memory until the run ends.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    clock: ThreadCpu,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    op_id: u64,
    counts: BTreeMap<&'static str, f64>,
}

impl Tracer {
    fn new() -> Result<Self, String> {
        Ok(Tracer {
            epoch: Instant::now(),
            clock: ThreadCpu::open()?,
            spans: vec![],
            open: vec![],
            op_id: 0,
            counts: BTreeMap::new(),
        })
    }

    fn enter(&mut self, name: &'static str, detail: &str, probe: bool) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            detail: detail.to_string(),
            start_ns: 0,
            end_ns: 0,
            cpu_ns: self.clock.ns(),
            parent: self.open.last().copied(),
            op_id: self.op_id,
            probe,
        });
        self.open.push(id);
        // Read last, so the span does not time its own bookkeeping.
        self.spans[id].start_ns = self.epoch.elapsed().as_nanos() as u64;
        id
    }

    fn exit(&mut self, id: usize) {
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.cpu_ns = self.clock.ns() - span.cpu_ns;
    }

    fn count(&mut self, name: &'static str, amount: f64) {
        *self.counts.entry(name).or_insert(0.0) += amount;
    }
}

/// Runs `work` inside a span. The tracer is borrowed only to open and close
/// it, so `work` may open spans of its own.
fn span<T>(
    tracer: &RefCell<Tracer>,
    name: &'static str,
    probe: bool,
    work: impl FnOnce() -> T,
) -> T {
    let id = tracer.borrow_mut().enter(name, "", probe);
    let out = work();
    tracer.borrow_mut().exit(id);
    out
}

fn count(tracer: &RefCell<Tracer>, name: &'static str, amount: f64) {
    tracer.borrow_mut().count(name, amount);
}

/// A span's duration minus the part of it that its child spans cover.
pub fn self_ns(spans: &[Span], id: usize) -> u64 {
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    children.sort_unstable();
    let (mut covered, mut reach) = (0, spans[id].start_ns);
    for (start, end) in children {
        let (start, end) = (start.max(reach), end.min(spans[id].end_ns));
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    spans[id].duration_ns() - covered
}

/// `Saturate::run` line for line, with a span around each iteration and the
/// replay probes before it, on the clean iteration-start e-graph.
#[derive(Debug)]
struct TracedSaturate<'a> {
    tracer: &'a RefCell<Tracer>,
}

impl ExplorationStrategy for TracedSaturate<'_> {
    fn name(&self) -> &'static str {
        "saturate"
    }

    fn run(&self, egraph: &mut TensorEGraph, ctx: &ExplorationContext<'_>) -> ExplorationStats {
        let t = self.tracer;
        span(t, "explore.strategy", false, || {
            let mut stats = ExplorationStats::default();
            egraph.rebuild();
            for iter in 0..ctx.config().max_iter {
                if ctx.over_budget(egraph) {
                    break;
                }
                replay_probes(t, egraph, ctx.single_rules());
                let changed = span(t, "explore.iteration", false, || {
                    ctx.run_iteration(egraph, iter, &mut stats)
                });
                if !changed {
                    stats.saturated = true;
                    break;
                }
            }
            ctx.finish(egraph, &mut stats);
            stats
        })
    }
}

/// What an iteration is about to do to this e-graph, done once more through
/// the public functions, each on its own: a guarded search sweep, the same
/// sweep without guards and on two threads, and the descendants map.
fn replay_probes(t: &RefCell<Tracer>, egraph: &TensorEGraph, singles: &[TensorRewrite]) {
    let matches: usize = span(t, "egraph.search_sweep", true, || {
        singles
            .iter()
            .flat_map(|rule| rule.search(egraph))
            .map(|m| m.substs.len())
            .sum()
    });
    count(t, "egraph.search_matches", matches as f64);
    span(t, "egraph.search_unguarded_sweep", true, || {
        for rule in singles {
            black_box(rule.searcher.search(egraph));
        }
    });
    let queries: Vec<_> = singles.iter().map(|rule| rule.searcher_query()).collect();
    span(t, "egraph.search_par2_sweep", true, || {
        black_box(search_all_guarded_parallel(&queries, egraph, 2));
    });
    span(t, "cycles.descendants", true, || {
        black_box(DescendantsMap::compute(egraph));
    });
}

fn record_extraction(t: &RefCell<Tracer>, kind: ExtractionMode, outcome: &ExtractionOutcome) {
    let ms = outcome.time.as_secs_f64() * 1e3;
    match kind {
        ExtractionMode::Greedy => {
            count(t, "extract.tree_greedy_ms", ms);
        }
        ExtractionMode::GreedyDag => {
            count(t, "extract.greedy_dag_ms", ms);
            count(t, "extract.dag_cost_us", outcome.dag_cost);
        }
        ExtractionMode::Ilp => {
            count(t, "extract.ilp_ms", ms);
            count(t, "extract.ilp_cost_us", outcome.dag_cost);
        }
    }
    if let Some(ilp) = &outcome.ilp {
        let solve_ms = ilp.solve_time.as_secs_f64() * 1e3;
        count(t, "extract.ilp_reduce_encode_ms", ms - solve_ms);
        count(t, "extract.ilp_vars_before", ilp.vars_before as f64);
        count(t, "extract.ilp_vars", ilp.num_vars as f64);
        count(t, "extract.ilp_constraints", ilp.num_constraints as f64);
        count(t, "extract.forced_classes", ilp.forced_classes as f64);
        count(t, "extract.dominated_pruned", ilp.dominated_pruned as f64);
        count(t, "ilp.solve_ms", solve_ms);
        count(t, "ilp.bb_nodes", ilp.nodes_explored as f64);
        count(t, "ilp.presolve_fixed", ilp.presolve_fixed as f64);
    }
}

/// One case of the traced op. Returns what the untraced ops' signature
/// must equal.
fn traced_case(
    t: &RefCell<Tracer>,
    prepared: &Prepared,
    singles: &[TensorRewrite],
    multis: &[MultiPatternRule],
) -> Result<Signature, String> {
    let (graph, config) = (&prepared.case.graph, &prepared.case.config);
    let model = &config.cost_model;
    let label = prepared.case.label.as_str();
    let optimize = t.borrow_mut().enter("optimize", label, false);

    span(t, "ir.infer_input", true, || {
        black_box(infer_recexpr(graph));
    });
    let original = span(t, "ir.cost_input", false, || {
        model.graph_cost_composite(graph)
    });

    let live_before_egraph = alloc::snapshot().live;
    let (mut egraph, root) = span(t, "egraph.seed", false, || {
        let mut egraph = TensorEGraph::new(TensorAnalysis);
        let root = egraph.add_expr(graph);
        egraph.rebuild();
        (egraph, root)
    });
    let seed_enodes = egraph.total_number_of_nodes();

    let exploration = config.exploration_config();
    let stats = span(t, "explore", false, || {
        let strategy = TracedSaturate { tracer: t };
        explore_with(&strategy, &mut egraph, root, singles, multis, &exploration)
    });
    if stats.time >= config.exploration_time_limit {
        return Err(format!("{label}: exploration time limit bound"));
    }
    count(t, "explore.iterations", stats.iterations as f64);
    count(
        t,
        "explore.search_ms",
        stats.search_time.as_secs_f64() * 1e3,
    );
    count(t, "explore.apply_ms", stats.apply_time.as_secs_f64() * 1e3);
    count(
        t,
        "explore.rebuild_ms",
        stats.rebuild_time.as_secs_f64() * 1e3,
    );
    count(t, "explore.filtered_nodes", stats.filtered_nodes as f64);
    count(
        t,
        "explore.nodes_added",
        (stats.enodes - seed_enodes) as f64,
    );
    count(t, "egraph.final_enodes", stats.enodes as f64);
    count(t, "egraph.final_eclasses", stats.eclasses as f64);
    let egraph_bytes = alloc::snapshot().live.saturating_sub(live_before_egraph);
    count(t, "egraph.final_heap_mb", egraph_bytes as f64 / 1e6);

    // Read-only probes of the explored e-graph.
    let copy = span(t, "egraph.clone", true, || egraph.clone());
    drop(copy);
    let live_before_map = alloc::snapshot().live;
    let map = span(t, "cycles.descendants_final", true, || {
        DescendantsMap::compute(&egraph)
    });
    let map_bytes = alloc::snapshot().live.saturating_sub(live_before_map);
    count(t, "cycles.descendants_mb", map_bytes as f64 / 1e6);
    drop(map);
    span(t, "cycles.find_cycles", true, || {
        black_box(find_cycles(&egraph, root));
    });

    // The extractor the workload uses is part of the op; the cheap ones it
    // does not use are probes. The ILP is no probe elsewhere: on the 20k
    // e-node e-graphs of the exploration workloads it does not finish.
    let ilp_config = IlpConfig {
        cycle_constraints: config.ilp_cycle_constraints,
        integer_topo_vars: config.ilp_integer_topo_vars,
        time_limit: config.ilp_time_limit,
        ..Default::default()
    };
    let mut own = None;
    for (kind, name) in [
        (ExtractionMode::Greedy, "extract.tree_greedy"),
        (ExtractionMode::GreedyDag, "extract.greedy_dag"),
        (ExtractionMode::Ilp, "extract.ilp"),
    ] {
        let is_own = kind == config.extraction;
        if kind == ExtractionMode::Ilp && !is_own {
            continue;
        }
        let outcome = span(t, name, !is_own, || match kind {
            ExtractionMode::Greedy => extract_greedy(&egraph, root, model),
            ExtractionMode::GreedyDag => extract_greedy_dag(&egraph, root, model),
            ExtractionMode::Ilp => extract_ilp(&egraph, root, model, &ilp_config),
        })
        .map_err(|e| format!("{label}: {name}: {e:?}"))?;
        record_extraction(t, kind, &outcome);
        if is_own {
            own = Some(outcome);
        }
    }
    let outcome = own.expect("the loop covers every ExtractionMode");
    if outcome
        .ilp
        .as_ref()
        .is_some_and(|ilp| ilp.status != Status::Optimal)
    {
        return Err(format!("{label}: ILP not proven optimal"));
    }

    let cost_us = span(t, "optimizer.select", false, || {
        if outcome.cost.total_order(&original).is_le() {
            outcome.cost.latency
        } else {
            original.latency
        }
    });
    span(t, "egraph.drop", false, || drop(egraph));
    t.borrow_mut().exit(optimize);
    Ok(Signature {
        enodes: stats.enodes,
        eclasses: stats.eclasses,
        iterations: stats.iterations,
        cost_us,
    })
}

/// Share of the known-hard ILPs proven `Optimal` within their two seconds.
fn ilp_hard_proved_share(t: &RefCell<Tracer>) -> f64 {
    let probes = ilp_hard_probes();
    let proved = probes
        .iter()
        .filter(|case| {
            span(t, "extract.ilp_hard_probe", true, || {
                Optimizer::new(case.config.clone())
                    .optimize(&case.graph)
                    .is_ok_and(|r| r.stats.ilp.is_some_and(|ilp| ilp.status == Status::Optimal))
            })
        })
        .count();
    proved as f64 / probes.len() as f64
}

/// What the traced op gives: the per-layer metrics in [`PER_LAYER`]'s
/// order, and the spans for `results/trace_<workload>.json`.
pub struct Traced {
    pub per_layer: Vec<f64>,
    pub spans: Json,
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// Runs the traced op after the timed loop, and a reference burst after it.
/// Fails if a case does not end with the e-graph and cost of the untraced
/// ops.
pub fn traced_op(
    workload: &str,
    prepared: &[Prepared],
    measured: &Measured,
    reference: &mut Reference,
) -> Result<Traced, String> {
    let mark = reference.mark();
    let t = &RefCell::new(Tracer::new()?);
    let (singles, multis) = span(t, "rules.build", true, || (single_rules(), multi_rules()));
    count(t, "rules.single_count", singles.len() as f64);
    count(t, "rules.multi_count", multis.len() as f64);

    t.borrow_mut().op_id = 1;
    let op = t.borrow_mut().enter("op", workload, false);
    for p in prepared {
        let signature = traced_case(t, p, &singles, &multis)?;
        if signature != p.signature {
            return Err(format!(
                "{}: traced op ended at {signature:?}, untraced ops at {:?}",
                p.case.label, p.signature
            ));
        }
    }
    t.borrow_mut().exit(op);
    t.borrow_mut().op_id = 0;
    reference.burst();

    // Where the ILP is on the path, also ask whether it got any better at
    // the instances it cannot close today.
    let uses_ilp = |p: &Prepared| p.case.config.extraction == ExtractionMode::Ilp;
    if prepared.iter().any(uses_ilp) {
        let share = ilp_hard_proved_share(t);
        count(t, "extract.ilp_hard_proved_share", share);
    }

    let tracer = t.borrow();
    let spans = &tracer.spans;
    let ms = |name: &str| {
        let named = spans.iter().filter(|s| s.name == name);
        named.map(Span::duration_ns).sum::<u64>() as f64 / 1e6
    };
    let counted = |name: &str| tracer.counts.get(name).copied().unwrap_or(0.0);

    let in_op = || spans.iter().filter(|s| s.op_id == 1);
    let probe_ns: u64 = in_op().filter(|s| s.probe).map(Span::duration_ns).sum();
    let probe_cpu_ns: u64 = in_op().filter(|s| s.probe).map(|s| s.cpu_ns).sum();
    let op_ns = spans[op].duration_ns() - probe_ns;
    // Time inside the op that no layer's span covers: the op's own self
    // time and that of the per-case spans directly under it.
    let uncovered_ns = self_ns(spans, op)
        + (0..spans.len())
            .filter(|&i| spans[i].name == "optimize")
            .map(|i| self_ns(spans, i))
            .sum::<u64>();
    let uncovered_pct = 100.0 * uncovered_ns as f64 / op_ns as f64;
    // Wall time, so a pause of the host between two spans lands here: it
    // is said, not failed on. The spans themselves leave about 1 % out.
    if uncovered_pct > 2.0 {
        eprintln!("warning: {uncovered_pct:.2} % of the traced op is in no layer's span");
    }
    let op_cpu_s = (spans[op].cpu_ns - probe_cpu_ns) as f64 * 1e-9;

    let iter_ms = ms("explore.iteration");
    let split_ms =
        counted("explore.search_ms") + counted("explore.apply_ms") + counted("explore.rebuild_ms");
    let (guarded_ms, unguarded_ms) = (
        ms("egraph.search_sweep"),
        ms("egraph.search_unguarded_sweep"),
    );
    let (dag_us, ilp_us) = (
        counted("extract.dag_cost_us"),
        counted("extract.ilp_cost_us"),
    );
    let value = |name: &str| -> f64 {
        match name {
            "rules.build_ms" => ms("rules.build"),
            "ir.infer_input_ms" => ms("ir.infer_input"),
            "ir.cost_input_ms" => ms("ir.cost_input"),
            "egraph.seed_ms" => ms("egraph.seed"),
            "egraph.search_sweep_ms" => guarded_ms,
            "egraph.search_ns_per_match" => {
                ratio(guarded_ms * 1e6, counted("egraph.search_matches"))
            }
            "egraph.search_unguarded_sweep_ms" => unguarded_ms,
            "egraph.guard_overhead_pct" => 100.0 * ratio(guarded_ms - unguarded_ms, unguarded_ms),
            "egraph.search_par2_sweep_ms" => ms("egraph.search_par2_sweep"),
            "egraph.clone_ms" => ms("egraph.clone"),
            "explore.context_new_ms" => ms("explore") - ms("explore.strategy"),
            "explore.iter_ms_total" => iter_ms,
            "explore.unattributed_ms" => iter_ms - split_ms,
            "explore.apply_share" => ratio(counted("explore.apply_ms"), iter_ms),
            "explore.nodes_added_per_match" => ratio(
                counted("explore.nodes_added"),
                counted("egraph.search_matches"),
            ),
            "cycles.descendants_ms" => ms("cycles.descendants"),
            "cycles.find_cycles_ms" => ms("cycles.find_cycles"),
            "extract.dag_vs_ilp_gap_pct" if ilp_us > 0.0 => 100.0 * (dag_us - ilp_us) / ilp_us,
            "ilp.ns_per_bb_node" => ratio(counted("ilp.solve_ms") * 1e6, counted("ilp.bb_nodes")),
            "alloc.allocs_per_op" => measured.allocs_per_op,
            "alloc.bytes_per_op" => measured.bytes_per_op,
            "trace.op_ms" => op_ns as f64 / 1e6,
            "trace.uncovered_pct" => uncovered_pct,
            // Both in reference seconds.
            "trace.overhead_pct" => {
                100.0 * (reference.scaled(op_cpu_s, mark) / measured.opt_cpu_s() - 1.0)
            }
            counted_as_named => counted(counted_as_named),
        }
    };
    let per_layer = PER_LAYER.iter().map(|m| value(m.name)).collect();

    let spans_json = spans.iter().enumerate().map(|(id, s)| {
        Json::obj([
            ("id", Json::Num(id as f64)),
            ("name", Json::str(s.name)),
            ("detail", Json::str(s.detail.as_str())),
            ("start_ns", Json::Num(s.start_ns as f64)),
            ("end_ns", Json::Num(s.end_ns as f64)),
            ("self_ns", Json::Num(self_ns(spans, id) as f64)),
            ("cpu_ns", Json::Num(s.cpu_ns as f64)),
            (
                "parent",
                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
            ),
            ("op_id", Json::Num(s.op_id as f64)),
            ("probe", Json::Bool(s.probe)),
        ])
    });
    Ok(Traced {
        per_layer,
        spans: Json::Arr(spans_json.collect()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            detail: String::new(),
            start_ns,
            end_ns,
            cpu_ns: 0,
            parent,
            op_id: 1,
            probe: name == "probe",
        }
    }

    #[test]
    fn self_time_leaves_out_nested_and_probe_children() {
        let spans = [
            at("op", 0, 1000, None),
            at("explore", 100, 900, Some(0)),
            at("probe", 150, 250, Some(1)),
            at("iteration", 250, 600, Some(1)),
            at("inner", 300, 400, Some(3)),
            at("probe", 600, 700, Some(1)),
            at("iteration", 700, 850, Some(1)),
            at("extract", 900, 980, Some(0)),
        ];
        // op: 1000 - explore 800 - extract 80.
        assert_eq!(self_ns(&spans, 0), 120);
        // explore: 800 - probes 200 - iterations 500; grandchildren do not count twice.
        assert_eq!(self_ns(&spans, 1), 100);
        assert_eq!(self_ns(&spans, 3), 250);
        assert_eq!(self_ns(&spans, 4), 100);
        let total: u64 = (0..spans.len()).map(|i| self_ns(&spans, i)).sum();
        assert_eq!(total, 1000, "self times partition the op");
    }

    #[test]
    fn overlapping_children_are_covered_once() {
        let spans = [
            at("parent", 0, 100, None),
            at("a", 10, 60, Some(0)),
            at("b", 40, 80, Some(0)),
            at("c", 90, 130, Some(0)),
        ];
        assert_eq!(self_ns(&spans, 0), 100 - 70 - 10);
    }

    #[test]
    fn the_tracer_nests_spans_under_the_open_one() {
        let t = RefCell::new(Tracer::new().unwrap());
        let inner = span(&t, "outer", false, || {
            span(&t, "probe", true, || ());
            span(&t, "inner", false, || 7)
        });
        assert_eq!(inner, 7);
        let tracer = t.borrow();
        let parents: Vec<_> = tracer.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(0)]);
        assert!(tracer.spans[1].probe && !tracer.spans[2].probe);
        assert!(tracer.spans[0].start_ns <= tracer.spans[1].start_ns);
        assert!(tracer.spans[2].end_ns <= tracer.spans[0].end_ns);
    }

    #[test]
    fn per_layer_names_are_unique() {
        let mut names: Vec<_> = PER_LAYER.iter().map(|m| m.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len());
    }

    #[test]
    fn predictions_name_end_to_end_metrics_and_workloads() {
        use crate::run::END_TO_END;
        use crate::workloads::WORKLOADS;
        for m in PER_LAYER.iter().filter(|m| !m.moves.is_empty()) {
            let (metric, workloads) = m.moves.split_once(" on ").expect(m.name);
            assert!(END_TO_END.iter().any(|e| e.name == metric), "{}", m.name);
            for workload in workloads.split(", ") {
                let known = WORKLOADS.iter().any(|w| w.name == workload);
                assert!(known || workload == "every workload", "{}", m.name);
            }
        }
        // Every end-to-end metric and every workload has a layer watching it.
        for e in &END_TO_END {
            assert!(
                PER_LAYER.iter().any(|m| m.moves.starts_with(e.name)),
                "{}",
                e.name
            );
        }
        for w in &WORKLOADS {
            assert!(
                PER_LAYER.iter().any(|m| m.moves.contains(w.name)),
                "{}",
                w.name
            );
        }
    }
}
