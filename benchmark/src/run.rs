//! Set-up, the timed closed loop, the per-op checks and the end-to-end
//! metrics of one workload.

use crate::alloc;
use crate::clock::{process_cpu_s, ThreadCpu};
use crate::json::Json;
use crate::reference::{Reference, REFERENCE_S};
use crate::stats::{geomean, median, quartiles, tail_percentile};
use crate::workloads::{generate, Case};
use std::time::Instant;
use tensat_core::{ExtractionMode, OptimizationResult, Optimizer};
use tensat_egraph::RecExpr;
use tensat_ilp::Status;
use tensat_ir::{infer_recexpr, CostModel, TensorLang};

/// An end-to-end metric: name, unit, direction and the share of the
/// parent's median by which it may worsen. `BENCHMARK.json` lists the same.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

/// `failed_share` is not among them: the driver takes failures from the
/// result's `attempted` and `failed`, and a metric may never read 0.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "opt_cpu_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_mem_mb",
        unit: "MB",
        better: "lower",
        bound: 0.02,
    },
    EndToEnd {
        name: "graph_speedup_x",
        unit: "x",
        better: "higher",
        bound: 0.005,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

/// How many times a run sets the workload up: `setup_s` is the median.
const SETUPS: usize = 3;

/// A reference burst follows once the ops since the last one have used this
/// many CPU seconds, which keeps the bursts under a quarter of the loop.
const BURST_EVERY_S: f64 = 1.0;

/// Process CPU may exceed calling-thread CPU by this share (plus two clock
/// ticks) before the run is invalid: work must not hide in other threads.
const HIDDEN_CPU_SHARE: f64 = 0.05;

/// What makes two ops the same run of the optimizer: a later op whose
/// signature differs from the warm-up's has failed.
#[derive(Debug, Clone, PartialEq)]
pub struct Signature {
    pub enodes: usize,
    pub eclasses: usize,
    pub iterations: usize,
    pub cost_us: f64,
}

/// A case with what set-up builds for it once.
pub struct Prepared {
    pub case: Case,
    pub optimizer: Optimizer,
    /// Shapes of the input graph's outputs, which the optimized graph must keep.
    output_shapes: Vec<Option<Vec<i64>>>,
    /// From the warm-up op.
    pub signature: Signature,
}

/// Shapes of a graph's outputs: `GraphBuilder::finish` chains them under
/// `noop` nodes from the root.
fn output_shapes(graph: &RecExpr<TensorLang>) -> Option<Vec<Option<Vec<i64>>>> {
    let data = infer_recexpr(graph);
    if !data.iter().all(|d| d.is_valid()) {
        return None;
    }
    let shape = |id| data[usize::from(id)].shape().map(<[i64]>::to_vec);
    let mut shapes = vec![];
    let mut id = graph.root();
    while let TensorLang::Noop([rest, last]) = &graph.nodes()[usize::from(id)] {
        shapes.push(shape(*last));
        id = *rest;
    }
    shapes.push(shape(id));
    Some(shapes)
}

/// The checks every op's every result passes, none of which trusts a number
/// the optimizer reports about its own output.
fn check(
    case: &Case,
    shapes: &[Option<Vec<i64>>],
    result: &OptimizationResult,
) -> Result<Signature, String> {
    let config = &case.config;
    match output_shapes(&result.optimized_graph) {
        None => return Err("optimized graph is not well-typed".into()),
        Some(got) if got != shapes => return Err("output shapes changed".into()),
        Some(_) => {}
    }
    let recomputed = CostModel::default()
        .graph_cost_composite(&result.optimized_graph)
        .latency;
    if recomputed != result.optimized_cost {
        return Err(format!(
            "reported cost {} but the graph costs {recomputed}",
            result.optimized_cost
        ));
    }
    if result.optimized_cost > result.original_cost || result.optimized_cost <= 0.0 {
        return Err(format!(
            "cost {} -> {}",
            result.original_cost, result.optimized_cost
        ));
    }
    let exploration = &result.stats.exploration;
    if exploration.time >= config.exploration_time_limit {
        return Err("exploration time limit bound".into());
    }
    if config.extraction == ExtractionMode::Ilp {
        match &result.stats.ilp {
            Some(ilp) if ilp.status == Status::Optimal => {}
            Some(ilp) => return Err(format!("ILP status {:?}", ilp.status)),
            None => return Err("no ILP statistics".into()),
        }
    }
    Ok(Signature {
        enodes: exploration.enodes,
        eclasses: exploration.eclasses,
        iterations: exploration.iterations,
        cost_us: result.optimized_cost,
    })
}

/// One `Optimizer::optimize` call, measured.
struct CaseSample {
    cpu_s: f64,
    wall_s: f64,
    peak_bytes: usize,
    allocs: u64,
    bytes: u64,
    /// `original_cost / optimized_cost`.
    speedup: f64,
    checked: Result<Signature, String>,
}

fn run_case(
    case: &Case,
    optimizer: &Optimizer,
    shapes: &[Option<Vec<i64>>],
    clock: &ThreadCpu,
) -> CaseSample {
    alloc::reset_peak();
    let before = alloc::snapshot();
    let (cpu0, wall0) = (clock.ns(), Instant::now());
    let result = std::hint::black_box(optimizer.optimize(std::hint::black_box(&case.graph)));
    let (cpu1, wall) = (clock.ns(), wall0.elapsed());
    let after = alloc::snapshot();
    // Checked and dropped before the next case starts, so a case's peak
    // does not depend on where the seed put it in the sweep.
    let (speedup, checked) = match &result {
        Ok(result) => (
            result.original_cost / result.optimized_cost,
            check(case, shapes, result),
        ),
        Err(e) => (1.0, Err(format!("optimize: {e:?}"))),
    };
    CaseSample {
        cpu_s: (cpu1 - cpu0) as f64 * 1e-9,
        wall_s: wall.as_secs_f64(),
        peak_bytes: after.peak - before.live,
        allocs: after.allocs - before.allocs,
        bytes: after.bytes - before.bytes,
        speedup,
        checked,
    }
}

/// Generates the workload, builds one `Optimizer` per case and runs the
/// warm-up op, whose signatures later ops must repeat.
fn prepare(workload: &str, seed: u64, clock: &ThreadCpu) -> Result<Vec<Prepared>, String> {
    let cases = generate(workload, seed).ok_or_else(|| format!("unknown workload `{workload}`"))?;
    cases
        .into_iter()
        .map(|case| {
            let optimizer = Optimizer::new(case.config.clone());
            let output_shapes = output_shapes(&case.graph)
                .ok_or_else(|| format!("{}: input is not well-typed", case.label))?;
            let warm = run_case(&case, &optimizer, &output_shapes, clock);
            let signature = warm
                .checked
                .map_err(|e| format!("{}: warm-up: {e}", case.label))?;
            Ok(Prepared {
                case,
                optimizer,
                output_shapes,
                signature,
            })
        })
        .collect()
}

/// One sweep over the workload's cases.
struct OpSample {
    /// [`Reference::mark`] when the op began.
    mark: usize,
    cpu_s: f64,
    wall_s: f64,
    peak_mb: f64,
    allocs: f64,
    bytes: f64,
    speedup_x: f64,
    case_cpu_s: Vec<f64>,
    failure: Option<String>,
}

fn run_op(prepared: &[Prepared], clock: &ThreadCpu, mark: usize) -> OpSample {
    let samples: Vec<CaseSample> = prepared
        .iter()
        .map(|p| run_case(&p.case, &p.optimizer, &p.output_shapes, clock))
        .collect();
    let failure = prepared
        .iter()
        .zip(&samples)
        .find_map(|(p, s)| match &s.checked {
            Err(e) => Some(format!("{}: {e}", p.case.label)),
            Ok(sig) if *sig != p.signature => Some(format!(
                "{}: {sig:?} differs from the warm-up's {:?}",
                p.case.label, p.signature
            )),
            Ok(_) => None,
        });
    let peak = samples.iter().map(|s| s.peak_bytes).max().unwrap_or(0);
    OpSample {
        mark,
        cpu_s: samples.iter().map(|s| s.cpu_s).sum(),
        wall_s: samples.iter().map(|s| s.wall_s).sum(),
        peak_mb: peak as f64 / 1e6,
        allocs: samples.iter().map(|s| s.allocs as f64).sum(),
        bytes: samples.iter().map(|s| s.bytes as f64).sum(),
        speedup_x: geomean(&samples.iter().map(|s| s.speedup).collect::<Vec<_>>()),
        case_cpu_s: samples.iter().map(|s| s.cpu_s).collect(),
        failure,
    }
}

/// The timed loop's outcome.
pub struct Measured {
    pub attempted: usize,
    pub failed: usize,
    /// Why the run as a whole does not count, if it does not.
    pub invalid: Option<String>,
    pub allocs_per_op: f64,
    pub bytes_per_op: f64,
    /// Values of [`END_TO_END`], in its order.
    pub end_to_end: [f64; 4],
    /// The report: every metric with its quartiles and extra fields.
    pub report: Json,
}

impl Measured {
    /// The base of `trace.overhead_pct`.
    pub fn opt_cpu_s(&self) -> f64 {
        self.end_to_end[0]
    }
}

fn spread_fields(samples: &[f64]) -> Vec<(&'static str, Json)> {
    let [q1, q2, q3] = quartiles(samples);
    vec![
        ("value", Json::Num(q2)),
        ("q1", Json::Num(q1)),
        ("q3", Json::Num(q3)),
        ("n", Json::Num(samples.len() as f64)),
    ]
}

/// One set-up: the calling thread's on-CPU seconds, and the
/// [`Reference::mark`] when it began.
pub struct SetupSample {
    mark: usize,
    cpu_s: f64,
}

/// Sets the workload up [`SETUPS`] times, a reference burst after each, and
/// keeps the last. A set-up is graph generation, one `Optimizer::new` per
/// graph and the warm-up op.
pub fn prepare_timed(
    workload: &str,
    seed: u64,
    clock: &ThreadCpu,
    reference: &mut Reference,
) -> Result<(Vec<Prepared>, Vec<SetupSample>), String> {
    let mut setups = Vec::with_capacity(SETUPS);
    loop {
        let (mark, began) = (reference.mark(), clock.ns());
        let prepared = prepare(workload, seed, clock)?;
        let cpu_s = (clock.ns() - began) as f64 * 1e-9;
        setups.push(SetupSample { mark, cpu_s });
        reference.burst();
        if setups.len() == SETUPS {
            return Ok((prepared, setups));
        }
    }
}

/// Runs ops back to back for `seconds`, reference bursts between them, then
/// assembles the end-to-end metrics. `setups` is what [`prepare_timed`]
/// measured.
pub fn measure(
    workload: &str,
    seed: u64,
    seconds: u64,
    setups: &[SetupSample],
    prepared: &[Prepared],
    clock: &ThreadCpu,
    reference: &mut Reference,
) -> Result<Measured, String> {
    let (process0, thread0, wall0) = (process_cpu_s()?, clock.ns(), Instant::now());
    let mut ops = vec![];
    let mut since_burst_s = 0.0;
    while ops.is_empty() || wall0.elapsed().as_secs_f64() < seconds as f64 {
        let op = run_op(prepared, clock, reference.mark());
        since_burst_s += op.cpu_s;
        ops.push(op);
        if since_burst_s >= BURST_EVERY_S {
            reference.burst();
            since_burst_s = 0.0;
        }
    }
    if since_burst_s > 0.0 {
        // Every op has a burst after it.
        reference.burst();
    }
    let process_s = process_cpu_s()? - process0;
    let thread_s = (clock.ns() - thread0) as f64 * 1e-9;
    let invalid = (process_s > thread_s * (1.0 + HIDDEN_CPU_SHARE) + 0.02)
        .then(|| format!("process used {process_s:.3} CPU s, the timed thread only {thread_s:.3}"));

    for failure in ops.iter().filter_map(|op| op.failure.as_ref()) {
        eprintln!("failed op: {failure}");
    }
    let column = |f: fn(&OpSample) -> f64| ops.iter().map(f).collect::<Vec<f64>>();
    let raw_cpu_s = median(&column(|op| op.cpu_s));
    let raw_setup_s = median(&setups.iter().map(|s| s.cpu_s).collect::<Vec<_>>());
    let wall_median = median(&column(|op| op.wall_s));

    // One column of samples per metric, in `END_TO_END`'s order; the two
    // times in reference seconds.
    let columns = [
        ops.iter()
            .map(|op| reference.scaled(op.cpu_s, op.mark))
            .collect(),
        column(|op| op.peak_mb),
        column(|op| op.speedup_x),
        setups
            .iter()
            .map(|s| reference.scaled(s.cpu_s, s.mark))
            .collect(),
    ];
    let end_to_end = [0, 1, 2, 3].map(|i| median(&columns[i]));
    let mut metrics: Vec<(&str, Vec<(&str, Json)>)> = END_TO_END
        .iter()
        .zip(&columns)
        .map(|(metric, samples)| {
            let mut fields = spread_fields(samples);
            fields.push(("unit", Json::str(metric.unit)));
            (metric.name, fields)
        })
        .collect();
    let cpu_fields = &mut metrics[0].1;
    if let Some((percentile, value)) = tail_percentile(&columns[0]) {
        cpu_fields.push(("tail_percentile", Json::Num(percentile)));
        cpu_fields.push(("tail_value", Json::Num(value)));
    }
    cpu_fields.push(("raw_median_s", Json::Num(raw_cpu_s)));
    cpu_fields.push(("wall_median_s", Json::Num(wall_median)));
    cpu_fields.push(("offcpu_share", Json::Num(1.0 - raw_cpu_s / wall_median)));
    metrics[3].1.push(("raw_median_s", Json::Num(raw_setup_s)));
    let mut burst_fields = spread_fields(reference.bursts());
    burst_fields.push(("nominal_s", Json::Num(REFERENCE_S)));

    // Each case's share of the op, to show that no one graph is the workload.
    let cases = prepared.iter().enumerate().map(|(i, p)| {
        let case_cpu = median(&ops.iter().map(|op| op.case_cpu_s[i]).collect::<Vec<_>>());
        Json::obj([
            ("label", Json::str(p.case.label.as_str())),
            ("cpu_s", Json::Num(case_cpu)),
            ("cpu_share", Json::Num(case_cpu / raw_cpu_s)),
            ("enodes", Json::Num(p.signature.enodes as f64)),
            ("eclasses", Json::Num(p.signature.eclasses as f64)),
            ("iterations", Json::Num(p.signature.iterations as f64)),
            ("optimized_cost_us", Json::Num(p.signature.cost_us)),
        ])
    });

    let failed = ops.iter().filter(|op| op.failure.is_some()).count();
    let report = Json::obj([
        ("workload", Json::str(workload)),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds as f64)),
        ("attempted", Json::Num(ops.len() as f64)),
        ("failed", Json::Num(failed as f64)),
        ("failed_share", Json::Num(failed as f64 / ops.len() as f64)),
        ("invalid", invalid.as_deref().map_or(Json::Null, Json::str)),
        ("process_cpu_s", Json::Num(process_s)),
        ("thread_cpu_s", Json::Num(thread_s)),
        ("reference_burst_s", Json::obj(burst_fields)),
        (
            "end_to_end",
            Json::obj(metrics.into_iter().map(|(name, f)| (name, Json::obj(f)))),
        ),
        ("cases", Json::Arr(cases.collect())),
    ]);
    Ok(Measured {
        attempted: ops.len(),
        failed,
        invalid,
        allocs_per_op: median(&column(|op| op.allocs)),
        bytes_per_op: median(&column(|op| op.bytes)),
        end_to_end,
        report,
    })
}
