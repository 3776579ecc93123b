//! The repo benchmark: `Optimizer::optimize` CPU time, peak memory and
//! extracted-graph quality on four workloads that each load a different
//! layer, and one traced op per workload for the per-layer numbers.
//!
//! ```text
//! tensat-benchmark --workload W --seed S --seconds N --trace 0|1   one workload (the driver's form)
//! tensat-benchmark run [--seed S] [--out FILE]                     all four, traced, one report
//! tensat-benchmark compare A.json B.json                           deltas between two `run` reports
//! ```
//!
//! See `README.md` for the metrics, the workloads and what each predicts.

mod alloc;
mod clock;
mod compare;
mod json;
mod reference;
mod run;
mod stats;
mod trace;
mod workloads;

use clock::ThreadCpu;
use json::Json;
use reference::Reference;
use std::collections::BTreeMap;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use workloads::WORKLOADS;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// How long `run` measures each workload: `run_seconds` of `BENCHMARK.json`.
const RUN_SECONDS: u64 = 23;

/// glibc's `malloc` hands a freed block back to the kernel once it is large
/// and takes fresh pages for the next one, so every op of `bert_apply`
/// faults in some 30 MB again. On real hardware that is under 1 % of the op;
/// in this VM a page costs 3 to 25 us with the state of the host, which moved
/// the workload by 2 to 15 % from one run to the next. With these two
/// settings `malloc` keeps what was freed, and after the warm-up op the ops
/// take no new pages. `malloc` reads them when the process starts, so `main`
/// starts the program over with them set.
const MALLOC_SETTINGS: [(&str, &str); 2] = [
    // The highest `malloc` accepts: smaller blocks come from the heap, not `mmap`.
    ("MALLOC_MMAP_THRESHOLD_", "33554432"),
    // Free memory at the top of the heap is never given back.
    ("MALLOC_TRIM_THRESHOLD_", "17179869184"),
];

/// Where reports and traces go: `results/` beside this package's manifest,
/// wherever the command was started from.
fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

fn write_report(path: &Path, report: &Json) -> Result<(), String> {
    let dir = path.parent().unwrap_or(Path::new("."));
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    std::fs::write(path, report.pretty()).map_err(|e| format!("{}: {e}", path.display()))
}

/// `--key value` pairs; every key must be in `allowed`.
fn flags<'a>(args: &'a [String], allowed: &[&str]) -> Result<BTreeMap<&'a str, &'a str>, String> {
    let mut out = BTreeMap::new();
    for pair in args.chunks(2) {
        match pair {
            [key, value] if allowed.contains(&key.as_str()) => out.insert(&key[..], &value[..]),
            [key, ..] => return Err(format!("unexpected or incomplete argument `{key}`")),
            [] => unreachable!("chunks are never empty"),
        };
    }
    Ok(out)
}

fn number(flags: &BTreeMap<&str, &str>, key: &str, default: Option<u64>) -> Result<u64, String> {
    match (flags.get(key), default) {
        (Some(text), _) => text.parse().map_err(|e| format!("{key} {text}: {e}")),
        (None, Some(default)) => Ok(default),
        (None, None) => Err(format!("missing {key}")),
    }
}

fn metrics_json<'a>(metrics: impl Iterator<Item = (&'a str, &'a str, f64)>) -> Json {
    Json::obj(metrics.map(|(name, unit, value)| {
        let fields = [("value", Json::Num(value)), ("unit", Json::str(unit))];
        (name, Json::obj(fields))
    }))
}

/// Prints `name value unit` and then whatever else the report holds on it.
fn print_metrics(metrics: &Json) {
    for (name, metric) in metrics.members() {
        let text = |key| match metric.get(key) {
            Some(value) => value.as_str().map_or(value.to_string(), str::to_string),
            None => String::new(),
        };
        print!("  {name:<34}{:>18} {:<6}", text("value"), text("unit"));
        for (key, value) in metric.members() {
            if key != "value" && key != "unit" {
                print!(" {key}={value}");
            }
        }
        println!();
    }
}

/// One workload: set-up, the timed loop, with `--trace 1` the traced op.
/// The last line printed is the result the driver reads.
fn measure_one(args: &[String]) -> Result<ExitCode, String> {
    let flags = flags(args, &["--workload", "--seed", "--seconds", "--trace"])?;
    let workload = *flags.get("--workload").ok_or("missing --workload")?;
    let seed = number(&flags, "--seed", None)?;
    let seconds = number(&flags, "--seconds", None)?;
    let trace = match number(&flags, "--trace", None)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace {other}: expected 0 or 1")),
    };

    let why = WORKLOADS.iter().find(|w| w.name == workload).map(|w| w.why);
    let why = why.ok_or_else(|| format!("unknown workload `{workload}`"))?;

    let clock = ThreadCpu::open()?;
    let mut reference = Reference::start(&clock);
    let (prepared, setups) = run::prepare_timed(workload, seed, &clock, &mut reference)?;
    let mut measured = run::measure(
        workload,
        seed,
        seconds,
        &setups,
        &prepared,
        &clock,
        &mut reference,
    )?;
    // Written before the traced op, which may fail: the timed loop's
    // outcome must not be lost with it.
    let report_path = results_dir().join(format!("{workload}_seed{seed}.json"));
    write_report(&report_path, &measured.report)?;

    println!("{workload}: {why}");
    println!(
        "  seed {seed}: {} ops in {seconds} s, {} failed{}",
        measured.attempted,
        measured.failed,
        measured
            .invalid
            .as_ref()
            .map_or(String::new(), |why| format!(", INVALID: {why}"))
    );
    print_metrics(
        measured
            .report
            .get("end_to_end")
            .expect("measure reports it"),
    );

    let metrics = if trace {
        let traced = trace::traced_op(workload, &prepared, &measured, &mut reference)?;
        let trace_path = results_dir().join(format!("trace_{workload}.json"));
        let trace_report = Json::obj([
            ("workload", Json::str(workload)),
            ("seed", Json::Num(seed as f64)),
            ("spans", traced.spans),
        ]);
        write_report(&trace_path, &trace_report)?;
        let values = || trace::PER_LAYER.iter().zip(&traced.per_layer);
        // The report also says what each layer's metric is predicted to move.
        let predicted = Json::obj(values().map(|(m, &value)| {
            let mut fields = vec![("value", Json::Num(value)), ("unit", Json::str(m.unit))];
            if !m.moves.is_empty() {
                fields.push(("moves", Json::str(m.moves)));
            }
            (m.name, Json::obj(fields))
        }));
        print_metrics(&predicted);
        measured.report.push("per_layer", predicted);
        write_report(&report_path, &measured.report)?;
        metrics_json(values().map(|(m, &value)| (m.name, m.unit, value)))
    } else {
        let values = run::END_TO_END.iter().zip(measured.end_to_end);
        metrics_json(values.map(|(m, value)| (m.name, m.unit, value)))
    };

    let correct = measured.failed == 0 && measured.invalid.is_none();
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(measured.attempted as f64)),
        ("failed", Json::Num(measured.failed as f64)),
        ("metrics", metrics),
    ]);
    println!("{result}");
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Every workload in turn, each traced and each in a process of its own, so
/// that each one's set-up and allocator start cold as under the driver. The
/// four reports are gathered into one file for `compare`.
fn run_all(args: &[String]) -> Result<ExitCode, String> {
    let flags = flags(args, &["--seed", "--out"])?;
    let seed = number(&flags, "--seed", Some(0))?;
    let default_out = results_dir().join(format!("run_seed{seed}.json"));
    let out = flags.get("--out").map_or(default_out, PathBuf::from);

    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut reports = vec![];
    let mut all_correct = true;
    for w in &WORKLOADS {
        // A report an earlier run left must not stand in for this one's.
        let path = results_dir().join(format!("{}_seed{seed}.json", w.name));
        match std::fs::remove_file(&path) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                return Err(format!("{}: {e}", path.display()))
            }
            _ => {}
        }
        let status = Command::new(&exe)
            .args(["--workload", w.name, "--trace", "1"])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &RUN_SECONDS.to_string()])
            .status()
            .map_err(|e| format!("{}: {e}", w.name))?;
        all_correct &= status.success();
        match std::fs::read_to_string(&path) {
            Ok(text) => reports.push((w.name, Json::parse(&text)?)),
            Err(e) => eprintln!("{}: no report: {e}", w.name),
        }
    }
    let report = Json::obj([
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(RUN_SECONDS as f64)),
        ("workloads", Json::obj(reports)),
    ]);
    write_report(&out, &report)?;
    println!("report: {}", out.display());
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    if MALLOC_SETTINGS
        .iter()
        .any(|(key, value)| std::env::var(key).as_deref() != Ok(value))
    {
        let error = match std::env::current_exe() {
            Ok(exe) => Command::new(exe)
                .args(std::env::args_os().skip(1))
                .envs(MALLOC_SETTINGS)
                .exec(),
            Err(error) => error,
        };
        eprintln!("error: starting over with the malloc settings: {error}");
        return ExitCode::from(2);
    }
    // The workloads write out every setting that has an environment
    // override; the two switches that have none (`TENSAT_VERIFY_RULES`,
    // `TENSAT_CHECK_INVARIANTS`) go here, before any thread exists.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("TENSAT_") {
            std::env::remove_var(key);
        }
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run_all(&args[1..]),
        Some("compare") => compare::compare(&args[1..]).map(|()| ExitCode::SUCCESS),
        _ => measure_one(&args),
    };
    outcome.unwrap_or_else(|error| {
        eprintln!("error: {error}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is what the driver reads; the tables in `run` and
    /// `trace` are what the program prints. They must say the same.
    #[test]
    fn benchmark_json_agrees_with_the_program() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let spec = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let text = |value: &Json, key: &str| match value.get(key).and_then(Json::as_str) {
            Some(s) => s.to_string(),
            None => panic!("{key}: not a string in {value}"),
        };
        let list = |key: &str| match spec.get(key) {
            Some(Json::Arr(items)) => items.clone(),
            other => panic!("{key}: {other:?}"),
        };

        assert_eq!(
            spec.get("run_seconds"),
            Some(&Json::Num(RUN_SECONDS as f64))
        );
        assert_eq!(list("paths"), [Json::str("benchmark")]);
        let workloads: Vec<(String, String)> = list("workloads")
            .iter()
            .map(|w| (text(w, "name"), text(w, "why")))
            .collect();
        let expected: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(workloads, expected);
        assert!(workloads.iter().all(|(_, why)| why.len() <= 200));

        let end_to_end: Vec<_> = list("end_to_end")
            .iter()
            .map(|m| {
                let bound = m.get("bound").and_then(Json::as_f64).unwrap();
                (text(m, "name"), text(m, "unit"), text(m, "better"), bound)
            })
            .collect();
        let expected: Vec<_> = run::END_TO_END
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.into(), m.bound))
            .collect();
        assert_eq!(end_to_end, expected);

        let per_layer: Vec<_> = list("per_layer")
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
            .collect();
        let expected: Vec<_> = trace::PER_LAYER
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.into()))
            .collect();
        assert_eq!(per_layer, expected);
    }

    #[test]
    fn flags_come_in_known_pairs() {
        let args = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let ok = args(&["--seed", "7", "--workload", "bert_apply"]);
        let parsed = flags(&ok, &["--seed", "--workload"]).unwrap();
        assert_eq!(number(&parsed, "--seed", None), Ok(7));
        assert_eq!(number(&parsed, "--seconds", Some(20)), Ok(20));
        assert!(number(&parsed, "--seconds", None).is_err());
        assert!(flags(&args(&["--seed"]), &["--seed"]).is_err());
        assert!(flags(&args(&["--sed", "1"]), &["--seed"]).is_err());
        assert!(number(
            &flags(&args(&["--seed", "x"]), &["--seed"]).unwrap(),
            "--seed",
            None
        )
        .is_err());
    }
}
