//! `compare <a.json> <b.json>`: per-workload deltas of every metric between
//! two `run` reports, with a verdict on each end-to-end metric.

use crate::json::Json;
use crate::run::{EndToEnd, END_TO_END};
use crate::trace::PER_LAYER;
use std::cmp::Ordering;

/// A metric's median and quartiles over one run's samples.
#[derive(Debug, Clone, Copy)]
pub struct Spread {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `b` is no worse than `a` by more than the bound.
    Ok,
    /// `b` is worse than `a` by more than the bound.
    Worse,
    /// The samples spread wider than the bound, and `b` is not better on
    /// every quartile: the runs cannot tell.
    Unresolved,
}

/// The share of `a`'s median by which `b` is worse (negative: better), and
/// the verdict under the metric's bound.
pub fn judge(metric: &EndToEnd, a: Spread, b: Spread) -> (f64, Verdict) {
    let lower_is_better = metric.better == "lower";
    let worse_by = if lower_is_better {
        (b.median - a.median) / a.median
    } else {
        (a.median - b.median) / a.median
    };
    let spread = (a.q3 - a.q1).max(b.q3 - b.q1) / a.median;
    let clearly_better = if lower_is_better {
        b.q3 < a.q1
    } else {
        b.q1 > a.q3
    };
    let verdict = if spread > metric.bound && !clearly_better {
        Verdict::Unresolved
    } else if worse_by > metric.bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    (worse_by, verdict)
}

fn spread_of(metric: &Json) -> Option<Spread> {
    let field = |key| metric.get(key).and_then(Json::as_f64);
    Some(Spread {
        q1: field("q1")?,
        median: field("value")?,
        q3: field("q3")?,
    })
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let report = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if report.get("workloads").is_none() {
        return Err(format!("{path}: not a `run` report (no `workloads`)"));
    }
    Ok(report)
}

/// Medians of runs of another length or over other inputs do not compare.
fn comparable(a: &Json, b: &Json) -> Result<(), String> {
    for key in ["seed", "seconds"] {
        if a.get(key) != b.get(key) {
            let show = |r: &Json| r.get(key).map_or("none".into(), Json::to_string);
            return Err(format!(
                "the reports differ in `{key}`: {} and {}",
                show(a),
                show(b)
            ));
        }
    }
    Ok(())
}

/// Prints the comparison. Unreadable input and reports of different seeds
/// or run lengths are errors; a verdict is not: verdicts are for a person to
/// read, the machine this runs on is too noisy for a gate.
pub fn compare(args: &[String]) -> Result<(), String> {
    let [a_path, b_path] = args else {
        return Err("usage: compare <a.json> <b.json>".into());
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    comparable(&a, &b)?;
    let mut tally = [0usize; 3];
    for (workload, a_report) in a.get("workloads").map_or(&[][..], Json::members) {
        let Some(b_report) = b.get("workloads").and_then(|w| w.get(workload)) else {
            println!("{workload}: only in {a_path}");
            continue;
        };
        println!("{workload}");
        println!(
            "  {:<34}{:>24}{:>24}{:>10}  verdict",
            "end-to-end", "a", "b", "worse by"
        );
        for metric in &END_TO_END {
            let of = |report: &Json| {
                report
                    .get("end_to_end")
                    .and_then(|e| e.get(metric.name))
                    .and_then(spread_of)
            };
            let (Some(sa), Some(sb)) = (of(a_report), of(b_report)) else {
                println!("  {:<34}missing", metric.name);
                continue;
            };
            let (worse_by, verdict) = judge(metric, sa, sb);
            tally[verdict as usize] += 1;
            println!(
                "  {:<34}{:>24}{:>24}{:>9.2}%  {verdict:?} (bound {}%)",
                format!("{} [{}]", metric.name, metric.unit),
                sa.median,
                sb.median,
                100.0 * worse_by,
                100.0 * metric.bound,
            );
        }
        println!(
            "  {:<34}{:>24}{:>24}{:>10}",
            "per-layer", "a", "b", "change"
        );
        for (name, a_metric) in a_report.get("per_layer").map_or(&[][..], Json::members) {
            let value = |m: &Json| m.get("value").and_then(Json::as_f64);
            let b_metric = b_report.get("per_layer").and_then(|p| p.get(name));
            let (Some(va), Some(vb)) = (value(a_metric), b_metric.and_then(value)) else {
                println!("  {name:<34}missing");
                continue;
            };
            let unit = a_metric.get("unit").and_then(Json::as_str).unwrap_or("");
            let change = if va == 0.0 {
                if vb == 0.0 {
                    "0".into()
                } else {
                    "new".into()
                }
            } else {
                format!("{:+.2}%", 100.0 * (vb - va) / va.abs())
            };
            // Per-layer metrics have a direction but no bound, so no verdict;
            // what a change in one predicts end to end is printed beside it.
            let known = PER_LAYER.iter().find(|m| m.name == name);
            let moved = match (known.map(|m| m.better), vb.total_cmp(&va)) {
                (None, _) | (_, Ordering::Equal) => "",
                (Some("lower"), Ordering::Less) | (Some("higher"), Ordering::Greater) => "better",
                _ => "worse",
            };
            let moves = match known.map(|m| m.moves) {
                None | Some("") => String::new(),
                Some(moves) => format!("  -> {moves}"),
            };
            println!(
                "  {:<34}{va:>24}{vb:>24}{change:>10}  {moved:<6}{moves}",
                format!("{name} [{unit}]")
            );
        }
    }
    println!(
        "end-to-end verdicts: {} ok, {} worse, {} unresolved",
        tally[Verdict::Ok as usize],
        tally[Verdict::Worse as usize],
        tally[Verdict::Unresolved as usize]
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_of_other_seeds_or_lengths_are_refused() {
        let report = |seed: f64, seconds: f64| {
            Json::obj([("seed", Json::Num(seed)), ("seconds", Json::Num(seconds))])
        };
        assert!(comparable(&report(0.0, 25.0), &report(0.0, 25.0)).is_ok());
        assert!(comparable(&report(0.0, 25.0), &report(1.0, 25.0)).is_err());
        let error = comparable(&report(0.0, 25.0), &report(0.0, 5.0)).unwrap_err();
        assert!(error.contains("`seconds`: 25 and 5"), "{error}");
        assert!(comparable(&report(0.0, 25.0), &Json::obj([("seed", Json::Num(0.0))])).is_err());
    }

    fn tight(median: f64) -> Spread {
        Spread {
            q1: median * 0.99,
            median,
            q3: median * 1.01,
        }
    }

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        let cpu = &END_TO_END[0];
        assert_eq!(
            (cpu.name, cpu.better, cpu.bound),
            ("opt_cpu_s", "lower", 0.25)
        );
        assert_eq!(judge(cpu, tight(1.0), tight(1.2)).1, Verdict::Ok);
        assert_eq!(judge(cpu, tight(1.0), tight(0.5)).1, Verdict::Ok);
        assert_eq!(judge(cpu, tight(1.0), tight(1.3)).1, Verdict::Worse);
        let (worse_by, _) = judge(cpu, tight(1.0), tight(1.3));
        assert!((worse_by - 0.3).abs() < 1e-12);

        // Quartiles wider than the bound: the runs cannot tell ...
        let wide = Spread {
            q1: 0.8,
            median: 1.0,
            q3: 1.1,
        };
        assert_eq!(judge(cpu, wide, tight(1.02)).1, Verdict::Unresolved);
        assert_eq!(judge(cpu, wide, tight(1.4)).1, Verdict::Unresolved);
        // ... unless every quartile of `b` is better.
        assert_eq!(judge(cpu, wide, tight(0.7)).1, Verdict::Ok);

        let speedup = &END_TO_END[2];
        assert_eq!(
            (speedup.name, speedup.better),
            ("graph_speedup_x", "higher")
        );
        let exact = |v| Spread {
            q1: v,
            median: v,
            q3: v,
        };
        assert_eq!(judge(speedup, exact(1.10), exact(1.10)).1, Verdict::Ok);
        assert_eq!(judge(speedup, exact(1.10), exact(1.20)).1, Verdict::Ok);
        assert_eq!(judge(speedup, exact(1.10), exact(1.09)).1, Verdict::Worse);
    }
}
