//! `paper <experiment> [reps]`: runs one experiment of the paper's
//! evaluation at the harness scale and its node limit, prints its table
//! and writes it to `results/<experiment>.csv`. `reps` (default 3) is how
//! many times `taso_vs_tensat` runs each model.

use std::process::ExitCode;
use tensat_bench::{harness_scale, report, Setting, EXPERIMENTS};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Err(message) = run(&args) else {
        return ExitCode::SUCCESS;
    };
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.0).collect();
    eprintln!("paper: {message}\nusage: paper <experiment> [reps >= 1]");
    eprintln!("experiments: {}", names.join(", "));
    ExitCode::from(2)
}

fn run(args: &[String]) -> Result<(), String> {
    let (name, reps) = match args {
        [name] => (name, 3),
        [name, reps] => match reps.parse() {
            Ok(reps) if reps > 0 => (name, reps),
            _ => return Err(format!("reps must be a positive integer, not `{reps}`")),
        },
        _ => return Err("expected an experiment name and at most a rep count".into()),
    };
    let &(name, node_limit, experiment) = EXPERIMENTS
        .iter()
        .find(|e| e.0 == name)
        .ok_or_else(|| format!("unknown experiment `{name}`"))?;
    let setting = Setting {
        scale: harness_scale(),
        node_limit,
        reps,
    };
    report(name, &experiment(&setting)).map_err(|e| format!("cannot write results/{name}.csv: {e}"))
}
