//! `--repeat K`: the steadiness report. Runs K invocations of one
//! workload (seeds N, N+1, …, one child process each, so every run pays
//! its own set-up exactly as a single invocation does) and prints, per
//! metric, the median, the quartiles and IQR ÷ median next to the
//! metric's bound from `BENCHMARK.json`. A spread counts as steady when
//! it is below a third of the bound.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

use vax_analysis::Json;

use crate::stats::{median, quartiles};
use crate::{Args, END_TO_END, PER_LAYER};

/// `name → bound` from `BENCHMARK.json` in the working directory.
fn bounds() -> BTreeMap<String, f64> {
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        return BTreeMap::new();
    };
    let Ok(j) = Json::parse(&text) else {
        return BTreeMap::new();
    };
    j.get("end_to_end")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect()
}

/// Run the K invocations and print the report.
pub fn run(args: &Args, k: u32) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("perfbench: current_exe: {e}");
            return ExitCode::from(1);
        }
    };
    let mut values: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let (mut attempted, mut failed, mut incorrect) = (0i64, 0i64, 0u32);
    for i in 0..u64::from(k) {
        let seed = args.seed.wrapping_add(i);
        let out = Command::new(&exe)
            .args(["--workload", &args.workload])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output();
        let last = out
            .as_ref()
            .ok()
            .and_then(|o| {
                String::from_utf8_lossy(&o.stdout)
                    .lines()
                    .last()
                    .map(str::to_string)
            })
            .and_then(|l| Json::parse(&l).ok());
        let Some(result) = last else {
            eprintln!("perfbench: run with seed {seed} printed no result");
            return ExitCode::from(1);
        };
        attempted += result.get("attempted").and_then(Json::as_i64).unwrap_or(0);
        failed += result.get("failed").and_then(Json::as_i64).unwrap_or(0);
        if result.get("correct") != Some(&Json::Bool(true)) {
            incorrect += 1;
        }
        let set = if args.trace { PER_LAYER } else { END_TO_END };
        let mut line = format!("seed {seed}:");
        for (name, _) in set {
            let v = result
                .get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN);
            values.entry(name).or_default().push(v);
            if !args.trace {
                line.push_str(&format!(" {name}={v:.6}"));
            }
        }
        println!("{line}");
    }

    let bounds = bounds();
    println!(
        "\nsteadiness: {} x {} runs, seeds {}..{}, --seconds {}, --trace {}",
        args.workload,
        k,
        args.seed,
        args.seed.wrapping_add(u64::from(k) - 1),
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "{:<30} {:>14} {:>14} {:>14} {:>9} {:>7}  verdict",
        "metric", "median", "q1", "q3", "iqr/med", "bound"
    );
    let set = if args.trace { PER_LAYER } else { END_TO_END };
    for (name, unit) in set {
        let xs = &values[name];
        let med = median(xs);
        let (q1, q3) = quartiles(xs);
        let spread = if med == 0.0 {
            0.0
        } else {
            (q3 - q1) / med.abs()
        };
        let (bound, verdict) = match bounds.get(*name) {
            Some(&b) if *name == "setup_s" => (format!("{b}"), "(spread not gated)".to_string()),
            Some(&b) if spread < b / 3.0 => (format!("{b}"), "steady".to_string()),
            Some(&b) => (format!("{b}"), format!("NOISY (> {:.4})", b / 3.0)),
            None => ("-".to_string(), String::new()),
        };
        println!("{name:<30} {med:>14.6} {q1:>14.6} {q3:>14.6} {spread:>9.4} {bound:>7}  {verdict} [{unit}]");
    }
    println!(
        "failed_frac {:.6} ({failed} of {attempted} operations); runs with a failed check: {incorrect}",
        failed as f64 / attempted.max(1) as f64
    );
    ExitCode::SUCCESS
}
