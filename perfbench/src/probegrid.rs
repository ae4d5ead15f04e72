//! `probe-grid`: the per-opcode characterization sweep over the
//! [`MODES`] slice of the grid, run exactly as `reproduce characterize`
//! runs it. Each probe simulates only a few thousand instructions on a
//! freshly built, quiesced system, so this workload is dominated by
//! system construction and barely touches the simulator's hot loop.
//!
//! The grid is fixed — characterization takes no seed — so the seed only
//! seeds the small composite run `cpi_err_pct` is read from.
//!
//! Known defect: every EDIV cell panics in `Cpu::c_span` ("µPC offset 24
//! out of routine (len 24)") and is quarantined. Those cells stay in the
//! grid and count as failed operations.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use vax_analysis::characterize::select_grid;
use vax_analysis::Json;
use vax_arch::AddressingMode;
use vax_asm::probe::{mode_from_key, mode_key, probe_loop, ProbeTarget};
use vax_bench::cli::{CharacterizeOptions, Options};
use vax_bench::engine::{JobEngine, JobRequest};
use vax_bench::progress::Verbosity;

use crate::artifacts::{report_overhead, Runtime};
use crate::composite;
use crate::stats::{fnv1a, median, percentile};
use crate::{Args, Report, WorkDir, PAPER_CPI};

/// The addressing modes swept.
pub const MODES: [&str; 4] = [
    "register",
    "register_deferred",
    "byte_disp",
    "autoincrement",
];
/// Repetitions run even when `--seconds` is shorter than one of them.
const MIN_REPS: usize = 2;
/// Set-up passes before each timed sweep; `setup_s` is their median.
const SETUP_PASSES: usize = 3;

/// The grid's probe targets.
pub fn targets() -> Vec<ProbeTarget> {
    let modes: Vec<AddressingMode> = MODES.iter().filter_map(|k| mode_from_key(k)).collect();
    select_grid(&[], &modes).0
}

/// Set-up: select the grid and assemble every cell's probe loop. Returns
/// the seconds taken and each cell's measured instructions per run.
fn setup_pass(opts: &CharacterizeOptions) -> (f64, BTreeMap<(String, String), u64>) {
    let t = Instant::now();
    let mut instructions = BTreeMap::new();
    for target in targets() {
        let probe = probe_loop(Some(&target), opts.reps).expect("grid targets assemble");
        instructions.insert(
            (
                target.opcode.mnemonic().to_string(),
                mode_key(target.mode).to_string(),
            ),
            opts.iters * u64::from(probe.period),
        );
    }
    (t.elapsed().as_secs_f64(), instructions)
}

/// `reproduce characterize --modes … --jobs N --out DIR` as options.
pub fn options(out: &Path, trace_out: Option<PathBuf>) -> CharacterizeOptions {
    CharacterizeOptions {
        modes: MODES.iter().map(|m| m.to_string()).collect(),
        jobs: crate::POOL_JOBS,
        out: Some(out.to_path_buf()),
        verbosity: Verbosity::Quiet,
        trace_out,
        ..CharacterizeOptions::default()
    }
}

/// The `(opcode, mode)` cells present in a `costs.json`.
fn recorded_cells(costs: &[u8]) -> Result<Vec<(String, String)>, String> {
    let j = Json::parse(&String::from_utf8_lossy(costs)).map_err(|e| format!("costs.json: {e}"))?;
    let records = j
        .get("records")
        .and_then(Json::as_arr)
        .ok_or("costs.json has no records")?;
    Ok(records
        .iter()
        .map(|r| {
            let s = |k: &str| r.get(k).and_then(Json::as_str).unwrap_or("").to_string();
            (s("opcode"), s("mode"))
        })
        .collect())
}

/// One sweep in a fresh process: seconds, peak RSS (MB) and
/// `costs.json` bytes.
fn execute(out: &Path, trace: bool) -> Result<(f64, f64, Vec<u8>), String> {
    // The exit code is 1 whenever a cell is quarantined (the EDIV
    // defect); the check is on the artifact itself.
    let run = crate::rep::spawn("probe-grid", 0, out, trace)?;
    let costs = std::fs::read(out.join("costs.json")).map_err(|e| format!("no costs.json: {e}"))?;
    Ok((run.secs, run.rss_mb, costs))
}

/// The workload.
pub fn run(args: &Args, work: &WorkDir, report: &mut Report) {
    let base = options(&work.sub("probe-setup"), None);
    let (_, cell_instructions) = setup_pass(&base);
    let cell_instructions = &cell_instructions;
    let cells = cell_instructions.len() as u64;
    let baseline_instructions = {
        let b = probe_loop(None, 0).expect("baseline assembles");
        base.iters * u64::from(b.period)
    };

    // The warm-up sweep (untimed, still checked) is the reference the
    // timed sweeps must reproduce byte for byte.
    report.attempted += cells;
    let costs = match execute(&work.sub("probe-rep"), false) {
        Ok((_, _, costs)) => costs,
        Err(msg) => {
            report.problem(format!("probe-grid warm-up sweep: {msg}"));
            return;
        }
    };
    let mut times = Vec::new();
    let mut rss = Vec::new();
    // Set-up passes before every timed sweep, so set-up is sampled over
    // the same stretch of host time as the sweeps.
    let mut setup = Vec::new();
    let start = Instant::now();
    // Seconds the last set-up pass + sweep took: another one starts only
    // while it is expected to end within `--seconds`.
    let mut last = 0.0;
    while times.len() < MIN_REPS || start.elapsed().as_secs_f64() + last <= args.seconds {
        let round = Instant::now();
        setup.extend((0..SETUP_PASSES).map(|_| setup_pass(&base).0));
        report.attempted += cells;
        match execute(&work.sub("probe-rep"), false) {
            Ok((secs, rss_mb, again)) => {
                times.push(secs);
                rss.push(rss_mb);
                last = round.elapsed().as_secs_f64();
                if again != costs {
                    report
                        .problem("costs.json differs between sweeps of the same grid".to_string());
                }
            }
            Err(msg) => {
                report.problem(format!("probe-grid sweep: {msg}"));
                return;
            }
        }
    }
    let recorded = match recorded_cells(&costs) {
        Ok(r) => r,
        Err(msg) => {
            report.problem(msg);
            return;
        }
    };
    let mut missing: Vec<String> = cell_instructions
        .keys()
        .filter(|cell| !recorded.contains(cell))
        .map(|(op, mode)| format!("{op} {mode}"))
        .collect();
    missing.sort();
    if recorded.iter().any(|c| !cell_instructions.contains_key(c)) {
        report.problem("costs.json records a cell outside the grid".to_string());
    }
    report.failed += missing.len() as u64 * (times.len() as u64 + 1);
    let simulated: u64 = baseline_instructions
        + recorded
            .iter()
            .filter_map(|c| cell_instructions.get(c))
            .sum::<u64>();

    report.set("setup_s", median(&setup));
    let wall = median(&times);
    report.set("wall_s", wall);
    report.set("job_p50_ms", wall * 1e3);
    report.set("job_p90_ms", percentile(&times, 0.9) * 1e3);
    report.set("sim_minstr_per_s", simulated as f64 / wall / 1e6);
    report.note(format!(
        "digest costs.json {:016x} ({} of {cells} cells recorded, {simulated} instructions)",
        fnv1a(&costs),
        recorded.len()
    ));
    report.note(format!(
        "{} timed sweeps (+1 warm-up) at --jobs {}; quarantined (known EDIV defect): {}",
        times.len(),
        crate::POOL_JOBS,
        if missing.is_empty() {
            "none".to_string()
        } else {
            missing.join(", ")
        }
    ));

    report.set("peak_rss_mb", median(&rss));

    // cpi_err_pct: the model's composite CPI at this seed, from a small
    // composite run (outside the timed sweeps).
    let out = work.sub("probe-cpi");
    let small = Options {
        instructions: 100_000,
        shards: 1,
        ..composite::options(args.seed, &out, None)
    };
    let code = JobEngine::new().execute(&JobRequest::Run(small)).code;
    match composite::read_rep(&out, code, 0.0, 0.0) {
        Ok((rep, _)) => {
            let cpi = rep.cycles as f64 / rep.instructions as f64;
            report.set("cpi_err_pct", (cpi - PAPER_CPI).abs() / PAPER_CPI * 100.0);
        }
        Err(msg) => report.problem(format!("reference composite: {msg}")),
    }

    if args.trace {
        let out = work.sub("probe-traced");
        match execute(&out, true) {
            Ok((secs, _, traced_costs)) => {
                if traced_costs != costs {
                    report.problem("traced costs.json differs from untraced".to_string());
                }
                let mut rt = Runtime::default();
                match rt.add(&out.join("runtime.json")) {
                    Ok(()) => {
                        rt.report_phases(report, crate::POOL_JOBS);
                        if rt.counter("instructions") != simulated {
                            report.problem(format!(
                                "runtime.json counts {} instructions, the grid predicts {simulated}",
                                rt.counter("instructions")
                            ));
                        }
                    }
                    Err(msg) => report.problem(msg),
                }
                report_overhead(report, secs, wall);
            }
            Err(msg) => report.problem(format!("traced sweep: {msg}")),
        }
    }
}
