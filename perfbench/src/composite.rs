//! `composite`: the paper's experiment, run exactly as the CLI runs it.
//!
//! Each timed repetition is one `JobEngine::execute(JobRequest::Run)` on
//! a fresh engine in a fresh process (cold warm-caches, like a
//! `reproduce` invocation) over
//! all five workload profiles × [`SHARDS`] shards, exporting JSON into a
//! scratch directory. Repetitions continue until `--seconds` have passed.
//! Set-up time is the codegen + boot of every cell through the runner's
//! own entry points (`WarmCaches::processes` / `boot`) on a fresh cache.

use std::path::{Path, PathBuf};
use std::time::Instant;

use vax_analysis::Json;
use vax_bench::cache::WarmCaches;
use vax_bench::cli::{Format, Options};
use vax_bench::progress::Verbosity;
use vax_workload::rte::{shard_seed, PROCESSES_PER_WORKLOAD};
use vax_workload::Workload;

use crate::artifacts::{check_validation, measured_counts, read_json, report_overhead, Runtime};
use crate::stats::{fnv1a, median, percentile};
use crate::{Args, Report, WorkDir, PAPER_CPI};

/// Instructions measured per workload shard: long enough that simulation
/// is most of a repetition's run span.
pub const INSTRUCTIONS: u64 = 400_000;
/// Replica shards per workload.
pub const SHARDS: u64 = 2;
/// Untimed warm-up repetitions (still checked) before the timed ones.
const WARMUP_REPS: usize = 1;
/// Timed repetitions run even when `--seconds` is shorter than one of them.
const MIN_REPS: usize = 2;

/// The `reproduce --format json --out DIR` options for one repetition.
pub fn options(seed: u64, out: &Path, trace_out: Option<PathBuf>) -> Options {
    Options {
        instructions: INSTRUCTIONS,
        seed,
        jobs: crate::POOL_JOBS,
        shards: SHARDS,
        format: Format::Json,
        out: Some(out.to_path_buf()),
        verbosity: Verbosity::Quiet,
        trace_out,
        ..Options::default()
    }
}

/// Codegen + boot of every cell on a fresh cache, in seconds.
fn setup_pass(seed: u64) -> f64 {
    let caches = WarmCaches::new();
    let t = Instant::now();
    for (w, &workload) in Workload::ALL.iter().enumerate() {
        for shard in 0..SHARDS {
            let cell_seed = shard_seed(seed, w as u64, shard);
            let (specs, _) = caches.processes(workload, PROCESSES_PER_WORKLOAD, cell_seed);
            let (system, _) = caches.boot(&specs);
            std::hint::black_box(system);
        }
    }
    t.elapsed().as_secs_f64()
}

/// One executed repetition, as read back from its artifacts.
pub struct Rep {
    /// Host seconds of the `execute` call.
    pub secs: f64,
    /// Peak RSS of the process that ran it, MB.
    pub rss_mb: f64,
    /// `measurement.json` bytes.
    pub measurement: Vec<u8>,
    /// Instructions and cycles from `measurement.json`.
    pub instructions: u64,
    /// Simulated cycles.
    pub cycles: u64,
}

/// Check the artifacts a run with exit code `code` left in `out`.
/// Returns the repetition and the number of quarantined cells.
pub fn read_rep(out: &Path, code: i32, secs: f64, rss_mb: f64) -> Result<(Rep, u64), String> {
    check_validation(out)?;
    let manifest = read_json(&out.join("manifest.json"))?;
    let failed_cells = manifest
        .get("failed_cells")
        .and_then(Json::as_arr)
        .map_or(0, <[Json]>::len) as u64;
    if code != 0 {
        return Err(format!("run exited with code {code}"));
    }
    let measurement = std::fs::read(out.join("measurement.json"))
        .map_err(|e| format!("cannot read measurement.json: {e}"))?;
    let (instructions, cycles) = measured_counts(&measurement)?;
    Ok((
        Rep {
            secs,
            rss_mb,
            measurement,
            instructions,
            cycles,
        },
        failed_cells,
    ))
}

/// Run one repetition in a fresh process into `out` and check it.
fn execute(seed: u64, out: &Path, trace: bool) -> Result<(Rep, u64), String> {
    let run = crate::rep::spawn("composite", seed, out, trace)?;
    read_rep(out, run.code, run.secs, run.rss_mb)
}

/// The workload.
pub fn run(args: &Args, work: &WorkDir, report: &mut Report) {
    // One set-up pass before every timed repetition, so set-up is sampled
    // over the same stretch of host time as the repetitions.
    let mut setup = Vec::new();
    let mut reps: Vec<Rep> = Vec::new();
    let mut start = Instant::now();
    // Seconds the last set-up pass + repetition took: another one starts
    // only while it is expected to end within `--seconds`.
    let mut last = 0.0;
    while reps.len() < WARMUP_REPS + MIN_REPS
        || start.elapsed().as_secs_f64() + last <= args.seconds
    {
        if reps.len() == WARMUP_REPS {
            start = Instant::now();
        }
        let round = Instant::now();
        if reps.len() >= WARMUP_REPS {
            setup.push(setup_pass(args.seed));
        }
        let out = work.sub("composite-rep");
        report.attempted += Workload::ALL.len() as u64 * SHARDS;
        match execute(args.seed, &out, false) {
            Ok((rep, quarantined)) => {
                report.failed += quarantined;
                if let Some(first) = reps.first() {
                    if first.measurement != rep.measurement {
                        report.problem(format!(
                            "measurement.json of seed {} differs between repetitions",
                            args.seed
                        ));
                    }
                }
                reps.push(rep);
                last = round.elapsed().as_secs_f64();
            }
            Err(msg) => {
                report.problem(format!("composite repetition: {msg}"));
                break;
            }
        }
    }
    let Some(first) = reps.first() else {
        return;
    };
    report.set("setup_s", median(&setup));
    let timed = &reps[WARMUP_REPS.min(reps.len() - 1)..];
    let times: Vec<f64> = timed.iter().map(|r| r.secs).collect();
    let wall = median(&times);
    report.set("wall_s", wall);
    report.set("job_p50_ms", wall * 1e3);
    report.set("job_p90_ms", percentile(&times, 0.9) * 1e3);
    report.set("sim_minstr_per_s", first.instructions as f64 / wall / 1e6);
    let cpi = first.cycles as f64 / first.instructions as f64;
    report.set("cpi_err_pct", (cpi - PAPER_CPI).abs() / PAPER_CPI * 100.0);
    let rss: Vec<f64> = timed.iter().map(|r| r.rss_mb).collect();
    report.set("peak_rss_mb", median(&rss));
    report.note(format!(
        "digest measurement.json {:016x} (CPI {cpi:.4}, {} instructions, {} cycles)",
        fnv1a(&first.measurement),
        first.instructions,
        first.cycles
    ));
    report.note(format!(
        "{} timed repetitions (+{WARMUP_REPS} warm-up) of {} workloads x {SHARDS} shards x \
         {INSTRUCTIONS} instructions at --jobs {}: {times:.3?} s",
        times.len(),
        Workload::ALL.len(),
        crate::POOL_JOBS
    ));

    if args.trace {
        let out = work.sub("composite-traced");
        match execute(args.seed, &out, true) {
            Ok((rep, _)) => {
                if rep.measurement != first.measurement {
                    report.problem("traced measurement.json differs from untraced".into());
                }
                let mut rt = Runtime::default();
                match rt.add(&out.join("runtime.json")) {
                    Ok(()) => rt.report_phases(report, crate::POOL_JOBS),
                    Err(msg) => report.problem(msg),
                }
                report_overhead(report, rep.secs, wall);
            }
            Err(msg) => report.problem(format!("traced composite run: {msg}")),
        }
    }
}
