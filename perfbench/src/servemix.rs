//! `serve-mixed`: a `reproduce serve` daemon driven by one closed-loop
//! client over one connection at a time.
//!
//! The job sequence is generated from the seed: three quarters small
//! `run` jobs whose seeds repeat from a pool of [`SEED_POOL`] (so the
//! daemon's warm caches both miss and hit), one quarter small
//! `characterize` jobs over [`PROBE_OPCODES`] opcodes each. Each
//! iteration POSTs the spec, follows `/jobs/:id/events` until the job is terminal, then
//! fetches the artifact listing and one artifact, which must be
//! byte-identical to an in-process `JobEngine::execute` of the same spec
//! (references are computed once per distinct spec, before the timed
//! session).

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vax_analysis::Json;
use vax_bench::cli::Format;
use vax_bench::engine::{JobEngine, JobRequest};
use vax_bench::jobspec::JobSpec;
use vax_bench::progress::Verbosity;

use crate::artifacts::{check_validation, measured_counts, report_overhead, Runtime};
use crate::http;
use crate::probegrid::{targets, MODES};
use crate::stats::{fnv1a, median, percentile};
use crate::{Args, Report, WorkDir, PAPER_CPI};

/// Instructions per workload in a `run` job.
pub const RUN_INSTRUCTIONS: u64 = 30_000;
/// Opcodes per `characterize` job (all four modes each). Few enough that
/// a characterize job ends well inside the daemon's 200 ms events period,
/// as a `run` job (~0.1 s) does. A job that ends near a period boundary
/// is seen one period early or late, so the p90 latency would jump
/// between ~305 ms and ~505 ms from run to run.
pub const PROBE_OPCODES: usize = 3;
/// Distinct `run` seeds per session.
pub const SEED_POOL: usize = 6;
/// Jobs per session. The session is this long whatever `--seconds` says:
/// the latency percentiles need at least ten samples beyond p90.
pub const JOBS: usize = 100;
/// Daemon start-ups per invocation; `setup_s` is their median.
const SETUP_SPAWNS: usize = 15;
/// `/healthz` round trips timed after the traced session.
const HEALTHZ_PROBES: usize = 20;
/// How long a drained daemon may take to exit before it is killed.
const EXIT_GRACE: Duration = Duration::from_secs(60);

/// A running daemon child.
struct Daemon {
    child: Option<Child>,
    addr: String,
    stderr: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Spawn `serve` on a free loopback port and poll `/readyz` from the
    /// moment of spawn until it answers 200. Returns the daemon and the
    /// seconds that took.
    fn start(root: &Path) -> Result<(Daemon, f64), String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        // Learn a free port up front so polling can start at spawn time
        // instead of after the daemon's announcement line.
        let addr = std::net::TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .map_err(|e| format!("cannot find a free port: {e}"))?
            .to_string();
        let t = Instant::now();
        let mut child = Command::new(exe)
            // One malloc arena. With glibc's default of one per thread,
            // the daemon's peak RSS for the same job sequence ranged from
            // 133 to 147 MB between runs, set by which threads happened to
            // share an arena; with one it repeats to within 0.3 MB.
            .env("MALLOC_ARENA_MAX", "1")
            .arg("serve-daemon")
            .args(["--addr", &addr, "--root"])
            .arg(root)
            .args(["--jobs", &crate::POOL_JOBS.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn the daemon: {e}"))?;
        let lines = BufReader::new(child.stderr.take().expect("stderr is piped")).lines();
        // Drain stderr so the daemon never blocks on a full pipe.
        let mut daemon = Daemon {
            child: Some(child),
            addr,
            stderr: Some(std::thread::spawn(move || lines.for_each(drop))),
        };
        loop {
            if let Ok(r) = http::request(&daemon.addr, "GET", "/readyz", "") {
                if r.status == 200 {
                    return Ok((daemon, t.elapsed().as_secs_f64()));
                }
            }
            let exited = daemon
                .child
                .as_mut()
                .is_some_and(|c| !matches!(c.try_wait(), Ok(None)));
            if exited || t.elapsed() > EXIT_GRACE {
                return Err(format!("daemon on {} never became ready", daemon.addr));
            }
            std::thread::sleep(Duration::from_micros(50));
        }
    }

    /// The daemon's peak resident set, MB.
    fn peak_rss_mb(&self) -> Option<f64> {
        let pid = self.child.as_ref()?.id();
        let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
        crate::layers::vm_hwm_mb(&status)
    }

    /// Drain through `POST /shutdown` and wait for a clean exit.
    fn shutdown(mut self) -> Result<(), String> {
        let _ = http::request(&self.addr, "POST", "/shutdown", "");
        let mut child = self.child.take().expect("shutdown runs once");
        let t = Instant::now();
        let result = loop {
            match child.try_wait() {
                Ok(Some(status)) if status.success() => break Ok(()),
                Ok(Some(status)) => break Err(format!("daemon exited with {status}")),
                Ok(None) if t.elapsed() < EXIT_GRACE => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    break Err("daemon did not drain; killed".to_string());
                }
            }
        };
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
        result
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
    }
}

/// One distinct job spec and its in-process reference result.
struct SpecRef {
    /// The JSON body POSTed.
    body: String,
    /// The artifact fetched and compared.
    artifact: &'static str,
    /// The artifact's reference bytes.
    expected: Vec<u8>,
    /// The terminal state the reference run implies.
    expected_state: &'static str,
    /// Measured simulated instructions of the job.
    instructions: u64,
    /// Simulated cycles (run jobs only; 0 for characterize).
    cycles: u64,
}

/// Fisher–Yates shuffle in place.
fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// The session's job sequence (indices into the distinct specs) and
/// the distinct spec bodies, generated from `seed`.
fn sequence(seed: u64, jobs: usize) -> (Vec<usize>, Vec<String>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let pool: Vec<u64> = (0..SEED_POOL)
        .map(|_| rng.gen_range(0..1_000_000))
        .collect();
    let mut opcodes: Vec<&'static str> = targets().iter().map(|t| t.opcode.mnemonic()).collect();
    opcodes.sort_unstable();
    opcodes.dedup();
    let modes = MODES.map(|m| format!("\"{m}\"")).join(",");
    let characterize = jobs / 4;
    let mut bodies: Vec<String> = (0..jobs - characterize)
        .map(|i| {
            format!(
                r#"{{"kind":"run","instructions":{RUN_INSTRUCTIONS},"seed":{},"shards":1}}"#,
                pool[i % SEED_POOL]
            )
        })
        .chain((0..characterize).map(|_| {
            shuffle(&mut rng, &mut opcodes);
            let mut ops = opcodes[..PROBE_OPCODES].to_vec();
            ops.sort_unstable();
            let ops = ops
                .iter()
                .map(|op| format!("\"{op}\""))
                .collect::<Vec<_>>()
                .join(",");
            format!(r#"{{"kind":"characterize","opcodes":[{ops}],"modes":[{modes}]}}"#)
        }))
        .collect();
    shuffle(&mut rng, &mut bodies);
    let mut distinct: Vec<String> = bodies.clone();
    distinct.sort();
    distinct.dedup();
    let order = bodies
        .iter()
        .map(|b| {
            distinct
                .binary_search(b)
                .expect("every body is distinct-listed")
        })
        .collect();
    (order, distinct)
}

/// Execute `body` in-process exactly as the daemon would, into `out`.
fn reference(body: &str, out: &Path) -> Result<SpecRef, String> {
    let spec = JobSpec::decode(body)?;
    let jobs = crate::POOL_JOBS;
    let trace_out = Some(out.join("trace.json"));
    let (req, artifact) = match &spec {
        JobSpec::Run(_) => {
            let mut o = spec.to_run_options(jobs, 0);
            o.format = Format::Json;
            o.out = Some(out.to_path_buf());
            o.verbosity = Verbosity::Quiet;
            o.trace_out = trace_out;
            (JobRequest::Run(o), "measurement.json")
        }
        _ => {
            let mut o = spec.to_characterize_options(jobs, 0);
            o.out = Some(out.to_path_buf());
            o.verbosity = Verbosity::Quiet;
            o.trace_out = trace_out;
            (JobRequest::Characterize(o), "costs.json")
        }
    };
    let outcome = JobEngine::new().execute(&req);
    let expected = std::fs::read(out.join(artifact))
        .map_err(|e| format!("reference {artifact} for {body}: {e}"))?;
    let mut rt = Runtime::default();
    rt.add(&out.join("runtime.json"))?;
    let cycles = if artifact == "measurement.json" {
        check_validation(out)?;
        if outcome.code != 0 {
            return Err(format!("reference run {body} exited {}", outcome.code));
        }
        measured_counts(&expected)?.1
    } else {
        0
    };
    Ok(SpecRef {
        body: body.to_string(),
        artifact,
        expected,
        expected_state: if outcome.code == 0 { "done" } else { "failed" },
        instructions: rt.counter("instructions"),
        cycles,
    })
}

/// What one session measured.
#[derive(Default)]
struct Session {
    wall_s: f64,
    latency_ms: Vec<f64>,
    fetch_ms: Vec<f64>,
    healthz_ms: Vec<f64>,
    exec_ms: Vec<f64>,
    outside_ms: Vec<f64>,
    instructions: u64,
    journal_lines: usize,
    peak_rss_mb: Option<f64>,
    runtime: Runtime,
    digest: u64,
}

/// Drive one daemon through the whole job sequence.
fn session(
    daemon: &Daemon,
    root: &Path,
    order: &[usize],
    refs: &[SpecRef],
    traced: bool,
    report: &mut Report,
) -> Session {
    let addr = &daemon.addr;
    let mut s = Session::default();
    let mut digest = Vec::new();
    let start = Instant::now();
    for &k in order {
        let r = &refs[k];
        // Operations: the job itself plus its four requests.
        report.attempted += 5;
        let t = Instant::now();
        let id = match http::request(addr, "POST", "/jobs", &r.body) {
            Ok(resp) if resp.ok() => resp
                .json()
                .ok()
                .and_then(|j| j.get("id").and_then(Json::as_str).map(str::to_string)),
            _ => None,
        };
        let Some(id) = id else {
            report.failed += 5;
            continue;
        };
        let state = match http::follow_events(addr, &id) {
            Ok((200, Some(state))) => state,
            _ => {
                // The stream, the two fetches never made, and the job.
                report.failed += 4;
                continue;
            }
        };
        let latency = t.elapsed().as_secs_f64() * 1e3;
        s.latency_ms.push(latency);
        if state != "done" {
            report.failed += 1;
        }
        if state != r.expected_state {
            report.problem(format!(
                "job {id} ended '{state}', its reference implies '{}'",
                r.expected_state
            ));
        }
        let t = Instant::now();
        let listing = http::request(addr, "GET", &format!("/jobs/{id}/artifacts"), "");
        let artifact = http::request(
            addr,
            "GET",
            &format!("/jobs/{id}/artifacts/{}", r.artifact),
            "",
        );
        s.fetch_ms.push(t.elapsed().as_secs_f64() * 1e3);
        for resp in [&listing, &artifact] {
            if !resp.as_ref().is_ok_and(http::Response::ok) {
                report.failed += 1;
            }
        }
        match artifact {
            Ok(resp) if resp.ok() && resp.body == r.expected => {
                digest.extend_from_slice(&resp.body);
            }
            Ok(resp) if resp.ok() => report.problem(format!(
                "job {id}: served {} differs from the in-process reference of {}",
                r.artifact, r.body
            )),
            _ => {}
        }
        s.instructions += r.instructions;
        if traced {
            let mut job_rt = Runtime::default();
            let path = root.join(&id).join("runtime.json");
            match job_rt.add(&path).and_then(|()| s.runtime.add(&path)) {
                Ok(()) => {
                    let exec = job_rt.phase("run") * 1e3;
                    s.exec_ms.push(exec);
                    s.outside_ms.push(latency - exec);
                }
                Err(msg) => report.problem(msg),
            }
        }
    }
    s.wall_s = start.elapsed().as_secs_f64();
    if traced {
        // Round trips of the liveness probe on the now idle daemon.
        for _ in 0..HEALTHZ_PROBES {
            let t = Instant::now();
            report.attempted += 1;
            match http::request(addr, "GET", "/healthz", "") {
                Ok(resp) if resp.ok() => s.healthz_ms.push(t.elapsed().as_secs_f64() * 1e3),
                _ => report.failed += 1,
            }
        }
    }
    s.digest = fnv1a(&digest);
    s.journal_lines =
        std::fs::read_to_string(root.join("journal.ndjson")).map_or(0, |t| t.lines().count());
    s.peak_rss_mb = daemon.peak_rss_mb();
    s
}

/// Start a daemon on a fresh root, run a session, drain the daemon.
fn run_session(
    work: &WorkDir,
    name: &str,
    order: &[usize],
    refs: &[SpecRef],
    traced: bool,
    report: &mut Report,
) -> Option<Session> {
    let root: PathBuf = work.sub(name);
    let daemon = match Daemon::start(&root) {
        Ok((d, _)) => d,
        Err(msg) => {
            report.problem(msg);
            return None;
        }
    };
    let s = session(&daemon, &root, order, refs, traced, report);
    if let Err(msg) = daemon.shutdown() {
        report.problem(msg);
    }
    Some(s)
}

/// The workload.
pub fn run(args: &Args, work: &WorkDir, report: &mut Report) {
    // Set-up: daemon spawn until /readyz answers 200, several times.
    let mut setup = Vec::new();
    for i in 0..SETUP_SPAWNS {
        match Daemon::start(&work.sub(&format!("serve-setup-{i}"))) {
            Ok((daemon, secs)) => {
                setup.push(secs);
                if let Err(msg) = daemon.shutdown() {
                    report.problem(msg);
                }
            }
            Err(msg) => {
                report.problem(msg);
                return;
            }
        }
    }
    report.set("setup_s", median(&setup));

    let (order, bodies) = sequence(args.seed, JOBS);
    let mut refs = Vec::new();
    for (i, body) in bodies.iter().enumerate() {
        match reference(body, &work.sub(&format!("serve-ref-{i}"))) {
            Ok(r) => refs.push(r),
            Err(msg) => {
                report.problem(msg);
                return;
            }
        }
    }
    let Some(s) = run_session(work, "serve-root", &order, &refs, false, report) else {
        return;
    };
    report.set("wall_s", s.wall_s);
    if s.latency_ms.is_empty() {
        return;
    }
    report.set("job_p50_ms", median(&s.latency_ms));
    report.set("job_p90_ms", percentile(&s.latency_ms, 0.9));
    report.set("sim_minstr_per_s", s.instructions as f64 / s.wall_s / 1e6);
    if let Some(rss) = s.peak_rss_mb {
        report.set("peak_rss_mb", rss);
    }
    let (cycles, instructions) = refs
        .iter()
        .filter(|r| r.cycles > 0)
        .fold((0, 0), |(c, n), r| (c + r.cycles, n + r.instructions));
    let cpi = cycles as f64 / instructions as f64;
    report.set("cpi_err_pct", (cpi - PAPER_CPI).abs() / PAPER_CPI * 100.0);
    let runs = bodies.iter().filter(|b| b.contains("\"run\"")).count();
    report.note(format!(
        "digest served artifacts {:016x} ({JOBS} jobs, {} distinct specs: {runs} run, {} characterize)",
        s.digest,
        bodies.len(),
        bodies.len() - runs
    ));
    report.note(format!(
        "job latency samples {}; run-job CPI {cpi:.4}",
        s.latency_ms.len()
    ));

    if args.trace {
        let Some(t) = run_session(work, "serve-root-traced", &order, &refs, true, report) else {
            return;
        };
        report_overhead(report, t.wall_s, s.wall_s);
        t.runtime.report_phases(report, crate::POOL_JOBS);
        for (name, samples) in [
            ("serve.queue_ms", &t.outside_ms),
            ("serve.exec_ms", &t.exec_ms),
            ("serve.fetch_ms", &t.fetch_ms),
            ("serve.healthz_rtt_ms", &t.healthz_ms),
        ] {
            if !samples.is_empty() {
                report.set(name, median(samples));
            }
        }
        report.set(
            "serve.journal_lines_per_job",
            t.journal_lines as f64 / order.len() as f64,
        );
        if t.digest != s.digest {
            report.problem("traced session served different artifacts".to_string());
        }
    }
}
