//! One timed repetition of an engine job in a fresh child process, so
//! every repetition starts from the same process state a `reproduce`
//! invocation does (allocator included) and its peak RSS is its own.
//!
//! The child is this binary run as `perfbench rep WORKLOAD SEED OUT
//! TRACE`; it executes the job into `OUT` and prints `SECS RSS_MB CODE`.

use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use vax_bench::engine::{JobEngine, JobRequest};

use crate::{composite, layers, probegrid};

/// What the child measured.
#[derive(Debug, Clone, Copy)]
pub struct RepRun {
    /// Host seconds of the `JobEngine::execute` call.
    pub secs: f64,
    /// The child's peak resident set, MB.
    pub rss_mb: f64,
    /// The job's exit code.
    pub code: i32,
}

/// The engine request of one repetition.
fn request(workload: &str, seed: u64, out: &Path, trace: bool) -> JobRequest {
    let trace_out = trace.then(|| out.join("trace.json"));
    match workload {
        "composite" => JobRequest::Run(composite::options(seed, out, trace_out)),
        _ => JobRequest::Characterize(probegrid::options(out, trace_out)),
    }
}

/// Run one repetition in a child process and wait for it.
pub fn spawn(workload: &str, seed: u64, out: &Path, trace: bool) -> Result<RepRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["rep", workload, &seed.to_string()])
        .arg(out)
        .arg(if trace { "1" } else { "0" })
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run a repetition: {e}"))?;
    let text = String::from_utf8_lossy(&output.stdout);
    let fields: Vec<&str> = text.split_whitespace().collect();
    match (output.status.success(), fields.as_slice()) {
        (true, [secs, rss, code]) => Ok(RepRun {
            secs: secs
                .parse()
                .map_err(|_| format!("bad repetition output {text:?}"))?,
            rss_mb: rss
                .parse()
                .map_err(|_| format!("bad repetition output {text:?}"))?,
            code: code
                .parse()
                .map_err(|_| format!("bad repetition output {text:?}"))?,
        }),
        _ => Err(format!(
            "repetition process failed ({}): {text:?}",
            output.status
        )),
    }
}

/// The child side: `rep WORKLOAD SEED OUT TRACE`.
pub fn child(argv: &[String]) -> ExitCode {
    let [workload, seed, out, trace] = argv else {
        eprintln!("perfbench rep: expected WORKLOAD SEED OUT TRACE, got {argv:?}");
        return ExitCode::from(2);
    };
    let Ok(seed) = seed.parse() else {
        eprintln!("perfbench rep: bad seed '{seed}'");
        return ExitCode::from(2);
    };
    let req = request(workload, seed, Path::new(out), trace == "1");
    let t = Instant::now();
    let outcome = JobEngine::new().execute(&req);
    let secs = t.elapsed().as_secs_f64();
    println!("{secs} {} {}", layers::peak_rss_mb(), outcome.code);
    ExitCode::SUCCESS
}
