//! End-to-end robustness checks against the real `reproduce` binary:
//! crash-safe resume (SIGKILL mid-run, then `resume` completes the grid
//! byte-identically) and the strict/retry exit-code contract.
//!
//! These run the debug binary on deliberately small grids, so each test
//! costs seconds, not minutes.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

fn reproduce() -> Command {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("robustness-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Artifact file names in `dir` (top level only; the checkpoints journal
/// is bookkeeping, not an export).
fn artifact_names(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap())
        .filter(|e| e.path().is_file())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

fn count_checkpoint_cells(dir: &Path) -> usize {
    let cp = dir.join("checkpoints");
    match std::fs::read_dir(&cp) {
        Ok(entries) => entries
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().starts_with("cell-"))
            .count(),
        Err(_) => 0,
    }
}

#[test]
fn killed_run_resumes_to_byte_identical_artifacts() {
    let clean = scratch("clean");
    let interrupted = scratch("interrupted");
    let grid = |out: &Path| {
        vec![
            "--instructions".to_string(),
            "60000".to_string(),
            "--shards".to_string(),
            "2".to_string(),
            "--seed".to_string(),
            "7".to_string(),
            "--jobs".to_string(),
            "1".to_string(),
            "--format".to_string(),
            "json".to_string(),
            "--out".to_string(),
            out.display().to_string(),
            "--quiet".to_string(),
        ]
    };

    // Reference: the same grid, never interrupted.
    let status = reproduce().args(grid(&clean)).status().unwrap();
    assert!(status.success());

    // Victim: identical invocation, killed once a couple of cells have
    // been journaled.
    let mut child = reproduce()
        .args(grid(&interrupted))
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut finished_early = false;
    loop {
        if count_checkpoint_cells(&interrupted) >= 2 {
            break;
        }
        if child.try_wait().unwrap().is_some() {
            finished_early = true;
            break;
        }
        assert!(
            Instant::now() < deadline,
            "no checkpoint cells appeared within 60s"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    if !finished_early {
        child.kill().unwrap(); // SIGKILL on unix: no destructors run
    }
    let _ = child.wait();

    // Resume must finish the grid (or, if the child won the race, simply
    // re-export the completed one) and reproduce the reference bytes.
    let status = reproduce()
        .args(["resume", &interrupted.display().to_string(), "--quiet"])
        .status()
        .unwrap();
    assert!(status.success(), "resume failed");

    let names = artifact_names(&clean);
    assert_eq!(names, artifact_names(&interrupted));
    assert!(names.contains(&"manifest.json".to_string()));
    for name in &names {
        let a = std::fs::read(clean.join(name)).unwrap();
        let b = std::fs::read(interrupted.join(name)).unwrap();
        assert_eq!(a, b, "{name} differs after kill + resume");
    }

    std::fs::remove_dir_all(&clean).unwrap();
    std::fs::remove_dir_all(&interrupted).unwrap();
}

#[test]
fn strict_mode_fails_on_quarantine_and_retries_recover() {
    let dir = scratch("strict");
    // Shard (0,0) panics more times than --retries allows: the cell is
    // quarantined, the manifest says so, and --strict turns that into a
    // nonzero exit while the partial export still lands.
    let status = reproduce()
        .args([
            "--instructions",
            "2000",
            "--seed",
            "7",
            "--format",
            "json",
            "--out",
            &dir.display().to_string(),
            "--inject-panic",
            "0:0:9",
            "--retries",
            "1",
            "--strict",
            "--quiet",
        ])
        .stderr(Stdio::null())
        .status()
        .unwrap();
    assert_eq!(status.code(), Some(1), "strict degraded run must exit 1");
    let manifest = std::fs::read_to_string(dir.join("manifest.json")).unwrap();
    assert!(manifest.contains("\"degraded\": true"), "{manifest}");

    // With enough retries the same injection heals invisibly.
    let status = reproduce()
        .args([
            "--instructions",
            "2000",
            "--seed",
            "7",
            "--format",
            "json",
            "--out",
            &dir.display().to_string(),
            "--inject-panic",
            "0:0:1",
            "--retries",
            "2",
            "--strict",
            "--quiet",
        ])
        .stderr(Stdio::null())
        .status()
        .unwrap();
    assert_eq!(status.code(), Some(0), "recovered run must exit 0");
    let manifest = std::fs::read_to_string(dir.join("manifest.json")).unwrap();
    assert!(manifest.contains("\"degraded\": false"), "{manifest}");

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn fault_seed_runs_are_reproducible_from_the_command_line() {
    let a = scratch("fault-a");
    let b = scratch("fault-b");
    for dir in [&a, &b] {
        let status = reproduce()
            .args([
                "--instructions",
                "2000",
                "--seed",
                "7",
                "--fault-seed",
                "11",
                "--format",
                "json",
                "--out",
                &dir.display().to_string(),
                "--quiet",
            ])
            .status()
            .unwrap();
        assert!(status.success());
    }
    for name in artifact_names(&a) {
        let x = std::fs::read(a.join(&name)).unwrap();
        let y = std::fs::read(b.join(&name)).unwrap();
        assert_eq!(x, y, "{name} differs between identical --fault-seed runs");
    }
    std::fs::remove_dir_all(&a).unwrap();
    std::fs::remove_dir_all(&b).unwrap();
}

/// `tests/fixtures/golden-faulted` was exported by an earlier build with
/// the arguments below. TB storms, SMC bursts, and parity faults drive
/// every TB and decode-cache invalidation path, so a fresh run diffing
/// clean against it shows those paths still produce the same machine.
#[test]
fn faulted_run_matches_the_committed_golden_faulted_fixture() {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/golden-faulted");
    let dir = scratch("golden-faulted");
    let status = reproduce()
        .args([
            "--instructions",
            "20000",
            "--seed",
            "1984",
            "--interval-cycles",
            "5000",
            "--fault-seed",
            "7",
            "--fault-classes",
            "tb-storm,smc,parity",
            "--format",
            "json",
            "--out",
            &dir.display().to_string(),
            "--quiet",
        ])
        .status()
        .unwrap();
    assert!(status.success());
    let out = reproduce()
        .arg("diff")
        .arg(&fixture)
        .arg(&dir)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "faulted run drifted from tests/fixtures/golden-faulted:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
