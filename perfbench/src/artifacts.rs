//! Reading back what the program wrote: run artifacts and the phase
//! totals of a traced run's `runtime.json`.

use std::collections::BTreeMap;
use std::path::Path;

use vax_analysis::Json;

use crate::Report;

/// Read an artifact as JSON.
pub fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Check `validation.json` in `dir`: all 8 conserved invariants hold.
pub fn check_validation(dir: &Path) -> Result<(), String> {
    let v = read_json(&dir.join("validation.json"))?;
    let checks = v.get("checks").and_then(Json::as_arr).unwrap_or(&[]);
    let failing: Vec<&str> = checks
        .iter()
        .filter(|c| c.get("passed") != Some(&Json::Bool(true)))
        .filter_map(|c| c.get("name").and_then(Json::as_str))
        .collect();
    if checks.len() != 8 || !failing.is_empty() || v.get("clean") != Some(&Json::Bool(true)) {
        return Err(format!(
            "validation.json: {} invariant(s), failing: {failing:?}",
            checks.len()
        ));
    }
    Ok(())
}

/// Instructions and cycles recorded in a `measurement.json`.
pub fn measured_counts(measurement: &[u8]) -> Result<(u64, u64), String> {
    let j = Json::parse(&String::from_utf8_lossy(measurement))?;
    let get = |k: &str| {
        j.get(k)
            .and_then(Json::as_i64)
            .map(|v| v as u64)
            .ok_or_else(|| format!("measurement.json has no '{k}'"))
    };
    Ok((get("instructions")?, get("cycles")?))
}

/// Phase totals (seconds) and counters from a traced run's
/// `runtime.json`, summed over every file given.
#[derive(Debug, Default)]
pub struct Runtime {
    /// `phase name → total seconds`.
    pub phases: BTreeMap<String, f64>,
    /// `counter name → total`.
    pub counters: BTreeMap<String, u64>,
}

impl Runtime {
    /// Fold one `runtime.json` into the totals.
    pub fn add(&mut self, path: &Path) -> Result<(), String> {
        let j = read_json(path)?;
        if let Some(Json::Obj(phases)) = j.get("phases") {
            for (name, p) in phases {
                let us = p.get("total_us").and_then(Json::as_i64).unwrap_or(0);
                *self.phases.entry(name.clone()).or_default() += us as f64 / 1e6;
            }
        }
        if let Some(Json::Obj(counters)) = j.get("counters") {
            for (name, v) in counters {
                *self.counters.entry(name.clone()).or_default() += v.as_i64().unwrap_or(0) as u64;
            }
        }
        Ok(())
    }

    /// A phase total in seconds (0 when the phase never ran).
    pub fn phase(&self, name: &str) -> f64 {
        self.phases.get(name).copied().unwrap_or(0.0)
    }

    /// A counter total (0 when never counted).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Publish the phase metrics shared by every workload.
    pub fn report_phases(&self, report: &mut Report, pool_jobs: usize) {
        for phase in [
            "codegen",
            "boot",
            "simulate",
            "checkpoint",
            "merge",
            "export",
            "probe",
        ] {
            report.set(&format!("bench.phase.{phase}_s"), self.phase(phase));
        }
        let run = self.phase("run");
        if run > 0.0 {
            report.set(
                "bench.pool_busy_frac",
                self.phase("job") / (pool_jobs as f64 * run),
            );
        }
        let (hits, misses) = (
            self.counter("boot_cache_hits"),
            self.counter("boot_cache_misses"),
        );
        if hits + misses > 0 {
            report.set(
                "bench.boot_cache_hit_ratio",
                hits as f64 / (hits + misses) as f64,
            );
        }
    }
}

/// Publish `trace.overhead_pct` from a traced and the untraced times.
pub fn report_overhead(report: &mut Report, traced_s: f64, untraced_median_s: f64) {
    report.set(
        "trace.overhead_pct",
        (traced_s / untraced_median_s - 1.0) * 100.0,
    );
}
