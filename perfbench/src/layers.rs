//! Isolated calls into each layer's public functions, timed from the
//! benchmark's own code (no tracing is added inside the program), plus
//! the exact per-instruction work counts of the memory system and the
//! decode cache. Runs once per traced invocation, after the workload.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use upc_monitor::{Histogram, MicroPc, Plane};
use vax780::{Measurement, System, TimeSeries};
use vax_analysis::characterize::{reduce_matrix, run_probe};
use vax_analysis::{run_artifacts, tables, validate, Analysis, RunManifest};
use vax_arch::Instruction;
use vax_asm::probe::probe_loop;
use vax_cpu::{ControlStore, CpuConfig, DecodeCache};
use vax_mem::{MemorySystem, PageTables, PhysAddr, VirtAddr};
use vax_workload::rte::{boot_image, shard_processes, shard_seed, PROCESSES_PER_WORKLOAD};
use vax_workload::{quiesced_config, Workload};

use crate::stats::median;
use crate::{Args, Report, WorkDir};

/// Measured instructions per workload in the simulation microbench.
const SIM_INSTRUCTIONS: u64 = 100_000;
/// Calls per timed batch in the per-call microbenches.
const BATCH: usize = 200_000;
/// Timed batches per microbench; each metric is the median batch.
const BATCHES: usize = 7;

/// Parse `VmHWM` out of a `/proc/*/status` document, in MB.
pub fn vm_hwm_mb(status: &str) -> Option<f64> {
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// This process's peak resident set, MB (0 without procfs).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| vm_hwm_mb(&s))
        .unwrap_or(0.0)
}

/// Median over [`BATCHES`] of `f`'s time per call, in ns; `f` runs one
/// batch of `calls` calls.
fn per_call_ns(calls: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm-up batch
    let times: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e9 / calls as f64
        })
        .collect();
    median(&times)
}

/// Median host time of `f` over `n` calls, in ms.
fn median_ms<T>(n: usize, mut f: impl FnMut() -> T) -> f64 {
    let times: Vec<f64> = (0..n)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times)
}

/// `vax_arch::decode` over the instruction boundaries of generated code.
fn decode_ns(code: &[u8]) -> f64 {
    // Linear sweep: instruction starts, skipping undecodable bytes.
    let mut starts = Vec::new();
    let mut at = 0usize;
    while at < code.len() {
        match vax_arch::decode(&code[at..]) {
            Ok(insn) => {
                starts.push(at);
                at += insn.len as usize;
            }
            Err(_) => at += 1,
        }
    }
    per_call_ns(BATCH, || {
        for i in 0..BATCH {
            black_box(vax_arch::decode(&code[starts[i % starts.len()]..]).ok());
        }
    })
}

/// `DecodeCache::lookup` on the hit path (a loop body's PCs).
fn icache_hit_ns() -> f64 {
    let insn: Instruction = vax_arch::decode(&[0xD0, 0x51, 0x52]).expect("movl r1, r2");
    let tables = PageTables {
        sbr: PhysAddr(0x10000),
        slr: 64,
        p0br: VirtAddr(0x8000_0000),
        p0lr: 16,
        p1br: VirtAddr(0x8000_0200),
        p1lr: 16,
    };
    let mut cache = DecodeCache::new();
    for pc in 0..64u32 {
        cache.lookup(0x200 + pc * 4, 0, &tables);
        cache.insert(0x200 + pc * 4, insn);
    }
    per_call_ns(BATCH, || {
        for i in 0..BATCH as u32 {
            black_box(cache.lookup(0x200 + (i & 63) * 4, 0, &tables));
        }
    })
}

/// `MemorySystem::read_cycle` over a 64 KB stream (larger than the 8 KB
/// cache, so hits and misses mix as in a real working set).
fn read_cycle_ns() -> f64 {
    let mut mem = MemorySystem::new_780();
    let mut now = 0u64;
    per_call_ns(BATCH, || {
        for i in 0..BATCH as u32 {
            let out = mem.read_cycle(PhysAddr((i.wrapping_mul(20)) & 0xFFFC), now);
            now += 1 + out.stall;
        }
    })
}

/// `Histogram::record` on a running board.
fn record_ns() -> f64 {
    let mut h = Histogram::new_16k();
    h.start();
    let ns = per_call_ns(BATCH, || {
        for i in 0..BATCH {
            h.record(MicroPc((i as u16).wrapping_mul(7) & 0x3FFF), Plane::Normal);
        }
    });
    black_box(h.total_cycles());
    ns
}

/// Everything the traced invocation measures outside the workload itself.
pub fn run(args: &Args, work: &WorkDir, report: &mut Report) {
    // Codegen and boot layers, one cell per workload profile.
    let cells: Vec<(Workload, u64)> = Workload::ALL
        .iter()
        .enumerate()
        .map(|(w, &wl)| (wl, shard_seed(args.seed, w as u64, 0)))
        .collect();
    let mut codegen = Vec::new();
    let mut build = Vec::new();
    let mut rehydrate = Vec::new();
    let mut systems: Vec<System> = Vec::new();
    for &(workload, seed) in &cells {
        let t = Instant::now();
        let specs = shard_processes(workload, PROCESSES_PER_WORKLOAD, seed);
        codegen.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let img = boot_image(specs);
        build.push(t.elapsed().as_secs_f64() * 1e3);
        rehydrate.push(median_ms(3, || System::from_boot_image(&img)));
        systems.push(System::from_boot_image(&img));
    }
    report.set("workload.codegen_ms", median(&codegen));
    report.set("core.build_image_ms", median(&build));
    report.set("core.rehydrate_ms", median(&rehydrate));
    report.set("mem.new_ms", median_ms(9, MemorySystem::new_780));

    // The simulator core: host time per simulated instruction and cycle,
    // with the exact work counts of the same runs.
    let mut composite = Measurement::default();
    let mut series = TimeSeries::default();
    let (mut hits, mut lookups) = (0u64, 0u64);
    let mut sim_ns = 0.0;
    for sys in &mut systems {
        sys.run_instructions(SIM_INSTRUCTIONS / 10);
        let t = Instant::now();
        let (m, s) = sys.measure_sampled(0, SIM_INSTRUCTIONS, 500_000);
        sim_ns += t.elapsed().as_secs_f64() * 1e9;
        let offset = composite.cycles;
        composite.merge(&m);
        series.splice(offset, &s);
        let d = sys.cpu.decode_cache_stats();
        hits += d.hits;
        lookups += d.hits + d.misses;
    }
    let instr = composite.instructions() as f64;
    report.set("core.sim_ns_per_instr", sim_ns / instr);
    report.set("core.sim_ns_per_cycle", sim_ns / composite.cycles as f64);
    report.set("cpu.decode_cache_hit_ratio", hits as f64 / lookups as f64);
    let ms = &composite.mem_stats;
    report.set(
        "mem.tb_miss_per_kinstr",
        (ms.tb_miss_d + ms.tb_miss_i) as f64 * 1e3 / instr,
    );
    report.set(
        "mem.read_miss_per_kinstr",
        ms.d_read_misses as f64 * 1e3 / instr,
    );
    report.set(
        "mem.stall_cycles_per_instr",
        (ms.read_stall_cycles + ms.write_stall_cycles) as f64 / instr,
    );
    report.note(format!(
        "layer counts: {} instructions, {} cycles, {hits}/{lookups} decode-cache hits, \
         {} TB misses, {} D-read misses",
        composite.instructions(),
        composite.cycles,
        ms.tb_miss_d + ms.tb_miss_i,
        ms.d_read_misses
    ));

    // Per-call microbenches.
    let code = &shard_processes(Workload::ALL[0], 1, cells[0].1)[0]
        .image
        .bytes;
    report.set("arch.decode_ns", decode_ns(code));
    report.set("cpu.icache_hit_ns", icache_hit_ns());
    report.set("mem.read_cycle_ns", read_cycle_ns());
    report.set("monitor.record_ns", record_ns());

    // Probe assembly and the per-probe reduction.
    let targets = crate::probegrid::targets();
    let reps = vax_bench::cli::CharacterizeOptions::default().reps;
    let t = Instant::now();
    for target in &targets {
        black_box(probe_loop(Some(target), reps).expect("grid targets assemble"));
    }
    report.set(
        "asm.probe_loop_us",
        t.elapsed().as_secs_f64() * 1e6 / targets.len() as f64,
    );
    let cs = ControlStore::new(&quiesced_config().cpu);
    let probes: Vec<Measurement> = targets
        .iter()
        .step_by(targets.len() / 8)
        .map(|t| {
            run_probe(Some(t), reps, 64, 2000)
                .expect("grid targets assemble")
                .m
        })
        .collect();
    report.set(
        "analysis.reduce_us",
        per_call_ns(probes.len(), || {
            for m in &probes {
                black_box(reduce_matrix(&cs, m));
                black_box(validate(&cs, m));
            }
        }) / 1e3,
    );

    // Tables and export of the composite measured above.
    let cs = ControlStore::new(&CpuConfig::default());
    let analysis = Analysis::new(&cs, &composite);
    let validation = validate(&cs, &composite);
    report.set(
        "analysis.tables_ms",
        median_ms(5, || tables::print_all_tables(&analysis)),
    );
    let manifest = RunManifest {
        experiment: "all".to_string(),
        seed: Some(args.seed),
        instructions: SIM_INSTRUCTIONS,
        warmup: 0,
        interval_cycles: 500_000,
        shards: 1,
        config: "default VAX-11/780 configuration, 5-workload composite".to_string(),
        fault_seed: None,
        fault_classes: Vec::new(),
        degraded: false,
        failed_cells: Vec::new(),
    };
    report.set(
        "analysis.export_ms",
        median_ms(5, || {
            run_artifacts(&manifest, &analysis, &series, &validation)
        }),
    );
    let files = run_artifacts(&manifest, &analysis, &series, &validation);
    report.set(
        "analysis.export_bytes",
        files.iter().map(|(_, body)| body.len()).sum::<usize>() as f64,
    );

    // One artifact-sized atomic write into a serve-root-like directory.
    let dir = work.sub("write-atomic");
    let body = &files
        .iter()
        .find(|(name, _)| *name == "measurement.json")
        .expect("run artifacts include measurement.json")
        .1;
    let path: &Path = &dir.join("measurement.json");
    report.set(
        "bench.write_atomic_us",
        median_ms(25, || {
            vax_bench::fsio::write_atomic(path, body).expect("write into the scratch directory")
        }) * 1e3,
    );
}
