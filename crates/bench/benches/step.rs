//! Raw `Cpu::step` throughput and hot-path benches.
//!
//! `simulator.rs` times whole-system runs through the run loop; this bench
//! isolates the per-instruction step cost the decode cache optimizes, and
//! times the decode cache's hit and miss paths, the memory system's
//! memoized TB and cache hits, and per-cell setup directly, so a
//! regression in any of them shows up without being averaged into
//! full-run numbers.

use std::sync::Arc;

use vax780::System;
use vax_arch::{AddressingMode, Opcode};
use vax_asm::probe::{probe_loop, probe_target};
use vax_bench::cache::WarmCaches;
use vax_bench::harness::Bench;
use vax_cpu::icache::DECODE_CACHE_SLOTS;
use vax_cpu::{CpuConfig, DecodeCache};
use vax_mem::{MemorySystem, PageTables, PhysAddr, Pte, RefClass, VirtAddr, PAGE_SIZE};
use vax_workload::rte::{boot_image, shard_processes, PROCESSES_PER_WORKLOAD};
use vax_workload::{build_system, probe_system, Workload};

/// Steps per timed iteration — large enough to amortize the harness, small
/// enough that a few iterations still fit a quick run.
const STEPS: u64 = 10_000;

fn bench_step(b: &mut Bench) {
    // Cached: the shipping configuration.
    let mut sys = build_system(Workload::TimesharingResearch, 3, 7);
    sys.run_instructions(20_000); // warm TB, cache, and decode cache
    b.bench_n("step/decode_cache_on", 20, || sys.run_instructions(STEPS));
    let stats = sys.cpu.decode_cache_stats();
    assert!(stats.hits > 0, "warm run should hit the decode cache");

    // Uncached: the test-oracle configuration; every step re-decodes.
    let mut sys = build_system(Workload::TimesharingResearch, 3, 7);
    sys.cpu.config.decode_cache = false;
    sys.run_instructions(20_000);
    b.bench_n("step/decode_cache_off", 20, || sys.run_instructions(STEPS));
    assert_eq!(sys.cpu.decode_cache_stats().hits, 0);
}

fn bench_icache_paths(b: &mut Bench) {
    let insn = vax_arch::decode(&[0xD0, 0x51, 0x52]).expect("movl r1, r2");
    let tables = PageTables {
        sbr: PhysAddr(0x10000),
        slr: 64,
        p0br: VirtAddr(0x8000_0000),
        p0lr: 16,
        p1br: VirtAddr(0x8000_0200),
        p1lr: 16,
    };

    // Hit path: the same PCs over and over, as a loop body would.
    let mut cache = DecodeCache::new();
    for pc in 0..64u32 {
        cache.lookup(0x200 + pc * 4, 0, &tables);
        cache.insert(0x200 + pc * 4, insn);
    }
    let mut pc = 0u32;
    b.bench("icache/hit", || {
        pc = (pc + 1) & 63;
        cache.lookup(0x200 + pc * 4, 0, &tables)
    });

    // Miss + insert path: a PC stream wider than the cache, so every
    // lookup misses and refills (the cold-loop / conflict case).
    let mut cache = DecodeCache::new();
    let mut va = 0x200u32;
    b.bench("icache/miss_insert", || {
        va = va.wrapping_add(DECODE_CACHE_SLOTS as u32 + 4);
        let out = cache.lookup(va, 0, &tables);
        cache.insert(va, insn);
        out
    });
}

/// The IB's two memoized paths: a TB probe of the page the last fill used,
/// and a longword fill of a resident block. Fills walk longwords in order,
/// two per 8-byte block, as the IB does through straight-line code.
fn bench_memsys_hits(b: &mut Bench) {
    let mut ms = MemorySystem::new_780();
    ms.tables = PageTables {
        sbr: PhysAddr(0x10000),
        slr: 64,
        p0br: VirtAddr(0x8000_0000),
        p0lr: 16,
        p1br: VirtAddr(0x8000_0200),
        p1lr: 16,
    };
    for vpn in 0..64u32 {
        let pte = Pte::valid((0x40000 / PAGE_SIZE) + vpn);
        ms.phys_mut()
            .write(PhysAddr(0x10000 + vpn * 4), 4, u64::from(pte.0));
    }
    for vpn in 0..16u32 {
        let pte = Pte::valid((0x80000 / PAGE_SIZE) + vpn);
        ms.phys_mut()
            .write(PhysAddr(0x40000 + vpn * 4), 4, u64::from(pte.0));
    }
    ms.tb_fill(VirtAddr(0x200), 0).expect("page 1 is mapped");
    let mut off = 0u32;
    b.bench("memsys/probe_tb_hit", || {
        off = (off + 4) & (PAGE_SIZE - 1);
        ms.probe_tb_at(VirtAddr(0x200 + off), RefClass::IStream, 0)
    });

    for lw in 0..64u32 {
        ms.ifetch_cycle(PhysAddr(0x80200 + lw * 4), 0);
    }
    let mut lw = 0u32;
    let mut now = 0u64;
    b.bench("memsys/ifetch_hit", || {
        lw = (lw + 1) & 63;
        now += 1;
        ms.ifetch_cycle(PhysAddr(0x80200 + lw * 4), now)
    });
}

/// Per-cell setup: a composite cell's codegen, the full layout of its boot
/// image, a warm-cache boot hit (key plus rehydrate), rehydration alone,
/// and a characterization probe system built and booted from scratch,
/// which every characterize cell pays.
fn bench_boot(b: &mut Bench) {
    b.bench_n("codegen/shard_processes", 20, || {
        shard_processes(Workload::TimesharingResearch, PROCESSES_PER_WORKLOAD, 7)
    });

    let processes = shard_processes(Workload::TimesharingResearch, PROCESSES_PER_WORKLOAD, 7);
    b.bench_n("boot/build_image", 20, || boot_image(processes.clone()));

    let caches = WarmCaches::new();
    let specs = Arc::new(processes.clone());
    caches.boot(&specs);
    b.bench_n("boot/warm_hit", 50, || {
        let (system, hit) = caches.boot(&specs);
        assert!(hit, "the second boot of the same specs must hit");
        system
    });

    let image = boot_image(processes);
    b.bench_n("boot/from_boot_image", 50, || {
        System::from_boot_image(&image)
    });

    let target = probe_target(Opcode::Addl2, AddressingMode::RegisterDeferred)
        .expect("ADDL2 (R) is probeable");
    let probe = probe_loop(Some(&target), 4).expect("probe loop assembles");
    b.bench_n("boot/probe_system", 50, || probe_system(&probe));
}

fn bench_config_sanity() {
    // The shipping config has the cache on; keep the bench honest if that
    // ever changes. Read through a runtime value so the check survives the
    // constant becoming configurable.
    let config = CpuConfig::VAX_780;
    assert!(
        config.decode_cache,
        "VAX_780 should enable the decode cache"
    );
}

fn main() {
    let mut b = Bench::from_args();
    bench_config_sanity();
    bench_step(&mut b);
    bench_icache_paths(&mut b);
    bench_memsys_hits(&mut b);
    bench_boot(&mut b);
    b.finish();
}
