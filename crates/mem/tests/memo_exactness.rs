//! The TB and cache probe memos are exact.
//!
//! `MemorySystem::probe_tb_at` remembers the last hit page per reference
//! stream, and `Cache::access_read` remembers its two most recent hit
//! blocks. Both memos answer without looking at the TB or tag store, so
//! they are only correct if every mutation of that state forgets them.
//! These tests drive seeded random sequences of translations, TB fills,
//! IB fills, reads, writes, and invalidations, and before each memoized
//! call check its answer against the state-free `Tb::probe` /
//! `Cache::probe` of the same moment. They cover the 780's geometry and
//! the geometries `examples/cache_tb_explorer.rs` sweeps, plus 1-way,
//! 4-way, and non-power-of-two-set caches and an unsplit TB.

use vax_mem::{
    Cache, CacheConfig, MemConfig, MemorySystem, PageTables, PhysAddr, Pte, RefClass, TbConfig,
    VirtAddr, PAGE_SIZE,
};

/// xorshift64*: a dependency-free deterministic stream for the op mix.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

const CACHES: &[CacheConfig] = &[
    CacheConfig::VAX_780,
    CacheConfig {
        size_bytes: 8 * 1024,
        ways: 1,
        block_bytes: 8,
    },
    CacheConfig {
        size_bytes: 8 * 1024,
        ways: 4,
        block_bytes: 8,
    },
    CacheConfig {
        size_bytes: 2 * 1024,
        ways: 2,
        block_bytes: 8,
    },
    CacheConfig {
        size_bytes: 32 * 1024,
        ways: 2,
        block_bytes: 8,
    },
    // 384 sets: the divide path of the set index.
    CacheConfig {
        size_bytes: 6 * 1024,
        ways: 2,
        block_bytes: 8,
    },
    CacheConfig {
        size_bytes: 1024,
        ways: 1,
        block_bytes: 16,
    },
];

const TBS: &[TbConfig] = &[
    TbConfig::VAX_780,
    TbConfig {
        entries: 64,
        ways: 2,
        split: false,
    },
    TbConfig {
        entries: 32,
        ways: 2,
        split: true,
    },
    TbConfig {
        entries: 512,
        ways: 2,
        split: true,
    },
    // 24 sets per half: the divide path of the set index.
    TbConfig {
        entries: 96,
        ways: 2,
        split: true,
    },
];

/// System pages mapped (physical 0x20000+); system page 0 holds the P0
/// page table.
const SYS_PAGES: u32 = 64;
/// P0 pages mapped (physical 0x40000+): four per TB set on the 780, so
/// fills keep evicting remembered pages.
const P0_PAGES: u32 = 128;

fn memory_system(cache: CacheConfig, tb: TbConfig) -> MemorySystem {
    let mut ms = MemorySystem::new(MemConfig {
        cache,
        tb,
        mem_bytes: 1 << 20,
        ..MemConfig::VAX_780
    });
    ms.tables = PageTables {
        sbr: PhysAddr(0x1000),
        slr: SYS_PAGES,
        p0br: VirtAddr(0x8000_0000),
        p0lr: P0_PAGES,
        p1br: VirtAddr(0x8000_0200),
        p1lr: 0,
    };
    for vpn in 0..SYS_PAGES {
        let pte = Pte::valid((0x20000 / PAGE_SIZE) + vpn);
        ms.phys_mut()
            .write(PhysAddr(0x1000 + vpn * 4), 4, u64::from(pte.0));
    }
    for vpn in 0..P0_PAGES {
        let pte = Pte::valid((0x40000 / PAGE_SIZE) + vpn);
        ms.phys_mut()
            .write(PhysAddr(0x20000 + vpn * 4), 4, u64::from(pte.0));
    }
    ms
}

/// A random mapped address: usually near the stream's previous one (the
/// locality the memos exploit), sometimes anywhere in P0 or system space.
fn next_va(rng: &mut Rng, prev: VirtAddr) -> VirtAddr {
    match rng.below(10) {
        0..=5 => {
            let page = prev.0 & !(PAGE_SIZE - 1);
            VirtAddr(page | ((prev.offset() + 4 * rng.below(3) as u32) % PAGE_SIZE))
        }
        6..=8 => VirtAddr(rng.below(u64::from(P0_PAGES * PAGE_SIZE)) as u32),
        _ => VirtAddr(0x8000_0000 + rng.below(u64::from(SYS_PAGES * PAGE_SIZE)) as u32),
    }
}

/// Translate like the CPU does: probe, and on a miss fill and re-probe.
/// Every probe is checked against the TB itself first.
fn translate(ms: &mut MemorySystem, va: VirtAddr, class: RefClass, now: u64) -> PhysAddr {
    loop {
        let expected = ms
            .tb()
            .probe(va)
            .map(|pfn| PhysAddr::from_pfn(pfn, va.offset()));
        let misses = ms.stats.total_tb_misses();
        let got = ms.probe_tb_at(va, class, now);
        assert_eq!(got, expected, "TB memo disagrees with the TB at {va}");
        assert_eq!(
            ms.stats.total_tb_misses(),
            misses + u64::from(expected.is_none()),
            "a TB hit counts no miss, a miss counts one"
        );
        match got {
            Some(pa) => {
                assert_eq!(Ok(pa), ms.raw_translate(va), "stale translation");
                return pa;
            }
            None => {
                ms.tb_fill(va, now).expect("every test page is mapped");
            }
        }
    }
}

fn drive(cache: CacheConfig, tb: TbConfig, seed: u64, ops: u32) {
    let mut ms = memory_system(cache, tb);
    let mut rng = Rng(seed);
    // Each stream keeps its own locality, so one stream's fill can evict
    // the page the other stream's memo remembers.
    let mut ipc = VirtAddr(0x200);
    let mut dva = VirtAddr(0x8000_0400);
    let mut now = 0u64;
    for _ in 0..ops {
        now += 1 + rng.below(4);
        let op = rng.below(100);
        let va = if op < 40 {
            ipc = next_va(&mut rng, ipc);
            ipc
        } else {
            dva = next_va(&mut rng, dva);
            dva
        };
        match op {
            // IB fill: I-stream translation, then a longword fill.
            0..=39 => {
                let pa = translate(&mut ms, va, RefClass::IStream, now);
                let lw = PhysAddr(pa.0 & !3);
                let resident = ms.cache().probe(lw);
                let fill = ms.ifetch_cycle(lw, now);
                assert_eq!(fill.miss, !resident, "cache memo disagrees at {lw}");
                assert!(ms.cache().probe(lw), "a fill leaves its block resident");
            }
            // EBOX read.
            40..=69 => {
                let pa = translate(&mut ms, va, RefClass::DStream, now);
                let resident = ms.cache().probe(pa);
                let out = ms.read_cycle(pa, now);
                assert_eq!(out.miss, !resident, "cache memo disagrees at {pa}");
                assert_eq!(out.stall == 0, resident);
            }
            // EBOX write (write-through, no allocate).
            70..=89 => {
                let pa = translate(&mut ms, va, RefClass::DStream, now);
                let resident = ms.cache().probe(pa);
                let hits = ms.stats.d_write_hits;
                ms.write_cycle(pa, now);
                assert_eq!(ms.stats.d_write_hits, hits + u64::from(resident));
                assert_eq!(ms.cache().probe(pa), resident, "writes never install");
            }
            // TB invalidations (TBIS, LDPCTX, TBIA).
            90..=94 => ms.tb_mut().invalidate_page(va),
            95..=97 => ms.tb_mut().invalidate_process(),
            _ => ms.tb_mut().invalidate_all(),
        }
    }
}

#[test]
fn memos_match_state_free_probes_across_geometries() {
    for (ci, &cache) in CACHES.iter().enumerate() {
        for (ti, &tb) in TBS.iter().enumerate() {
            let seed = 0x780_0000 + (ci * TBS.len() + ti) as u64;
            drive(cache, tb, seed, 20_000);
        }
    }
}

#[test]
fn memos_match_on_the_780_over_many_seeds() {
    for seed in 1..=16u64 {
        drive(CacheConfig::VAX_780, TbConfig::VAX_780, seed, 20_000);
    }
}

/// `Cache::invalidate_all` has no caller inside `MemorySystem`, so drive
/// the tag store directly: reads, writes, and full flushes, with every
/// memoized read checked against `Cache::probe`.
#[test]
fn cache_memo_matches_probe_through_flushes() {
    for (ci, &config) in CACHES.iter().enumerate() {
        let mut cache = Cache::new(config);
        let mut rng = Rng(0xCAC4E + ci as u64);
        let span = 4 * config.size_bytes as u64;
        let mut pa = PhysAddr(0);
        for _ in 0..50_000 {
            pa = match rng.below(10) {
                0..=5 => PhysAddr(pa.0.wrapping_add(4 * rng.below(3) as u32) % span as u32),
                _ => PhysAddr(rng.below(span) as u32),
            };
            match rng.below(100) {
                0..=79 => {
                    let resident = cache.probe(pa);
                    assert_eq!(cache.access_read(pa), resident, "memo disagrees at {pa}");
                    assert!(cache.probe(pa));
                }
                80..=97 => {
                    let resident = cache.probe(pa);
                    assert_eq!(cache.access_write(pa), resident);
                }
                _ => {
                    cache.invalidate_all();
                    assert_eq!(cache.valid_count(), 0);
                }
            }
        }
    }
}
