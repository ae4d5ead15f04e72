//! Content-addressed warm caches for the expensive per-cell setup phases:
//! workload code generation and kernel boot.
//!
//! Within one run every cell has a distinct seed, so a cold run records
//! only misses — the cache pays off when a long-lived engine (the
//! `reproduce serve` daemon) executes a *second* job with the same
//! experiment definition, which then skips codegen and boot entirely.
//!
//! Keys are 64-bit hashes of the *content* that determines the phase's
//! output, never of argv or wall-clock state. The hash is an FNV-style
//! fold over 8-byte little-endian words (only a sub-word tail goes byte
//! by byte), with every variable-length field preceded by its length:
//!
//! * workload images — `(workload name, nproc, seed)`, the exact inputs of
//!   [`vax_workload::rte::shard_processes`];
//! * boot images — the generated process specs themselves (origin, code
//!   bytes, entry label, bss/stack page counts), so any codegen change
//!   automatically changes the boot key.
//!
//! Correctness leans on `SystemBuilder::build` being routed through
//! `BootImage` capture + rehydration: a cache hit replays the exact code
//! path a cold build takes, so cached and uncached runs are byte-identical
//! by construction (property-tested in `tests/warm_cache.rs`).
//!
//! The maps are bounded: once full, new entries are simply not retained
//! (hit/miss accounting is unaffected). Everything is `Send + Sync`; one
//! [`WarmCaches`] is shared by all workers of all jobs of an engine.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use vax780::{ProcessSpec, System};
use vax_workload::Workload;

/// Most distinct `(workload, nproc, seed)` image sets retained.
const WORKLOAD_CACHE_CAP: usize = 256;
/// Most distinct booted-kernel images retained (each holds only the
/// physical pages with a nonzero byte, about 90 KB for a composite cell).
const BOOT_CACHE_CAP: usize = 64;

/// Cumulative hit/miss counts for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounts {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to run the phase.
    pub misses: u64,
}

/// Shared warm caches for codegen and boot (see module docs).
#[derive(Debug, Default)]
pub struct WarmCaches {
    workload: Mutex<HashMap<u64, Arc<Vec<ProcessSpec>>>>,
    boot: Mutex<HashMap<u64, Arc<vax780::BootImage>>>,
    workload_hits: AtomicU64,
    workload_misses: AtomicU64,
    boot_hits: AtomicU64,
    boot_misses: AtomicU64,
}

/// A 64-bit FNV-style hash that folds its input a word at a time.
#[derive(Debug, Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x100_0000_01b3;

    fn new() -> Fnv {
        Fnv(Self::OFFSET)
    }

    /// One round: xor, multiply, rotate. Each step is a bijection of the
    /// state, so two inputs that differ in one word never collide. The
    /// multiply only carries upward; the rotate feeds the high bits back
    /// into the low ones, so equal flips in two words do not cancel.
    fn mix(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(Self::PRIME).rotate_left(23);
    }

    /// Fold `data` as little-endian 8-byte words, then its tail byte by
    /// byte. Callers hash the length first, so the tail is unambiguous.
    fn bytes(&mut self, data: &[u8]) {
        let mut words = data.chunks_exact(8);
        for w in &mut words {
            self.mix(u64::from_le_bytes(w.try_into().unwrap()));
        }
        for &b in words.remainder() {
            self.mix(u64::from(b));
        }
    }

    fn u64(&mut self, v: u64) {
        self.mix(v);
    }

    /// Hash a length-delimited string (delimiting prevents concatenation
    /// collisions between adjacent fields).
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

/// Key for a generated workload image set.
fn workload_key(workload: Workload, nproc: usize, seed: u64) -> u64 {
    let mut h = Fnv::new();
    h.str(workload.name());
    h.u64(nproc as u64);
    h.u64(seed);
    h.0
}

/// Key for a booted system: the full content of its process specs.
fn boot_key(specs: &[ProcessSpec]) -> u64 {
    let mut h = Fnv::new();
    h.u64(specs.len() as u64);
    for spec in specs {
        h.u64(spec.image.origin as u64);
        h.u64(spec.image.bytes.len() as u64);
        h.bytes(&spec.image.bytes);
        h.str(&spec.entry);
        h.u64(spec.bss_pages as u64);
        h.u64(spec.stack_pages as u64);
    }
    h.0
}

impl WarmCaches {
    /// An empty cache set.
    pub fn new() -> WarmCaches {
        WarmCaches::default()
    }

    /// The codegen phase through the cache: returns the process specs for
    /// `(workload, nproc, seed)` and whether they came from the cache.
    /// A miss runs [`vax_workload::rte::shard_processes`].
    pub fn processes(
        &self,
        workload: Workload,
        nproc: usize,
        seed: u64,
    ) -> (Arc<Vec<ProcessSpec>>, bool) {
        let key = workload_key(workload, nproc, seed);
        if let Some(specs) = self.workload.lock().unwrap().get(&key) {
            self.workload_hits.fetch_add(1, Ordering::Relaxed);
            return (Arc::clone(specs), true);
        }
        let specs = Arc::new(vax_workload::rte::shard_processes(workload, nproc, seed));
        self.workload_misses.fetch_add(1, Ordering::Relaxed);
        let mut map = self.workload.lock().unwrap();
        if map.len() < WORKLOAD_CACHE_CAP {
            map.insert(key, Arc::clone(&specs));
        }
        (specs, false)
    }

    /// The boot phase through the cache: returns a booted [`System`] for
    /// `specs` and whether its image came from the cache. A miss runs the
    /// full layout ([`vax_workload::rte::boot_image`]); either way the
    /// machine is rehydrated with `System::from_boot_image` — the same
    /// path `SystemBuilder::build` takes, so hits cannot diverge.
    pub fn boot(&self, specs: &Arc<Vec<ProcessSpec>>) -> (System, bool) {
        let key = boot_key(specs);
        if let Some(img) = self.boot.lock().unwrap().get(&key) {
            self.boot_hits.fetch_add(1, Ordering::Relaxed);
            return (System::from_boot_image(img), true);
        }
        let img = Arc::new(vax_workload::rte::boot_image(specs.as_ref().clone()));
        self.boot_misses.fetch_add(1, Ordering::Relaxed);
        let system = System::from_boot_image(&img);
        let mut map = self.boot.lock().unwrap();
        if map.len() < BOOT_CACHE_CAP {
            map.insert(key, img);
        }
        (system, false)
    }

    /// Cumulative workload-image (codegen) hit/miss counts.
    pub fn workload_counts(&self) -> CacheCounts {
        CacheCounts {
            hits: self.workload_hits.load(Ordering::Relaxed),
            misses: self.workload_misses.load(Ordering::Relaxed),
        }
    }

    /// Cumulative booted-kernel hit/miss counts.
    pub fn boot_counts(&self) -> CacheCounts {
        CacheCounts {
            hits: self.boot_hits.load(Ordering::Relaxed),
            misses: self.boot_misses.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_cache_hits_on_repeat() {
        let caches = WarmCaches::new();
        let (a, hit_a) = caches.processes(Workload::TimesharingResearch, 2, 7);
        let (b, hit_b) = caches.processes(Workload::TimesharingResearch, 2, 7);
        assert!(!hit_a && hit_b);
        assert!(Arc::ptr_eq(&a, &b), "hit must return the cached value");
        assert_eq!(caches.workload_counts(), CacheCounts { hits: 1, misses: 1 });
    }

    #[test]
    fn workload_cache_distinguishes_inputs() {
        let caches = WarmCaches::new();
        let (_, h1) = caches.processes(Workload::TimesharingResearch, 2, 7);
        let (_, h2) = caches.processes(Workload::TimesharingResearch, 2, 8);
        let (_, h3) = caches.processes(Workload::TimesharingResearch, 3, 7);
        let (_, h4) = caches.processes(Workload::Educational, 2, 7);
        assert!(!h1 && !h2 && !h3 && !h4, "distinct inputs never hit");
    }

    #[test]
    fn boot_cache_hit_measures_identically_to_miss() {
        let caches = WarmCaches::new();
        let (specs, _) = caches.processes(Workload::SciEng, 2, 11);
        let (mut cold, hit1) = caches.boot(&specs);
        let (mut warm, hit2) = caches.boot(&specs);
        assert!(!hit1 && hit2);
        assert_eq!(caches.boot_counts(), CacheCounts { hits: 1, misses: 1 });
        let a = cold.measure(1_000, 5_000);
        let b = warm.measure(1_000, 5_000);
        assert_eq!(a, b, "cached boot must be indistinguishable from cold");
    }

    #[test]
    fn boot_key_tracks_spec_content() {
        let caches = WarmCaches::new();
        let (specs, _) = caches.processes(Workload::SciEng, 2, 11);
        // Generated images are whole words long; three more bytes give the
        // first image a sub-word tail.
        let mut base = specs.as_ref().clone();
        base[0].image.bytes.extend_from_slice(&[1, 2, 3]);
        let base = Arc::new(base);
        let (_, _) = caches.boot(&base);
        let misses = |mutate: &dyn Fn(&mut Vec<ProcessSpec>)| {
            let mut mutated = base.as_ref().clone();
            mutate(&mut mutated);
            !caches.boot(&Arc::new(mutated)).1
        };
        // Every byte of the first two words of the image body.
        for i in 0..16 {
            assert!(
                misses(&|m| m[0].image.bytes[i] ^= 0xFF),
                "flipping code byte {i} must change the boot key"
            );
        }
        let last = base[0].image.bytes.len() - 1;
        assert!(
            misses(&|m| m[0].image.bytes[last] ^= 0xFF),
            "flipping the last (tail) byte must change the boot key"
        );
        assert!(
            misses(&|m| m[0].image.bytes.push(0)),
            "appending a zero byte must change the boot key"
        );
        assert!(
            misses(&|m| m[1].image.bytes[0] ^= 0xFF),
            "the second process's bytes must be keyed too"
        );
        assert!(caches.boot(&base).1, "the unmutated specs still hit");
    }
}
