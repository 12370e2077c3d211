//! Content-addressed memoization of [`SimReport`]s over a [`ReportStore`].
//!
//! Simulations are pure functions of `(GpuConfig, Kernel, max_cycles,
//! SimMode)`, digested into a [`SimKey`] by the stable structural hash. The
//! cache memoizes finished reports under that key through whatever storage
//! hierarchy its [`ReportStore`] describes — process memory, a host-local
//! disk directory, a networked `virgo-store` server, or a tiered
//! combination (see [`crate::store`]) — and keeps the lookup-level
//! bookkeeping: which queries hit, which tier answered, which had to
//! simulate.
//!
//! Disk and remote entries are self-verifying (`SimReport::from_cache_json`
//! checks a format tag, version, the embedded key and a payload checksum):
//! a corrupted, truncated or stale-format entry is counted in
//! [`CacheStats::disk_rejects`], quarantined (so the evidence survives for
//! post-mortem) and treated as a **miss**, never a panic. Keys digest the
//! simulator's own source tree alongside the simulation inputs, so entries
//! from an older build miss cleanly.
//!
//! Because simulations are deterministic, the only concurrency hazard is
//! duplicated work: two threads missing the same key simultaneously both
//! simulate and both insert the *identical* report. The cache accepts that
//! (rare) waste instead of holding a lock across a multi-second simulation.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use virgo::{SimKey, SimReport};

use crate::store::{ReportStore, StoreConfig, StoreStats, StoreTier};

/// Hit/miss/eviction counters, surfaced in sweep summaries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from cache (any tier) without simulating.
    pub hits: u64,
    /// Lookups that had to simulate.
    pub misses: u64,
    /// The subset of `hits` that was rehydrated from the disk tier.
    pub disk_hits: u64,
    /// The subset of `hits` served by a networked report store.
    pub remote_hits: u64,
    /// In-memory entries dropped to stay within capacity.
    pub evictions: u64,
    /// On-disk entries rejected (corrupt/stale) and removed from the cache.
    pub disk_rejects: u64,
    /// The subset of `disk_rejects` preserved in the `quarantine/`
    /// subdirectory for post-mortem (the rest could not be moved and were
    /// deleted).
    pub disk_quarantined: u64,
    /// Store operations that found the networked report store unreachable
    /// (each such operation degrades to local compute and is charged
    /// exactly once).
    pub store_unreachable: u64,
}

impl CacheStats {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate in `[0, 1]` (zero when no lookups were made).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }
}

/// Lookup-level counters (which tier answered each `get_or_compute`); the
/// per-tier operation counters live in the store itself.
#[derive(Debug, Clone, Copy, Default)]
struct LookupCounters {
    hits: u64,
    misses: u64,
    disk_hits: u64,
    remote_hits: u64,
}

/// A content-addressed report cache over a pluggable [`ReportStore`].
/// Thread-safe; lookups of different keys simulate concurrently.
#[derive(Debug)]
pub struct ReportCache {
    store: Box<dyn ReportStore>,
    counters: Mutex<LookupCounters>,
    disk_dir: Option<PathBuf>,
}

impl ReportCache {
    /// Default in-memory capacity (see
    /// [`StoreConfig::DEFAULT_MEMORY_CAPACITY`]).
    pub const DEFAULT_CAPACITY: usize = StoreConfig::DEFAULT_MEMORY_CAPACITY;

    /// Creates a cache with an in-memory capacity and an optional disk
    /// directory (created lazily on first write).
    pub fn new(capacity: usize, disk_dir: Option<PathBuf>) -> Self {
        Self::from_config(&StoreConfig::in_memory(capacity).with_disk_dir(disk_dir))
    }

    /// Creates a memory-only cache.
    pub fn in_memory(capacity: usize) -> Self {
        Self::new(capacity, None)
    }

    /// Creates the cache a [`StoreConfig`] describes (memory, and disk /
    /// remote tiers when configured).
    pub fn from_config(config: &StoreConfig) -> Self {
        ReportCache {
            store: config.build_store(),
            counters: Mutex::new(LookupCounters::default()),
            disk_dir: config.disk_dir.clone(),
        }
    }

    /// The storage hierarchy behind this cache.
    pub fn store(&self) -> &dyn ReportStore {
        self.store.as_ref()
    }

    /// Per-tier operation counters (zeroes for tiers this cache lacks).
    pub fn store_stats_for(&self, tier: StoreTier) -> StoreStats {
        self.store.stats_for(tier)
    }

    /// The disk directory, if the disk tier is enabled.
    pub fn disk_dir(&self) -> Option<&Path> {
        self.disk_dir.as_deref()
    }

    /// A snapshot of the hit/miss/eviction counters. Lookup-level counters
    /// (`hits`/`misses`/`*_hits`) come from this cache; structural counters
    /// (evictions, rejects, unreachable) from the store tiers.
    pub fn stats(&self) -> CacheStats {
        let lookups = *self.lock();
        let memory = self.store.stats_for(StoreTier::Memory);
        let disk = self.store.stats_for(StoreTier::Disk);
        let remote = self.store.stats_for(StoreTier::Remote);
        CacheStats {
            hits: lookups.hits,
            misses: lookups.misses,
            disk_hits: lookups.disk_hits,
            remote_hits: lookups.remote_hits,
            evictions: memory.evictions,
            disk_rejects: disk.rejects,
            disk_quarantined: disk.quarantined,
            store_unreachable: remote.unreachable,
        }
    }

    /// Number of reports currently held in memory.
    pub fn len(&self) -> usize {
        self.store.volatile_len()
    }

    /// True when no reports are held in memory.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every in-memory entry (persistent tiers are untouched) and
    /// resets the counters. Used by benches to measure cold-vs-warm
    /// behavior; also re-arms a remote tier that had been declared offline.
    pub fn clear_memory(&self) {
        self.store.clear_volatile();
        self.store.reset_stats();
        *self.lock() = LookupCounters::default();
    }

    /// Looks `key` up through the store tiers and otherwise runs `compute`
    /// to produce the report; the result is written through to every tier.
    /// Returns the report and whether it was served from cache.
    pub fn get_or_compute(
        &self,
        key: SimKey,
        compute: impl FnOnce() -> SimReport,
    ) -> (Arc<SimReport>, bool) {
        if let Some(hit) = self.store.load(key) {
            let mut counters = self.lock();
            counters.hits += 1;
            match hit.tier {
                StoreTier::Disk => counters.disk_hits += 1,
                StoreTier::Remote => counters.remote_hits += 1,
                StoreTier::Memory | StoreTier::Tiered => {}
            }
            return (hit.report, true);
        }
        let report = Arc::new(compute());
        self.lock().misses += 1;
        self.store.save(key, &report);
        (report, false)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, LookupCounters> {
        self.counters.lock().expect("report cache lock")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc as StdArc;
    use virgo::{Gpu, GpuConfig, SimMode};
    use virgo_isa::{DataType, Kernel, KernelInfo, ProgramBuilder, WarpAssignment, WarpOp};

    fn tiny_sim(ops: u32) -> (SimKey, GpuConfig, Kernel) {
        let mut b = ProgramBuilder::new();
        b.op_n(
            ops,
            WarpOp::Alu {
                rf_reads: 1,
                rf_writes: 1,
            },
        );
        let kernel = Kernel::new(
            KernelInfo::new("cache-test", 0, DataType::Fp16),
            vec![WarpAssignment::new(0, 0, StdArc::new(b.build()))],
        );
        let config = GpuConfig::virgo();
        let key = SimKey::digest(&config, &kernel, 100_000, SimMode::FastForward);
        (key, config, kernel)
    }

    fn run(config: &GpuConfig, kernel: &Kernel) -> SimReport {
        Gpu::new(config.clone()).run(kernel, 100_000).unwrap()
    }

    #[test]
    fn memory_hit_after_miss() {
        let cache = ReportCache::in_memory(8);
        let (key, config, kernel) = tiny_sim(4);
        let (_, cached) = cache.get_or_compute(key, || run(&config, &kernel));
        assert!(!cached);
        let (report, cached) = cache.get_or_compute(key, || panic!("must not recompute"));
        assert!(cached);
        assert_eq!(report.instructions_retired(), 4);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.disk_hits), (1, 1, 0));
        assert_eq!((stats.remote_hits, stats.store_unreachable), (0, 0));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn fifo_eviction_counts() {
        let cache = ReportCache::in_memory(2);
        let (_, config, kernel) = tiny_sim(1);
        let base = run(&config, &kernel);
        for i in 0..4u64 {
            let key = SimKey::digest(
                &config,
                &kernel,
                100_000 + i, // distinct budgets -> distinct keys
                SimMode::FastForward,
            );
            cache.get_or_compute(key, || base.clone());
        }
        let stats = cache.stats();
        assert_eq!(cache.len(), 2);
        assert_eq!(stats.evictions, 2);
        assert_eq!(stats.misses, 4);
    }

    #[test]
    fn disk_layer_survives_memory_clear() {
        let dir = std::env::temp_dir().join(format!("virgo-sweep-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ReportCache::new(8, Some(dir.clone()));
        let (key, config, kernel) = tiny_sim(6);
        let (first, cached) = cache.get_or_compute(key, || run(&config, &kernel));
        assert!(!cached);
        cache.clear_memory();
        let (second, cached) = cache.get_or_compute(key, || panic!("disk should serve this"));
        assert!(cached);
        assert_eq!(cache.stats().disk_hits, 1);
        assert_eq!(
            format!("{:?}", *first),
            format!("{:?}", *second),
            "disk round-trip must be bit-identical"
        );
        // The disk hit was promoted back into memory: the next lookup is a
        // pure memory hit.
        let (_, cached) = cache.get_or_compute(key, || panic!("memory should serve this"));
        assert!(cached);
        assert_eq!(cache.stats().disk_hits, 1, "second hit must be memory");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_disk_entry_is_a_miss_not_a_panic() {
        let dir = std::env::temp_dir().join(format!("virgo-sweep-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ReportCache::new(8, Some(dir.clone()));
        let (key, config, kernel) = tiny_sim(3);
        cache.get_or_compute(key, || run(&config, &kernel));
        // Corrupt the entry on disk, then force a re-read.
        let path = dir.join(format!("{}.json", key.to_hex()));
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.truncate(text.len() / 2);
        std::fs::write(&path, text).unwrap();
        cache.clear_memory();
        let (report, cached) = cache.get_or_compute(key, || run(&config, &kernel));
        assert!(!cached, "corrupt entry must be treated as a miss");
        assert_eq!(report.instructions_retired(), 3);
        let stats = cache.stats();
        assert_eq!(stats.disk_rejects, 1);
        assert_eq!(stats.disk_quarantined, 1);
        assert_eq!(stats.misses, 1);
        // The corrupt bytes were preserved for post-mortem, not destroyed.
        let quarantined = dir
            .join("quarantine")
            .join(format!("{}.json", key.to_hex()));
        assert!(quarantined.exists(), "corrupt entry must be quarantined");
        // The re-simulation rewrote a valid entry.
        assert!(SimReport::from_cache_json(
            &std::fs::read_to_string(&path).unwrap(),
            &key.to_hex()
        )
        .is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mismatched_key_entry_is_rejected_and_resimulated() {
        // An entry whose embedded key disagrees with its file name (e.g. a
        // file copied or renamed by hand, or a key-scheme change that
        // re-mapped names) must be quarantined and recomputed, not served.
        let dir = std::env::temp_dir().join(format!("virgo-sweep-mismatch-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ReportCache::new(8, Some(dir.clone()));
        let (key_a, config, kernel_a) = tiny_sim(2);
        cache.get_or_compute(key_a, || run(&config, &kernel_a));
        // Masquerade kernel A's entry as the entry for a different key.
        let key_b = SimKey::digest(&config, &kernel_a, 200_000, SimMode::FastForward);
        assert_ne!(key_a, key_b);
        std::fs::copy(
            dir.join(format!("{}.json", key_a.to_hex())),
            dir.join(format!("{}.json", key_b.to_hex())),
        )
        .unwrap();
        let (report, cached) = cache.get_or_compute(key_b, || run(&config, &kernel_a));
        assert!(!cached, "a mismatched entry must be treated as a miss");
        assert_eq!(report.instructions_retired(), 2);
        let stats = cache.stats();
        assert_eq!(stats.disk_rejects, 1);
        assert_eq!(stats.disk_quarantined, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unreachable_remote_tier_degrades_to_local_compute() {
        let config = StoreConfig::in_memory(8).with_remote_addr(Some("127.0.0.1:9".to_string()));
        let cache = ReportCache::from_config(&config);
        let (key, gpu_config, kernel) = tiny_sim(5);
        let (report, cached) = cache.get_or_compute(key, || run(&gpu_config, &kernel));
        assert!(!cached, "a dead store must degrade to a local miss");
        assert_eq!(report.instructions_retired(), 5);
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(
            stats.store_unreachable, 2,
            "one failed load + one failed save, each charged once"
        );
        // The memory tier still works: the next lookup is a hit.
        let (_, cached) = cache.get_or_compute(key, || panic!("memory must serve this"));
        assert!(cached);
    }
}
