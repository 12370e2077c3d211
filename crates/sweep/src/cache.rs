//! Content-addressed memoization of [`SimReport`]s over three storage tiers.
//!
//! Simulations are pure functions of `(GpuConfig, Kernel, max_cycles,
//! SimMode)`, digested into a [`SimKey`] by the stable structural hash. The
//! cache memoizes finished reports under that key in process memory and,
//! when configured, a host-local disk directory and a networked
//! `virgo-store` server (see [`crate::store`]). A lookup walks memory →
//! disk → remote, promotes a hit into every faster tier, and on a miss
//! simulates and writes the report through to every tier.
//!
//! Each store event is counted once, in the tier it happened in; the
//! lookup-level [`CacheStats`] (hits, misses, which tier answered) are
//! derived from those per-tier counters when read.
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

use std::path::PathBuf;
use std::sync::Arc;

use virgo::{SimKey, SimReport};
use virgo_store::EntryDir;

use crate::store::{
    DiskStore, MemoryStore, RemoteStore, ReportStore, StoreConfig, StoreStats, StoreTier,
};

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

/// A content-addressed report cache over a memory tier and optional disk
/// and remote tiers. Thread-safe; lookups of different keys simulate
/// concurrently.
#[derive(Debug)]
pub struct ReportCache {
    memory: MemoryStore,
    disk: Option<DiskStore>,
    remote: Option<RemoteStore>,
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
        let disk = config.disk_dir.as_ref().map(|dir| {
            let mut entries = EntryDir::new(dir);
            if let Some(quarantine) = &config.quarantine_dir {
                entries = entries.with_quarantine(quarantine);
            }
            DiskStore::new(entries)
        });
        ReportCache {
            memory: MemoryStore::new(config.memory_capacity),
            disk,
            remote: config.remote_addr.clone().map(RemoteStore::new),
        }
    }

    /// The configured tiers, fastest first.
    fn tiers(&self) -> impl Iterator<Item = &dyn ReportStore> {
        std::iter::once(&self.memory as &dyn ReportStore)
            .chain(self.disk.as_ref().map(|d| d as &dyn ReportStore))
            .chain(self.remote.as_ref().map(|r| r as &dyn ReportStore))
    }

    /// Per-tier operation counters (zeroes for tiers this cache lacks).
    pub fn store_stats_for(&self, tier: StoreTier) -> StoreStats {
        match tier {
            StoreTier::Memory => Some(self.memory.stats()),
            StoreTier::Disk => self.disk.as_ref().map(DiskStore::stats),
            StoreTier::Remote => self.remote.as_ref().map(RemoteStore::stats),
        }
        .unwrap_or_default()
    }

    /// A snapshot of the hit/miss/eviction counters, each derived from the
    /// tier that counted the event. Every lookup consults memory first, so
    /// the lookups that simulated are the memory misses that no deeper tier
    /// answered.
    pub fn stats(&self) -> CacheStats {
        // Deeper tiers first: each of their hits follows a memory miss, so
        // a snapshot taken while pool workers run never sees more deep hits
        // than memory misses.
        let disk = self.store_stats_for(StoreTier::Disk);
        let remote = self.store_stats_for(StoreTier::Remote);
        let memory = self.memory.stats();
        CacheStats {
            hits: memory.hits + disk.hits + remote.hits,
            misses: memory.misses.saturating_sub(disk.hits + remote.hits),
            disk_hits: disk.hits,
            remote_hits: remote.hits,
            evictions: memory.evictions,
            disk_rejects: disk.rejects,
            disk_quarantined: disk.quarantined,
            store_unreachable: remote.unreachable,
        }
    }

    /// Number of reports currently held in memory.
    pub fn len(&self) -> usize {
        self.memory.len()
    }

    /// True when no reports are held in memory.
    pub fn is_empty(&self) -> bool {
        self.memory.is_empty()
    }

    /// Drops every in-memory entry (persistent tiers are untouched) and
    /// resets the counters. Used by benches to measure cold-vs-warm
    /// behavior; also re-arms a remote tier that had been declared offline.
    pub fn clear_memory(&self) {
        self.memory.clear();
        for tier in self.tiers() {
            tier.reset_stats();
        }
    }

    /// Looks `key` up memory → disk → remote and otherwise runs `compute`
    /// to produce the report. A hit is promoted into every faster tier; a
    /// computed report is written through to every tier. Returns the report
    /// and whether it was served from cache.
    pub fn get_or_compute(
        &self,
        key: SimKey,
        compute: impl FnOnce() -> SimReport,
    ) -> (Arc<SimReport>, bool) {
        for (depth, tier) in self.tiers().enumerate() {
            if let Some(report) = tier.load(key) {
                for faster in self.tiers().take(depth) {
                    faster.save(key, &report);
                }
                return (report, true);
            }
        }
        let report = Arc::new(compute());
        for tier in self.tiers() {
            tier.save(key, &report);
        }
        (report, false)
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

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("virgo-sweep-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn hits_are_promoted_into_every_faster_tier() {
        use virgo_store::StoreServer;
        let store_dir = temp_dir("promote-remote");
        let disk_dir = temp_dir("promote-disk");
        let mut server = StoreServer::bind("127.0.0.1:0", EntryDir::new(&store_dir))
            .and_then(StoreServer::spawn)
            .unwrap();
        let (key, config, kernel) = tiny_sim(7);
        RemoteStore::new(server.addr().to_string()).save(key, &Arc::new(run(&config, &kernel)));
        let cache = ReportCache::from_config(
            &StoreConfig::in_memory(8)
                .with_disk_dir(Some(disk_dir.clone()))
                .with_remote_addr(Some(server.addr().to_string())),
        );
        let tier = |t| cache.store_stats_for(t);

        // Remote answers; the report is promoted into disk and memory.
        let (_, cached) = cache.get_or_compute(key, || panic!("remote must serve this"));
        assert!(cached);
        assert_eq!(
            cache.len(),
            1,
            "the remote hit must be promoted into memory"
        );
        assert_eq!(
            (tier(StoreTier::Disk).misses, tier(StoreTier::Disk).puts),
            (1, 1)
        );
        assert_eq!(tier(StoreTier::Remote).hits, 1);

        // With memory dropped, disk answers and is promoted into memory.
        cache.clear_memory();
        assert!(cache.is_empty());
        let (_, cached) = cache.get_or_compute(key, || panic!("disk must serve this"));
        assert!(cached);
        assert_eq!(cache.len(), 1, "the disk hit must be promoted into memory");
        let (_, cached) = cache.get_or_compute(key, || panic!("memory must serve this"));
        assert!(cached);

        // The per-tier counters stay separate.
        let memory = tier(StoreTier::Memory);
        assert_eq!((memory.hits, memory.misses, memory.puts), (1, 1, 1));
        let disk = tier(StoreTier::Disk);
        assert_eq!((disk.hits, disk.misses, disk.puts), (1, 0, 0));
        assert_eq!(tier(StoreTier::Remote), StoreStats::default());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (2, 0));
        assert_eq!((stats.disk_hits, stats.remote_hits), (1, 0));
        server.stop();
        let _ = std::fs::remove_dir_all(&store_dir);
        let _ = std::fs::remove_dir_all(&disk_dir);
    }

    #[test]
    fn each_config_charges_the_tiers_it_describes() {
        let dir = temp_dir("config-tiers");
        let memory_only = StoreConfig::in_memory(4);
        let with_disk = memory_only.clone().with_disk_dir(Some(dir.clone()));
        let full = with_disk
            .clone()
            .with_remote_addr(Some("127.0.0.1:9".to_string()));
        let (key, config, kernel) = tiny_sim(6);
        for (store_config, tiers) in [(memory_only, 1), (with_disk, 2), (full, 3)] {
            let _ = std::fs::remove_dir_all(&dir);
            let cache = ReportCache::from_config(&store_config);
            let (_, cached) = cache.get_or_compute(key, || run(&config, &kernel));
            assert!(!cached);
            let memory = cache.store_stats_for(StoreTier::Memory);
            let disk = cache.store_stats_for(StoreTier::Disk);
            let remote = cache.store_stats_for(StoreTier::Remote);
            assert_eq!((memory.misses, memory.puts), (1, 1), "{tiers} tier(s)");
            let expected_disk = if tiers >= 2 { (1, 1) } else { (0, 0) };
            assert_eq!((disk.misses, disk.puts), expected_disk, "{tiers} tier(s)");
            // A dead remote tier is charged once for the load, once for the
            // write-through.
            let expected_unreachable = if tiers == 3 { 2 } else { 0 };
            assert_eq!(remote.unreachable, expected_unreachable, "{tiers} tier(s)");
            assert_eq!(cache.stats().misses, 1, "{tiers} tier(s)");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The reference the property test checks the cache against: a FIFO
    /// memory of `capacity` keys over a disk whose entries are valid,
    /// truncated or absent.
    #[derive(Default)]
    struct Model {
        memory: std::collections::VecDeque<u64>,
        disk: std::collections::HashMap<u64, bool>, // key -> entry is valid
        lookups: u64,
        misses: u64,
        disk_hits: u64,
        evictions: u64,
        disk_rejects: u64,
    }

    impl Model {
        const CAPACITY: usize = 2;

        fn remember(&mut self, key: u64) {
            if !self.memory.contains(&key) {
                self.memory.push_back(key);
            }
            while self.memory.len() > Self::CAPACITY {
                self.memory.pop_front();
                self.evictions += 1;
            }
        }

        fn lookup(&mut self, key: u64) {
            self.lookups += 1;
            if self.memory.contains(&key) {
                return;
            }
            // A hit is promoted, a miss written through: either way the
            // disk ends up holding a valid entry.
            match self.disk.insert(key, true) {
                Some(true) => self.disk_hits += 1,
                Some(false) => {
                    self.disk_rejects += 1;
                    self.misses += 1;
                }
                None => self.misses += 1,
            }
            self.remember(key);
        }

        /// Drops the memory and zeroes the counters, returning how many
        /// disk hits, evictions and rejects the cleared phase saw.
        fn clear_memory(&mut self) -> [u64; 3] {
            let seen = [self.disk_hits, self.evictions, self.disk_rejects];
            let disk = std::mem::take(&mut self.disk);
            *self = Model {
                disk,
                ..Model::default()
            };
            seen
        }
    }

    #[test]
    fn counters_match_a_reference_model_on_random_sequences() {
        const KEYS: u64 = 6;
        let (_, config, kernel) = tiny_sim(1);
        let base = run(&config, &kernel);
        let keys: Vec<SimKey> = (0..KEYS)
            .map(|i| SimKey::digest(&config, &kernel, 100_000 + i, SimMode::FastForward))
            .collect();
        let mut seen = [0u64; 3];
        let mut tally = |phase: [u64; 3]| {
            for (total, n) in seen.iter_mut().zip(phase) {
                *total += n;
            }
        };
        for seed in 0..12u64 {
            let dir = temp_dir(&format!("model-{seed}"));
            let cache = ReportCache::new(Model::CAPACITY, Some(dir.clone()));
            let mut model = Model::default();
            let mut rng = virgo_sim::SplitMix64::new(seed);
            let computed = std::cell::Cell::new(0u64);
            for step in 0..48 {
                let key = rng.next_below(KEYS);
                match rng.next_below(8) {
                    0 => {
                        cache.clear_memory();
                        tally(model.clear_memory());
                        computed.set(0);
                    }
                    1 if model.disk.contains_key(&key) => {
                        let path = dir.join(format!("{}.json", keys[key as usize].to_hex()));
                        let mut text = std::fs::read_to_string(&path).unwrap();
                        text.truncate(text.len() / 2);
                        std::fs::write(&path, text).unwrap();
                        model.disk.insert(key, false);
                    }
                    _ => {
                        cache.get_or_compute(keys[key as usize], || {
                            computed.set(computed.get() + 1);
                            base.clone()
                        });
                        model.lookup(key);
                    }
                }
                let stats = cache.stats();
                let at = format!("seed {seed} step {step}");
                assert_eq!(stats.lookups(), model.lookups, "{at}");
                assert_eq!(stats.misses, computed.get(), "{at}");
                assert_eq!(stats.misses, model.misses, "{at}");
                assert_eq!(stats.disk_hits, model.disk_hits, "{at}");
                assert_eq!(stats.evictions, model.evictions, "{at}");
                assert_eq!(stats.disk_rejects, model.disk_rejects, "{at}");
                assert_eq!(stats.remote_hits + stats.store_unreachable, 0, "{at}");
            }
            tally(model.clear_memory());
            let _ = std::fs::remove_dir_all(&dir);
        }
        assert!(
            seen.iter().all(|&n| n > 0),
            "the sequences must exercise disk hits, evictions and rejects: {seen:?}"
        );
    }
}
