//! The per-cluster global-memory front-end: private per-core L1 caches
//! feeding the machine-wide shared back-end.

use virgo_sim::Cycle;

use crate::backend::MemoryBackend;
use crate::cache::{Cache, CacheConfig};
use crate::dram::DramConfig;

/// Configuration of the global memory hierarchy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GlobalMemoryConfig {
    /// Per-core L1 data cache.
    pub l1: CacheConfig,
    /// Shared L2 cache.
    pub l2: CacheConfig,
    /// DRAM interface.
    pub dram: DramConfig,
    /// Number of SIMT cores per cluster (each gets a private L1).
    pub cores: u32,
}

impl GlobalMemoryConfig {
    /// The Table 2 configuration for a given core count.
    pub fn default_soc(cores: u32) -> Self {
        GlobalMemoryConfig {
            l1: CacheConfig::l1_16k(),
            l2: CacheConfig::l2_512k(),
            dram: DramConfig::default_soc(),
            cores,
        }
    }
}

impl virgo_sim::StableHash for GlobalMemoryConfig {
    fn stable_hash(&self, h: &mut virgo_sim::StableHasher) {
        self.l1.stable_hash(&mut *h);
        self.l2.stable_hash(&mut *h);
        self.dram.stable_hash(&mut *h);
        h.write_u64(u64::from(self.cores));
    }
}

/// Aggregated statistics for one cluster's L1 front-end.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GlobalMemoryStats {
    /// L1 accesses summed over the cluster's cores.
    pub l1_accesses: u64,
    /// L1 misses summed over the cluster's cores.
    pub l1_misses: u64,
    /// L2 accesses (from L1 misses and DMA traffic). Only populated on the
    /// machine-wide view a report builds, as the sum of the requesters'
    /// [`ClusterContentionStats::l2_accesses`](crate::ClusterContentionStats::l2_accesses);
    /// the per-cluster front-end leaves it at zero because the L2 lives in
    /// the shared [`MemoryBackend`], which counts it per requester.
    pub l2_accesses: u64,
    /// L2 misses (see `l2_accesses` for scoping).
    pub l2_misses: u64,
    /// Bytes moved by DMA transfers through the L2 (see `l2_accesses`).
    pub dma_bytes: u64,
}
virgo_sim::counters!(GlobalMemoryStats {
    l1_accesses,
    l1_misses,
    l2_accesses,
    l2_misses,
    dma_bytes,
});

/// One cluster's global-memory front-end: the private per-core L1 caches.
///
/// L1 misses are forwarded to the shared [`MemoryBackend`], which arbitrates
/// the L2 and DRAM channel between clusters.
///
/// # Example
///
/// ```
/// use virgo_mem::{GlobalMemory, GlobalMemoryConfig, MemoryBackend};
/// use virgo_sim::Cycle;
///
/// let config = GlobalMemoryConfig::default_soc(8);
/// let mut gmem = GlobalMemory::new(config);
/// let mut backend = MemoryBackend::new(config, 1);
/// let cold = gmem.access_from_core(Cycle::new(0), 0, 0x1000, 32, false, &mut backend);
/// let warm = gmem.access_from_core(cold, 0, 0x1000, 32, false, &mut backend);
/// assert!(warm - cold < cold, "L1 hit must be much faster than the cold miss");
/// ```
#[derive(Debug, Clone)]
pub struct GlobalMemory {
    config: GlobalMemoryConfig,
    cluster: u32,
    l1: Vec<Cache>,
    stats: GlobalMemoryStats,
}

impl GlobalMemory {
    /// Creates the front-end for cluster 0 with cold caches.
    pub fn new(config: GlobalMemoryConfig) -> Self {
        Self::for_cluster(config, 0)
    }

    /// Creates the front-end for an explicit cluster with cold caches.
    pub fn for_cluster(config: GlobalMemoryConfig, cluster: u32) -> Self {
        let l1 = (0..config.cores).map(|_| Cache::new(config.l1)).collect();
        GlobalMemory {
            config,
            cluster,
            l1,
            stats: GlobalMemoryStats::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &GlobalMemoryConfig {
        &self.config
    }

    /// The cluster this front-end belongs to.
    pub fn cluster(&self) -> u32 {
        self.cluster
    }

    /// Aggregated L1 statistics; L2/DRAM statistics live on the shared
    /// [`MemoryBackend`].
    pub fn stats(&self) -> GlobalMemoryStats {
        self.stats
    }

    /// Serves one line-granular access from `core` (produced by the memory
    /// coalescer), returning the completion cycle. An L1 miss is forwarded to
    /// the shared `backend`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn access_from_core(
        &mut self,
        now: Cycle,
        core: usize,
        line_addr: u64,
        bytes: u64,
        write: bool,
        backend: &mut MemoryBackend,
    ) -> Cycle {
        assert!(core < self.l1.len(), "core index {core} out of range");
        self.stats.l1_accesses += 1;
        let l1_latency = self.l1[core].latency();
        if self.l1[core].access(line_addr).is_hit() {
            return now.plus(l1_latency);
        }
        self.stats.l1_misses += 1;
        backend.line_access(now.plus(l1_latency), self.cluster, line_addr, bytes, write)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use virgo_sim::Counters;

    fn setup() -> (GlobalMemory, MemoryBackend) {
        let config = GlobalMemoryConfig::default_soc(2);
        (GlobalMemory::new(config), MemoryBackend::new(config, 1))
    }

    #[test]
    fn l1_hit_is_fast() {
        let (mut g, mut b) = setup();
        let cold = g.access_from_core(Cycle::new(0), 0, 0, 32, false, &mut b);
        assert!(cold.get() > 100, "cold miss reaches DRAM");
        let warm = g.access_from_core(cold, 0, 0, 32, false, &mut b);
        assert_eq!(warm - cold, Cycle::new(2));
        assert_eq!(g.stats().l1_accesses, 2);
        assert_eq!(g.stats().l1_misses, 1);
    }

    #[test]
    fn l1s_are_private_per_core() {
        let (mut g, mut b) = setup();
        g.access_from_core(Cycle::new(0), 0, 0, 32, false, &mut b);
        // Core 1 misses its own L1 but hits in the shared L2.
        let done = g.access_from_core(Cycle::new(1000), 1, 0, 32, false, &mut b);
        assert_eq!(done, Cycle::new(1000 + 2 + 12));
        assert_eq!(b.cluster_stats(0).l2_accesses, 2);
        assert_eq!(b.cluster_stats(0).l2_misses, 1);
    }

    #[test]
    fn dma_access_bypasses_l1() {
        let (mut g, mut b) = setup();
        let done = b.dma_access(Cycle::new(0), g.cluster(), 0, 1024, false);
        assert!(done.get() > 100);
        assert_eq!(b.cluster_stats(0).dma_bytes, 1024);
        // The DMA filled the shared L2 but no L1: a core load of the same
        // line misses its L1 and hits the L2.
        let load = g.access_from_core(done, 0, 0, 32, false, &mut b);
        assert_eq!(load, done.plus(2 + 12));
        assert_eq!(g.stats().l1_misses, 1);
    }

    #[test]
    fn stats_merge_across_clusters() {
        let mut a = GlobalMemoryStats {
            l1_accesses: 3,
            l1_misses: 1,
            ..Default::default()
        };
        let b = GlobalMemoryStats {
            l1_accesses: 2,
            l1_misses: 2,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.l1_accesses, 5);
        assert_eq!(a.l1_misses, 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_core_index_panics() {
        let (mut g, mut b) = setup();
        let _ = g.access_from_core(Cycle::new(0), 5, 0, 32, false, &mut b);
    }
}
