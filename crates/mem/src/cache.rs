//! A set-associative cache model with LRU replacement.
//!
//! Used for the per-core L1 data caches and the shared L2 cache. The model
//! tracks tags only (no data payloads) — the simulator is trace-free and the
//! functional results are validated separately at the tile level.

/// Configuration of one cache instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Line size in bytes.
    pub line_bytes: u32,
    /// Associativity (ways per set).
    pub ways: u32,
    /// Access latency in cycles (tag + data).
    pub latency: u64,
}

impl CacheConfig {
    /// The 16 KiB per-core L1 data cache of Table 2.
    pub fn l1_16k() -> Self {
        CacheConfig {
            capacity_bytes: 16 * 1024,
            line_bytes: 32,
            ways: 4,
            latency: 2,
        }
    }

    /// The 512 KiB shared L2 cache of Table 2.
    pub fn l2_512k() -> Self {
        CacheConfig {
            capacity_bytes: 512 * 1024,
            line_bytes: 32,
            ways: 8,
            latency: 12,
        }
    }

    /// Number of sets implied by the configuration.
    pub fn sets(&self) -> u64 {
        self.capacity_bytes / u64::from(self.line_bytes) / u64::from(self.ways)
    }
}

impl virgo_sim::StableHash for CacheConfig {
    fn stable_hash(&self, h: &mut virgo_sim::StableHasher) {
        h.write_u64(self.capacity_bytes);
        h.write_u64(u64::from(self.line_bytes));
        h.write_u64(u64::from(self.ways));
        h.write_u64(self.latency);
    }
}

/// Outcome of one cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The line was present.
    Hit,
    /// The line was absent and has been filled (possibly evicting another).
    Miss,
}

/// A set-associative, LRU-replacement cache.
///
/// # Example
///
/// ```
/// use virgo_mem::{Cache, CacheConfig};
///
/// let mut l1 = Cache::new(CacheConfig::l1_16k());
/// assert!(!l1.access(0x1000).is_hit()); // cold miss
/// assert!(l1.access(0x1000).is_hit());  // now resident
/// assert!(l1.access(0x1010).is_hit());  // same 32-byte line
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// `sets × ways` tag array; `None` means invalid.
    tags: Vec<Option<u64>>,
    /// LRU counters parallel to `tags`; larger means more recently used.
    lru: Vec<u64>,
    tick: u64,
}

impl CacheOutcome {
    /// True for [`CacheOutcome::Hit`].
    pub fn is_hit(self) -> bool {
        matches!(self, CacheOutcome::Hit)
    }
}

impl Cache {
    /// Creates a cache with all lines invalid.
    ///
    /// # Panics
    ///
    /// Panics if the configuration does not describe at least one set.
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        assert!(sets >= 1, "cache must have at least one set");
        let entries = (sets * u64::from(config.ways)) as usize;
        Cache {
            config,
            tags: vec![None; entries],
            lru: vec![0; entries],
            tick: 0,
        }
    }

    /// The cache configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Access latency in cycles.
    pub fn latency(&self) -> u64 {
        self.config.latency
    }

    /// Looks up the line containing `addr`, filling it on a miss.
    pub fn access(&mut self, addr: u64) -> CacheOutcome {
        self.tick += 1;
        let line = addr / u64::from(self.config.line_bytes);
        let set = (line % self.config.sets()) as usize;
        let ways = self.config.ways as usize;
        let base = set * ways;

        // Hit check.
        for way in 0..ways {
            if self.tags[base + way] == Some(line) {
                self.lru[base + way] = self.tick;
                return CacheOutcome::Hit;
            }
        }

        // Miss: fill into the least recently used way (or an invalid way).
        let victim = (0..ways)
            .min_by_key(|&way| {
                let idx = base + way;
                if self.tags[idx].is_none() {
                    (0, 0)
                } else {
                    (1, self.lru[idx])
                }
            })
            .expect("ways >= 1");
        self.tags[base + victim] = Some(line);
        self.lru[base + victim] = self.tick;
        CacheOutcome::Miss
    }

    /// Number of distinct cache lines touched by a `[addr, addr+bytes)`
    /// access.
    pub fn lines_for(&self, addr: u64, bytes: u64) -> u64 {
        if bytes == 0 {
            return 0;
        }
        let line = u64::from(self.config.line_bytes);
        let first = addr / line;
        let last = (addr + bytes - 1) / line;
        last - first + 1
    }

    /// Invalidates every line (used between kernel phases in tests).
    pub fn flush(&mut self) {
        self.tags.iter_mut().for_each(|t| *t = None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache() -> Cache {
        // 4 sets × 2 ways × 32 B lines = 256 B.
        Cache::new(CacheConfig {
            capacity_bytes: 256,
            line_bytes: 32,
            ways: 2,
            latency: 1,
        })
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small_cache();
        assert_eq!(c.access(0), CacheOutcome::Miss);
        assert_eq!(c.access(4), CacheOutcome::Hit);
    }

    #[test]
    fn lru_evicts_oldest_way() {
        let mut c = small_cache();
        // Three lines mapping to the same set (set stride = 4 lines × 32 B).
        let set_stride = 4 * 32;
        c.access(0);
        c.access(set_stride);
        // Touch line 0 again so the line at `set_stride` becomes LRU.
        c.access(0);
        c.access(2 * set_stride); // evicts `set_stride`
        assert_eq!(c.access(0), CacheOutcome::Hit);
        assert_eq!(c.access(set_stride), CacheOutcome::Miss);
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut c = small_cache();
        for i in 0..4u64 {
            assert_eq!(c.access(i * 32), CacheOutcome::Miss);
        }
        for i in 0..4u64 {
            assert_eq!(c.access(i * 32), CacheOutcome::Hit);
        }
    }

    #[test]
    fn lines_for_counts_straddling_accesses() {
        let c = small_cache();
        assert_eq!(c.lines_for(0, 0), 0);
        assert_eq!(c.lines_for(0, 1), 1);
        assert_eq!(c.lines_for(0, 32), 1);
        assert_eq!(c.lines_for(0, 33), 2);
        assert_eq!(c.lines_for(30, 4), 2);
        assert_eq!(c.lines_for(0, 128), 4);
    }

    #[test]
    fn flush_invalidates_everything() {
        let mut c = small_cache();
        c.access(0);
        c.flush();
        assert_eq!(c.access(0), CacheOutcome::Miss);
    }

    #[test]
    fn standard_configs_have_sane_geometry() {
        assert_eq!(CacheConfig::l1_16k().sets(), 128);
        assert_eq!(CacheConfig::l2_512k().sets(), 2048);
    }
}
