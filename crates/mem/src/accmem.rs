//! The accumulator memory private to the disaggregated matrix unit
//! (Section 3.2.2).
//!
//! Unlike the register file, which must support divergent scatter/gather SIMT
//! accesses, the accumulator data is accessed in wide, contiguous bursts by
//! the systolic array and the DMA engine. This allows a single-banked SRAM
//! with one wide port — simpler and lower energy per access than the
//! multi-banked register file it replaces.

use virgo_sim::Cycle;

/// Event counters for the accumulator memory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccumulatorStats {
    /// 32-bit words read.
    pub words_read: u64,
    /// 32-bit words written.
    pub words_written: u64,
    /// Wide accesses served.
    pub accesses: u64,
}

/// The single-banked accumulator SRAM.
///
/// # Example
///
/// ```
/// use virgo_mem::AccumulatorMemory;
/// use virgo_sim::Cycle;
///
/// let mut acc = AccumulatorMemory::new(32 * 1024, 64);
/// let done = acc.access(Cycle::new(0), 0, 256, true);
/// // 256 bytes over a 64-byte port: 4 cycles plus the 1-cycle latency.
/// assert_eq!(done, Cycle::new(5));
/// ```
#[derive(Debug, Clone)]
pub struct AccumulatorMemory {
    capacity_bytes: u64,
    port_bytes: u64,
    busy_until: Cycle,
    stats: AccumulatorStats,
}

impl AccumulatorMemory {
    /// Access latency of the SRAM macro in cycles.
    const LATENCY: u64 = 1;

    /// Creates an accumulator memory of `capacity_bytes` with a single
    /// `port_bytes`-wide port.
    ///
    /// # Panics
    ///
    /// Panics if either argument is zero.
    pub fn new(capacity_bytes: u64, port_bytes: u64) -> Self {
        assert!(capacity_bytes > 0, "capacity must be non-zero");
        assert!(port_bytes > 0, "port width must be non-zero");
        AccumulatorMemory {
            capacity_bytes,
            port_bytes,
            busy_until: Cycle::ZERO,
            stats: AccumulatorStats::default(),
        }
    }

    /// The Table 2 Virgo configuration: 32 KiB with a 64-byte port.
    pub fn default_virgo() -> Self {
        AccumulatorMemory::new(32 * 1024, 64)
    }

    /// Capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> AccumulatorStats {
        self.stats
    }

    /// Performs a wide access of `bytes` starting at `addr`, returning the
    /// completion cycle. Accesses are serialized on the single port.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the access runs past the end of the SRAM.
    pub fn access(&mut self, now: Cycle, addr: u64, bytes: u64, write: bool) -> Cycle {
        debug_assert!(
            addr + bytes <= self.capacity_bytes,
            "accumulator access out of bounds: {addr}+{bytes} > {}",
            self.capacity_bytes
        );
        let words = bytes.div_ceil(4).max(1);
        let cycles = bytes.div_ceil(self.port_bytes).max(1);
        let start = now.max(self.busy_until);
        self.busy_until = start.plus(cycles);
        self.stats.accesses += 1;
        if write {
            self.stats.words_written += words;
        } else {
            self.stats.words_read += words;
        }
        start.plus(cycles + Self::LATENCY)
    }

    /// Cycle at which the port is next free.
    pub fn busy_until(&self) -> Cycle {
        self.busy_until
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_occupies_port_by_width() {
        let mut acc = AccumulatorMemory::new(1024, 64);
        let done = acc.access(Cycle::new(0), 0, 128, false);
        assert_eq!(done, Cycle::new(2 + 1));
        assert_eq!(acc.stats().words_read, 32);
    }

    #[test]
    fn accesses_serialize_on_single_port() {
        let mut acc = AccumulatorMemory::new(4096, 64);
        let first = acc.access(Cycle::new(0), 0, 256, true);
        let second = acc.access(Cycle::new(0), 1024, 256, true);
        assert_eq!(first, Cycle::new(4 + 1));
        assert_eq!(second, Cycle::new(8 + 1));
        assert_eq!(acc.stats().accesses, 2);
        assert_eq!(acc.stats().words_written, 128);
    }

    #[test]
    fn default_virgo_capacity() {
        let acc = AccumulatorMemory::default_virgo();
        assert_eq!(acc.capacity_bytes(), 32 * 1024);
    }

    #[test]
    fn tiny_access_still_takes_a_cycle() {
        let mut acc = AccumulatorMemory::new(64, 64);
        let done = acc.access(Cycle::new(10), 0, 4, false);
        assert_eq!(done, Cycle::new(12));
    }

    // The bounds check is a `debug_assert!`, so release builds have nothing
    // to panic on.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_access_panics_in_debug() {
        let mut acc = AccumulatorMemory::new(64, 64);
        let _ = acc.access(Cycle::new(0), 32, 64, false);
    }
}
