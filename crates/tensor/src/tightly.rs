//! The Volta/Ampere-style tightly-coupled tensor core (Section 5.1.1).
//!
//! The unit is a SIMD-parallel collection of dot-product units in a
//! tree-reduction configuration. A warp drives it with fine-grained,
//! synchronous `HMMA` step instructions; each step reads operand fragments
//! from the register file, performs a fixed number of multiply-accumulates
//! and writes the partial accumulator back to the register file. The model
//! reproduces the timing of the reference microarchitecture
//! (Raihan et al., ISPASS'19): one step occupies the unit for
//! `macs / macs_per_cycle` cycles (2 cycles in the Table 2 configuration).

use virgo_sim::{Cycle, StableHash, StableHasher};

/// Configuration of one tightly-coupled tensor core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TightlyCoupledConfig {
    /// FP16 multiply-accumulates per cycle (32 in Table 2, limited by the
    /// register file read bandwidth).
    pub macs_per_cycle: u32,
}

impl StableHash for TightlyCoupledConfig {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_u64(u64::from(self.macs_per_cycle));
    }
}

impl Default for TightlyCoupledConfig {
    fn default() -> Self {
        TightlyCoupledConfig { macs_per_cycle: 32 }
    }
}

/// Event counters for one tightly-coupled unit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TightlyCoupledStats {
    /// HMMA steps executed.
    pub steps: u64,
    /// Multiply-accumulate operations performed.
    pub macs: u64,
    /// 32-bit words staged through the operand buffer.
    pub operand_buffer_words: u64,
    /// 32-bit words staged through the result buffer.
    pub result_buffer_words: u64,
    /// Sequencing/control events (one per step).
    pub control_events: u64,
    /// Cycles the unit was busy computing.
    pub busy_cycles: u64,
}

/// One tightly-coupled (Volta/Ampere-style) tensor core instance.
///
/// # Example
///
/// ```
/// use virgo_tensor::{TightlyCoupledConfig, TightlyCoupledUnit};
/// use virgo_sim::Cycle;
///
/// let mut tc = TightlyCoupledUnit::new(TightlyCoupledConfig::default());
/// assert!(tc.try_step(Cycle::new(0), 64));    // occupies cycles 0-1
/// assert!(!tc.try_step(Cycle::new(1), 64));   // still busy
/// assert!(tc.try_step(Cycle::new(2), 64));
/// assert_eq!(tc.stats().macs, 128);
/// ```
#[derive(Debug, Clone)]
pub struct TightlyCoupledUnit {
    config: TightlyCoupledConfig,
    busy_until: Cycle,
    stats: TightlyCoupledStats,
}

impl TightlyCoupledUnit {
    /// Creates an idle unit.
    ///
    /// # Panics
    ///
    /// Panics if `macs_per_cycle` is zero.
    pub fn new(config: TightlyCoupledConfig) -> Self {
        assert!(config.macs_per_cycle > 0, "unit needs at least one MAC");
        TightlyCoupledUnit {
            config,
            busy_until: Cycle::ZERO,
            stats: TightlyCoupledStats::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &TightlyCoupledConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> TightlyCoupledStats {
        self.stats
    }

    /// True while a previously-issued step is still executing at `now`.
    pub fn is_busy(&self, now: Cycle) -> bool {
        self.busy_until > now
    }

    /// Attempts to start one HMMA step of `macs` multiply-accumulates.
    ///
    /// Returns `false` when the unit is still busy with a previous step
    /// (a structural hazard: the issuing warp retries next cycle).
    pub fn try_step(&mut self, now: Cycle, macs: u32) -> bool {
        if self.is_busy(now) {
            return false;
        }
        let cycles = u64::from(macs.div_ceil(self.config.macs_per_cycle).max(1));
        self.busy_until = now.plus(cycles);
        self.stats.steps += 1;
        self.stats.macs += u64::from(macs);
        self.stats.busy_cycles += cycles;
        self.stats.control_events += 1;
        // Each step stages its operand fragments and partial accumulator
        // through small buffers next to the dot-product units. The traffic is
        // proportional to the step size: roughly one operand word per 4 MACs
        // (two FP16 operand pairs per word) and one result word per 8 MACs.
        self.stats.operand_buffer_words += u64::from(macs / 4);
        self.stats.result_buffer_words += u64::from(macs / 8);
        true
    }

    /// The cycle at which the current step releases the structural hazard,
    /// or `None` when the unit is free at `now` (see `virgo_sim::activity`).
    ///
    /// The unit is driven synchronously by `HMMA` step instructions and has
    /// no tick of its own; this release cycle is its only time-dependent
    /// state. It reaches the cores as `ClusterPort::hmma_busy_until`, so a
    /// core whose runnable warps are all hazard-blocked parks until it.
    pub fn next_activity(&self, now: Cycle) -> Option<Cycle> {
        if self.is_busy(now) {
            Some(self.busy_until)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_occupies_unit_for_two_cycles() {
        let mut tc = TightlyCoupledUnit::new(TightlyCoupledConfig::default());
        assert!(tc.try_step(Cycle::new(0), 64));
        assert!(tc.is_busy(Cycle::new(0)));
        assert!(tc.is_busy(Cycle::new(1)));
        assert!(!tc.is_busy(Cycle::new(2)));
        assert_eq!(tc.stats().busy_cycles, 2);
    }

    #[test]
    fn busy_unit_rejects_steps() {
        let mut tc = TightlyCoupledUnit::new(TightlyCoupledConfig::default());
        assert!(tc.try_step(Cycle::new(0), 64));
        assert!(!tc.try_step(Cycle::new(0), 64));
        assert!(!tc.try_step(Cycle::new(1), 64));
        assert!(tc.try_step(Cycle::new(2), 64));
        assert_eq!(tc.stats().steps, 2);
    }

    #[test]
    fn small_step_still_takes_one_cycle() {
        let mut tc = TightlyCoupledUnit::new(TightlyCoupledConfig::default());
        assert!(tc.try_step(Cycle::new(0), 8));
        assert!(!tc.is_busy(Cycle::new(1)));
        assert_eq!(tc.stats().busy_cycles, 1);
    }

    #[test]
    fn buffer_traffic_scales_with_macs() {
        let mut tc = TightlyCoupledUnit::new(TightlyCoupledConfig::default());
        tc.try_step(Cycle::new(0), 64);
        let s = tc.stats();
        assert_eq!(s.operand_buffer_words, 16);
        assert_eq!(s.result_buffer_words, 8);
        assert_eq!(s.control_events, 1);
    }

    #[test]
    fn full_throughput_back_to_back() {
        let mut tc = TightlyCoupledUnit::new(TightlyCoupledConfig::default());
        let mut now = Cycle::ZERO;
        for _ in 0..100 {
            assert!(tc.try_step(now, 64));
            now = now.plus(2);
        }
        assert_eq!(tc.stats().macs, 6400);
        // 100 steps × 64 MACs at 32 MACs/cycle = 200 busy cycles.
        assert_eq!(tc.stats().busy_cycles, 200);
    }

    #[test]
    #[should_panic(expected = "at least one MAC")]
    fn zero_macs_per_cycle_rejected() {
        let _ = TightlyCoupledUnit::new(TightlyCoupledConfig { macs_per_cycle: 0 });
    }
}
