//! Per-core event counters.

/// Event counters kept by one SIMT core, later converted into energy by the
//  SoC model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Instructions issued (retired) by the core.
    pub instrs_issued: u64,
    /// 32-bit register file reads, summed over lanes.
    pub rf_reads: u64,
    /// 32-bit register file writes, summed over lanes.
    pub rf_writes: u64,
    /// Integer ALU lane-operations executed.
    pub alu_lane_ops: u64,
    /// Floating-point lane-operations executed.
    pub fpu_lane_ops: u64,
    /// Memory lane-operations handled by the LSU.
    pub lsu_lane_ops: u64,
    /// Instruction writebacks.
    pub writebacks: u64,
    /// L1 instruction-cache accesses (one per fetched line of instructions).
    pub icache_accesses: u64,
    /// HMMA steps issued to the tightly-coupled tensor unit.
    pub hmma_steps: u64,
    /// `wgmma` operations initiated on the operand-decoupled tensor unit.
    pub wgmma_ops: u64,
    /// MMIO commands written to cluster devices.
    pub mmio_writes: u64,
    /// Busy-register poll loads issued while waiting in `virgo_fence`.
    pub fence_poll_instrs: u64,
    /// Cycles spent with at least one warp blocked on `virgo_fence`.
    pub fence_wait_cycles: u64,
    /// Barrier arrivals.
    pub barrier_arrivals: u64,
    /// Cycles in which the core issued at least one instruction.
    pub active_cycles: u64,
    /// Cycles in which the core had runnable work but issued nothing
    /// (structural or memory stalls).
    pub stall_cycles: u64,
    /// Cycles in which every warp was finished or blocked.
    pub idle_cycles: u64,
}
virgo_sim::counters!(CoreStats {
    instrs_issued,
    rf_reads,
    rf_writes,
    alu_lane_ops,
    fpu_lane_ops,
    lsu_lane_ops,
    writebacks,
    icache_accesses,
    hmma_steps,
    wgmma_ops,
    mmio_writes,
    fence_poll_instrs,
    fence_wait_cycles,
    barrier_arrivals,
    active_cycles,
    stall_cycles,
    idle_cycles,
});

impl CoreStats {
    /// Fraction of cycles in which the core issued at least one instruction.
    /// Every ticked cycle is exactly one of active, stall or idle.
    pub fn issue_utilization(&self) -> f64 {
        match self.active_cycles + self.stall_cycles + self.idle_cycles {
            0 => 0.0,
            cycles => self.active_cycles as f64 / cycles as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use virgo_sim::Counters;

    #[test]
    fn issue_utilization_handles_zero_cycles() {
        let s = CoreStats::default();
        assert_eq!(s.issue_utilization(), 0.0);
        let s2 = CoreStats {
            active_cycles: 5,
            stall_cycles: 3,
            idle_cycles: 2,
            ..Default::default()
        };
        assert!((s2.issue_utilization() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_fields() {
        let mut a = CoreStats {
            instrs_issued: 10,
            rf_reads: 20,
            active_cycles: 5,
            idle_cycles: 5,
            ..Default::default()
        };
        let b = CoreStats {
            instrs_issued: 1,
            rf_reads: 2,
            active_cycles: 1,
            stall_cycles: 9,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.instrs_issued, 11);
        assert_eq!(a.rf_reads, 22);
        assert_eq!((a.active_cycles, a.stall_cycles, a.idle_cycles), (6, 9, 5));
    }
}
