//! The warp-level operation set issued by the SIMT core.

use virgo_sim::{StableHash, StableHasher};

use crate::addr::LaneAccess;
use crate::mmio::{DeviceId, MmioCommand, WgmmaOp};

/// A warp-level operation.
///
/// Register-file traffic is described by *counts* of 32-bit register reads and
/// writes rather than concrete register names: the timing and energy models
/// only depend on how many operand-collector and writeback accesses an
/// instruction generates, not on which architectural registers it names.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WarpOp {
    /// An integer ALU operation (address generation, loop bookkeeping,
    /// predicate manipulation).
    Alu {
        /// 32-bit register reads per lane.
        rf_reads: u8,
        /// 32-bit register writes per lane.
        rf_writes: u8,
    },
    /// A floating-point SIMD operation executed on the per-lane FPU.
    Fpu {
        /// 32-bit register reads per lane.
        rf_reads: u8,
        /// 32-bit register writes per lane.
        rf_writes: u8,
        /// Floating-point operations per lane (an FMA counts as two).
        flops_per_lane: u8,
    },
    /// A per-lane load from global memory (through coalescer, L1, L2, DRAM).
    LoadGlobal {
        /// The per-lane access pattern.
        access: LaneAccess,
    },
    /// A per-lane store to global memory.
    StoreGlobal {
        /// The per-lane access pattern.
        access: LaneAccess,
    },
    /// A per-lane load from the cluster shared memory.
    LoadShared {
        /// The per-lane access pattern.
        access: LaneAccess,
    },
    /// A per-lane store to the cluster shared memory.
    StoreShared {
        /// The per-lane access pattern.
        access: LaneAccess,
    },
    /// A compiler-inserted dependence barrier: the warp stalls until all of
    /// its outstanding loads have written back (models SASS dependence
    /// barriers / `s_waitcnt`-style synchronization).
    WaitLoads,
    /// One Volta-style synchronous `HMMA` step executed on the core-coupled
    /// tensor unit. Operands and accumulators move through the register file.
    HmmaStep {
        /// Multiply-accumulate operations performed by this step.
        macs: u32,
        /// 32-bit register reads per lane (operand fragments + accumulator).
        rf_reads: u8,
        /// 32-bit register writes per lane (accumulator writeback).
        rf_writes: u8,
    },
    /// Initiate a Hopper-style asynchronous `wgmma` operation on the
    /// operand-decoupled tensor unit. The issuing warp does not stall.
    WgmmaInit(WgmmaOp),
    /// Stall the warp until the core's operand-decoupled tensor unit has
    /// drained all outstanding `wgmma` operations (models `wgmma.wait_group`).
    WgmmaWait,
    /// A non-blocking MMIO store that programs a cluster-level device
    /// (disaggregated matrix unit or DMA engine).
    MmioWrite {
        /// Target device.
        device: DeviceId,
        /// Decoded command.
        cmd: MmioCommand,
    },
    /// Spin-poll a device's busy register until the number of asynchronous
    /// cluster operations still outstanding for this thread block is at most
    /// `max_outstanding` (models `virgo_fence(n)`).
    FenceAsync {
        /// Maximum number of yet-incomplete asynchronous operations allowed
        /// when the fence releases.
        max_outstanding: u32,
    },
    /// Cluster-wide barrier across all participating warps (models the
    /// synchronizer module driven by the `vx_bar` instruction).
    Barrier {
        /// Barrier identifier, allowing multiple concurrent barriers.
        id: u8,
    },
    /// An operation with no architectural effect, occupying one issue slot.
    Nop,
}

impl WarpOp {
    /// True for operations that may stall the issuing warp until some other
    /// agent makes progress (loads returning, matrix units draining, other
    /// warps reaching a barrier).
    pub fn is_blocking(&self) -> bool {
        matches!(
            self,
            WarpOp::WaitLoads
                | WarpOp::WgmmaWait
                | WarpOp::FenceAsync { .. }
                | WarpOp::Barrier { .. }
        )
    }

    /// True for operations that access a memory space through the LSU.
    pub fn is_memory(&self) -> bool {
        matches!(
            self,
            WarpOp::LoadGlobal { .. }
                | WarpOp::StoreGlobal { .. }
                | WarpOp::LoadShared { .. }
                | WarpOp::StoreShared { .. }
        )
    }

    /// True for matrix-unit operations (of any of the integration styles).
    pub fn is_matrix(&self) -> bool {
        matches!(
            self,
            WarpOp::HmmaStep { .. } | WarpOp::WgmmaInit(_) | WarpOp::MmioWrite { .. }
        )
    }

    /// Number of 32-bit register file reads per lane performed when issuing
    /// this operation.
    pub fn rf_reads(&self) -> u32 {
        match self {
            WarpOp::Alu { rf_reads, .. } | WarpOp::Fpu { rf_reads, .. } => u32::from(*rf_reads),
            WarpOp::HmmaStep { rf_reads, .. } => u32::from(*rf_reads),
            // Loads read one address register; stores read address + data.
            WarpOp::LoadGlobal { .. } | WarpOp::LoadShared { .. } => 1,
            WarpOp::StoreGlobal { .. } | WarpOp::StoreShared { .. } => 2,
            // MMIO writes carry a handful of configuration operands, but they
            // are issued once per (large) tile so we charge a single read.
            WarpOp::MmioWrite { .. } => 1,
            WarpOp::WgmmaInit(_) => 1,
            WarpOp::FenceAsync { .. } => 1,
            WarpOp::WaitLoads | WarpOp::WgmmaWait | WarpOp::Barrier { .. } | WarpOp::Nop => 0,
        }
    }

    /// Number of 32-bit register file writes per lane performed when this
    /// operation writes back.
    pub fn rf_writes(&self) -> u32 {
        match self {
            WarpOp::Alu { rf_writes, .. } | WarpOp::Fpu { rf_writes, .. } => u32::from(*rf_writes),
            WarpOp::HmmaStep { rf_writes, .. } => u32::from(*rf_writes),
            WarpOp::LoadGlobal { .. } | WarpOp::LoadShared { .. } => 1,
            _ => 0,
        }
    }

    /// A short mnemonic used in traces and per-opcode statistics.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            WarpOp::Alu { .. } => "alu",
            WarpOp::Fpu { .. } => "fpu",
            WarpOp::LoadGlobal { .. } => "ld.global",
            WarpOp::StoreGlobal { .. } => "st.global",
            WarpOp::LoadShared { .. } => "ld.shared",
            WarpOp::StoreShared { .. } => "st.shared",
            WarpOp::WaitLoads => "waitcnt",
            WarpOp::HmmaStep { .. } => "hmma.step",
            WarpOp::WgmmaInit(_) => "wgmma.init",
            WarpOp::WgmmaWait => "wgmma.wait",
            WarpOp::MmioWrite { .. } => "mmio.write",
            WarpOp::FenceAsync { .. } => "virgo.fence",
            WarpOp::Barrier { .. } => "vx.bar",
            WarpOp::Nop => "nop",
        }
    }
}

impl StableHash for WarpOp {
    fn stable_hash(&self, h: &mut StableHasher) {
        match self {
            WarpOp::Alu {
                rf_reads,
                rf_writes,
            } => {
                h.write_u64(0);
                h.write_u64(u64::from(*rf_reads));
                h.write_u64(u64::from(*rf_writes));
            }
            WarpOp::Fpu {
                rf_reads,
                rf_writes,
                flops_per_lane,
            } => {
                h.write_u64(1);
                h.write_u64(u64::from(*rf_reads));
                h.write_u64(u64::from(*rf_writes));
                h.write_u64(u64::from(*flops_per_lane));
            }
            WarpOp::LoadGlobal { access } => {
                h.write_u64(2);
                access.stable_hash(h);
            }
            WarpOp::StoreGlobal { access } => {
                h.write_u64(3);
                access.stable_hash(h);
            }
            WarpOp::LoadShared { access } => {
                h.write_u64(4);
                access.stable_hash(h);
            }
            WarpOp::StoreShared { access } => {
                h.write_u64(5);
                access.stable_hash(h);
            }
            WarpOp::WaitLoads => h.write_u64(6),
            WarpOp::HmmaStep {
                macs,
                rf_reads,
                rf_writes,
            } => {
                h.write_u64(7);
                h.write_u64(u64::from(*macs));
                h.write_u64(u64::from(*rf_reads));
                h.write_u64(u64::from(*rf_writes));
            }
            WarpOp::WgmmaInit(op) => {
                h.write_u64(8);
                op.stable_hash(h);
            }
            WarpOp::WgmmaWait => h.write_u64(9),
            WarpOp::MmioWrite { device, cmd } => {
                h.write_u64(10);
                device.stable_hash(h);
                cmd.stable_hash(h);
            }
            WarpOp::FenceAsync { max_outstanding } => {
                h.write_u64(11);
                h.write_u64(u64::from(*max_outstanding));
            }
            WarpOp::Barrier { id } => {
                h.write_u64(12);
                h.write_u64(u64::from(*id));
            }
            WarpOp::Nop => h.write_u64(13),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::AddrExpr;

    fn sample_access() -> LaneAccess {
        LaneAccess::contiguous_words(AddrExpr::fixed(0), 8)
    }

    #[test]
    fn blocking_classification() {
        assert!(WarpOp::WaitLoads.is_blocking());
        assert!(WarpOp::WgmmaWait.is_blocking());
        assert!(WarpOp::Barrier { id: 0 }.is_blocking());
        assert!(WarpOp::FenceAsync { max_outstanding: 0 }.is_blocking());
        assert!(!WarpOp::Nop.is_blocking());
        assert!(!WarpOp::Alu {
            rf_reads: 2,
            rf_writes: 1
        }
        .is_blocking());
    }

    #[test]
    fn memory_classification() {
        assert!(WarpOp::LoadGlobal {
            access: sample_access()
        }
        .is_memory());
        assert!(WarpOp::StoreShared {
            access: sample_access()
        }
        .is_memory());
        assert!(!WarpOp::Nop.is_memory());
        assert!(!WarpOp::WaitLoads.is_memory());
    }

    #[test]
    fn matrix_classification() {
        assert!(WarpOp::HmmaStep {
            macs: 64,
            rf_reads: 4,
            rf_writes: 2
        }
        .is_matrix());
        assert!(!WarpOp::Fpu {
            rf_reads: 2,
            rf_writes: 1,
            flops_per_lane: 1
        }
        .is_matrix());
    }

    #[test]
    fn register_traffic_counts() {
        let alu = WarpOp::Alu {
            rf_reads: 2,
            rf_writes: 1,
        };
        assert_eq!(alu.rf_reads(), 2);
        assert_eq!(alu.rf_writes(), 1);

        let load = WarpOp::LoadShared {
            access: sample_access(),
        };
        assert_eq!(load.rf_reads(), 1);
        assert_eq!(load.rf_writes(), 1);

        let store = WarpOp::StoreGlobal {
            access: sample_access(),
        };
        assert_eq!(store.rf_reads(), 2);
        assert_eq!(store.rf_writes(), 0);

        assert_eq!(WarpOp::Barrier { id: 1 }.rf_reads(), 0);
    }

    #[test]
    fn mnemonics_are_distinct_for_memory_ops() {
        let l = WarpOp::LoadGlobal {
            access: sample_access(),
        };
        let s = WarpOp::StoreGlobal {
            access: sample_access(),
        };
        assert_ne!(l.mnemonic(), s.mnemonic());
    }
}
