//! Memory-mapped IO commands for cluster-level devices.
//!
//! Section 3.1 of the paper replaces Gemmini's RoCC interface with
//! memory-mapped control registers reachable over the cluster-local
//! interconnect. The SIMT core programs both the disaggregated matrix unit and
//! the cluster DMA engine by issuing ordinary stores to this MMIO region; the
//! types below are the decoded form of those stores.
//!
//! In a program a command's addresses are [`AddrExpr`]s over its op's
//! execution index. The program cursor evaluates them when it yields the
//! op, so the devices receive commands whose addresses were latched at
//! issue, in [`AddrExpr::fixed`] form, and read them with
//! [`AddrExpr::resolved`].

use virgo_sim::{StableHash, StableHasher};

use crate::addr::{AddrExpr, MemRegion};
use crate::kernel::DataType;

/// Identifies a cluster-level device addressable through MMIO.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceId {
    /// A cluster-level matrix unit. Index 0 is the default unit; the
    /// heterogeneous configuration of Section 6.3 instantiates a second one.
    MatrixUnit(u8),
    /// A cluster DMA engine.
    Dma(u8),
}

impl DeviceId {
    /// The default (index 0) matrix unit.
    pub const MATRIX0: DeviceId = DeviceId::MatrixUnit(0);
    /// The default (index 0) DMA engine.
    pub const DMA0: DeviceId = DeviceId::Dma(0);
}

/// Source or destination of a DMA transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemLoc {
    /// Which memory the transfer endpoint lives in.
    pub region: MemRegion,
    /// Byte address of the endpoint, as a function of the issuing
    /// instruction's execution index.
    pub addr: AddrExpr,
}

impl MemLoc {
    /// Convenience constructor.
    pub fn new(region: MemRegion, addr: impl Into<AddrExpr>) -> Self {
        MemLoc {
            region,
            addr: addr.into(),
        }
    }

    /// A global-memory endpoint.
    pub fn global(addr: impl Into<AddrExpr>) -> Self {
        Self::new(MemRegion::Global, addr)
    }

    /// A shared-memory endpoint.
    pub fn shared(addr: impl Into<AddrExpr>) -> Self {
        Self::new(MemRegion::Shared, addr)
    }

    /// An accumulator-memory endpoint.
    pub fn accumulator(addr: impl Into<AddrExpr>) -> Self {
        Self::new(MemRegion::Accumulator, addr)
    }

    /// A *peer* cluster's shared-memory endpoint, encoded through the remote
    /// DSM address window: the address expression's base is relocated into
    /// `cluster`'s window while its stride/modulo arithmetic keeps operating
    /// on the byte offset inside that scratchpad.
    pub fn remote_shared(cluster: u32, addr: impl Into<AddrExpr>) -> Self {
        let mut expr = addr.into();
        expr.base = crate::addr::remote_smem_addr(cluster, expr.base);
        Self::new(MemRegion::Shared, expr)
    }

    /// The peer cluster this endpoint targets through the remote DSM window,
    /// or `None` for a local endpoint.
    pub fn remote_cluster(&self) -> Option<u32> {
        match self.region {
            MemRegion::Shared => crate::addr::decode_remote_smem(self.addr.base).map(|(c, _)| c),
            _ => None,
        }
    }
}

/// An asynchronous DMA copy (`virgo_dma_load` / `virgo_dma_store`), moving a
/// contiguous tile between global memory, shared memory and the matrix unit's
/// accumulator memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DmaCopyCmd {
    /// Where the data is read from.
    pub src: MemLoc,
    /// Where the data is written to.
    pub dst: MemLoc,
    /// Number of bytes moved.
    pub bytes: u64,
}

impl DmaCopyCmd {
    /// Creates a copy command.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero.
    pub fn new(src: MemLoc, dst: MemLoc, bytes: u64) -> Self {
        assert!(bytes > 0, "DMA transfers must move at least one byte");
        DmaCopyCmd { src, dst, bytes }
    }
}

/// An asynchronous matrix multiply-accumulate on the disaggregated matrix
/// unit (`virgo_compute`).
///
/// The unit's coarse-grain FSM iterates the full `m × n × k` problem,
/// streaming operand tiles from shared memory and accumulating into the
/// private accumulator memory (Section 3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MatrixComputeCmd {
    /// Shared-memory address of the A operand tile.
    pub a: AddrExpr,
    /// Shared-memory address of the B operand tile.
    pub b: AddrExpr,
    /// Accumulator-memory byte address the result tile accumulates into.
    pub acc_addr: u64,
    /// Rows of the output tile.
    pub m: u32,
    /// Columns of the output tile.
    pub n: u32,
    /// Reduction dimension.
    pub k: u32,
    /// When true the result is added onto the existing accumulator contents;
    /// when false the accumulator is overwritten.
    pub accumulate: bool,
    /// Element type of the operands.
    pub dtype: DataType,
}

impl MatrixComputeCmd {
    /// Total multiply-accumulate operations performed by this command.
    pub fn mac_ops(&self) -> u64 {
        u64::from(self.m) * u64::from(self.n) * u64::from(self.k)
    }

    /// Bytes of the A operand tile (row-major `m × k`).
    pub fn a_bytes(&self) -> u64 {
        u64::from(self.m) * u64::from(self.k) * u64::from(self.dtype.bytes())
    }

    /// Bytes of the B operand tile (row-major `k × n`).
    pub fn b_bytes(&self) -> u64 {
        u64::from(self.k) * u64::from(self.n) * u64::from(self.dtype.bytes())
    }

    /// Bytes of accumulator data produced (the output tile, 4-byte
    /// accumulation).
    pub fn accumulator_bytes(&self) -> u64 {
        u64::from(self.m) * u64::from(self.n) * 4
    }
}

/// A Hopper-style `wgmma` asynchronous matrix operation executed by a
/// core-coupled, operand-decoupled tensor unit.
///
/// Operands are fetched from shared memory by the unit's access frontend;
/// the accumulator tile stays in the warp's register file (Section 5.1.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WgmmaOp {
    /// Shared-memory address of the A operand tile.
    pub a: AddrExpr,
    /// Shared-memory address of the B operand tile.
    pub b: AddrExpr,
    /// Rows of the output tile.
    pub m: u32,
    /// Columns of the output tile.
    pub n: u32,
    /// Reduction dimension.
    pub k: u32,
    /// Element type of the operands.
    pub dtype: DataType,
}

impl WgmmaOp {
    /// Total multiply-accumulate operations in this operation.
    pub fn mac_ops(&self) -> u64 {
        u64::from(self.m) * u64::from(self.n) * u64::from(self.k)
    }

    /// Bytes of operand data the access frontend reads from shared memory.
    pub fn operand_bytes(&self) -> u64 {
        let elem = self.dtype.bytes() as u64;
        (u64::from(self.m) * u64::from(self.k) + u64::from(self.k) * u64::from(self.n)) * elem
    }

    /// Number of 32-bit accumulator registers read and written back per warp
    /// (the m×n FP32 accumulator tile lives in the register file).
    pub fn accumulator_words(&self) -> u64 {
        u64::from(self.m) * u64::from(self.n)
    }
}

/// A decoded MMIO command written to a cluster device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MmioCommand {
    /// Program the DMA engine with an asynchronous copy.
    DmaCopy(DmaCopyCmd),
    /// Program the DMA engine with an asynchronous *inter-cluster* copy
    /// (`virgo_dma_remote`): at least one endpoint is a peer cluster's
    /// scratchpad, addressed through the remote DSM window
    /// ([`MemLoc::remote_shared`]); the remote leg traverses the DSM fabric
    /// instead of the L2/DRAM back-end.
    DmaRemote(DmaCopyCmd),
    /// Kick off an asynchronous matrix multiply on the disaggregated unit.
    MatrixCompute(MatrixComputeCmd),
}

impl MmioCommand {
    /// Returns the matrix compute command if this is one.
    pub fn as_matrix_compute(&self) -> Option<&MatrixComputeCmd> {
        match self {
            MmioCommand::MatrixCompute(cmd) => Some(cmd),
            MmioCommand::DmaCopy(_) | MmioCommand::DmaRemote(_) => None,
        }
    }

    /// Returns the DMA copy command if this is one (local or remote).
    pub fn as_dma_copy(&self) -> Option<&DmaCopyCmd> {
        match self {
            MmioCommand::DmaCopy(cmd) | MmioCommand::DmaRemote(cmd) => Some(cmd),
            MmioCommand::MatrixCompute(_) => None,
        }
    }
}

impl StableHash for DeviceId {
    fn stable_hash(&self, h: &mut StableHasher) {
        match self {
            DeviceId::MatrixUnit(i) => {
                h.write_u64(0);
                h.write_u64(u64::from(*i));
            }
            DeviceId::Dma(i) => {
                h.write_u64(1);
                h.write_u64(u64::from(*i));
            }
        }
    }
}

impl StableHash for MemLoc {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.region.stable_hash(h);
        self.addr.stable_hash(h);
    }
}

impl StableHash for DmaCopyCmd {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.src.stable_hash(h);
        self.dst.stable_hash(h);
        h.write_u64(self.bytes);
    }
}

impl StableHash for MatrixComputeCmd {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.a.stable_hash(h);
        self.b.stable_hash(h);
        h.write_u64(self.acc_addr);
        h.write_u64(u64::from(self.m));
        h.write_u64(u64::from(self.n));
        h.write_u64(u64::from(self.k));
        self.accumulate.stable_hash(h);
        self.dtype.stable_hash(h);
    }
}

impl StableHash for WgmmaOp {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.a.stable_hash(h);
        self.b.stable_hash(h);
        h.write_u64(u64::from(self.m));
        h.write_u64(u64::from(self.n));
        h.write_u64(u64::from(self.k));
        self.dtype.stable_hash(h);
    }
}

impl StableHash for MmioCommand {
    fn stable_hash(&self, h: &mut StableHasher) {
        match self {
            MmioCommand::DmaCopy(cmd) => {
                h.write_u64(0);
                cmd.stable_hash(h);
            }
            MmioCommand::MatrixCompute(cmd) => {
                h.write_u64(1);
                cmd.stable_hash(h);
            }
            MmioCommand::DmaRemote(cmd) => {
                h.write_u64(2);
                cmd.stable_hash(h);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tile_cmd() -> MatrixComputeCmd {
        MatrixComputeCmd {
            a: AddrExpr::fixed(0),
            b: AddrExpr::fixed(0x8000),
            acc_addr: 0,
            m: 128,
            n: 64,
            k: 128,
            accumulate: true,
            dtype: DataType::Fp16,
        }
    }

    #[test]
    fn matrix_compute_counts() {
        let cmd = tile_cmd();
        assert_eq!(cmd.mac_ops(), 128 * 64 * 128);
        assert_eq!(cmd.a_bytes() + cmd.b_bytes(), (128 * 128 + 128 * 64) * 2);
        assert_eq!(cmd.accumulator_bytes(), 128 * 64 * 4);
    }

    #[test]
    fn byte_counts_match_tile_geometry() {
        let cmd = tile_cmd();
        assert_eq!(cmd.a_bytes(), 128 * 128 * 2);
        assert_eq!(cmd.b_bytes(), 128 * 64 * 2);
        let fp32 = MatrixComputeCmd {
            dtype: DataType::Fp32,
            ..cmd
        };
        assert_eq!(fp32.a_bytes() + fp32.b_bytes(), (128 * 128 + 128 * 64) * 4);
    }

    #[test]
    fn wgmma_counts() {
        let op = WgmmaOp {
            a: AddrExpr::fixed(0),
            b: AddrExpr::fixed(0x100),
            m: 16,
            n: 16,
            k: 32,
            dtype: DataType::Fp16,
        };
        assert_eq!(op.mac_ops(), 16 * 16 * 32);
        assert_eq!(op.operand_bytes(), (16 * 32 + 32 * 16) * 2);
        assert_eq!(op.accumulator_words(), 256);
    }

    #[test]
    fn dma_copy_rejects_zero_bytes() {
        let src = MemLoc::global(0u64);
        let dst = MemLoc::shared(0u64);
        let cmd = DmaCopyCmd::new(src, dst, 128);
        assert_eq!(cmd.bytes, 128);
        let result = std::panic::catch_unwind(|| DmaCopyCmd::new(src, dst, 0));
        assert!(result.is_err());
    }

    #[test]
    fn mmio_command_accessors() {
        let dma = MmioCommand::DmaCopy(DmaCopyCmd::new(
            MemLoc::global(0u64),
            MemLoc::shared(0u64),
            64,
        ));
        assert!(dma.as_dma_copy().is_some());
        assert!(dma.as_matrix_compute().is_none());

        let mm = MmioCommand::MatrixCompute(MatrixComputeCmd {
            a: AddrExpr::fixed(0),
            b: AddrExpr::fixed(0),
            acc_addr: 0,
            m: 8,
            n: 8,
            k: 8,
            accumulate: false,
            dtype: DataType::Fp32,
        });
        assert!(mm.as_matrix_compute().is_some());
        assert!(mm.as_dma_copy().is_none());
    }

    #[test]
    fn memloc_constructors_pick_regions() {
        assert_eq!(MemLoc::global(1u64).region, MemRegion::Global);
        assert_eq!(MemLoc::shared(1u64).region, MemRegion::Shared);
        assert_eq!(MemLoc::accumulator(1u64).region, MemRegion::Accumulator);
    }

    #[test]
    fn remote_shared_endpoints_carry_the_peer_cluster() {
        let loc = MemLoc::remote_shared(5, AddrExpr::double_buffered(0x8000, 0x4000));
        assert_eq!(loc.region, MemRegion::Shared);
        assert_eq!(loc.remote_cluster(), Some(5));
        // Local endpoints (in any region) decode as local.
        assert_eq!(MemLoc::shared(0x8000u64).remote_cluster(), None);
        assert_eq!(MemLoc::global(0x8000u64).remote_cluster(), None);
    }

    #[test]
    fn dma_remote_is_a_dma_copy_with_distinct_identity() {
        let cmd = DmaCopyCmd::new(
            MemLoc::accumulator(0u64),
            MemLoc::remote_shared(1, 0x4000u64),
            2048,
        );
        let local = MmioCommand::DmaCopy(cmd);
        let remote = MmioCommand::DmaRemote(cmd);
        assert_eq!(remote.as_dma_copy(), Some(&cmd));
        assert!(remote.as_matrix_compute().is_none());
        // The two command kinds hash to different stable digests.
        let digest = |c: &MmioCommand| {
            let mut h = virgo_sim::StableHasher::new();
            c.stable_hash(&mut h);
            h.finish128()
        };
        assert_ne!(digest(&local), digest(&remote));
    }
}
