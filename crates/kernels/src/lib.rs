//! GEMM and FlashAttention-3 kernels for the Virgo GPU model, plus the
//! functional reference model used to validate the mappings numerically.
//!
//! The paper evaluates two workloads (Section 5.3):
//!
//! * **GEMM** at 256³, 512³ and 1024³ in FP16, with kernels independently
//!   optimized for each design point (Volta-style, Ampere-style,
//!   Hopper-style, Virgo), and
//! * **FlashAttention-3** forward pass (sequence length 1024, head dimension
//!   64, one head, batch 1) in FP32, mapped to Virgo and to the Ampere-style
//!   baseline.
//!
//! The [`gemm`] and [`attention`] modules generate the per-warp instruction
//! streams (as [`virgo_isa::Kernel`]s) that the cycle-level simulator
//! executes; the [`functional`] module implements the same tilings over real
//! matrices so the mappings can be checked against naive references.
//! [`hetero`] builds the dual-matrix-unit workload of Section 6.3.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod attention;
pub mod functional;
pub mod gemm;
pub mod hetero;
pub mod workload;

pub use attention::broadcast::build as build_flash_attention_broadcast;
pub use attention::broadcast::build_interleaved as build_flash_attention_interleaved;
pub use attention::build_flash_attention;
pub use gemm::build_gemm;
pub use gemm::split_k::build as build_split_k_gemm;
pub use gemm::split_k::build_with_strategy as build_split_k_gemm_with_strategy;
pub use hetero::{build_heterogeneous_parallel, build_heterogeneous_serial};
pub use workload::{AttentionShape, GemmShape};

use std::sync::Arc;

use virgo::GpuConfig;
use virgo_isa::{
    AddrExpr, DataType, DeviceId, DmaCopyCmd, MatrixComputeCmd, MemLoc, MmioCommand, Program,
    ProgramBuilder, WarpAssignment, WarpOp,
};

/// Global-memory offset separating the operand partitions of adjacent
/// clusters (64 GiB apart, so tiles streamed by different clusters never
/// alias in the shared L2). Cluster 0's offset is zero, which keeps
/// single-cluster kernels bit-identical to their pre-partition form.
///
/// Public so hand-written multi-cluster kernels (and the integration tests)
/// can place their traffic in the same disjoint per-cluster partitions the
/// generated kernels use.
pub fn cluster_addr_offset(cluster: u32) -> u64 {
    u64::from(cluster) << 36
}

/// Suffix appended to kernel names when the grid is split over more than one
/// cluster (empty for the single-cluster default).
pub(crate) fn cluster_suffix(clusters: u32) -> String {
    if clusters > 1 {
        format!("_c{clusters}")
    } else {
        String::new()
    }
}

/// An `MmioWrite` programming the cluster DMA engine with a local copy.
pub(crate) fn dma(src: MemLoc, dst: MemLoc, bytes: u64) -> WarpOp {
    WarpOp::MmioWrite {
        device: DeviceId::DMA0,
        cmd: MmioCommand::DmaCopy(DmaCopyCmd::new(src, dst, bytes)),
    }
}

/// An `MmioWrite` programming the cluster DMA engine with a copy that has a
/// peer cluster's scratchpad at one end (it crosses the DSM fabric).
pub(crate) fn dma_remote(src: MemLoc, dst: MemLoc, bytes: u64) -> WarpOp {
    WarpOp::MmioWrite {
        device: DeviceId::DMA0,
        cmd: MmioCommand::DmaRemote(DmaCopyCmd::new(src, dst, bytes)),
    }
}

/// An `MmioWrite` launching an `m×n×k` operation on matrix unit `device`,
/// reading A and B from shared memory.
pub(crate) fn matrix_compute(
    device: DeviceId,
    a: AddrExpr,
    b: AddrExpr,
    acc_addr: u64,
    (m, n, k): (u32, u32, u32),
    accumulate: bool,
    dtype: DataType,
) -> WarpOp {
    WarpOp::MmioWrite {
        device,
        cmd: MmioCommand::MatrixCompute(MatrixComputeCmd {
            a,
            b,
            acc_addr,
            m,
            n,
            k,
            accumulate,
            dtype,
        }),
    }
}

/// Places one warp on every hardware warp slot of `cluster`, core-major;
/// `program` receives the warp's index within the cluster (index 0 — core
/// 0, warp 0 — is the orchestrator or leader in every mapping).
pub(crate) fn place_warps(
    warps: &mut Vec<WarpAssignment>,
    config: &GpuConfig,
    cluster: u32,
    mut program: impl FnMut(u64) -> Arc<Program>,
) {
    for core in 0..config.cores {
        for warp in 0..config.core.warps {
            let warp_index = u64::from(core) * u64::from(config.core.warps) + u64::from(warp);
            warps.push(WarpAssignment::on_cluster(
                cluster,
                core,
                warp,
                program(warp_index),
            ));
        }
    }
}

/// A loop over work items (output tiles, column blocks) as a generator
/// emits it.
///
/// Address expressions are evaluated at an op's execution index: its n-th
/// execution is its position in its enclosing loops, and unrolled copies
/// are separate ops, each starting at 0. So the loop shape is part of the
/// program: a `Repeat` body is emitted once and its addresses advance
/// across items, while `Unrolled` emits one static copy per item (each
/// copy at its first execution) so each item can carry its own role and
/// addresses.
#[derive(Debug)]
pub(crate) enum Steps<T> {
    /// The same item `count` times, as one `repeat`.
    Repeat(u64, T),
    /// One item per iteration, unrolled into static ops.
    Unrolled(Vec<T>),
}

impl<T> Steps<T> {
    /// Emits the loop into `b`, building each item's body with `body`.
    pub(crate) fn emit(
        &self,
        b: &mut ProgramBuilder,
        mut body: impl FnMut(&mut ProgramBuilder, &T),
    ) {
        match self {
            Steps::Repeat(count, item) => {
                b.repeat(*count, |b| body(b, item));
            }
            Steps::Unrolled(items) => {
                for item in items {
                    body(b, item);
                }
            }
        }
    }

    /// Every distinct item of the loop.
    pub(crate) fn items(&self) -> &[T] {
        match self {
            Steps::Repeat(_, item) => std::slice::from_ref(item),
            Steps::Unrolled(items) => items,
        }
    }
}
