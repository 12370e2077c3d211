//! The Virgo GEMM kernel: MMIO-orchestrated, DMA-fed, cluster-level matrix
//! unit (Section 4.4).

use std::sync::Arc;

use virgo::GpuConfig;
use virgo_isa::{AddrExpr, DeviceId, Kernel, MemLoc, ProgramBuilder, WarpOp};

use crate::workload::GemmShape;

use super::{TileWalk, GLOBAL_A, GLOBAL_B, GLOBAL_C};

use crate::{dma, matrix_compute};

/// Thread-block tile exposed by the matrix unit (Section 4.4.1).
pub const TILE_M: u32 = 128;
/// Thread-block tile N dimension.
pub const TILE_N: u32 = 64;
/// Thread-block tile K dimension.
pub const TILE_K: u32 = 128;

/// Shared-memory double-buffer base addresses for the A and B tiles.
pub(super) const SMEM_A0: u64 = 0x0;
pub(super) const SMEM_A_STRIDE: u64 = 0x8000; // 32 KiB per A buffer
const SMEM_B0: u64 = 0x1_0000;
const SMEM_B_STRIDE: u64 = 0x4000; // 16 KiB per B buffer

/// Global-memory sources of one output tile's A and B K-tiles, one per
/// static DMA site of [`k_loop`]: the prologue fetch, the first prefetch and
/// the steady-state prefetch. Each site's address advances per execution of
/// that site alone.
#[derive(Debug, Clone, Copy)]
pub(super) struct Operands {
    a: [AddrExpr; 3],
    b: [AddrExpr; 3],
}

impl Operands {
    /// Every site streams from the same expression, one tile per execution
    /// of that site. So a tile's prologue fetch and first prefetch read the
    /// same global address (the second one hits in L2) rather than distinct
    /// K-tiles.
    pub(super) fn streaming(walk: &TileWalk, a_base: u64, b_base: u64) -> Self {
        Operands {
            a: [AddrExpr::streaming(a_base, walk.a_bytes); 3],
            b: [AddrExpr::streaming(b_base, walk.b_bytes); 3],
        }
    }

    /// Site `s` starts `s` tiles past the base, so one unrolled output tile
    /// walks its K-tiles in order.
    pub(super) fn staggered(walk: &TileWalk, a_base: u64, b_base: u64) -> Self {
        let site = |base: u64, bytes: u64, s: u64| AddrExpr::streaming(base + s * bytes, bytes);
        Operands {
            a: [0, 1, 2].map(|s| site(a_base, walk.a_bytes, s)),
            b: [0, 1, 2].map(|s| site(b_base, walk.b_bytes, s)),
        }
    }
}

/// Emits one output tile's K-loop software pipeline over `kt` K-steps on
/// the orchestrator: fetch the first A/B K-tiles and launch the first
/// compute while the next K-tiles prefetch into the other shared-memory
/// buffers; each later K-step waits for the previous compute and prefetch,
/// joins barrier 0, launches its compute and prefetches the next K-tiles.
/// Ends with a fence, so the accumulator holds the tile's result.
pub(super) fn k_loop(b: &mut ProgramBuilder, walk: &TileWalk, kt: u64, src: &Operands) {
    let fetch = |b: &mut ProgramBuilder, site: usize| {
        b.op(dma(
            MemLoc::global(src.a[site]),
            MemLoc::shared(AddrExpr::double_buffered(SMEM_A0, SMEM_A_STRIDE)),
            walk.a_bytes,
        ));
        b.op(dma(
            MemLoc::global(src.b[site]),
            MemLoc::shared(AddrExpr::double_buffered(SMEM_B0, SMEM_B_STRIDE)),
            walk.b_bytes,
        ));
    };
    let compute = |accumulate: bool| {
        matrix_compute(
            DeviceId::MATRIX0,
            AddrExpr::double_buffered(SMEM_A0, SMEM_A_STRIDE),
            AddrExpr::double_buffered(SMEM_B0, SMEM_B_STRIDE),
            0,
            (TILE_M, TILE_N, TILE_K),
            accumulate,
            walk.config.dtype,
        )
    };
    b.op(WarpOp::Alu {
        rf_reads: 2,
        rf_writes: 1,
    });
    fetch(b, 0);
    b.op(WarpOp::FenceAsync { max_outstanding: 0 });
    // First compute overwrites the accumulator; prefetch the next K-tiles
    // while it runs.
    b.op(compute(false));
    if kt > 1 {
        fetch(b, 1);
    }
    // Steady state: wait for the previous compute and prefetch, launch this
    // iteration's compute, prefetch the next K-tiles.
    if kt > 2 {
        b.repeat(kt - 2, |b| {
            b.op(WarpOp::FenceAsync { max_outstanding: 0 });
            b.op(WarpOp::Barrier { id: 0 });
            b.op(compute(true));
            fetch(b, 2);
        });
    }
    // Final K iteration: no further prefetch.
    if kt > 1 {
        b.op(WarpOp::FenceAsync { max_outstanding: 0 });
        b.op(WarpOp::Barrier { id: 0 });
        b.op(compute(true));
    }
    b.op(WarpOp::FenceAsync { max_outstanding: 0 });
}

/// Emits the follower side of [`k_loop`]: the `kt - 1` per-K-step barriers
/// the orchestrator joins for one output tile.
pub(super) fn k_loop_barriers(b: &mut ProgramBuilder, kt: u64) {
    b.repeat(kt.saturating_sub(1), |b| {
        b.op(WarpOp::Barrier { id: 0 });
    });
}

/// Builds the Virgo GEMM kernel for `shape`, splitting the output-tile space
/// across the configuration's clusters.
///
/// One warp per cluster acts as the orchestrator: it programs the cluster's
/// DMA engine and matrix unit through MMIO and issues the `virgo_fence`
/// polls. Every other warp of the cluster participates in the cluster-wide
/// barriers, mirroring the collaborative-execution model of Section 4.2 (in
/// a pure GEMM they have no per-element work, since both data movement and
/// compute are offloaded). Each cluster owns a contiguous run of output
/// tiles and streams its operands from a disjoint global-memory partition,
/// so the clusters interact only through contention on the shared L2/DRAM.
///
/// # Panics
///
/// Panics if the shape is not divisible by the 128×64×128 thread-block tile.
pub fn build(config: &GpuConfig, shape: GemmShape) -> Kernel {
    let walk = TileWalk::new(config, shape, (TILE_M, TILE_N, TILE_K));
    let c_bytes = walk.c_bytes;
    walk.kernel("virgo", "", |_, cluster_tiles, base| {
        // The operand tiles stream through this cluster's partition of
        // global memory and ping-pong between two shared-memory buffers.
        let operands = Operands::streaming(&walk, GLOBAL_A + base, GLOBAL_B + base);
        let mut orch = ProgramBuilder::new();
        orch.repeat(cluster_tiles, |b| {
            k_loop(b, &walk, walk.kt, &operands);
            // Epilogue: drain the accumulator tile to global memory. The
            // store is left asynchronous so it overlaps with the next output
            // tile's prologue DMA loads; the fence at the top of the next
            // tile (and the cluster drain at kernel end) provides the
            // required ordering before the accumulator is overwritten.
            b.op(dma(
                MemLoc::accumulator(AddrExpr::fixed(0)),
                MemLoc::global(AddrExpr::streaming(GLOBAL_C + base, c_bytes)),
                c_bytes,
            ));
            b.op(WarpOp::Barrier { id: 1 });
        });
        let orchestrator = Arc::new(orch.build());

        // Followers join the per-K-iteration barriers and the per-tile
        // epilogue barrier.
        let mut foll = ProgramBuilder::new();
        foll.repeat(cluster_tiles, |b| {
            k_loop_barriers(b, walk.kt);
            b.op(WarpOp::Barrier { id: 1 });
        });
        let follower = Arc::new(foll.build());

        move |warp_index| {
            Arc::clone(if warp_index == 0 {
                &orchestrator
            } else {
                &follower
            })
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use virgo_isa::DeviceId;

    #[test]
    fn kernel_structure_matches_tiling() {
        let config = GpuConfig::virgo();
        let shape = GemmShape::square(256);
        let kernel = build(&config, shape);
        assert_eq!(kernel.warps.len(), 64);
        assert_eq!(kernel.cores_used(), 8);
        // 2×4 output tiles, each with a 2-iteration K loop.
        let orchestrator = &kernel.warps[0].program;
        // Orchestrator issues one matrix compute per (tile, k) pair.
        let computes = 2 * 4 * 2;
        // Count MMIO matrix commands in the dynamic stream.
        let mut cursor = orchestrator.cursor();
        let mut count = 0;
        while let Some(op) = cursor.next_op() {
            if let WarpOp::MmioWrite {
                device: DeviceId::MatrixUnit(_),
                ..
            } = op
            {
                count += 1;
            }
        }
        assert_eq!(count, computes);
    }

    #[test]
    fn single_k_iteration_shape_is_supported() {
        let config = GpuConfig::virgo();
        let shape = GemmShape {
            m: 128,
            n: 64,
            k: 128,
        };
        let kernel = build(&config, shape);
        assert!(kernel.dynamic_instructions() > 0);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn indivisible_shape_is_rejected() {
        let _ = build(
            &GpuConfig::virgo(),
            GemmShape {
                m: 100,
                n: 64,
                k: 128,
            },
        );
    }
}
