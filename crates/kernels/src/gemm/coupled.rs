//! GEMM kernels for the core-coupled tensor units: Volta-style and
//! Ampere-style `HMMA` (Section 5.1.1 / 5.1.2) and Hopper-style `wgmma`
//! (Section 5.1.3).
//!
//! The three share one thread-block mapping and one tile body:
//!
//! * thread-block tile 64×128, K-chunk 32, double-buffered in shared memory;
//! * per output tile, a K loop of *fetch* (the chunk's A and B tiles reach
//!   shared memory), barrier 0, *compute* (each warp's share of the chunk),
//!   barrier 1;
//! * an epilogue in which every warp stores its FP32 accumulator tile from
//!   its register file to global memory, then barrier 1.
//!
//! A design passes its fetch step (`Fetch`): in the Volta-style kernel the
//! warps themselves copy the operand tiles with SIMT loads and stores; in
//! the Ampere- and Hopper-style kernels the leader warp programs the
//! cluster DMA (Asynchronous Data Copy), one chunk ahead. And it passes its
//! compute step (`Compute`): Volta- and Ampere-style warps each own an
//! 8×16 accumulator tile in the register file (the 1 KiB per-warp budget
//! of Section 5.1.1) and run `wmma`s of shape (8,8,16) as 16 synchronous
//! `HMMA` steps on fragments loaded from shared memory, one
//! address-generation instruction per fragment load; Hopper-style warps
//! initiate asynchronous `wgmma`s that read their operands from shared
//! memory ([`super::hopper`]).

use std::sync::Arc;

use virgo::GpuConfig;
use virgo_isa::{AddrExpr, Kernel, LaneAccess, MemLoc, ProgramBuilder, WarpOp};

use crate::workload::GemmShape;

use super::{hopper, TileWalk, GLOBAL_A, GLOBAL_B, GLOBAL_C};

use crate::dma;

/// Thread-block tile M dimension.
pub const TILE_M: u32 = 64;
/// Thread-block tile N dimension.
pub const TILE_N: u32 = 128;
/// Thread-block K chunk.
pub const TILE_K: u32 = 32;
/// `wmma` instruction tile (Section 5.1.1).
pub const WMMA: (u32, u32, u32) = (8, 8, 16);

/// Shared-memory layout: double-buffered A and B tiles.
pub(super) const SMEM_A0: u64 = 0x0;
pub(super) const SMEM_A_STRIDE: u64 = 0x1000; // 4 KiB per A buffer (64×32 fp16)
pub(super) const SMEM_B0: u64 = 0x8000;
pub(super) const SMEM_B_STRIDE: u64 = 0x2000; // 8 KiB per B buffer (32×128 fp16)

/// The address-generation instruction that precedes every load and store.
pub(super) const ADDR: WarpOp = WarpOp::Alu {
    rf_reads: 2,
    rf_writes: 1,
};

/// How each K chunk's A and B tiles reach shared memory.
#[derive(Debug, Clone, Copy)]
pub(super) enum Fetch {
    /// Every warp copies its slice of the tiles with plain loads and stores
    /// through the coalescer and L1.
    Simt,
    /// The leader warp programs the cluster DMA: the first chunk before the
    /// K loop, then each K step waits for its chunk and prefetches the next
    /// one, so the copy overlaps the step's compute (double buffering).
    Dma,
}

/// What each warp computes on one staged K chunk.
#[derive(Debug, Clone, Copy)]
pub(super) enum Compute {
    /// Four synchronous `wmma`s on register-file fragments.
    Wmma,
    /// Asynchronous `wgmma`s on shared-memory operands, then
    /// `wgmma.wait_group`.
    Wgmma,
}

/// Builds the core-coupled GEMM kernel named `gemm_{style}_{shape}` from its
/// fetch and compute steps, splitting the output-tile space across the
/// configuration's clusters.
///
/// # Panics
///
/// Panics if the shape is not divisible by the 64×128×32 thread-block tile.
pub(super) fn build(
    config: &GpuConfig,
    shape: GemmShape,
    style: &str,
    fetch: Fetch,
    compute: Compute,
) -> Kernel {
    let walk = TileWalk::new(config, shape, (TILE_M, TILE_N, TILE_K));
    let lanes = config.core.lanes;
    let lane_bytes = u64::from(lanes) * 4;
    let total_warps = u64::from(config.cores) * u64::from(config.core.warps);
    let tiles_per_warp = hopper::tiles_per_warp(total_warps);
    // FP32 accumulator words each warp holds: one 8×16 tile, or its
    // 16×16 `wgmma` tiles.
    let c_words = match compute {
        Compute::Wmma => 8 * 16,
        Compute::Wgmma => u64::from(hopper::WGMMA.0 * hopper::WGMMA.1) * tiles_per_warp,
    };

    let dma_tile_loads = |b: &mut ProgramBuilder, base: u64| {
        for (global, smem_base, smem_stride, bytes) in [
            (GLOBAL_A + base, SMEM_A0, SMEM_A_STRIDE, walk.a_bytes),
            (GLOBAL_B + base, SMEM_B0, SMEM_B_STRIDE, walk.b_bytes),
        ] {
            b.op(dma(
                MemLoc::global(AddrExpr::streaming(global, bytes)),
                MemLoc::shared(AddrExpr::double_buffered(smem_base, smem_stride)),
                bytes,
            ));
        }
    };
    let fetch_step = |b: &mut ProgramBuilder, warp_index: u64, base: u64| match fetch {
        Fetch::Simt => {
            let tile_bytes = walk.a_bytes + walk.b_bytes;
            let copy_bytes_per_warp = tile_bytes / total_warps;
            let offset = |i: u64| copy_bytes_per_warp * warp_index + i * lane_bytes;
            let copies = copy_bytes_per_warp / lane_bytes;
            for i in 0..copies {
                b.op(ADDR);
                b.op(WarpOp::LoadGlobal {
                    access: LaneAccess::contiguous_words(
                        AddrExpr::streaming(GLOBAL_A + base + offset(i), tile_bytes),
                        lanes,
                    ),
                });
            }
            b.op(WarpOp::WaitLoads);
            for i in 0..copies {
                b.op(WarpOp::StoreShared {
                    access: LaneAccess::contiguous_words(
                        AddrExpr::double_buffered(SMEM_A0 + offset(i) % tile_bytes, SMEM_A_STRIDE),
                        lanes,
                    ),
                });
            }
        }
        Fetch::Dma => {
            if warp_index == 0 {
                b.op(WarpOp::FenceAsync { max_outstanding: 0 });
                dma_tile_loads(b, base);
            }
        }
    };
    let compute_step = |b: &mut ProgramBuilder, warp_index: u64| match compute {
        Compute::Wmma => wmma_step(b, warp_index, lanes),
        Compute::Wgmma => hopper::wgmma_step(b, warp_index, tiles_per_warp, config.dtype),
    };

    let program = |warp_index: u64, cluster_tiles: u64, base: u64| {
        let mut p = ProgramBuilder::new();
        p.repeat(cluster_tiles, |b| {
            // The DMA leader stages the first K chunk before the pipelined
            // loop.
            if matches!(fetch, Fetch::Dma) && warp_index == 0 {
                dma_tile_loads(b, base);
            }
            b.repeat(walk.kt, |b| {
                fetch_step(b, warp_index, base);
                b.op(WarpOp::Barrier { id: 0 });
                compute_step(b, warp_index);
                b.op(WarpOp::Barrier { id: 1 });
            });
            // Epilogue: write the warp's FP32 accumulator tile.
            for s in 0..c_words / u64::from(lanes) {
                b.op(ADDR);
                b.op(WarpOp::StoreGlobal {
                    access: LaneAccess::contiguous_words(
                        AddrExpr::streaming(
                            GLOBAL_C + base + warp_index * c_words * 4 + s * lane_bytes,
                            walk.c_bytes,
                        ),
                        lanes,
                    ),
                });
            }
            b.op(WarpOp::Barrier { id: 1 });
        });
        Arc::new(p.build())
    };

    let program = &program;
    walk.kernel(style, "", |_, cluster_tiles, base| {
        move |warp_index| program(warp_index, cluster_tiles, base)
    })
}

/// Emits one warp's `wmma` work on a K chunk: its 8×16 output tile over
/// k=32 needs (8/8)·(16/8)·(32/16) = 4 `wmma`s, and the two that share a
/// k-chunk share one A fragment (register blocking across N).
fn wmma_step(b: &mut ProgramBuilder, warp_index: u64, lanes: u32) {
    let frag_loads = 8u32; // an 8×16 fp16 fragment = 256 B = 8 lane-wide loads
    let hmma_steps = (WMMA.0 * WMMA.1 * WMMA.2) / 64;
    for wmma in 0..4u32 {
        let loads_a = wmma % 2 == 0;
        let loads = if loads_a { 2 * frag_loads } else { frag_loads };
        for l in 0..loads {
            b.op(ADDR);
            let base = if loads_a && l < frag_loads {
                SMEM_A0 + (warp_index % 8) * 512
            } else {
                SMEM_B0 + (warp_index / 8) * 512
            };
            b.op(WarpOp::LoadShared {
                access: LaneAccess::contiguous_words(
                    AddrExpr::double_buffered(
                        base + u64::from(l) * u64::from(lanes) * 4,
                        SMEM_A_STRIDE,
                    ),
                    lanes,
                ),
            });
        }
        b.op(WarpOp::WaitLoads);
        b.op_n(
            hmma_steps,
            WarpOp::HmmaStep {
                macs: 64,
                rf_reads: 4,
                rf_writes: 2,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build_gemm;

    #[test]
    fn volta_kernel_moves_data_with_simt_instructions() {
        let kernel = build_gemm(&GpuConfig::volta_style(), GemmShape::square(256));
        let program = &kernel.warps[5].program;
        let mut cursor = program.cursor();
        let (mut global_loads, mut hmma, mut dma) = (0u64, 0u64, 0u64);
        while let Some(op) = cursor.next_op() {
            match op {
                WarpOp::LoadGlobal { .. } => global_loads += 1,
                WarpOp::HmmaStep { .. } => hmma += 1,
                WarpOp::MmioWrite { .. } => dma += 1,
                _ => {}
            }
        }
        assert!(global_loads > 0, "Volta-style copies with SIMT loads");
        assert!(hmma > 0);
        assert_eq!(dma, 0, "Volta-style has no DMA");
    }

    #[test]
    fn ampere_kernel_uses_dma_instead_of_simt_copies() {
        let kernel = build_gemm(&GpuConfig::ampere_style(), GemmShape::square(256));
        let leader = &kernel.warps[0].program;
        let follower = &kernel.warps[1].program;
        let count = |program: &Arc<virgo_isa::Program>, pred: fn(&WarpOp) -> bool| {
            let mut cursor = program.cursor();
            let mut n = 0u64;
            while let Some(op) = cursor.next_op() {
                if pred(&op) {
                    n += 1;
                }
            }
            n
        };
        assert!(count(leader, |op| matches!(op, WarpOp::MmioWrite { .. })) > 0);
        assert_eq!(
            count(follower, |op| matches!(op, WarpOp::LoadGlobal { .. })),
            0,
            "followers do not copy operand tiles in the Ampere-style kernel"
        );
        assert!(count(follower, |op| matches!(op, WarpOp::HmmaStep { .. })) > 0);
    }

    #[test]
    fn hmma_macs_cover_the_whole_problem() {
        let shape = GemmShape::square(256);
        let kernel = build_gemm(&GpuConfig::volta_style(), shape);
        let mut total_macs = 0u64;
        for warp in &kernel.warps {
            let mut cursor = warp.program.cursor();
            while let Some(op) = cursor.next_op() {
                if let WarpOp::HmmaStep { macs, .. } = op {
                    total_macs += u64::from(macs);
                }
            }
        }
        assert_eq!(total_macs, shape.mac_ops());
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn indivisible_shape_is_rejected() {
        let _ = build_gemm(
            &GpuConfig::volta_style(),
            GemmShape {
                m: 100,
                n: 128,
                k: 32,
            },
        );
    }
}
