//! GEMM kernels for the tightly-coupled (Volta-style / Ampere-style) tensor
//! cores (Section 5.1.1 / 5.1.2).
//!
//! The mapping follows the classic register-file-resident warp tiling:
//!
//! * thread-block tile 64×128, K-chunk 32, double-buffered in shared memory,
//! * each of the 64 warps owns an 8×16 accumulator tile in its register file
//!   (the 1 KiB per-warp register budget of Section 5.1.1 — two 8×16 FP16
//!   operand fragments plus an 8×8 FP32 accumulator per `wmma`),
//! * each `wmma` of shape (8,8,16) executes as 16 synchronous `HMMA` steps,
//!   with the operand fragments loaded from shared memory into registers and
//!   one address-generation instruction per fragment load,
//! * in the Volta-style variant the warps themselves copy the operand tiles
//!   from global to shared memory; in the Ampere-style variant the cluster
//!   DMA performs the copy asynchronously (Asynchronous Data Copy).

use std::sync::Arc;

use virgo::GpuConfig;
use virgo_isa::{AddrExpr, Kernel, KernelInfo, LaneAccess, MemLoc, ProgramBuilder, WarpOp};

use crate::workload::GemmShape;

use super::{GLOBAL_A, GLOBAL_B, GLOBAL_C};

use crate::{cluster_addr_offset, cluster_suffix, dma, place_warps};

/// Thread-block tile M dimension.
pub const TILE_M: u32 = 64;
/// Thread-block tile N dimension.
pub const TILE_N: u32 = 128;
/// Thread-block K chunk.
pub const TILE_K: u32 = 32;
/// `wmma` instruction tile (Section 5.1.1).
pub const WMMA: (u32, u32, u32) = (8, 8, 16);

/// Shared-memory layout: double-buffered A and B tiles (shared with the
/// Hopper-style kernel, which uses the same thread-block tile).
pub(super) const SMEM_A0: u64 = 0x0;
pub(super) const SMEM_A_STRIDE: u64 = 0x1000; // 4 KiB per A buffer (64×32 fp16)
pub(super) const SMEM_B0: u64 = 0x8000;
pub(super) const SMEM_B_STRIDE: u64 = 0x2000; // 8 KiB per B buffer (32×128 fp16)

/// Emits the leader's DMA copies of one K chunk's A and B tiles from the
/// cluster's global-memory partition at `base` into the next pair of
/// double buffers.
pub(super) fn dma_tile_loads(b: &mut ProgramBuilder, base: u64, a_bytes: u64, b_bytes: u64) {
    for (global, smem_base, smem_stride, bytes) in [
        (GLOBAL_A + base, SMEM_A0, SMEM_A_STRIDE, a_bytes),
        (GLOBAL_B + base, SMEM_B0, SMEM_B_STRIDE, b_bytes),
    ] {
        b.op(dma(
            MemLoc::global(AddrExpr::streaming(global, bytes)),
            MemLoc::shared(AddrExpr::double_buffered(smem_base, smem_stride)),
            bytes,
        ));
    }
}

/// Builds the Volta-style (`use_dma == false`) or Ampere-style
/// (`use_dma == true`) GEMM kernel, splitting the output-tile space across
/// the configuration's clusters.
///
/// # Panics
///
/// Panics if the shape is not divisible by the 64×128×32 thread-block tile.
pub fn build(config: &GpuConfig, shape: GemmShape, use_dma: bool) -> Kernel {
    assert!(
        shape.m.is_multiple_of(TILE_M)
            && shape.n.is_multiple_of(TILE_N)
            && shape.k.is_multiple_of(TILE_K),
        "GEMM shape {shape} not divisible by the {TILE_M}x{TILE_N}x{TILE_K} tile"
    );
    let out_tiles = u64::from(shape.m / TILE_M) * u64::from(shape.n / TILE_N);
    let kt = u64::from(shape.k / TILE_K);
    let clusters = config.active_clusters();
    let partition = config.partition(out_tiles);
    let dtype = config.dtype;
    let elem = u64::from(dtype.bytes());
    let lanes = config.core.lanes;
    let total_warps = u64::from(config.cores) * u64::from(config.core.warps);

    let a_tile_bytes = u64::from(TILE_M) * u64::from(TILE_K) * elem;
    let b_tile_bytes = u64::from(TILE_K) * u64::from(TILE_N) * elem;
    let copy_bytes_per_warp = (a_tile_bytes + b_tile_bytes) / total_warps;
    let copy_loads = copy_bytes_per_warp / (u64::from(lanes) * 4);

    // Per warp and K-chunk: an 8×16 output tile over k=32 needs
    // (8/8)·(16/8)·(32/16) = 4 wmma operations, sharing 2 A fragments.
    let wmmas_per_iter = 4u32;
    let a_frag_loads = 8u32; // 8×16 fp16 fragment = 256 B = 8 lane-wide loads
    let b_frag_loads = 8u32;
    let hmma_steps_per_wmma = (WMMA.0 * WMMA.1 * WMMA.2) / 64;
    let hmma_macs = 64u32;

    let build_program = |leader: bool, warp_index: u64, cluster_tiles: u64, base: u64| {
        let mut p = ProgramBuilder::new();
        p.repeat(cluster_tiles, |b| {
            // Ampere-style: the leader programs the Asynchronous Data Copy
            // for the first K chunk before entering the pipelined loop.
            if use_dma && leader {
                dma_tile_loads(b, base, a_tile_bytes, b_tile_bytes);
            }
            b.repeat(kt, |b| {
                // ---- Operand delivery: global -> shared -----------------
                if use_dma {
                    if leader {
                        // Wait for the copy of this iteration's operand
                        // tiles, then immediately program the prefetch of the
                        // next K chunk so it overlaps with this iteration's
                        // tensor-core work (double buffering).
                        b.op(WarpOp::FenceAsync { max_outstanding: 0 });
                        dma_tile_loads(b, base, a_tile_bytes, b_tile_bytes);
                    }
                } else {
                    // Each warp copies its slice of the A and B tiles with
                    // plain loads and stores through the coalescer and L1.
                    let slice = copy_bytes_per_warp * warp_index;
                    for i in 0..copy_loads {
                        let offset = slice + i * u64::from(lanes) * 4;
                        b.op(WarpOp::Alu {
                            rf_reads: 2,
                            rf_writes: 1,
                        });
                        b.op(WarpOp::LoadGlobal {
                            access: LaneAccess::contiguous_words(
                                AddrExpr::streaming(
                                    GLOBAL_A + base + offset,
                                    a_tile_bytes + b_tile_bytes,
                                ),
                                lanes,
                            ),
                        });
                    }
                    b.op(WarpOp::WaitLoads);
                    for i in 0..copy_loads {
                        let offset =
                            (slice + i * u64::from(lanes) * 4) % (a_tile_bytes + b_tile_bytes);
                        b.op(WarpOp::StoreShared {
                            access: LaneAccess::contiguous_words(
                                AddrExpr::double_buffered(SMEM_A0 + offset, SMEM_A_STRIDE),
                                lanes,
                            ),
                        });
                    }
                }
                b.op(WarpOp::Barrier { id: 0 });

                // ---- Warp-tile compute: 4 wmma, 2 shared A fragments -----
                for wmma in 0..wmmas_per_iter {
                    // A fragment is reused by the two wmmas that share the
                    // same k-chunk (register blocking across N).
                    let loads = if wmma % 2 == 0 {
                        a_frag_loads + b_frag_loads
                    } else {
                        b_frag_loads
                    };
                    for l in 0..loads {
                        b.op(WarpOp::Alu {
                            rf_reads: 2,
                            rf_writes: 1,
                        });
                        let base = if l < a_frag_loads && wmma % 2 == 0 {
                            SMEM_A0 + u64::from(warp_index as u32 % 8) * 512
                        } else {
                            SMEM_B0 + u64::from(warp_index as u32 / 8) * 512
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
                        hmma_steps_per_wmma,
                        WarpOp::HmmaStep {
                            macs: hmma_macs,
                            rf_reads: 4,
                            rf_writes: 2,
                        },
                    );
                }
                b.op(WarpOp::Barrier { id: 1 });
            });

            // ---- Epilogue: write the warp's 8×16 FP32 accumulator tile ---
            let c_words = 8 * 16;
            let c_stores = c_words / lanes;
            for s in 0..c_stores {
                b.op(WarpOp::Alu {
                    rf_reads: 2,
                    rf_writes: 1,
                });
                b.op(WarpOp::StoreGlobal {
                    access: LaneAccess::contiguous_words(
                        AddrExpr::streaming(
                            GLOBAL_C
                                + base
                                + warp_index * u64::from(c_words) * 4
                                + u64::from(s * lanes * 4),
                            u64::from(TILE_M) * u64::from(TILE_N) * 4,
                        ),
                        lanes,
                    ),
                });
            }
            b.op(WarpOp::Barrier { id: 1 });
        });
        Arc::new(p.build())
    };

    let mut warps = Vec::new();
    for cluster in partition.cluster_ids().collect::<Vec<_>>() {
        let cluster_tiles = partition.count(cluster);
        let base = cluster_addr_offset(cluster);
        place_warps(&mut warps, config, cluster, |warp_index| {
            build_program(warp_index == 0, warp_index, cluster_tiles, base)
        });
    }

    let style = if use_dma { "ampere" } else { "volta" };
    Kernel::new(
        KernelInfo::new(
            format!("gemm_{style}_{shape}{}", cluster_suffix(clusters)),
            shape.mac_ops(),
            dtype,
        ),
        warps,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn volta_kernel_moves_data_with_simt_instructions() {
        let kernel = build(&GpuConfig::volta_style(), GemmShape::square(256), false);
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
        let kernel = build(&GpuConfig::ampere_style(), GemmShape::square(256), true);
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
        let kernel = build(&GpuConfig::volta_style(), shape, false);
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
        let _ = build(
            &GpuConfig::volta_style(),
            GemmShape {
                m: 100,
                n: 128,
                k: 32,
            },
            false,
        );
    }
}
