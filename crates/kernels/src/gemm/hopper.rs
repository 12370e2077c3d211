//! The Hopper-style GEMM kernel: asynchronous `wgmma` operations with
//! operands in shared memory (Section 5.1.3).

use std::sync::Arc;

use virgo::GpuConfig;
use virgo_isa::{AddrExpr, Kernel, KernelInfo, LaneAccess, ProgramBuilder, WarpOp, WgmmaOp};

use crate::workload::GemmShape;

use super::coupled::{dma_tile_loads, SMEM_A0, SMEM_A_STRIDE, SMEM_B0, SMEM_B_STRIDE};
use super::GLOBAL_C;

use crate::{cluster_addr_offset, cluster_suffix, place_warps};

/// Thread-block tile M dimension.
pub const TILE_M: u32 = 64;
/// Thread-block tile N dimension.
pub const TILE_N: u32 = 128;
/// Thread-block K chunk.
pub const TILE_K: u32 = 32;
/// Per-warp `wgmma` tile (Section 5.1.3: the 1 KiB register budget holds a
/// single 16×16 FP32 accumulator; the K extent is 32).
pub const WGMMA: (u32, u32, u32) = (16, 16, 32);

/// Builds the Hopper-style GEMM kernel, splitting the output-tile space
/// across the configuration's clusters.
///
/// The cluster DMA stages the operand tiles into shared memory; each warp
/// then initiates one asynchronous `wgmma` per K chunk, letting the unit's
/// access frontend stream the operands while the warp waits on
/// `wgmma.wait_group` before the next iteration.
///
/// # Panics
///
/// Panics if the shape is not divisible by the 64×128×32 thread-block tile.
pub fn build(config: &GpuConfig, shape: GemmShape) -> Kernel {
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

    let a_tile_bytes = u64::from(TILE_M) * u64::from(TILE_K) * elem;
    let b_tile_bytes = u64::from(TILE_K) * u64::from(TILE_N) * elem;

    let total_warps = u64::from(config.cores) * u64::from(config.core.warps);
    // 64×128 outputs over 16×16 warp tiles = 32 warp tiles, exactly one per
    // warp in the 4-core Hopper-style cluster.
    let warp_tiles = u64::from(TILE_M / WGMMA.0) * u64::from(TILE_N / WGMMA.1);
    let tiles_per_warp = warp_tiles.div_ceil(total_warps).max(1);

    let build_program = |leader: bool, warp_index: u64, cluster_tiles: u64, base: u64| {
        let mut p = ProgramBuilder::new();
        p.repeat(cluster_tiles, |b| {
            // The leader stages the first K chunk before the pipelined loop.
            if leader {
                dma_tile_loads(b, base, a_tile_bytes, b_tile_bytes);
            }
            b.repeat(kt, |b| {
                if leader {
                    // Wait for this iteration's operands, then prefetch the
                    // next chunk so the TMA-style copy overlaps with the
                    // wgmma work of this iteration.
                    b.op(WarpOp::FenceAsync { max_outstanding: 0 });
                    dma_tile_loads(b, base, a_tile_bytes, b_tile_bytes);
                }
                b.op(WarpOp::Barrier { id: 0 });

                // Each warp initiates its asynchronous wgmma operation(s) on
                // its slice of the shared-memory tiles, then waits for the
                // group to drain before reusing the buffer.
                b.repeat(tiles_per_warp, |b| {
                    b.op(WarpOp::Alu {
                        rf_reads: 2,
                        rf_writes: 1,
                    });
                    b.op(WarpOp::Alu {
                        rf_reads: 2,
                        rf_writes: 1,
                    });
                    let a_slice = SMEM_A0
                        + (warp_index % u64::from(TILE_M / WGMMA.0))
                            * u64::from(WGMMA.0 * TILE_K)
                            * elem;
                    let b_slice = SMEM_B0
                        + (warp_index / u64::from(TILE_M / WGMMA.0))
                            * u64::from(WGMMA.1 * TILE_K)
                            * elem;
                    b.op(WarpOp::WgmmaInit(WgmmaOp {
                        a: AddrExpr::double_buffered(a_slice, SMEM_A_STRIDE),
                        b: AddrExpr::double_buffered(b_slice, SMEM_B_STRIDE),
                        m: WGMMA.0,
                        n: WGMMA.1,
                        k: WGMMA.2,
                        dtype,
                    }));
                });
                b.op(WarpOp::WgmmaWait);
                b.op(WarpOp::Barrier { id: 1 });
            });

            // Epilogue: each warp writes its 16×16 FP32 accumulator tile from
            // the register file to global memory.
            let c_words = u64::from(WGMMA.0) * u64::from(WGMMA.1) * tiles_per_warp;
            let c_stores = (c_words / u64::from(lanes)) as u32;
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
                                + warp_index * c_words * 4
                                + u64::from(s) * u64::from(lanes) * 4,
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

    Kernel::new(
        KernelInfo::new(
            format!("gemm_hopper_{shape}{}", cluster_suffix(clusters)),
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
    fn wgmma_macs_cover_the_whole_problem() {
        let shape = GemmShape::square(256);
        let config = GpuConfig::hopper_style();
        let kernel = build(&config, shape);
        let mut total = 0u64;
        for warp in &kernel.warps {
            let mut cursor = warp.program.cursor();
            while let Some(op) = cursor.next_op() {
                if let WarpOp::WgmmaInit(op) = op {
                    total += op.mac_ops();
                }
            }
        }
        assert_eq!(total, shape.mac_ops());
    }

    #[test]
    fn only_the_leader_warp_programs_the_dma() {
        let kernel = build(&GpuConfig::hopper_style(), GemmShape::square(256));
        let has_dma = |i: usize| {
            let mut cursor = kernel.warps[i].program.cursor();
            while let Some(op) = cursor.next_op() {
                if matches!(op, WarpOp::MmioWrite { .. }) {
                    return true;
                }
            }
            false
        };
        assert!(has_dma(0));
        assert!(!has_dma(1));
        assert!(!has_dma(31));
    }

    #[test]
    fn instruction_count_sits_between_virgo_and_volta() {
        let shape = GemmShape::square(256);
        let hopper = build(&GpuConfig::hopper_style(), shape).dynamic_instructions();
        let volta = super::super::coupled::build(&GpuConfig::volta_style(), shape, false)
            .dynamic_instructions();
        let virgo = super::super::virgo::build(&GpuConfig::virgo(), shape).dynamic_instructions();
        assert!(virgo < hopper, "virgo {virgo} < hopper {hopper}");
        assert!(hopper < volta, "hopper {hopper} < volta {volta}");
    }
}
