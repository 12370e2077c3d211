//! FlashAttention-3 mapped to the Ampere-style baseline with warp
//! specialization and ping-pong scheduling (Section 6.2).

use std::sync::Arc;

use virgo::GpuConfig;
use virgo_isa::{AddrExpr, Kernel, KernelInfo, LaneAccess, MemLoc, ProgramBuilder, WarpOp};

use crate::workload::AttentionShape;
use crate::{dma, place_warps};

use super::{BLOCK, SOFTMAX_FLOPS_PER_ELEM};

const GLOBAL_K: u64 = 0x5000_0000;
const GLOBAL_V: u64 = 0x6000_0000;
const GLOBAL_O: u64 = 0x7000_0000;

/// Shared-memory layout: Q, double-buffered K/V and the score tile.
const SMEM_Q: u64 = 0x0;
const SMEM_K0: u64 = 0x4000;
const SMEM_KV_STRIDE: u64 = 0x4000;
const SMEM_V0: u64 = 0xC000;
const SMEM_S0: u64 = 0x1_4000;
const SMEM_S_STRIDE: u64 = 0x4000;

/// Builds the Ampere-style FlashAttention-3 forward kernel, splitting the
/// row blocks of the attention grid across the configuration's clusters.
///
/// The 8 warps of each core split into two groups of 4 (warp specialization):
/// in each inner iteration one group drives the tightly-coupled tensor core
/// through synchronous `HMMA` steps for the two GEMMs while the other group
/// computes the softmax of the previous score tile; the groups swap roles
/// every iteration (ping-pong scheduling). Matrix and softmax instructions
/// therefore compete for the same issue slots and register file ports, which
/// is precisely the contention Virgo's disaggregation removes.
///
/// # Panics
///
/// Panics if the shape is not tileable by the 64-element block.
pub fn build(config: &GpuConfig, shape: AttentionShape) -> Kernel {
    assert!(
        shape.seq_len.is_multiple_of(BLOCK) && shape.head_dim.is_multiple_of(BLOCK),
        "attention shape {shape} not tileable by {BLOCK}"
    );
    let dtype = config.dtype;
    let elem = u64::from(dtype.bytes());
    let lanes = config.core.lanes;
    let cores = u64::from(config.cores);
    let warps_per_core = u64::from(config.core.warps);

    let row_blocks = u64::from(shape.seq_len / BLOCK) * u64::from(shape.heads * shape.batch);
    let col_blocks = u64::from(shape.seq_len / BLOCK);
    let clusters = config.active_clusters();
    let partition = config.partition(row_blocks);
    let tile_bytes = u64::from(BLOCK) * u64::from(shape.head_dim) * elem;

    // Per inner iteration the cluster performs 2·64·64·64 MACs. With the
    // ping-pong schedule each warp spends half its iterations in the GEMM
    // role and half in the softmax role; averaged over two iterations this is
    // equivalent to every warp carrying 1/(cores·warps) of both the matrix
    // and the softmax work each iteration, which is how the per-warp slices
    // are sized here.
    let cluster_macs_per_iter = 2 * u64::from(BLOCK) * u64::from(BLOCK) * u64::from(shape.head_dim);
    let macs_per_warp_iter = cluster_macs_per_iter / (cores * warps_per_core);
    let macs_per_step = u64::from(config.tightly.macs_per_cycle) * 2;
    let steps_per_warp_iter = (macs_per_warp_iter / macs_per_step) as u32;
    // Operand fragments loaded from shared memory into registers: one lane
    // load plus an address-generation instruction per 64 MACs of HMMA work.
    let loads_per_warp_iter = (macs_per_warp_iter / 64) as u32;

    // Softmax work per warp per iteration: the 64×64 score tile divided over
    // every warp of the cluster.
    let softmax_elems = u64::from(BLOCK) * u64::from(BLOCK);
    let softmax_warps = cores * warps_per_core;
    let vector_iters = (softmax_elems / softmax_warps / u64::from(lanes)).max(1);

    let build_program = |leader: bool, warp_index: u64, cluster_rows: u64, gbase: u64| {
        let mut p = ProgramBuilder::new();
        p.repeat(cluster_rows, |b| {
            b.repeat(col_blocks, |b| {
                if leader {
                    // The leader warp programs the DMA for the next K/V tiles
                    // (Asynchronous Data Copy) and fences before the barrier.
                    for (global, smem) in [(GLOBAL_K, SMEM_K0), (GLOBAL_V, SMEM_V0)] {
                        b.op(dma(
                            MemLoc::global(AddrExpr::streaming(global + gbase, tile_bytes)),
                            MemLoc::shared(AddrExpr::double_buffered(smem, SMEM_KV_STRIDE)),
                            tile_bytes,
                        ));
                    }
                    b.op(WarpOp::FenceAsync { max_outstanding: 0 });
                }
                b.op(WarpOp::Barrier { id: 0 });

                // ---- GEMM phase (this warp's ping-pong slot) --------------
                for l in 0..loads_per_warp_iter {
                    b.op(WarpOp::Alu {
                        rf_reads: 2,
                        rf_writes: 1,
                    });
                    b.op(WarpOp::LoadShared {
                        access: LaneAccess::contiguous_words(
                            AddrExpr::double_buffered(
                                SMEM_Q
                                    + (warp_index * 2048 + u64::from(l) * u64::from(lanes) * 4)
                                        % 0x4000,
                                SMEM_KV_STRIDE,
                            ),
                            lanes,
                        ),
                    });
                    if l % 4 == 3 {
                        b.op(WarpOp::WaitLoads);
                        b.op_n(
                            steps_per_warp_iter / (loads_per_warp_iter / 4).max(1),
                            WarpOp::HmmaStep {
                                macs: macs_per_step as u32,
                                rf_reads: 4,
                                rf_writes: 2,
                            },
                        );
                    }
                }

                // ---- Softmax phase (the other ping-pong slot) -------------
                for i in 0..vector_iters {
                    let offset = (warp_index * vector_iters + i) * u64::from(lanes) * 4;
                    b.op(WarpOp::LoadShared {
                        access: LaneAccess::contiguous_words(
                            AddrExpr::double_buffered(SMEM_S0 + offset % 0x4000, SMEM_S_STRIDE),
                            lanes,
                        ),
                    });
                    b.op(WarpOp::WaitLoads);
                    b.op_n(
                        SOFTMAX_FLOPS_PER_ELEM,
                        WarpOp::Fpu {
                            rf_reads: 2,
                            rf_writes: 1,
                            flops_per_lane: 1,
                        },
                    );
                    b.op(WarpOp::StoreShared {
                        access: LaneAccess::contiguous_words(
                            AddrExpr::double_buffered(SMEM_S0 + offset % 0x4000, SMEM_S_STRIDE),
                            lanes,
                        ),
                    });
                }
                b.op(WarpOp::Barrier { id: 1 });
            });

            // Epilogue: write the output row block from registers to global
            // memory, spread across the warps.
            let o_words = u64::from(BLOCK) * u64::from(shape.head_dim) / (cores * warps_per_core);
            let o_stores = (o_words / u64::from(lanes)).max(1);
            b.repeat(o_stores, |b| {
                b.op(WarpOp::Alu {
                    rf_reads: 2,
                    rf_writes: 1,
                });
                b.op(WarpOp::StoreGlobal {
                    access: LaneAccess::contiguous_words(
                        AddrExpr::streaming(
                            GLOBAL_O + gbase + warp_index * o_words * 4,
                            tile_bytes,
                        ),
                        lanes,
                    ),
                });
            });
            b.op(WarpOp::Barrier { id: 2 });
        });
        Arc::new(p.build())
    };

    let mut warps = Vec::new();
    for cluster in partition.cluster_ids().collect::<Vec<_>>() {
        let cluster_rows = partition.count(cluster);
        let gbase = crate::cluster_addr_offset(cluster);
        place_warps(&mut warps, config, cluster, |warp_index| {
            build_program(warp_index == 0, warp_index, cluster_rows, gbase)
        });
    }

    Kernel::new(
        KernelInfo::new(
            format!(
                "flash_attention_ampere_{shape}{}",
                crate::cluster_suffix(clusters)
            ),
            shape.gemm_mac_ops(),
            dtype,
        ),
        warps,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hmma_macs_cover_both_gemms() {
        let config = GpuConfig::ampere_style().to_fp32();
        let shape = AttentionShape::paper_default();
        let kernel = build(&config, shape);
        let mut macs = 0u64;
        for warp in &kernel.warps {
            let mut cursor = warp.program.cursor();
            while let Some(op) = cursor.next_op() {
                if let WarpOp::HmmaStep { macs: m, .. } = op {
                    macs += u64::from(m);
                }
            }
        }
        // Work is spread over half the warps each iteration; the total must
        // cover both GEMMs of every iteration within rounding of the step
        // granularity.
        let expected = shape.gemm_mac_ops();
        let ratio = macs as f64 / expected as f64;
        assert!(
            (0.9..=1.1).contains(&ratio),
            "macs {macs} vs expected {expected}"
        );
    }

    #[test]
    fn every_warp_mixes_matrix_and_softmax_work() {
        let config = GpuConfig::ampere_style().to_fp32();
        let kernel = build(&config, AttentionShape::paper_default());
        let mut cursor = kernel.warps[3].program.cursor();
        let (mut hmma, mut fpu) = (0u64, 0u64);
        while let Some(op) = cursor.next_op() {
            match op {
                WarpOp::HmmaStep { .. } => hmma += 1,
                WarpOp::Fpu { .. } => fpu += 1,
                _ => {}
            }
        }
        assert!(hmma > 0 && fpu > 0);
    }
}
