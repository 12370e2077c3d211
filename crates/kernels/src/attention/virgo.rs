//! FlashAttention-3 mapped to Virgo (Listing 1 of the paper).

use std::sync::Arc;

use virgo::GpuConfig;
use virgo_isa::{
    AddrExpr, DeviceId, Kernel, KernelInfo, LaneAccess, MemLoc, Program, ProgramBuilder, WarpOp,
};

use crate::workload::AttentionShape;
use crate::{cluster_addr_offset, cluster_suffix, dma, matrix_compute, place_warps};

use super::{BLOCK, SOFTMAX_FLOPS_PER_ELEM};

/// Global-memory bases for the Q, K, V and O matrices.
pub(super) const GLOBAL_Q: u64 = 0x4000_0000;
pub(super) const GLOBAL_K: u64 = 0x5000_0000;
pub(super) const GLOBAL_V: u64 = 0x6000_0000;
pub(super) const GLOBAL_O: u64 = 0x7000_0000;

/// Shared-memory layout (FP32 64×64 tiles are 16 KiB each): Q, double
/// buffered K and V, double buffered S/P score tiles, and the O staging tile.
pub(super) const SMEM_Q: u64 = 0x0;
pub(super) const SMEM_K0: u64 = 0x4000;
pub(super) const SMEM_KV_STRIDE: u64 = 0x4000;
pub(super) const SMEM_V0: u64 = 0xC000;
pub(super) const SMEM_S0: u64 = 0x1_4000;
pub(super) const SMEM_S_STRIDE: u64 = 0x4000;
const SMEM_O: u64 = 0x1_C000;

/// Accumulator-memory layout: the S score tile and the O output accumulator.
pub(super) const ACC_S: u64 = 0;
pub(super) const ACC_O: u64 = 16 * 1024;

/// Asserts that the sequence length and head dimension tile by the 64-element
/// block.
pub(super) fn assert_tileable(shape: AttentionShape) {
    assert!(
        shape.seq_len.is_multiple_of(BLOCK) && shape.head_dim.is_multiple_of(BLOCK),
        "attention shape {shape} not tileable by {BLOCK}"
    );
}

/// Builds one online-softmax warp of the Virgo mappings, `warp_index` of
/// its cluster. For each of the `rows × col_blocks` block iterations it
/// waits at barrier 0 for the orchestrator's score tile, runs the online
/// softmax over its slice of S (running row max, 2nd-order Taylor
/// exponential, running sum), rescales its slice of the O staging tile by
/// the updated row statistics and releases the orchestrator at barrier 1;
/// barrier 2 closes each row block. The S slice alternates between the two
/// score buffers per execution, i.e. per column block.
pub(super) fn softmax_warp(
    config: &GpuConfig,
    warp_index: u64,
    rows: u64,
    col_blocks: u64,
) -> Arc<Program> {
    let lanes = config.core.lanes;
    let total_warps = u64::from(config.cores) * u64::from(config.core.warps);
    let elems_per_warp = u64::from(BLOCK) * u64::from(BLOCK) / total_warps;
    let vector_iters = (elems_per_warp / u64::from(lanes)).max(1);
    let offset = |i: u64| warp_index * elems_per_warp * 4 + i * u64::from(lanes) * 4;
    let words = |addr: AddrExpr| LaneAccess::contiguous_words(addr, lanes);
    let mut p = ProgramBuilder::new();
    p.repeat(rows, |b| {
        b.repeat(col_blocks, |b| {
            b.op(WarpOp::Barrier { id: 0 });
            for i in 0..vector_iters {
                let s = AddrExpr::double_buffered(SMEM_S0 + offset(i), SMEM_S_STRIDE);
                b.op(WarpOp::LoadShared { access: words(s) });
                b.op(WarpOp::WaitLoads);
                b.op_n(
                    SOFTMAX_FLOPS_PER_ELEM,
                    WarpOp::Fpu {
                        rf_reads: 2,
                        rf_writes: 1,
                        flops_per_lane: 1,
                    },
                );
                b.op(WarpOp::StoreShared { access: words(s) });
            }
            for i in 0..vector_iters {
                let o = AddrExpr::fixed(SMEM_O + offset(i));
                b.op(WarpOp::LoadShared { access: words(o) });
                b.op(WarpOp::WaitLoads);
                b.op(WarpOp::Fpu {
                    rf_reads: 2,
                    rf_writes: 1,
                    flops_per_lane: 2,
                });
                b.op(WarpOp::StoreShared { access: words(o) });
            }
            b.op(WarpOp::Barrier { id: 1 });
        });
        b.op(WarpOp::Barrier { id: 2 });
    });
    Arc::new(p.build())
}

/// Builds the Virgo FlashAttention-3 forward kernel, splitting the row
/// blocks of the attention grid across the configuration's clusters.
///
/// # Panics
///
/// Panics if the sequence length or head dimension is not a multiple of the
/// 64-element block.
pub fn build(config: &GpuConfig, shape: AttentionShape) -> Kernel {
    assert_tileable(shape);
    let dtype = config.dtype;
    let elem = u64::from(dtype.bytes());

    let row_blocks = u64::from(shape.seq_len / BLOCK) * u64::from(shape.heads * shape.batch);
    let col_blocks = u64::from(shape.seq_len / BLOCK);
    let clusters = config.active_clusters();
    let partition = config.partition(row_blocks);
    let tile_bytes = u64::from(BLOCK) * u64::from(shape.head_dim) * elem;
    let score_bytes = u64::from(BLOCK) * u64::from(BLOCK) * 4;
    let k_buf = AddrExpr::double_buffered(SMEM_K0, SMEM_KV_STRIDE);
    let v_buf = AddrExpr::double_buffered(SMEM_V0, SMEM_KV_STRIDE);
    let s_buf = AddrExpr::double_buffered(SMEM_S0, SMEM_S_STRIDE);
    let compute = |a, b, acc_addr, accumulate| {
        matrix_compute(
            DeviceId::MATRIX0,
            a,
            b,
            acc_addr,
            (BLOCK, BLOCK, shape.head_dim),
            accumulate,
            dtype,
        )
    };

    let mut warps = Vec::new();
    for cluster in partition.cluster_ids().collect::<Vec<_>>() {
        let cluster_rows = partition.count(cluster);
        let gbase = cluster_addr_offset(cluster);
        let stream = |base: u64| MemLoc::global(AddrExpr::streaming(base + gbase, tile_bytes));

        // ---- Orchestrator warp (core 0, warp 0) --------------------------------
        let mut orch = ProgramBuilder::new();
        orch.repeat(cluster_rows, |b| {
            // Load the Q row block and the first K/V column blocks.
            b.op(dma(
                stream(GLOBAL_Q),
                MemLoc::shared(AddrExpr::fixed(SMEM_Q)),
                tile_bytes,
            ));
            b.op(dma(stream(GLOBAL_K), MemLoc::shared(k_buf), tile_bytes));
            b.op(dma(stream(GLOBAL_V), MemLoc::shared(v_buf), tile_bytes));
            b.op(WarpOp::FenceAsync { max_outstanding: 0 });

            // Inner loop over K/V column blocks (Listing 1).
            b.repeat(col_blocks, |b| {
                // Block until all of the previous iteration's asynchronous
                // operations have completed, then synchronize the cluster.
                b.op(WarpOp::FenceAsync { max_outstanding: 0 });
                b.op(WarpOp::Barrier { id: 0 });
                // GEMM-2: O += P·V (previous iteration's probability tile).
                b.op(compute(s_buf, v_buf, ACC_O, true));
                // GEMM-1: S = Q·Kᵀ for this iteration.
                b.op(compute(AddrExpr::fixed(SMEM_Q), k_buf, ACC_S, false));
                // Prefetch the next K and V column blocks.
                b.op(dma(stream(GLOBAL_K), MemLoc::shared(k_buf), tile_bytes));
                b.op(dma(stream(GLOBAL_V), MemLoc::shared(v_buf), tile_bytes));
                // Wait for GEMM-1 (all but the two most recent DMAs), then drain
                // the fresh score tile into shared memory for the softmax warps.
                b.op(WarpOp::FenceAsync { max_outstanding: 2 });
                b.op(dma(
                    MemLoc::accumulator(AddrExpr::fixed(ACC_S)),
                    MemLoc::shared(s_buf),
                    score_bytes,
                ));
                b.op(WarpOp::Barrier { id: 1 });
            });

            // Epilogue: write the accumulated O row block to global memory.
            b.op(WarpOp::FenceAsync { max_outstanding: 0 });
            b.op(dma(
                MemLoc::accumulator(AddrExpr::fixed(ACC_O)),
                stream(GLOBAL_O),
                tile_bytes,
            ));
            b.op(WarpOp::FenceAsync { max_outstanding: 0 });
            b.op(WarpOp::Barrier { id: 2 });
        });
        let orchestrator = Arc::new(orch.build());

        // ---- Softmax warps ------------------------------------------------------
        place_warps(&mut warps, config, cluster, |warp_index| {
            if warp_index == 0 {
                Arc::clone(&orchestrator)
            } else {
                softmax_warp(config, warp_index, cluster_rows, col_blocks)
            }
        });
    }

    Kernel::new(
        KernelInfo::new(
            format!("flash_attention_virgo_{shape}{}", cluster_suffix(clusters)),
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
    fn matrix_commands_cover_both_gemms() {
        let shape = AttentionShape::paper_default();
        let kernel = build(&GpuConfig::virgo().to_fp32(), shape);
        let mut macs = 0u64;
        let mut cursor = kernel.warps[0].program.cursor();
        while let Some(op) = cursor.next_op() {
            if let WarpOp::MmioWrite {
                device: DeviceId::MatrixUnit(_),
                cmd,
            } = op
            {
                if let Some(c) = cmd.as_matrix_compute() {
                    macs += c.mac_ops();
                }
            }
        }
        assert_eq!(macs, shape.gemm_mac_ops());
    }

    #[test]
    fn softmax_warps_do_fpu_work() {
        let kernel = build(
            &GpuConfig::virgo().to_fp32(),
            AttentionShape::paper_default(),
        );
        let mut cursor = kernel.warps[10].program.cursor();
        let mut fpu = 0u64;
        while let Some(op) = cursor.next_op() {
            if matches!(op, WarpOp::Fpu { .. }) {
                fpu += 1;
            }
        }
        assert!(fpu > 0);
    }
}
