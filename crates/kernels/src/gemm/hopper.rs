//! The Hopper-style compute step: asynchronous `wgmma` operations with
//! operands in shared memory (Section 5.1.3). The kernel around it is the
//! core-coupled tile body of [`super::coupled`]: the cluster DMA stages the
//! operand tiles into shared memory, and each warp then initiates its
//! `wgmma`s per K chunk, letting the unit's access frontend stream the
//! operands while the warp waits on `wgmma.wait_group` before the next
//! iteration.

use virgo_isa::{AddrExpr, DataType, ProgramBuilder, WarpOp, WgmmaOp};

use super::coupled::{
    ADDR, SMEM_A0, SMEM_A_STRIDE, SMEM_B0, SMEM_B_STRIDE, TILE_K, TILE_M, TILE_N,
};

/// Per-warp `wgmma` tile (Section 5.1.3: the 1 KiB register budget holds a
/// single 16×16 FP32 accumulator; the K extent is 32).
pub const WGMMA: (u32, u32, u32) = (16, 16, 32);

/// `wgmma` tiles each of `total_warps` warps computes per K chunk: 64×128
/// outputs over 16×16 warp tiles = 32 warp tiles, exactly one per warp in
/// the 4-core Hopper-style cluster.
pub(super) fn tiles_per_warp(total_warps: u64) -> u64 {
    let warp_tiles = u64::from(TILE_M / WGMMA.0) * u64::from(TILE_N / WGMMA.1);
    warp_tiles.div_ceil(total_warps).max(1)
}

/// Emits one warp's work on a K chunk: it initiates its asynchronous
/// `wgmma`s on its slice of the shared-memory tiles, then waits for the
/// group to drain before the buffer is reused.
pub(super) fn wgmma_step(
    b: &mut ProgramBuilder,
    warp_index: u64,
    tiles_per_warp: u64,
    dtype: DataType,
) {
    let elem = u64::from(dtype.bytes());
    let rows = u64::from(TILE_M / WGMMA.0);
    let a_slice = SMEM_A0 + (warp_index % rows) * u64::from(WGMMA.0 * TILE_K) * elem;
    let b_slice = SMEM_B0 + (warp_index / rows) * u64::from(WGMMA.1 * TILE_K) * elem;
    b.repeat(tiles_per_warp, |b| {
        b.op(ADDR);
        b.op(ADDR);
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
}

#[cfg(test)]
mod tests {
    use virgo::GpuConfig;

    use super::*;
    use crate::{build_gemm, GemmShape};

    #[test]
    fn wgmma_macs_cover_the_whole_problem() {
        let shape = GemmShape::square(256);
        let kernel = build_gemm(&GpuConfig::hopper_style(), shape);
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
        let kernel = build_gemm(&GpuConfig::hopper_style(), GemmShape::square(256));
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
        let count = |config: GpuConfig| build_gemm(&config, shape).dynamic_instructions();
        let hopper = count(GpuConfig::hopper_style());
        let volta = count(GpuConfig::volta_style());
        let virgo = count(GpuConfig::virgo());
        assert!(virgo < hopper, "virgo {virgo} < hopper {hopper}");
        assert!(hopper < volta, "hopper {hopper} < volta {volta}");
    }
}
