//! The heterogeneous dual-matrix-unit workload of Section 6.3.
//!
//! The configuration instantiates two differently-sized matrix units in one
//! cluster (a 16×16 unit and an 8×8 unit) and maps two different GEMMs onto
//! them: a 256×256×256 problem on the large unit and a 128×128×128 problem on
//! the small unit. The paper compares running the two GEMMs concurrently
//! against running them serially, showing near-identical utilization (59.5%
//! vs 59.7%) and only a 4.3% increase in power per FLOP.

use std::sync::Arc;

use virgo::GpuConfig;
use virgo_isa::{
    AddrExpr, DeviceId, Kernel, KernelInfo, MemLoc, ProgramBuilder, WarpAssignment, WarpOp,
};

use crate::gemm::TileWalk;
use crate::workload::GemmShape;
use crate::{dma, matrix_compute};

/// The GEMM mapped to the large (16×16) unit.
pub const LARGE_GEMM: GemmShape = GemmShape::square(256);
/// The GEMM mapped to the small (8×8) unit.
pub const SMALL_GEMM: GemmShape = GemmShape::square(128);

/// Per-unit orchestration parameters.
#[derive(Debug, Clone, Copy)]
struct UnitPlan {
    device: DeviceId,
    shape: GemmShape,
    tile: (u32, u32, u32),
    smem_a: u64,
    smem_b: u64,
    global_base: u64,
}

/// Builds the orchestrator program that runs one GEMM on one matrix unit.
fn orchestrate(plan: &UnitPlan, config: &GpuConfig) -> Arc<virgo_isa::Program> {
    let walk = TileWalk::new(config, plan.shape, plan.tile);

    let mut p = ProgramBuilder::new();
    p.repeat(walk.out_tiles, |b| {
        b.repeat(walk.kt, |b| {
            for (offset, bytes, smem) in [
                (0u64, walk.a_bytes, plan.smem_a),
                (0x0800_0000, walk.b_bytes, plan.smem_b),
            ] {
                b.op(dma(
                    MemLoc::global(AddrExpr::streaming(plan.global_base + offset, bytes)),
                    MemLoc::shared(AddrExpr::double_buffered(smem, 0x2000)),
                    bytes,
                ));
            }
            b.op(WarpOp::FenceAsync { max_outstanding: 0 });
            b.op(matrix_compute(
                plan.device,
                AddrExpr::double_buffered(plan.smem_a, 0x2000),
                AddrExpr::double_buffered(plan.smem_b, 0x2000),
                0,
                plan.tile,
                true,
                config.dtype,
            ));
        });
        b.op(WarpOp::FenceAsync { max_outstanding: 0 });
        b.op(dma(
            MemLoc::accumulator(AddrExpr::fixed(0)),
            MemLoc::global(AddrExpr::streaming(
                plan.global_base + 0x0F00_0000,
                walk.c_bytes,
            )),
            walk.c_bytes,
        ));
        b.op(WarpOp::FenceAsync { max_outstanding: 0 });
    });
    Arc::new(p.build())
}

fn large_plan() -> UnitPlan {
    UnitPlan {
        device: DeviceId::MatrixUnit(0),
        shape: LARGE_GEMM,
        tile: (128, 64, 128),
        smem_a: 0x0,
        smem_b: 0x8000,
        global_base: 0x1000_0000,
    }
}

fn small_plan() -> UnitPlan {
    UnitPlan {
        device: DeviceId::MatrixUnit(1),
        shape: SMALL_GEMM,
        tile: (64, 64, 64),
        smem_a: 0x1_0000,
        smem_b: 0x1_8000,
        global_base: 0x4000_0000,
    }
}

/// Builds the parallel workload: both GEMMs run concurrently, each driven by
/// its own orchestrator warp on a different core.
///
/// # Panics
///
/// Panics if `config` does not instantiate at least two matrix units.
pub fn build_heterogeneous_parallel(config: &GpuConfig) -> Kernel {
    assert!(
        config.matrix_units.len() >= 2,
        "heterogeneous workload needs two matrix units (use GpuConfig::virgo_heterogeneous)"
    );
    let dtype = config.dtype;
    let warps = vec![
        WarpAssignment::new(0, 0, orchestrate(&large_plan(), config)),
        WarpAssignment::new(1, 0, orchestrate(&small_plan(), config)),
    ];
    Kernel::new(
        KernelInfo::new(
            "hetero_parallel",
            LARGE_GEMM.mac_ops() + SMALL_GEMM.mac_ops(),
            dtype,
        ),
        warps,
    )
}

/// Builds the serial workloads: the two GEMMs as separate kernels, to be run
/// one after the other on the same heterogeneous configuration.
pub fn build_heterogeneous_serial(config: &GpuConfig) -> (Kernel, Kernel) {
    assert!(
        config.matrix_units.len() >= 2,
        "heterogeneous workload needs two matrix units (use GpuConfig::virgo_heterogeneous)"
    );
    let dtype = config.dtype;
    let large = Kernel::new(
        KernelInfo::new("hetero_serial_large", LARGE_GEMM.mac_ops(), dtype),
        vec![WarpAssignment::new(
            0,
            0,
            orchestrate(&large_plan(), config),
        )],
    );
    let small = Kernel::new(
        KernelInfo::new("hetero_serial_small", SMALL_GEMM.mac_ops(), dtype),
        vec![WarpAssignment::new(
            1,
            0,
            orchestrate(&small_plan(), config),
        )],
    );
    (large, small)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_workload_targets_both_units() {
        let config = GpuConfig::virgo_heterogeneous();
        let kernel = build_heterogeneous_parallel(&config);
        assert_eq!(kernel.warps.len(), 2);
        let mut devices = Vec::new();
        for warp in &kernel.warps {
            let mut cursor = warp.program.cursor();
            while let Some(op) = cursor.next_op() {
                if let WarpOp::MmioWrite {
                    device: DeviceId::MatrixUnit(i),
                    ..
                } = op
                {
                    devices.push(i);
                }
            }
        }
        assert!(devices.contains(&0) && devices.contains(&1));
    }

    #[test]
    fn serial_kernels_split_the_work() {
        let config = GpuConfig::virgo_heterogeneous();
        let (large, small) = build_heterogeneous_serial(&config);
        assert_eq!(large.info.total_macs, LARGE_GEMM.mac_ops());
        assert_eq!(small.info.total_macs, SMALL_GEMM.mac_ops());
    }

    #[test]
    #[should_panic(expected = "two matrix units")]
    fn single_unit_configuration_rejected() {
        let _ = build_heterogeneous_parallel(&GpuConfig::virgo());
    }
}
