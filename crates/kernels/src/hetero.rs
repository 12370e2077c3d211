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
    AddrExpr, DataType, DeviceId, DmaCopyCmd, Kernel, KernelInfo, MatrixComputeCmd, MemLoc,
    MmioCommand, ProgramBuilder, WarpAssignment, WarpOp,
};

use crate::workload::GemmShape;

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
fn orchestrate(plan: &UnitPlan, dtype: DataType) -> Arc<virgo_isa::Program> {
    let (tm, tn, tk) = plan.tile;
    assert!(
        plan.shape.m.is_multiple_of(tm)
            && plan.shape.n.is_multiple_of(tn)
            && plan.shape.k.is_multiple_of(tk),
        "GEMM {} not divisible by tile {tm}x{tn}x{tk}",
        plan.shape
    );
    let out_tiles = u64::from(plan.shape.m / tm) * u64::from(plan.shape.n / tn);
    let kt = u64::from(plan.shape.k / tk);
    let elem = u64::from(dtype.bytes());
    let a_bytes = u64::from(tm) * u64::from(tk) * elem;
    let b_bytes = u64::from(tk) * u64::from(tn) * elem;
    let c_bytes = u64::from(tm) * u64::from(tn) * 4;

    let mut p = ProgramBuilder::new();
    p.repeat(out_tiles, |b| {
        b.repeat(kt, |b| {
            for (offset, bytes, smem) in [
                (0u64, a_bytes, plan.smem_a),
                (0x0800_0000, b_bytes, plan.smem_b),
            ] {
                b.op(WarpOp::MmioWrite {
                    device: DeviceId::DMA0,
                    cmd: MmioCommand::DmaCopy(DmaCopyCmd::new(
                        MemLoc::global(AddrExpr::streaming(plan.global_base + offset, bytes)),
                        MemLoc::shared(AddrExpr::double_buffered(smem, 0x2000)),
                        bytes,
                    )),
                });
            }
            b.op(WarpOp::FenceAsync { max_outstanding: 0 });
            b.op(WarpOp::MmioWrite {
                device: plan.device,
                cmd: MmioCommand::MatrixCompute(MatrixComputeCmd {
                    a: AddrExpr::double_buffered(plan.smem_a, 0x2000),
                    b: AddrExpr::double_buffered(plan.smem_b, 0x2000),
                    acc_addr: 0,
                    m: tm,
                    n: tn,
                    k: tk,
                    accumulate: true,
                    dtype,
                }),
            });
        });
        b.op(WarpOp::FenceAsync { max_outstanding: 0 });
        b.op(WarpOp::MmioWrite {
            device: DeviceId::DMA0,
            cmd: MmioCommand::DmaCopy(DmaCopyCmd::new(
                MemLoc::accumulator(AddrExpr::fixed(0)),
                MemLoc::global(AddrExpr::streaming(plan.global_base + 0x0F00_0000, c_bytes)),
                c_bytes,
            )),
        });
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
        WarpAssignment::new(0, 0, orchestrate(&large_plan(), dtype)),
        WarpAssignment::new(1, 0, orchestrate(&small_plan(), dtype)),
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
        vec![WarpAssignment::new(0, 0, orchestrate(&large_plan(), dtype))],
    );
    let small = Kernel::new(
        KernelInfo::new("hetero_serial_small", SMALL_GEMM.mac_ops(), dtype),
        vec![WarpAssignment::new(1, 0, orchestrate(&small_plan(), dtype))],
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
