//! Fast-forward equivalence: the cycle-skipping driver must produce
//! **bit-identical** reports to the naive one-cycle-at-a-time reference loop
//! on every design point and workload class.
//!
//! This is the contract that makes `SimMode::FastForward` safe to use as the
//! default everywhere: cycles, instruction counts, the full per-core cycle
//! classification (active/stall/idle/fence), per-component energy and MAC
//! utilization all come out of the same event counters, so a single digest
//! comparison covers the paper's entire metric surface.

use std::sync::Arc;

use virgo::{DesignKind, Gpu, GpuConfig, SimError, SimMode};
use virgo_bench::{run, ReportDigest};
use virgo_isa::{
    AddrExpr, DataType, DeviceId, DmaCopyCmd, Kernel, KernelInfo, LaneAccess, MemLoc, MmioCommand,
    ProgramBuilder, WarpAssignment, WarpOp,
};
use virgo_kernels::{AttentionShape, GemmShape};
use virgo_sweep::Query;

/// Every design point, on a representative GEMM, in both modes.
#[test]
fn gemm_reports_are_bit_identical_across_modes_and_designs() {
    let shape = GemmShape {
        m: 128,
        n: 128,
        k: 128,
    };
    for design in DesignKind::all() {
        let query = Query::new(design, shape);
        let naive = ReportDigest::of(&run(&query.clone().mode(SimMode::Naive)));
        let fast = ReportDigest::of(&run(&query.mode(SimMode::FastForward)));
        assert_eq!(naive, fast, "{design} GEMM digests diverge");
        assert!(naive.cycles > 0 && naive.performed_macs > 0, "{design}");
    }
}

/// The FlashAttention-3 mapping (FP32) on the two designs the paper maps it
/// to, in both modes.
#[test]
fn flash_attention_reports_are_bit_identical_across_modes() {
    for design in [DesignKind::AmpereStyle, DesignKind::Virgo] {
        let query = Query::new(design, AttentionShape::paper_default());
        let naive = ReportDigest::of(&run(&query.clone().mode(SimMode::Naive)));
        let fast = ReportDigest::of(&run(&query.mode(SimMode::FastForward)));
        assert_eq!(naive, fast, "{design} FlashAttention digests diverge");
        assert!(naive.fence_wait_cycles > 0 || naive.cycles > 0, "{design}");
    }
}

/// A synthetic kernel chosen to stress every bulk-accounting path at once:
/// fence spins (rate-limited poll accounting), DMA waits, load waits with the
/// program cursor drained, and cross-core barriers.
#[test]
fn stall_heavy_mixed_kernel_is_bit_identical() {
    let program = {
        let mut b = ProgramBuilder::new();
        b.repeat(4, |b| {
            let cmd = MmioCommand::DmaCopy(DmaCopyCmd::new(
                MemLoc::global(0u64),
                MemLoc::shared(0u64),
                64 * 1024,
            ));
            b.op(WarpOp::MmioWrite {
                device: DeviceId::DMA0,
                cmd,
            });
            b.op(WarpOp::FenceAsync { max_outstanding: 0 });
            b.op(WarpOp::Barrier { id: 0 });
            let access = LaneAccess::contiguous_words(AddrExpr::fixed(0), 8);
            b.op(WarpOp::LoadGlobal { access });
            b.op(WarpOp::WaitLoads);
        });
        // Trailing load with no WaitLoads: the warp drains its program while
        // loads are still in flight, exercising the stall-classification path
        // of the fast-forward accounting.
        let access = LaneAccess::contiguous_words(AddrExpr::fixed(4096), 8);
        b.op(WarpOp::LoadGlobal { access });
        Arc::new(b.build())
    };
    let kernel = Kernel::new(
        KernelInfo::new("stall-mix", 0, DataType::Fp16),
        vec![
            WarpAssignment::new(0, 0, Arc::clone(&program)),
            WarpAssignment::new(1, 0, Arc::clone(&program)),
        ],
    );
    let config = GpuConfig::virgo();
    let naive = Gpu::new(config.clone())
        .run_with_mode(&kernel, 10_000_000, SimMode::Naive)
        .expect("naive finishes");
    let fast = Gpu::new(config)
        .run_with_mode(&kernel, 10_000_000, SimMode::FastForward)
        .expect("fast-forward finishes");
    let naive = ReportDigest::of(&naive);
    let fast = ReportDigest::of(&fast);
    assert_eq!(naive, fast);
    // The kernel really did spend most of its life stalled — otherwise this
    // test is not exercising what it claims to.
    assert!(naive.fence_wait_cycles > 0);
    assert!(naive.fence_poll_instructions > 0);
    assert!(naive.core_stats.idle_cycles + naive.core_stats.stall_cycles > naive.cycles / 2);
}

/// Deadlocks time out identically in both modes — and the fast-forward
/// driver reaches the verdict without ticking through the budget.
#[test]
fn deadlock_times_out_identically_in_both_modes() {
    let mut b = ProgramBuilder::new();
    b.op(WarpOp::Barrier { id: 0 });
    let lonely = Kernel::new(
        KernelInfo::new("deadlock", 0, DataType::Fp16),
        vec![
            WarpAssignment::new(0, 0, Arc::new(b.build())),
            WarpAssignment::new(0, 1, Arc::new(ProgramBuilder::new().build())),
        ],
    );
    // A budget this size would take minutes in the naive loop; the
    // fast-forward driver must resolve it near-instantly.
    let budget = 500_000_000;
    let mut gpu = Gpu::new(GpuConfig::virgo());
    let fast = gpu
        .run_with_mode(&lonely, budget, SimMode::FastForward)
        .unwrap_err();
    // The naive reference at a budget it can afford.
    let naive = gpu
        .run_with_mode(&lonely, 5_000, SimMode::Naive)
        .unwrap_err();
    for (err, limit) in [(&fast, budget), (&naive, 5_000)] {
        let SimError::Timeout {
            limit: l,
            diagnosis,
        } = err
        else {
            panic!("expected a timeout, got {err:?}");
        };
        assert_eq!(*l, limit);
        // The structured diagnosis identifies the lonely warp at its barrier
        // identically in both modes — no tracing re-run needed.
        assert_eq!(
            diagnosis.warps,
            [virgo::WarpDiagnosis {
                cluster: 0,
                core: 0,
                warp: 0,
                blocked_on: virgo::BlockedOn::Barrier { id: 0 },
            }]
        );
    }
}

/// The heterogeneous dual-matrix-unit configuration (Section 6.3) also holds
/// the invariant — two Gemmini units with different shapes plus DMA traffic.
#[test]
fn heterogeneous_configuration_is_bit_identical() {
    let config = GpuConfig::virgo_heterogeneous();
    let kernel = virgo_kernels::build_heterogeneous_parallel(&config);
    let naive = Gpu::new(config.clone())
        .run_with_mode(&kernel, 200_000_000, SimMode::Naive)
        .expect("naive finishes");
    let fast = Gpu::new(config)
        .run_with_mode(&kernel, 200_000_000, SimMode::FastForward)
        .expect("fast-forward finishes");
    assert_eq!(ReportDigest::of(&naive), ReportDigest::of(&fast));
}

/// The Hopper-style GEMM fills each core's 4-entry `wgmma` queue: its warps
/// enqueue more operations per K step than the operand-decoupled unit
/// holds, so most `WgmmaInit`s are first rejected. A rejected warp parks
/// until the queue accepts again (`ClusterPort::wgmma_accept_at`) instead
/// of retrying every cycle, and the skipped retries must not change a
/// single counter.
#[test]
fn hopper_gemm_with_a_full_wgmma_queue_is_bit_identical_and_parks() {
    let query = Query::new(DesignKind::HopperStyle, GemmShape::square(256));
    let naive = run(&query.clone().mode(SimMode::Naive));
    let fast = run(&query.mode(SimMode::FastForward));
    assert_eq!(ReportDigest::of(&naive), ReportDigest::of(&fast));
    // 271,404 SIMT events while every rejected enqueue retried per cycle;
    // parking must cut that at least fivefold.
    let events = fast.sched_stats().simt_events;
    assert!(
        events <= 271_404 / 5,
        "{events} SIMT events: rejected wgmma enqueues are not parked"
    );
}
