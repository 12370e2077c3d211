//! Multi-cluster invariants.
//!
//! Two guarantees anchor the N-cluster refactor:
//!
//! 1. **Single-cluster compatibility** — with `clusters = 1` the machine is
//!    the machine the paper evaluates, and its reports are bit-identical to
//!    the pre-refactor single-cluster simulator. The fingerprints below were
//!    captured from the last single-cluster build (including exact energy /
//!    power bit patterns) and must never drift. They were re-pinned exactly
//!    once, together with the DRAM-timing bugfix (fixed latency now overlaps
//!    channel queueing instead of being charged serially after it) — see the
//!    Volta-style entry below for the only delta — and double as the
//!    `dram_channels = 1` pins of the multi-channel back-end: the default
//!    configuration *is* the single-channel machine.
//! 2. **Mode equivalence at every scale** — `SimMode::Naive` and
//!    `SimMode::FastForward` stay bit-identical when the fast-forward driver
//!    folds event horizons across N clusters sharing one L2/DRAM back-end.

use std::sync::Arc;

use virgo::{DesignKind, Gpu, GpuConfig, SimMode, SimReport};
use virgo_bench::{run, ReportDigest};
use virgo_isa::{
    AddrExpr, DataType, DeviceId, DmaCopyCmd, Kernel, KernelInfo, LaneAccess, MemLoc, MmioCommand,
    ProgramBuilder, WarpAssignment, WarpOp,
};
use virgo_kernels::{AttentionShape, GemmShape};
use virgo_sweep::Query;

/// Pre-refactor fingerprint of one report: every integer metric the digest
/// covers plus the exact bit patterns of the derived floating-point values.
struct Fingerprint {
    design: DesignKind,
    cycles: u64,
    instructions: u64,
    fence_polls: u64,
    fence_wait_cycles: u64,
    performed_macs: u64,
    smem_bytes_read: u64,
    energy_mj_bits: u64,
    power_mw_bits: u64,
}

impl Fingerprint {
    fn assert_matches(&self, report: &SimReport) {
        let d = self.design;
        assert_eq!(report.cycles().get(), self.cycles, "{d} cycles");
        assert_eq!(
            report.instructions_retired(),
            self.instructions,
            "{d} instructions"
        );
        assert_eq!(
            report.fence_poll_instructions(),
            self.fence_polls,
            "{d} fence polls"
        );
        assert_eq!(
            report.fence_wait_cycles(),
            self.fence_wait_cycles,
            "{d} fence wait cycles"
        );
        assert_eq!(report.performed_macs(), self.performed_macs, "{d} MACs");
        assert_eq!(
            report.smem_read_footprint_bytes(),
            self.smem_bytes_read,
            "{d} smem bytes"
        );
        assert_eq!(
            report.total_energy_mj().to_bits(),
            self.energy_mj_bits,
            "{d} energy bits"
        );
        assert_eq!(
            report.active_power_mw().to_bits(),
            self.power_mw_bits,
            "{d} power bits"
        );
    }
}

/// With one cluster, the 128³ GEMM reports match the pre-refactor simulator
/// bit for bit on every design point.
#[test]
fn single_cluster_gemm_reports_match_pre_refactor_fingerprints() {
    let shape = GemmShape {
        m: 128,
        n: 128,
        k: 128,
    };
    let fingerprints = [
        // Re-pinned when the DRAM fixed latency was made to overlap with
        // channel queueing (it used to be charged serially on top): the
        // Volta-style design is the only one whose demand misses queue
        // back-to-back on the channel, so its cycle count dropped
        // 25298 -> 24498 (and active power rose accordingly — the energy
        // bits are unchanged because no event count changed). The other
        // designs' DMA transfers never overlapped queueing with latency, so
        // their fingerprints are identical pre- and post-fix.
        Fingerprint {
            design: DesignKind::VoltaStyle,
            cycles: 24498,
            instructions: 96384,
            fence_polls: 0,
            fence_wait_cycles: 0,
            performed_macs: 2097152,
            smem_bytes_read: 786432,
            energy_mj_bits: 0x3f7c7e449b0ee07f,
            power_mw_bits: 0x405c6546905495f6,
        },
        Fingerprint {
            design: DesignKind::AmpereStyle,
            cycles: 23951,
            instructions: 87196,
            fence_polls: 194,
            fence_wait_cycles: 1548,
            performed_macs: 2097152,
            smem_bytes_read: 786432,
            energy_mj_bits: 0x3f7afaf085666c52,
            power_mw_bits: 0x405b8079fe3c9579,
        },
        Fingerprint {
            design: DesignKind::HopperStyle,
            cycles: 16099,
            instructions: 5468,
            fence_polls: 160,
            fence_wait_cycles: 1276,
            performed_macs: 2097152,
            smem_bytes_read: 524288,
            energy_mj_bits: 0x3f61ea625f47c586,
            power_mw_bits: 0x404b2b3b446fd46d,
        },
        Fingerprint {
            design: DesignKind::Virgo,
            cycles: 15845,
            instructions: 142,
            fence_polls: 1806,
            fence_wait_cycles: 14437,
            performed_macs: 2097152,
            smem_bytes_read: 294912,
            energy_mj_bits: 0x3f5959eb7e47bf6c,
            power_mw_bits: 0x404387da1cd22667,
        },
    ];
    for fp in &fingerprints {
        let report = run(&Query::new(fp.design, shape).mode(SimMode::FastForward));
        fp.assert_matches(&report);
        // The single-cluster report has exactly one per-cluster slice and it
        // agrees with the aggregates.
        assert_eq!(report.clusters(), 1);
        assert_eq!(
            report.per_cluster()[0].performed_macs,
            report.performed_macs()
        );
    }
}

/// The FlashAttention-3 fingerprints (FP32 paper shape) also match the
/// pre-refactor simulator bit for bit.
#[test]
fn single_cluster_flash_attention_matches_pre_refactor_fingerprints() {
    let shape = AttentionShape::paper_default();
    let fingerprints = [
        Fingerprint {
            design: DesignKind::AmpereStyle,
            cycles: 2834705,
            instructions: 9750272,
            fence_polls: 65536,
            fence_wait_cycles: 523776,
            performed_macs: 134217728,
            smem_bytes_read: 71303168,
            energy_mj_bits: 0x3fe550c5563e2bb0,
            power_mw_bits: 0x40577f95c3066315,
        },
        Fingerprint {
            design: DesignKind::Virgo,
            cycles: 2212017,
            instructions: 1713008,
            fence_polls: 147280,
            fence_wait_cycles: 1176544,
            performed_macs: 134217728,
            smem_bytes_read: 77463552,
            energy_mj_bits: 0x3fc9b9f33d39456a,
            power_mw_bits: 0x40422c1c3df0818a,
        },
    ];
    for fp in &fingerprints {
        let report = run(&Query::new(fp.design, shape).mode(SimMode::FastForward));
        fp.assert_matches(&report);
    }
}

/// Naive and fast-forward reports stay bit-identical when the GEMM is split
/// over 2 and 4 clusters, on every design point.
#[test]
fn multi_cluster_gemm_is_bit_identical_across_modes() {
    let shape = GemmShape {
        m: 128,
        n: 128,
        k: 128,
    };
    for clusters in [2u32, 4] {
        for design in DesignKind::all() {
            let query = Query::new(design, shape).clusters(clusters);
            let naive = ReportDigest::of(&run(&query.clone().mode(SimMode::Naive)));
            let fast = ReportDigest::of(&run(&query.mode(SimMode::FastForward)));
            assert_eq!(naive, fast, "{design} x{clusters} GEMM digests diverge");
            assert!(naive.performed_macs > 0, "{design} x{clusters}");
        }
    }
}

/// Naive and fast-forward reports stay bit-identical for the FlashAttention
/// mapping on 2 and 4 clusters (reduced sequence length keeps the naive
/// reference affordable).
#[test]
fn multi_cluster_flash_attention_is_bit_identical_across_modes() {
    let shape = AttentionShape {
        seq_len: 256,
        head_dim: 64,
        heads: 1,
        batch: 1,
    };
    for clusters in [2u32, 4] {
        for design in [DesignKind::AmpereStyle, DesignKind::Virgo] {
            let query = Query::new(design, shape).clusters(clusters);
            let naive = ReportDigest::of(&run(&query.clone().mode(SimMode::Naive)));
            let fast = ReportDigest::of(&run(&query.mode(SimMode::FastForward)));
            assert_eq!(
                naive, fast,
                "{design} x{clusters} FlashAttention digests diverge"
            );
        }
    }
}

/// The synthetic stall-storm kernel (DMA waits, fence spins, cross-core
/// barriers, drained-cursor loads) split over clusters: both modes agree and
/// the per-cluster slices cover the whole machine.
#[test]
fn multi_cluster_stall_storm_is_bit_identical_across_modes() {
    // Each cluster storms a disjoint global-memory range so every cluster's
    // DMA traffic really reaches the shared DRAM channel instead of hitting
    // lines another cluster already pulled into the shared L2.
    fn stall_program(global_base: u64) -> Arc<virgo_isa::Program> {
        let mut b = ProgramBuilder::new();
        b.repeat(4, |b| {
            let cmd = MmioCommand::DmaCopy(DmaCopyCmd::new(
                MemLoc::global(global_base),
                MemLoc::shared(0u64),
                64 * 1024,
            ));
            b.op(WarpOp::MmioWrite {
                device: DeviceId::DMA0,
                cmd,
            });
            b.op(WarpOp::FenceAsync { max_outstanding: 0 });
            b.op(WarpOp::Barrier { id: 0 });
            let access = LaneAccess::contiguous_words(AddrExpr::fixed(global_base), 8);
            b.op(WarpOp::LoadGlobal { access });
            b.op(WarpOp::WaitLoads);
        });
        // Trailing load with no WaitLoads: the warp drains its program while
        // loads are still in flight.
        let access = LaneAccess::contiguous_words(AddrExpr::fixed(global_base + 4096), 8);
        b.op(WarpOp::LoadGlobal { access });
        Arc::new(b.build())
    }

    for clusters in [2u32, 4] {
        let mut warps = Vec::new();
        for cluster in 0..clusters {
            let program = stall_program(virgo_kernels::cluster_addr_offset(cluster));
            warps.push(WarpAssignment::on_cluster(
                cluster,
                0,
                0,
                Arc::clone(&program),
            ));
            warps.push(WarpAssignment::on_cluster(cluster, 1, 0, program));
        }
        let kernel = Kernel::new(KernelInfo::new("stall-mix-multi", 0, DataType::Fp16), warps);
        let config = GpuConfig::virgo().with_clusters(clusters);
        let naive = Gpu::new(config.clone())
            .run_with_mode(&kernel, 10_000_000, SimMode::Naive)
            .expect("naive finishes");
        let fast = Gpu::new(config)
            .run_with_mode(&kernel, 10_000_000, SimMode::FastForward)
            .expect("fast-forward finishes");
        assert_eq!(
            ReportDigest::of(&naive),
            ReportDigest::of(&fast),
            "x{clusters}"
        );
        // Sanity: the kernel really exercised the stall paths, every cluster
        // ran its share, and every cluster's DMA reached the shared DRAM.
        assert!(naive.fence_wait_cycles() > 0);
        assert_eq!(naive.clusters(), clusters as usize);
        for slice in naive.per_cluster() {
            assert!(
                slice.core_stats.instrs_issued > 0,
                "cluster {}",
                slice.cluster
            );
            assert!(slice.contention.dram_bytes > 0, "cluster {}", slice.cluster);
        }
    }
}

/// A fixed-size GEMM split over more clusters finishes in strictly fewer
/// cycles while total DRAM-contention stalls grow — the paper's
/// scaling-vs-bandwidth tradeoff, checked here at test scale (the
/// `clusters_scaling` bench enforces the same gate on the full sweep).
#[test]
fn cluster_scaling_trades_cycles_for_dram_contention() {
    let shape = GemmShape {
        m: 256,
        n: 256,
        k: 256,
    };
    let reports: Vec<SimReport> = [1u32, 2, 4]
        .iter()
        .map(|&n| {
            run(&Query::new(DesignKind::Virgo, shape)
                .clusters(n)
                .mode(SimMode::FastForward))
        })
        .collect();
    for pair in reports.windows(2) {
        assert!(
            pair[1].cycles() < pair[0].cycles(),
            "adding clusters must reduce cycles: {} -> {}",
            pair[0].cycles().get(),
            pair[1].cycles().get()
        );
        assert!(
            pair[1].dram_contention_stall_cycles() >= pair[0].dram_contention_stall_cycles(),
            "contention must not shrink with more clusters"
        );
    }
    let last = reports.last().expect("non-empty");
    assert!(
        last.dram_contention_stall_cycles() > reports[0].dram_contention_stall_cycles(),
        "4 clusters must show real DRAM contention"
    );
    // Work conservation: every cluster count performs the same MACs.
    for r in &reports {
        assert_eq!(r.performed_macs(), shape.mac_ops());
    }
}
