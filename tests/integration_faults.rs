//! Fault-injection and resilience invariants.
//!
//! Four guarantees anchor the fault tentpole:
//!
//! 1. **Faults-off bit-identity** — a config carrying an *empty*
//!    [`FaultPlan`] (any seed) produces reports bit-identical to the
//!    pre-fault machine on every design point: the fault layer's presence
//!    perturbs nothing. (The pre-fault fingerprints themselves are pinned in
//!    `integration_clusters.rs` and must keep passing unchanged.)
//! 2. **Deterministic degradation** — the same seeded plan produces the
//!    same [`FaultStats`] and the same report digest on every run, and
//!    `SimMode::Naive` and `SimMode::FastForward` stay bit-identical with
//!    faults active (link kills, throttles, ECC upsets, late starts).
//! 3. **Degraded-mode survival** — the acceptance scenario: the N = 8
//!    split-K GEMM on the ring fabric completes after a DSM link is killed
//!    mid-run, rerouting around the dead segment at ≤ 2.5× the clean cycle
//!    count; a dead DRAM channel re-stripes onto the survivors.
//! 4. **Self-healing sweeps** — a sweep point whose kernel build panics is
//!    retried and then quarantined as a structured [`SweepError`] without
//!    hanging the pool or reordering the surviving results.

use virgo::DesignKind;
use virgo::{
    FaultKind, FaultPlan, FaultStats, Gpu, GpuConfig, JobCompletion, JobTable, SimError, SimMode,
    SimReport,
};
use virgo_bench::ReportDigest;
use virgo_isa::Kernel;
use virgo_kernels::{build_gemm, build_split_k_gemm, AttentionShape, GemmShape};
use virgo_mem::DsmConfig;
use virgo_sim::fault::PERMANENT;
use virgo_sweep::{Query, SweepPool, SweepService};

const MAX_CYCLES: u64 = 200_000_000;

fn run(config: &GpuConfig, kernel: &Kernel, mode: SimMode) -> SimReport {
    Gpu::new(config.clone())
        .run_with_mode(kernel, MAX_CYCLES, mode)
        .unwrap_or_else(|e| panic!("{} must finish: {e}", kernel.info.name))
}

fn small_gemm() -> GemmShape {
    GemmShape {
        m: 128,
        n: 128,
        k: 128,
    }
}

fn splitk_shape() -> GemmShape {
    GemmShape {
        m: 256,
        n: 256,
        k: 512,
    }
}

/// A plan exercising every fault kind at once, all windows finite.
fn rich_plan() -> FaultPlan {
    FaultPlan::seeded(0x5EED)
        .with_event(
            FaultKind::DsmLinkSlow {
                link: 1,
                bandwidth_divisor: 4,
            },
            1_000,
            40_000,
        )
        .with_event(
            FaultKind::DramChannelThrottle {
                channel: 0,
                latency_multiplier: 3,
            },
            2_000,
            30_000,
        )
        .with_event(
            FaultKind::EccSingleBit {
                cluster: 0,
                mean_access_gap: 64,
            },
            0,
            25_000,
        )
        .with_event(
            FaultKind::EccDoubleBit {
                cluster: 1,
                mean_access_gap: 512,
            },
            5_000,
            20_000,
        )
        .with_event(FaultKind::LateClusterStart { cluster: 3 }, 0, 4_000)
}

/// An empty fault plan — even one with a non-zero seed — leaves every
/// design point's report bit-identical to the pre-fault machine.
#[test]
fn empty_fault_plan_is_bit_identical_on_every_design() {
    for design in DesignKind::all() {
        let clean = GpuConfig::for_design(design);
        let armed = clean.clone().with_faults(FaultPlan::seeded(0xDEAD_BEEF));
        let kernel = build_gemm(&clean, small_gemm());
        let baseline = ReportDigest::of(&run(&clean, &kernel, SimMode::FastForward));
        let report = run(&armed, &kernel, SimMode::FastForward);
        assert_eq!(
            ReportDigest::of(&report),
            baseline,
            "{design}: an empty fault plan must not perturb the machine"
        );
        assert_eq!(
            report.fault_stats(),
            FaultStats::default(),
            "{design}: no fault counters without fault events"
        );
        assert!(!report.faults_injected());
    }
}

/// The same seeded plan produces identical fault stats and digests across
/// repeated runs and across driver modes — the determinism contract.
#[test]
fn seeded_fault_plan_is_deterministic_across_runs_and_modes() {
    let config = GpuConfig::virgo()
        .with_clusters(4)
        .with_dsm(DsmConfig::enabled_ring())
        .with_dram_channels(2)
        .with_faults(rich_plan());
    let kernel = build_split_k_gemm(&config, splitk_shape());

    let naive = run(&config, &kernel, SimMode::Naive);
    let fast = run(&config, &kernel, SimMode::FastForward);
    let again = run(&config, &kernel, SimMode::FastForward);

    assert_eq!(
        ReportDigest::of(&naive),
        ReportDigest::of(&fast),
        "fault-active runs must stay bit-identical across modes"
    );
    assert_eq!(
        naive.fault_stats(),
        fast.fault_stats(),
        "fault counters must agree across modes"
    );
    assert_eq!(
        fast.fault_stats(),
        again.fault_stats(),
        "repeated runs must reproduce the same fault stats"
    );
    assert!(fast.faults_injected());
    assert!(
        fast.fault_stats().degraded_cycles > 0,
        "the plan's windows overlap the run"
    );
}

/// ECC upsets land only in the clusters their windows name, single-bit
/// upsets are corrected, and double-bit upsets are detected but not.
#[test]
fn ecc_upsets_are_scoped_corrected_and_counted() {
    let config = GpuConfig::virgo()
        .with_clusters(4)
        .with_dsm(DsmConfig::enabled_ring())
        .with_faults(
            FaultPlan::seeded(7)
                .with_event(
                    FaultKind::EccSingleBit {
                        cluster: 1,
                        mean_access_gap: 32,
                    },
                    0,
                    PERMANENT,
                )
                .with_event(
                    FaultKind::EccDoubleBit {
                        cluster: 2,
                        mean_access_gap: 64,
                    },
                    0,
                    PERMANENT,
                ),
        );
    let kernel = build_split_k_gemm(&config, splitk_shape());
    let report = run(&config, &kernel, SimMode::FastForward);

    let per_cluster: Vec<_> = report.per_cluster().iter().map(|c| c.fault).collect();
    assert!(
        per_cluster[1].corrected > 0,
        "cluster 1's single-bit upsets are corrected in place"
    );
    assert_eq!(
        per_cluster[1].corrected, per_cluster[1].detected,
        "every single-bit upset is both detected and corrected"
    );
    assert!(
        per_cluster[2].detected > 0 && per_cluster[2].corrected == 0,
        "cluster 2's double-bit upsets are detected but uncorrectable"
    );
    for quiet in [0usize, 3] {
        assert_eq!(
            per_cluster[quiet].detected, 0,
            "cluster {quiet} has no ECC window and must see no upsets"
        );
    }
    let total = report.fault_stats();
    assert_eq!(
        total.detected,
        per_cluster.iter().map(|c| c.detected).sum::<u64>(),
        "machine totals are the sum of the cluster slices"
    );
}

/// A cluster held in reset by a late-start fault begins work only when its
/// window closes, identically in both driver modes.
#[test]
fn late_cluster_start_delays_work_identically_across_modes() {
    let base = GpuConfig::virgo()
        .with_clusters(2)
        .with_dsm(DsmConfig::enabled_ring());
    let held = base.clone().with_faults(FaultPlan::seeded(1).with_event(
        FaultKind::LateClusterStart { cluster: 1 },
        0,
        10_000,
    ));
    let kernel = build_split_k_gemm(&base, splitk_shape());

    let clean = run(&base, &kernel, SimMode::FastForward);
    let naive = run(&held, &kernel, SimMode::Naive);
    let fast = run(&held, &kernel, SimMode::FastForward);

    assert_eq!(
        ReportDigest::of(&naive),
        ReportDigest::of(&fast),
        "late-start runs must stay bit-identical across modes"
    );
    assert!(
        fast.cycles().get() > 10_000,
        "the held cluster cannot finish before its release"
    );
    // Note: the held machine may finish in *fewer or more* total cycles than
    // the clean one — delaying a cluster also reshuffles DRAM/DSM
    // contention — so only the work done is comparable, not the cycle count.
    assert_eq!(
        ReportDigest::of(&clean).performed_macs,
        ReportDigest::of(&fast).performed_macs,
        "the held cluster still performs all of its work after release"
    );
}

/// A job admitted mid-session onto a cluster that a late-start fault still
/// holds in reset starts at the later of its two start cycles (admission and
/// release), identically in both driver modes, while a neighbour job keeps
/// running on the other cluster.
#[test]
fn mid_session_admission_onto_a_held_cluster_waits_for_its_release() {
    const ADMIT_AT: u64 = 5_000;
    const RELEASE_AT: u64 = 40_000;
    let base = GpuConfig::virgo().with_clusters(2);
    let config = base.clone().with_faults(FaultPlan::seeded(1).with_event(
        FaultKind::LateClusterStart { cluster: 0 },
        0,
        RELEASE_AT,
    ));
    // The neighbour is cluster 1's half of a two-cluster GEMM.
    let split = build_gemm(&base, small_gemm());
    let neighbour = Kernel::new(
        split.info.clone(),
        split
            .warps
            .iter()
            .filter(|w| w.cluster == 1)
            .cloned()
            .collect(),
    );
    let late = build_gemm(&GpuConfig::virgo(), small_gemm());

    let session = |mode: SimMode| -> Vec<JobCompletion> {
        let mut table = JobTable::new(config.clone(), mode);
        table
            .admit("neighbour", &neighbour, &[1], MAX_CYCLES)
            .unwrap();
        let mut done = Vec::new();
        while table.now() < ADMIT_AT {
            done.extend(table.advance_until(ADMIT_AT));
        }
        table.admit("late", &late, &[0], MAX_CYCLES).unwrap();
        while !table.is_idle() {
            done.extend(table.advance_until(MAX_CYCLES));
        }
        done
    };
    let naive = session(SimMode::Naive);
    let fast = session(SimMode::FastForward);

    assert_eq!(naive.len(), 2);
    assert_eq!(fast.len(), 2);
    for (n, f) in naive.iter().zip(&fast) {
        assert_eq!(n.name, f.name);
        assert_eq!(
            (n.admitted, n.retired),
            (f.admitted, f.retired),
            "{}",
            n.name
        );
        let (n_report, f_report) = (n.result.as_ref().unwrap(), f.result.as_ref().unwrap());
        assert_eq!(
            ReportDigest::of(n_report),
            ReportDigest::of(f_report),
            "{}: held-cluster admissions must stay bit-identical across modes",
            n.name
        );
    }
    let late_job = fast.iter().find(|c| c.name == "late").unwrap();
    assert_eq!(late_job.admitted, ADMIT_AT);
    assert!(
        late_job.residency() > RELEASE_AT - ADMIT_AT,
        "the job cannot finish before its cluster leaves reset: {} cycles",
        late_job.residency()
    );
    let neighbour_job = fast.iter().find(|c| c.name == "neighbour").unwrap();
    assert!(
        neighbour_job.retired > ADMIT_AT,
        "the neighbour should still be resident when the late job is admitted"
    );
}

/// The acceptance scenario: N = 8 split-K GEMM on the ring, one DSM link
/// killed mid-run. The machine completes by rerouting the long way around,
/// within 2.5x the clean run's cycles, bit-identically across modes.
#[test]
fn ring_link_kill_mid_run_completes_within_overhead_budget() {
    let base = GpuConfig::virgo()
        .with_clusters(8)
        .with_dsm(DsmConfig::enabled_ring());
    // K-heavy shape: eight clusters need at least eight K-tiles.
    let kernel = build_split_k_gemm(
        &base,
        GemmShape {
            m: 256,
            n: 256,
            k: 1024,
        },
    );
    let clean = run(&base, &kernel, SimMode::FastForward);

    let kill_at = clean.cycles().get() / 4;
    let wounded = base
        .clone()
        .with_faults(FaultPlan::seeded(0xFA17).with_event(
            FaultKind::DsmLinkDown { link: 2 },
            kill_at,
            PERMANENT,
        ));
    let fast = run(&wounded, &kernel, SimMode::FastForward);
    let naive = run(&wounded, &kernel, SimMode::Naive);

    assert_eq!(
        ReportDigest::of(&naive),
        ReportDigest::of(&fast),
        "the degraded machine must stay bit-identical across modes"
    );
    assert!(
        fast.fault_stats().dsm_rerouted_transfers > 0,
        "traffic crossing the dead segment must detour the long way around"
    );
    let overhead = fast.cycles().get() as f64 / clean.cycles().get() as f64;
    assert!(
        overhead <= 2.5,
        "losing one of eight ring links costs {overhead:.2}x cycles (limit 2.5x)"
    );
    assert_eq!(
        ReportDigest::of(&clean).performed_macs,
        ReportDigest::of(&fast).performed_macs,
        "the degraded run still computes the full GEMM"
    );
}

/// A dead DRAM channel re-stripes its traffic across the survivors; the
/// machine completes with the same work done.
#[test]
fn dram_channel_outage_restripes_across_survivors() {
    let base = GpuConfig::virgo().with_dram_channels(4);
    let kernel = build_gemm(&base, small_gemm());
    let clean = run(&base, &kernel, SimMode::FastForward);

    let wounded = base.clone().with_faults(FaultPlan::seeded(2).with_event(
        FaultKind::DramChannelDown { channel: 1 },
        0,
        PERMANENT,
    ));
    let fast = run(&wounded, &kernel, SimMode::FastForward);
    let naive = run(&wounded, &kernel, SimMode::Naive);

    assert_eq!(
        ReportDigest::of(&naive),
        ReportDigest::of(&fast),
        "channel-outage runs must stay bit-identical across modes"
    );
    assert!(
        fast.fault_stats().dram_restriped_accesses > 0,
        "traffic striped onto the dead channel must move to the survivors"
    );
    assert_eq!(
        ReportDigest::of(&clean).performed_macs,
        ReportDigest::of(&fast).performed_macs,
        "the re-striped run still computes the full GEMM"
    );
}

/// An undersized cycle budget with faults active is diagnosed as slow
/// progress, and the diagnosis folds the live fault windows in.
#[test]
fn timeout_diagnosis_reports_active_fault_windows() {
    let config = GpuConfig::virgo().with_faults(FaultPlan::seeded(3).with_event(
        FaultKind::DramChannelThrottle {
            channel: 0,
            latency_multiplier: 8,
        },
        0,
        PERMANENT,
    ));
    let kernel = build_gemm(&config, small_gemm());
    let err = Gpu::new(config)
        .run_with_mode(&kernel, 50, SimMode::FastForward)
        .expect_err("a 50-cycle budget cannot finish a 128^3 GEMM");
    let SimError::Timeout { diagnosis, .. } = err else {
        panic!("expected a timeout, got {err}");
    };
    assert_eq!(diagnosis.active_fault_windows, 1);
    let rendered = diagnosis.to_string();
    assert!(
        rendered.contains("1 injected fault window(s) active"),
        "diagnosis must surface the live fault windows: {rendered}"
    );
}

/// Chaos smoke for the self-healing sweep pool: persistently panicking jobs
/// are retried and quarantined; surviving results keep submission order.
#[test]
fn sweep_pool_quarantines_panics_without_reordering() {
    let pool = SweepPool::new(4);
    let results = pool.try_map((0..16u64).collect::<Vec<_>>(), |n| {
        assert!(n % 5 != 3, "poisoned item {n}");
        n * 10
    });
    assert_eq!(results.len(), 16);
    for (i, result) in results.iter().enumerate() {
        if i as u64 % 5 == 3 {
            let err = result.as_ref().expect_err("poisoned item must quarantine");
            assert_eq!(err.index, i);
            assert_eq!(err.attempts, SweepPool::MAX_ATTEMPTS);
            assert!(err.message.contains("poisoned item"));
        } else {
            assert_eq!(
                *result.as_ref().expect("healthy item must survive"),
                i as u64 * 10,
                "submission order must be preserved"
            );
        }
    }
}

/// The same resilience through the sweep service: a point whose kernel
/// build panics (FlashAttention on a Volta-style machine has no mapping)
/// is quarantined while the rest of the grid completes.
#[test]
fn sweep_service_survives_a_poisoned_grid_point() {
    let svc = SweepService::in_memory(2);
    let attention = AttentionShape {
        batch: 1,
        seq_len: 128,
        head_dim: 64,
        heads: 1,
    };
    let points = vec![
        Query::new(DesignKind::Virgo, small_gemm()),
        Query::new(DesignKind::VoltaStyle, attention),
        Query::new(DesignKind::AmpereStyle, small_gemm()),
    ];
    let outcomes = svc.try_run_all(&points);
    assert_eq!(outcomes.len(), 3);
    assert!(outcomes[0].is_ok() && outcomes[2].is_ok());
    let err = outcomes[1]
        .as_ref()
        .expect_err("poisoned point quarantines");
    assert_eq!(err.index, 1);
    assert!(
        outcomes[2].as_ref().unwrap().report.cycles().get() > 0,
        "grid points after the poisoned one still simulate"
    );
}
