//! Fault-injection resilience study — the producer-consumer split-K GEMM on
//! N = 8 clusters over the DSM fabric, run clean and then with a ring link
//! killed mid-run (a permanent [`FaultKind::DsmLinkDown`] window opening at
//! a quarter of the clean run's cycle count).
//!
//! The run prints the A/B table, emits `BENCH_faults.json` at the workspace
//! root and enforces the resilience gates:
//!
//! * the degraded machine must still **complete** (traffic reroutes the
//!   long way around the ring instead of deadlocking),
//! * the reroute must actually engage (`dsm_rerouted_transfers > 0`),
//! * the cycle overhead of losing a link must stay ≤ 2.5× the clean run,
//! * the degraded run must stay **bit-identical across simulation modes**
//!   (naive vs fast-forward), the determinism contract of the fault layer.
//!
//! Every counter in the artifact is deterministic, so the committed
//! `BENCH_faults.json` doubles as a regression pin: `bench_diff` fails CI
//! if the degraded machine's behavior drifts at all.

use virgo::{FaultKind, FaultPlan, Gpu, GpuConfig, SimMode, SimReport};
use virgo_bench::{print_table, write_artifact, ReportDigest, MAX_CYCLES};
use virgo_kernels::{build_split_k_gemm, GemmShape};
use virgo_mem::DsmConfig;
use virgo_sim::fault::PERMANENT;
use virgo_sim::json::ObjWriter;

/// Cluster count: the paper's largest scale-out point, and the one where a
/// ring-link loss forces the longest detour.
const CLUSTERS: u32 = 8;

/// Ring segment killed (between clusters 2 and 3 — interior, so both the
/// short and long detours carry real traffic).
const KILLED_LINK: u32 = 2;

/// The split-K GEMM both runs use: the dsm_scaling bench's K-heavy shape,
/// so the reduction carries real inter-cluster traffic.
const SPLIT_K_GEMM: GemmShape = GemmShape {
    m: 256,
    n: 256,
    k: 1024,
};

/// Hard ceiling on the cycle cost of losing one of eight ring links.
const MAX_OVERHEAD: f64 = 2.5;

struct Point {
    label: &'static str,
    cycles: u64,
    dram_bytes: u64,
    dsm_bytes: u64,
    dsm_stall_cycles: u64,
    rerouted: u64,
    degraded: u64,
    utilization_pct: f64,
}

impl Point {
    fn of(label: &'static str, report: &SimReport) -> Point {
        let fault = report.fault_stats();
        Point {
            label,
            cycles: report.cycles().get(),
            dram_bytes: report.dram_bytes(),
            dsm_bytes: report.dsm_bytes(),
            dsm_stall_cycles: report.dsm_stats().stall_cycles,
            rerouted: fault.dsm_rerouted_transfers,
            degraded: fault.degraded_cycles,
            utilization_pct: report.mac_utilization().as_percent(),
        }
    }

    fn row(&self) -> Vec<String> {
        vec![
            self.label.to_string(),
            self.cycles.to_string(),
            self.dram_bytes.to_string(),
            self.dsm_bytes.to_string(),
            self.dsm_stall_cycles.to_string(),
            self.rerouted.to_string(),
            self.degraded.to_string(),
            format!("{:.1}%", self.utilization_pct),
        ]
    }
}

fn run(config: &GpuConfig, mode: SimMode) -> SimReport {
    let kernel = build_split_k_gemm(config, SPLIT_K_GEMM);
    Gpu::new(config.clone())
        .run_with_mode(&kernel, MAX_CYCLES, mode)
        .unwrap_or_else(|e| panic!("{} must finish: {e}", kernel.info.name))
}

fn main() {
    // The *ring* fabric: the topology with an alternate route, so a dead
    // segment is survivable (on the crossbar a dead ingress port can only
    // park traffic until the window closes).
    let clean_config = GpuConfig::virgo()
        .with_clusters(CLUSTERS)
        .with_dsm(DsmConfig::enabled_ring());
    let clean = run(&clean_config, SimMode::FastForward);
    eprintln!("  clean run: {} cycles", clean.cycles().get());

    // Kill the link a quarter of the way into the clean run's schedule:
    // late enough that the ring has carried traffic over the doomed
    // segment, early enough that most of the reduction reroutes.
    let kill_at = clean.cycles().get() / 4;
    let plan = FaultPlan::seeded(0xFA17).with_event(
        FaultKind::DsmLinkDown { link: KILLED_LINK },
        kill_at,
        PERMANENT,
    );
    let fault_config = clean_config.clone().with_faults(plan);
    let degraded = run(&fault_config, SimMode::FastForward);
    eprintln!("  degraded run: {} cycles", degraded.cycles().get());
    let degraded_naive = run(&fault_config, SimMode::Naive);

    print_table(
        &format!(
            "Split-K GEMM {SPLIT_K_GEMM}, N={CLUSTERS}: ring link {KILLED_LINK} down at cycle {kill_at}"
        ),
        &[
            "machine",
            "cycles",
            "dram bytes",
            "dsm bytes",
            "dsm stall cyc",
            "rerouted",
            "degraded cyc",
            "MAC util",
        ],
        &[
            Point::of("clean", &clean).row(),
            Point::of("link down", &degraded).row(),
        ],
    );

    // ---- Resilience gates ----
    let fault = degraded.fault_stats();
    let overhead = degraded.cycles().get() as f64 / clean.cycles().get() as f64;
    let bit_identical = ReportDigest::of(&degraded) == ReportDigest::of(&degraded_naive);
    assert!(
        degraded.faults_injected(),
        "the fault window must be recorded in the report"
    );
    assert!(
        fault.dsm_rerouted_transfers > 0,
        "killing ring link {KILLED_LINK} mid-run must engage the reroute path"
    );
    assert!(
        overhead <= MAX_OVERHEAD,
        "losing one of {CLUSTERS} ring links costs {overhead:.2}x cycles \
         (limit {MAX_OVERHEAD}x)"
    );
    assert!(
        bit_identical,
        "degraded-mode runs must stay bit-identical across naive and \
         fast-forward simulation modes"
    );
    println!(
        "link-down overhead {overhead:.3}x (limit {MAX_OVERHEAD}x), \
         {} transfers rerouted, modes bit-identical — gates passed",
        fault.dsm_rerouted_transfers
    );

    let mut link_kill = ObjWriter::new();
    link_kill
        .u64("cycles", degraded.cycles().get())
        .f64("cycle_overhead_ratio", overhead)
        .u64("faults_injected", fault.injected)
        .u64("degraded_cycles", fault.degraded_cycles)
        .u64("rerouted_transfers", fault.dsm_rerouted_transfers)
        .u64("dsm_blocked_cycles", fault.dsm_blocked_cycles)
        .u64("restriped_accesses", fault.dram_restriped_accesses)
        .u64("recovery_cycles", fault.recovery_cycles)
        .u64("dram_bytes", degraded.dram_bytes())
        .u64("dsm_bytes", degraded.dsm_bytes())
        .f64(
            "mac_utilization_percent",
            degraded.mac_utilization().as_percent(),
        )
        .bool("bit_identical", bit_identical);
    let mut doc = ObjWriter::new();
    doc.str("bench", "fault_resilience")
        .str("gemm", &SPLIT_K_GEMM.to_string())
        .u64("clusters", CLUSTERS.into())
        .u64("killed_link", KILLED_LINK.into())
        .u64("kill_at_cycle", kill_at)
        .u64("baseline_cycles", clean.cycles().get())
        .raw("link_kill", &link_kill.finish());
    write_artifact("faults", &doc.finish());
}
