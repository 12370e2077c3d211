//! Inter-cluster DSM scaling study — the producer-consumer split-K GEMM on
//! N ∈ {2, 4, 8} clusters, with the partial-sum reduction either crossing
//! the DSM fabric (direct scratchpad-to-scratchpad pushes) or taking the
//! DRAM round trip (spill to global memory, reload on the consumer).
//!
//! Two sweeps run back to back:
//!
//! * the historical **contiguous** sweep (single consumer, cluster 0 owns
//!   every output tile) — the all-to-one baseline, unchanged so its numbers
//!   stay comparable release over release;
//! * the **rotated** sweep — ownership of the output tiles rotates over all
//!   N clusters, so the partial-tile traffic spreads across every DSM
//!   ingress link instead of funnelling into one port, plus a joint
//!   `dsm x dram_channels` sweep at N = 8 that shows the rotation is what
//!   unlocks the extra DRAM bandwidth.
//!
//! The table surfaces the per-link [`DsmLinkStats`] max/mean utilization and
//! the per-cluster ingress spread, so a hotspot (one link saturated, the
//! rest idle) is visible straight from the CI log.
//!
//! The run prints the A/B tables, emits `BENCH_dsm.json` at the workspace
//! root and enforces three gates:
//!
//! * at N ≥ 4 the contiguous DSM path must move *strictly* fewer DRAM bytes
//!   **and** finish in strictly fewer total cycles than its DRAM-path twin;
//! * at N ≥ 4 the rotated DSM path must finish in strictly fewer cycles
//!   than the contiguous (single-consumer) DSM path on the same machine;
//! * at N = 8 the rotated DSM path must reach ≥ 45% MAC utilization at some
//!   swept DRAM channel count — roughly 2x the all-to-one baseline.

use virgo::{Gpu, GpuConfig, SimMode, SimReport};
use virgo_bench::{print_table, write_artifact, MAX_CYCLES};
use virgo_isa::PartitionStrategy;
use virgo_kernels::{build_split_k_gemm, build_split_k_gemm_with_strategy, GemmShape};
use virgo_sim::json::{write_array, ObjWriter};

/// Cluster counts swept.
const CLUSTER_COUNTS: [u32; 3] = [2, 4, 8];

/// DRAM channel counts for the joint `dsm x dram_channels` sweep at N = 8.
/// Channel count 1 is already covered by the per-N sweeps.
const JOINT_DRAM_CHANNELS: [u32; 2] = [2, 4];

/// The cluster count the joint sweep and the utilization gate run at.
const JOINT_CLUSTERS: u32 = 8;

/// The split-K GEMM every point runs. A K-heavy shape: 2×4 output tiles
/// over 8 K-tiles, so every cluster count in the sweep gets a non-empty
/// K-slice and the reduction carries real tile traffic.
const SPLIT_K_GEMM: GemmShape = GemmShape {
    m: 256,
    n: 256,
    k: 1024,
};

/// The rotated N = 8 DSM path must reach this MAC utilization somewhere in
/// the joint sweep (the contiguous all-to-one baseline peaks at ~22.7%).
const ROTATED_UTILIZATION_GATE_PCT: f64 = 45.0;

struct Point {
    clusters: u32,
    dsm: bool,
    strategy: PartitionStrategy,
    dram_channels: u32,
    cycles: u64,
    dram_bytes: u64,
    dram_stall_cycles: u64,
    dsm_bytes: u64,
    dsm_stall_cycles: u64,
    dsm_hop_flits: u64,
    utilization_pct: f64,
    energy_mj: f64,
    link_max_util_pct: f64,
    link_mean_util_pct: f64,
    active_spread: f64,
    dsm_ingress_spread: f64,
}

impl Point {
    fn of(
        clusters: u32,
        dsm: bool,
        strategy: PartitionStrategy,
        dram_channels: u32,
        link_bandwidth: u64,
        report: &SimReport,
    ) -> Point {
        // Per-link utilization: ingress bytes over the link's byte capacity
        // for the whole run. The max/mean pair makes a hotspot legible — the
        // all-to-one reduction shows max = N x mean.
        let capacity = (report.cycles().get() * link_bandwidth) as f64;
        let utils: Vec<f64> = report
            .dsm_link_stats()
            .iter()
            .map(|l| {
                if capacity > 0.0 {
                    100.0 * l.bytes as f64 / capacity
                } else {
                    0.0
                }
            })
            .collect();
        let link_max = utils.iter().cloned().fold(0.0f64, f64::max);
        let link_mean = if utils.is_empty() {
            0.0
        } else {
            utils.iter().sum::<f64>() / utils.len() as f64
        };
        let imbalance = report.load_imbalance();
        Point {
            clusters,
            dsm,
            strategy,
            dram_channels,
            cycles: report.cycles().get(),
            dram_bytes: report.dram_bytes(),
            dram_stall_cycles: report.dram_contention_stall_cycles(),
            dsm_bytes: report.dsm_bytes(),
            dsm_stall_cycles: report.dsm_stats().stall_cycles,
            dsm_hop_flits: report.dsm_stats().hop_flits,
            utilization_pct: report.mac_utilization().as_percent(),
            energy_mj: report.total_energy_mj(),
            link_max_util_pct: link_max,
            link_mean_util_pct: link_mean,
            active_spread: imbalance.active_spread,
            dsm_ingress_spread: imbalance.dsm_ingress_spread,
        }
    }

    fn strategy_tag(&self) -> &'static str {
        match self.strategy {
            PartitionStrategy::Contiguous => "contig",
            PartitionStrategy::Interleaved => "int",
            PartitionStrategy::Rotated => "rot",
        }
    }

    fn row(&self) -> Vec<String> {
        vec![
            self.clusters.to_string(),
            self.strategy_tag().to_string(),
            if self.dsm { "dsm" } else { "dram" }.to_string(),
            self.dram_channels.to_string(),
            self.cycles.to_string(),
            self.dram_bytes.to_string(),
            self.dram_stall_cycles.to_string(),
            self.dsm_bytes.to_string(),
            format!("{:.1}%", self.link_max_util_pct),
            format!("{:.1}%", self.link_mean_util_pct),
            format!("{:.2}", self.dsm_ingress_spread),
            format!("{:.1}%", self.utilization_pct),
            format!("{:.3}", self.energy_mj),
        ]
    }

    fn json(&self) -> String {
        let mut w = ObjWriter::new();
        w.u64("clusters", self.clusters.into())
            .bool("dsm", self.dsm)
            .str("strategy", self.strategy_tag())
            .u64("dram_channels", self.dram_channels.into())
            .u64("cycles", self.cycles)
            .u64("dram_bytes", self.dram_bytes)
            .u64("dram_contention_stall_cycles", self.dram_stall_cycles)
            .u64("dsm_bytes", self.dsm_bytes)
            .u64("dsm_stall_cycles", self.dsm_stall_cycles)
            .u64("dsm_hop_flits", self.dsm_hop_flits)
            .f64("dsm_link_max_util_percent", self.link_max_util_pct)
            .f64("dsm_link_mean_util_percent", self.link_mean_util_pct)
            .f64("active_spread", self.active_spread)
            .f64("dsm_ingress_spread", self.dsm_ingress_spread)
            .f64("mac_utilization_percent", self.utilization_pct)
            .f64("energy_mj", self.energy_mj);
        w.finish()
    }
}

const HEADERS: [&str; 13] = [
    "clusters",
    "strat",
    "path",
    "dram ch",
    "cycles",
    "dram bytes",
    "dram stall cyc",
    "dsm bytes",
    "link max",
    "link mean",
    "ingress spread",
    "MAC util",
    "energy mJ",
];

fn main() {
    let run_point = |clusters: u32, dsm: bool, strategy: PartitionStrategy, channels: u32| {
        let mut config = GpuConfig::virgo()
            .with_clusters(clusters)
            .with_dram_channels(channels);
        if dsm {
            config = config.with_dsm_enabled();
        }
        let kernel = match strategy {
            PartitionStrategy::Contiguous => build_split_k_gemm(&config, SPLIT_K_GEMM),
            other => build_split_k_gemm_with_strategy(&config, SPLIT_K_GEMM, other),
        };
        let link_bandwidth = config.dsm.link_bandwidth;
        let report = Gpu::new(config)
            .run_with_mode(&kernel, MAX_CYCLES, SimMode::FastForward)
            .unwrap_or_else(|e| panic!("{} must finish: {e}", kernel.info.name));
        eprintln!(
            "  finished {} (ch={channels}) in {} cycles",
            kernel.info.name,
            report.cycles().get()
        );
        Point::of(clusters, dsm, strategy, channels, link_bandwidth, &report)
    };

    // ---- Sweep 1: the historical contiguous single-consumer A/B ----
    let mut points = Vec::new();
    for clusters in CLUSTER_COUNTS {
        for dsm in [false, true] {
            points.push(run_point(clusters, dsm, PartitionStrategy::Contiguous, 1));
        }
    }

    // ---- Sweep 2: rotated ownership on the DSM path, per cluster count ----
    for clusters in CLUSTER_COUNTS {
        points.push(run_point(clusters, true, PartitionStrategy::Rotated, 1));
    }

    // ---- Sweep 3: joint dsm x dram_channels at N = 8, both strategies ----
    // The rotation removes the single-ingress-port ceiling, so extra DRAM
    // channels translate into utilization; on the contiguous kernel they
    // mostly cannot.
    for channels in JOINT_DRAM_CHANNELS {
        for strategy in [PartitionStrategy::Contiguous, PartitionStrategy::Rotated] {
            points.push(run_point(JOINT_CLUSTERS, true, strategy, channels));
        }
    }

    print_table(
        &format!(
            "Split-K GEMM {SPLIT_K_GEMM}: DSM fabric vs DRAM round trip, contiguous vs rotated"
        ),
        &HEADERS,
        &points.iter().map(Point::row).collect::<Vec<_>>(),
    );

    let mut doc = ObjWriter::new();
    doc.str("bench", "dsm_scaling")
        .str("gemm", &SPLIT_K_GEMM.to_string())
        .raw("points", &write_array(&points, Point::json));
    write_artifact("dsm", &doc.finish());

    let find = |clusters: u32, dsm: bool, strategy: PartitionStrategy, channels: u32| {
        points
            .iter()
            .find(|p| {
                p.clusters == clusters
                    && p.dsm == dsm
                    && p.strategy == strategy
                    && p.dram_channels == channels
            })
            .expect("swept point")
    };

    // ---- DSM gate (N >= 4): strictly less DRAM traffic AND fewer cycles ----
    for clusters in CLUSTER_COUNTS.into_iter().filter(|&n| n >= 4) {
        let dram = find(clusters, false, PartitionStrategy::Contiguous, 1);
        let dsm = find(clusters, true, PartitionStrategy::Contiguous, 1);
        assert!(
            dsm.dram_bytes < dram.dram_bytes,
            "N={clusters}: DSM path must move strictly fewer DRAM bytes \
             ({} >= {})",
            dsm.dram_bytes,
            dram.dram_bytes,
        );
        assert!(
            dsm.cycles < dram.cycles,
            "N={clusters}: DSM path must finish in strictly fewer cycles \
             ({} >= {})",
            dsm.cycles,
            dram.cycles,
        );
        println!(
            "N={clusters}: DSM saves {:.1}% DRAM bytes ({} -> {}), {:.2}x cycles ({} -> {}) — gate passed",
            100.0 * (dram.dram_bytes - dsm.dram_bytes) as f64 / dram.dram_bytes as f64,
            dram.dram_bytes,
            dsm.dram_bytes,
            dram.cycles as f64 / dsm.cycles as f64,
            dram.cycles,
            dsm.cycles,
        );
    }

    // ---- Rotation gate (N >= 4): distributing the reduction must pay ----
    for clusters in CLUSTER_COUNTS.into_iter().filter(|&n| n >= 4) {
        let contiguous = find(clusters, true, PartitionStrategy::Contiguous, 1);
        let rotated = find(clusters, true, PartitionStrategy::Rotated, 1);
        assert!(
            rotated.cycles < contiguous.cycles,
            "N={clusters}: rotated reduction must finish in strictly fewer \
             cycles than the single-consumer DSM path ({} >= {})",
            rotated.cycles,
            contiguous.cycles,
        );
        println!(
            "N={clusters}: rotation {:.2}x cycles ({} -> {}), ingress spread {:.2} -> {:.2} — gate passed",
            contiguous.cycles as f64 / rotated.cycles as f64,
            contiguous.cycles,
            rotated.cycles,
            contiguous.dsm_ingress_spread,
            rotated.dsm_ingress_spread,
        );
    }

    // ---- Utilization gate: rotated N = 8 must clear 45% somewhere in the
    // joint sweep (the all-to-one baseline is DRAM- and port-bound at ~23%) ----
    let best = std::iter::once(1)
        .chain(JOINT_DRAM_CHANNELS)
        .map(|ch| find(JOINT_CLUSTERS, true, PartitionStrategy::Rotated, ch))
        .max_by(|a, b| {
            a.utilization_pct
                .partial_cmp(&b.utilization_pct)
                .expect("finite utilization")
        })
        .expect("non-empty joint sweep");
    assert!(
        best.utilization_pct >= ROTATED_UTILIZATION_GATE_PCT,
        "N={JOINT_CLUSTERS}: rotated split-K peaked at {:.1}% MAC utilization \
         (ch={}), below the {ROTATED_UTILIZATION_GATE_PCT}% gate",
        best.utilization_pct,
        best.dram_channels,
    );
    println!(
        "N={JOINT_CLUSTERS}: rotated split-K reaches {:.1}% MAC utilization at \
         {} DRAM channel(s) — gate passed",
        best.utilization_pct, best.dram_channels,
    );
}
