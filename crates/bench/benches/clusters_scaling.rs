//! Cluster-count scaling sweep — the reproduction of the paper's Table 1
//! scalability argument, plus the DRAM channel-scaling axis that pushes the
//! resulting bandwidth wall out.
//!
//! The paper's core claim (Section 3) is that cluster-level matrix units let
//! a GPU scale compute by adding *clusters* rather than by growing per-core
//! units. This bench sweeps N ∈ {1, 2, 4, 8} clusters on a fixed-size GEMM
//! for every design point — the whole grid sharded across the sweep
//! service's worker pool and memoized in its report cache — with all
//! clusters contending for the shared L2/DRAM back-end, and reports the two
//! sides of the tradeoff:
//!
//! * total machine cycles fall as clusters are added (compute scales), and
//! * DRAM-contention stall cycles rise (the shared memory system becomes the
//!   bottleneck), which is why utilization decays toward the bandwidth bound.
//!
//! A second axis then sweeps the Virgo design over `dram_channels ∈ {1, 2,
//! 4}` address-interleaved DRAM channels at every cluster count: more
//! channels drain the request queues faster, so the N=8 contention wall
//! recedes and utilization recovers toward the compute bound.
//!
//! A third, tall-skinny axis (1920×192×256 on Virgo) exercises the
//! per-cluster load-imbalance metric: its 45 output tiles never divide
//! evenly across the swept cluster counts, so the per-cluster active-cycle
//! spread (`max/mean`) becomes visible where the square shape's even tile
//! grid pins it at 1.0.
//!
//! Besides the human-readable tables, the run emits `BENCH_clusters.json`
//! (at the workspace root) and enforces two gates:
//!
//! * the scaling gate on the Virgo design — cycles must *strictly decrease*
//!   from N=1 through N=4 while contention stalls *increase*, and
//! * the channel gate at N=8 — Virgo's total `dram_stall_cycles` must
//!   *strictly decrease* as the channel count grows 1 → 2 → 4.

use virgo::DesignKind;
use virgo_bench::{print_cache_summary, print_table, sweep_service, write_artifact};
use virgo_kernels::GemmShape;
use virgo_sim::json::{write_array, ObjWriter};
use virgo_sweep::{Query, SweepOutcome};

/// Cluster counts swept, per the ISSUE/Table 1 scaling study.
const CLUSTER_COUNTS: [u32; 4] = [1, 2, 4, 8];

/// DRAM channel counts swept on the Virgo design.
const DRAM_CHANNELS: [u32; 3] = [1, 2, 4];

struct Point {
    design: DesignKind,
    clusters: u32,
    dram_channels: u32,
    cycles: u64,
    dram_stall_cycles: u64,
    utilization_pct: f64,
    active_spread: f64,
    energy_mj: f64,
    energy_per_mac_pj: f64,
}

impl From<&SweepOutcome> for Point {
    fn from(outcome: &SweepOutcome) -> Point {
        let report = &outcome.report;
        let macs = report.performed_macs().max(1);
        let point = outcome.point().expect("built from a design-space query");
        Point {
            design: point.design,
            clusters: point.clusters,
            dram_channels: point.dram_channels,
            cycles: report.cycles().get(),
            dram_stall_cycles: report.dram_contention_stall_cycles(),
            utilization_pct: report.mac_utilization().as_percent(),
            active_spread: report.load_imbalance().active_spread,
            energy_mj: report.total_energy_mj(),
            energy_per_mac_pj: report.total_energy_mj() * 1e9 / macs as f64,
        }
    }
}

impl Point {
    fn row(&self) -> Vec<String> {
        vec![
            self.design.to_string(),
            self.clusters.to_string(),
            self.dram_channels.to_string(),
            self.cycles.to_string(),
            self.dram_stall_cycles.to_string(),
            format!("{:.1}%", self.utilization_pct),
            format!("{:.3}", self.active_spread),
            format!("{:.3}", self.energy_mj),
            format!("{:.2}", self.energy_per_mac_pj),
        ]
    }

    fn json(&self) -> String {
        let mut w = ObjWriter::new();
        w.str("design", self.design.name())
            .u64("clusters", self.clusters.into())
            .u64("dram_channels", self.dram_channels.into())
            .u64("cycles", self.cycles)
            .u64("dram_contention_stall_cycles", self.dram_stall_cycles)
            .f64("mac_utilization_percent", self.utilization_pct)
            .f64("active_spread", self.active_spread)
            .f64("energy_mj", self.energy_mj)
            .f64("energy_per_mac_pj", self.energy_per_mac_pj);
        w.finish()
    }
}

const HEADERS: [&str; 9] = [
    "design",
    "clusters",
    "dram ch",
    "cycles",
    "dram stall cyc",
    "MAC util",
    "act spread",
    "energy mJ",
    "pJ/MAC",
];

fn main() {
    // A fixed-size problem: the whole point is to watch the same work split
    // across more clusters. 512³ gives every cluster real tile traffic at
    // N=8 while keeping the sweep quick.
    let shape = GemmShape::square(512);

    // The full design × cluster-count grid at one DRAM channel, followed by
    // the Virgo × channel-count grid for channels > 1, all sharded across
    // the sweep service's worker pool. The channels=1 rows of the second
    // axis are exactly the design grid's Virgo points, so they are not
    // re-submitted (a multi-worker pool could otherwise simulate a
    // duplicate point twice before the first fills the cache).
    let grid: Vec<Query> = DesignKind::all()
        .into_iter()
        .flat_map(|design| {
            CLUSTER_COUNTS
                .into_iter()
                .map(move |clusters| Query::new(design, shape).clusters(clusters))
        })
        .chain(
            DRAM_CHANNELS
                .into_iter()
                .filter(|&channels| channels > 1)
                .flat_map(|channels| {
                    CLUSTER_COUNTS.into_iter().map(move |clusters| {
                        Query::new(DesignKind::Virgo, shape)
                            .clusters(clusters)
                            .dram_channels(channels)
                    })
                }),
        )
        .collect();
    let outcomes = sweep_service().run_streaming(&grid, |outcome| {
        eprintln!(
            "  finished {} in {} cycles{}",
            outcome.query,
            outcome.report.cycles().get(),
            if outcome.from_cache { " (cached)" } else { "" }
        );
    });
    let points: Vec<Point> = outcomes.iter().map(Point::from).collect();
    let design_grid_len = DesignKind::all().len() * CLUSTER_COUNTS.len();
    let (design_points, multi_channel_points) = points.split_at(design_grid_len);

    // The channel axis as reported: the design grid's Virgo rows (channels
    // = 1, DesignKind::all puts Virgo last so they stay in cluster order)
    // followed by the channels > 1 rows.
    let channel_points: Vec<&Point> = design_points
        .iter()
        .filter(|p| p.design == DesignKind::Virgo)
        .chain(multi_channel_points.iter())
        .collect();

    print_table(
        &format!("Cluster scaling on {shape} GEMM (shared L2/DRAM, 1 channel)"),
        &HEADERS,
        &design_points.iter().map(Point::row).collect::<Vec<_>>(),
    );
    print_table(
        &format!("DRAM channel scaling on {shape} GEMM (Virgo)"),
        &HEADERS,
        &channel_points.iter().map(|p| p.row()).collect::<Vec<_>>(),
    );

    // ---- Tall-skinny axis: a shape that stresses the imbalance metric ------
    // 1920×192×256 has 15×3 = 45 output tiles: no swept cluster count
    // divides 45, so the contiguous partition hands some clusters an extra
    // tile and the per-cluster active-cycle spread (max/mean) separates from
    // 1.0 — where the square shape's 64-tile grid divides evenly everywhere
    // and pins the spread at exactly 1.0.
    let tall = GemmShape {
        m: 1920,
        n: 192,
        k: 256,
    };
    let tall_grid: Vec<Query> = CLUSTER_COUNTS
        .into_iter()
        .map(|clusters| Query::new(DesignKind::Virgo, tall).clusters(clusters))
        .collect();
    let tall_outcomes = sweep_service().run_streaming(&tall_grid, |outcome| {
        eprintln!(
            "  finished {} in {} cycles{}",
            outcome.query,
            outcome.report.cycles().get(),
            if outcome.from_cache { " (cached)" } else { "" }
        );
    });
    let tall_points: Vec<Point> = tall_outcomes.iter().map(Point::from).collect();
    print_table(
        &format!("Tall-skinny {tall} GEMM (Virgo): per-cluster load imbalance"),
        &HEADERS,
        &tall_points.iter().map(Point::row).collect::<Vec<_>>(),
    );
    for p in &tall_points {
        // 45 tiles never divide evenly across N > 1 clusters, so the metric
        // must register the uneven deal; N = 1 is trivially balanced.
        if p.clusters > 1 {
            assert!(
                p.active_spread > 1.0,
                "N={}: active spread {} must expose the uneven tile deal",
                p.clusters,
                p.active_spread,
            );
        } else {
            assert_eq!(p.active_spread, 1.0, "N=1 is one cluster, spread is 1");
        }
    }

    let mut doc = ObjWriter::new();
    doc.str("bench", "clusters_scaling")
        .str("gemm", &shape.to_string())
        .raw("points", &write_array(&points, Point::json))
        .str("tall_skinny_gemm", &tall.to_string())
        .raw(
            "tall_skinny_points",
            &write_array(&tall_points, Point::json),
        );
    write_artifact("clusters", &doc.finish());

    // ---- Scaling gate (Virgo design, N = 1 → 2 → 4) ------------------------
    // Cycles strictly decrease while DRAM-contention stalls increase: adding
    // clusters buys real speedup and the cost shows up on the shared channel.
    let virgo: Vec<&Point> = design_points
        .iter()
        .filter(|p| p.design == DesignKind::Virgo && p.clusters <= 4)
        .collect();
    for pair in virgo.windows(2) {
        assert!(
            pair[1].cycles < pair[0].cycles,
            "cycles must strictly decrease with clusters: N={} took {} >= N={}'s {}",
            pair[1].clusters,
            pair[1].cycles,
            pair[0].clusters,
            pair[0].cycles,
        );
        assert!(
            pair[1].dram_stall_cycles > pair[0].dram_stall_cycles,
            "DRAM contention must grow with clusters: N={} stalled {} <= N={}'s {}",
            pair[1].clusters,
            pair[1].dram_stall_cycles,
            pair[0].clusters,
            pair[0].dram_stall_cycles,
        );
    }
    let first = virgo.first().expect("sweep is non-empty");
    let last = virgo.last().expect("sweep is non-empty");
    println!(
        "Virgo N=1 -> N=4: {:.2}x speedup, contention stalls {} -> {} — gate passed",
        first.cycles as f64 / last.cycles as f64,
        first.dram_stall_cycles,
        last.dram_stall_cycles,
    );

    // ---- Channel gate (Virgo design, N = 8, channels 1 → 2 → 4) -----------
    // Interleaving the back-end over more channels must strictly drain the
    // N=8 contention wall the first gate just demonstrated.
    let wall: Vec<&Point> = channel_points
        .iter()
        .copied()
        .filter(|p| p.clusters == 8)
        .collect();
    assert_eq!(
        wall.len(),
        DRAM_CHANNELS.len(),
        "one N=8 point per channel count"
    );
    for pair in wall.windows(2) {
        assert!(
            pair[1].dram_stall_cycles < pair[0].dram_stall_cycles,
            "N=8 contention must strictly drain with channels: ch={} stalled {} >= ch={}'s {}",
            pair[1].dram_channels,
            pair[1].dram_stall_cycles,
            pair[0].dram_channels,
            pair[0].dram_stall_cycles,
        );
    }
    println!(
        "Virgo N=8 channels 1 -> 4: contention stalls {} -> {}, utilization {:.1}% -> {:.1}% — gate passed",
        wall.first().expect("non-empty").dram_stall_cycles,
        wall.last().expect("non-empty").dram_stall_cycles,
        wall.first().expect("non-empty").utilization_pct,
        wall.last().expect("non-empty").utilization_pct,
    );
    print_cache_summary();
}
