//! Cold design-space grids answered by a fresh memory-only `SweepService`
//! on every pass: `paper_grid` (the paper's design × size grid behind
//! Figures 8–11 and Table 3) and `scaleout` (multi-cluster Virgo, where the
//! event queue skips most cycles and the back-end and fabric do the work).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use virgo::{DesignKind, GpuConfig, SimReport};
use virgo_isa::PartitionStrategy;
use virgo_kernels::{build_split_k_gemm_with_strategy, GemmShape};
use virgo_sweep::{Query, SweepService};

use super::{
    design_key, report_counters, run_query, sched_events, shuffled, Accounting, Ctx, OpSample, Run,
};
use crate::fidelity::{
    error_pp, reduction_pct, PAPER_ENERGY_VS_AMPERE, PAPER_ENERGY_VS_HOPPER, PAPER_POWER_VS_AMPERE,
    PAPER_POWER_VS_HOPPER,
};
use crate::stats::median;

/// The rotated split-K reduction of the DSM study: every cluster both
/// produces and reduces partial tiles.
const SPLIT_K: GemmShape = GemmShape {
    m: 256,
    n: 256,
    k: 1024,
};

/// One query of a grid, with the label its pin is filed under.
#[derive(Debug, Clone)]
pub struct GridPoint {
    /// Pin label, e.g. `ampere-512`.
    pub label: String,
    /// The design that runs it.
    pub design: DesignKind,
    /// The query.
    pub query: Query,
}

/// {Volta, Ampere, Hopper, Virgo}-style × {256³, 512³} on one cluster.
/// 1024³ is left out: Volta/Ampere-style take about 13 s each there.
pub fn paper_grid_points() -> Vec<GridPoint> {
    let mut points = Vec::new();
    for n in [256, 512] {
        for design in DesignKind::all() {
            points.push(GridPoint {
                label: format!("{}-{n}", design_key(design)),
                design,
                query: Query::new(design, GemmShape::square(n)),
            });
        }
    }
    points
}

/// The N=8 rotated split-K GEMM with the DSM fabric on.
pub fn split_k_point(channels: u32) -> GridPoint {
    let config = GpuConfig::virgo()
        .with_clusters(8)
        .with_dram_channels(channels)
        .with_dsm_enabled();
    let kernel = build_split_k_gemm_with_strategy(&config, SPLIT_K, PartitionStrategy::Rotated);
    GridPoint {
        label: format!("virgo-splitk-n8-ch{channels}"),
        design: DesignKind::Virgo,
        query: Query::custom(config, kernel),
    }
}

/// Virgo 1024³ at N=4 and N=8 on 4 DRAM channels, and the N=8 split-K at
/// 1 and 4 channels.
pub fn scaleout_points() -> Vec<GridPoint> {
    let mut points: Vec<GridPoint> = [4u32, 8]
        .into_iter()
        .map(|n| GridPoint {
            label: format!("virgo-1024-n{n}-ch4"),
            design: DesignKind::Virgo,
            query: Query::new(DesignKind::Virgo, GemmShape::square(1024))
                .clusters(n)
                .dram_channels(4),
        })
        .collect();
    points.push(split_k_point(1));
    points.push(split_k_point(4));
    points
}

/// Runs a grid workload: set-up builds every query's kernel, and each pass
/// answers every query once, in a seeded order, on a fresh service.
pub fn run(ctx: &Ctx, points: fn() -> Vec<GridPoint>) -> Run {
    let (setup_s, points) = ctx.setup(|| {
        let points = points();
        for point in &points {
            black_box(point.query.materialize());
        }
        points
    });
    let mut rng = ctx.rng(1);
    let mut acct = Accounting::default();
    let mut first: Vec<Option<Arc<SimReport>>> = vec![None; points.len()];
    let passes = ctx.measure(|tracer, ops| {
        let service = SweepService::in_memory(1);
        for i in shuffled(points.len(), &mut rng) {
            let point = &points[i];
            let started = Instant::now();
            let outcome = run_query(&service, &point.query, tracer);
            let ms = started.elapsed().as_secs_f64() * 1e3;
            acct.attempted += 1;
            let Some(outcome) = outcome else {
                acct.failed += 1;
                continue;
            };
            let report = outcome.report;
            if outcome.from_cache {
                acct.violation(format!("{}: cold query served from cache", point.label));
            }
            if report.performed_macs() != report.kernel_macs() {
                eprintln!(
                    "perfbench: {}: performed {} MACs of {}",
                    point.label,
                    report.performed_macs(),
                    report.kernel_macs()
                );
                acct.failed += 1;
                continue;
            }
            match &first[i] {
                None => first[i] = Some(Arc::clone(&report)),
                Some(seen) if seen.cycles() != report.cycles() => {
                    acct.violation(format!("{}: cycles changed between passes", point.label));
                }
                Some(_) => {}
            }
            ops.push(OpSample {
                ms,
                cycles: report.cycles().get(),
                design: point.design,
            });
        }
    });

    let by_label: BTreeMap<&str, &SimReport> = points
        .iter()
        .zip(&first)
        .filter_map(|(p, r)| r.as_deref().map(|r| (p.label.as_str(), r)))
        .collect();
    for (label, report) in &by_label {
        acct.check_pin(label, report);
    }
    let reports: Vec<&SimReport> = by_label.values().copied().collect();
    let mut layer = report_counters(&reports);
    let mut summary = Vec::new();

    let traced_passes = passes.traced_s.len().max(1) as f64;
    for design in DesignKind::all() {
        let key = design_key(design);
        let (cycles, ms) = passes
            .ops
            .iter()
            .filter(|o| o.design == design)
            .fold((0u64, 0.0f64), |(c, m), o| (c + o.cycles, m + o.ms));
        if ms > 0.0 {
            let rate = cycles as f64 / ms / 1e3;
            layer.push((format!("mcyc_per_s.{key}"), rate));
            summary.push((format!("mcyc_per_s.{key}"), rate, "Mcyc/s"));
        }
        let run_ns: u64 = ctx
            .tracer
            .durations_ns("pass", &format!("Gpu::run_with_mode/{key}"))
            .iter()
            .sum();
        let events: u64 = reports
            .iter()
            .filter(|r| r.design() == design)
            .map(|r| sched_events(r))
            .sum();
        if run_ns > 0 {
            layer.push((
                format!("sim.run_ms.{key}"),
                run_ns as f64 / 1e6 / traced_passes,
            ));
            if events > 0 {
                layer.push((
                    format!("sim.ns_per_event.{key}"),
                    run_ns as f64 / traced_passes / events as f64,
                ));
            }
        }
    }
    let build_ns: u64 = ctx
        .tracer
        .durations_ns("pass", "Query::materialize")
        .iter()
        .sum();
    layer.push((
        "kernels.build_ms".into(),
        build_ns as f64 / 1e6 / traced_passes,
    ));
    let digests: Vec<f64> = ctx
        .tracer
        .durations_ns("pass", "SimKey::digest")
        .iter()
        .map(|&ns| ns as f64 / 1e6)
        .collect();
    if !digests.is_empty() {
        layer.push(("key.digest_ms".into(), median(&digests).value));
    }
    fig8(&by_label, &mut layer, &mut summary);

    Run {
        setup_s,
        passes,
        acct,
        layer,
        summary,
    }
}

/// Figure 8 at 512³: per-design power and energy, and the distance of
/// Virgo's reductions from the paper's. Skipped when the grid lacks 512³.
fn fig8(
    by_label: &BTreeMap<&str, &SimReport>,
    layer: &mut Vec<(String, f64)>,
    summary: &mut Vec<(String, f64, &'static str)>,
) {
    let at = |design: DesignKind| by_label.get(format!("{}-512", design_key(design)).as_str());
    let (Some(virgo), Some(ampere), Some(hopper)) = (
        at(DesignKind::Virgo),
        at(DesignKind::AmpereStyle),
        at(DesignKind::HopperStyle),
    ) else {
        return;
    };
    for design in DesignKind::all() {
        if let Some(report) = at(design) {
            let key = design_key(design);
            layer.push((
                format!("energy.active_power_mw.{key}"),
                report.active_power_mw(),
            ));
            layer.push((format!("energy.total_mj.{key}"), report.total_energy_mj()));
        }
    }
    let rows = [
        (
            "fig8_power_err_pp.ampere",
            reduction_pct(virgo.active_power_mw(), ampere.active_power_mw()),
            PAPER_POWER_VS_AMPERE,
        ),
        (
            "fig8_power_err_pp.hopper",
            reduction_pct(virgo.active_power_mw(), hopper.active_power_mw()),
            PAPER_POWER_VS_HOPPER,
        ),
        (
            "fig8_energy_err_pp.ampere",
            reduction_pct(virgo.total_energy_mj(), ampere.total_energy_mj()),
            PAPER_ENERGY_VS_AMPERE,
        ),
        (
            "fig8_energy_err_pp.hopper",
            reduction_pct(virgo.total_energy_mj(), hopper.total_energy_mj()),
            PAPER_ENERGY_VS_HOPPER,
        ),
    ];
    for (name, reproduced, paper) in rows {
        let err = error_pp(reproduced, paper);
        layer.push((name.into(), err));
        summary.push((
            format!("{name} (reduction {reproduced:+.1}% vs paper {paper:.1}%)"),
            err,
            "pp",
        ));
    }
}
