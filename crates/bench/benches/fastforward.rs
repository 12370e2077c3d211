//! Naive vs fast-forward simulation-loop benchmark.
//!
//! Demonstrates the two halves of the fast-forward engine's contract on
//! stall-heavy workloads:
//!
//! 1. **Equivalence** — both modes produce bit-identical report digests.
//! 2. **Speed** — skipping quiescent cycles cuts simulated-run wall-clock by
//!    well over the 3× target on DRAM/DMA-bound kernels.
//!
//! Besides the human-readable table, the run emits `BENCH_fastforward.json`
//! at the workspace root so the speedup can be tracked over time by CI and
//! perf dashboards.

use std::sync::Arc;
use std::time::Instant;

use virgo::{DesignKind, Gpu, GpuConfig, SchedStats, SimMode};
use virgo_bench::{print_table, write_artifact, ReportDigest};
use virgo_isa::{
    DataType, DeviceId, DmaCopyCmd, Kernel, KernelInfo, MemLoc, MmioCommand, ProgramBuilder,
    WarpAssignment, WarpOp,
};
use virgo_kernels::GemmShape;
use virgo_sim::json::{write_array, ObjWriter};

/// A deliberately stall-heavy kernel: one warp repeatedly programs a large
/// DRAM-to-shared DMA tile load and fences on it, so nearly every simulated
/// cycle is a quiescent DMA wait — the pattern that dominates the paper's
/// large GEMM tile loads.
fn dma_stall_kernel(tiles: u64, tile_bytes: u64) -> Kernel {
    let mut b = ProgramBuilder::new();
    b.repeat(tiles, |b| {
        let cmd = MmioCommand::DmaCopy(DmaCopyCmd::new(
            MemLoc::global(0u64),
            MemLoc::shared(0u64),
            tile_bytes,
        ));
        b.op(WarpOp::MmioWrite {
            device: DeviceId::DMA0,
            cmd,
        });
        b.op(WarpOp::FenceAsync { max_outstanding: 0 });
    });
    Kernel::new(
        KernelInfo::new("dma-stall-tiles", 0, DataType::Fp16),
        vec![WarpAssignment::new(0, 0, Arc::new(b.build()))],
    )
}

struct Comparison {
    name: &'static str,
    cycles: u64,
    /// Fastest and median host time of each mode over the measured pairs.
    naive_ms: f64,
    fast_ms: f64,
    naive_median_ms: f64,
    fast_median_ms: f64,
    identical: bool,
    /// Scheduler counters of the fast-forward run: how many cycles were
    /// processed vs jumped, and which component class pinned each event.
    sched: SchedStats,
}

impl Comparison {
    fn speedup(&self) -> f64 {
        self.naive_ms / self.fast_ms.max(1e-9)
    }

    /// Compact horizon-attribution column: the non-zero event classes, most
    /// frequent first, so a regression names the component that stopped the
    /// skip at a glance.
    fn attribution(&self) -> String {
        let s = &self.sched;
        let mut classes = [
            ("simt", s.simt_events),
            ("gemmini", s.gemmini_events),
            ("tensor", s.tensor_events),
            ("dma", s.dma_events),
            ("dsm", s.dsm_events),
        ];
        classes.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
        let parts: Vec<String> = classes
            .iter()
            .filter(|&&(_, n)| n > 0)
            .map(|(name, n)| format!("{name} {n}"))
            .collect();
        if parts.is_empty() {
            "-".to_string()
        } else {
            parts.join(" · ")
        }
    }

    fn json(&self) -> String {
        let s = &self.sched;
        let mut w = ObjWriter::new();
        w.str("workload", self.name)
            .u64("simulated_cycles", self.cycles)
            .f64("naive_ms", self.naive_ms)
            .f64("fastforward_ms", self.fast_ms)
            .f64("naive_median_ms", self.naive_median_ms)
            .f64("fastforward_median_ms", self.fast_median_ms)
            .f64("speedup", self.speedup())
            .bool("bit_identical", self.identical)
            .u64("processed_cycles", s.processed_cycles)
            .u64("skipped_cycles", s.skipped_cycles)
            .u64("simt_events", s.simt_events)
            .u64("gemmini_events", s.gemmini_events)
            .u64("tensor_events", s.tensor_events)
            .u64("dma_events", s.dma_events)
            .u64("dsm_events", s.dsm_events)
            .u64("bailout_engagements", s.bailout_engagements);
        w.finish()
    }
}

fn compare_kernel(name: &'static str, config: &GpuConfig, kernel: &Kernel) -> Comparison {
    const BUDGET: u64 = 2_000_000_000;
    let naive = Gpu::new(config.clone())
        .run_with_mode(kernel, BUDGET, SimMode::Naive)
        .expect("naive run finishes");
    let fast = Gpu::new(config.clone())
        .run_with_mode(kernel, BUDGET, SimMode::FastForward)
        .expect("fast-forward run finishes");
    let identical = ReportDigest::of(&naive) == ReportDigest::of(&fast);

    // Five measured pairs (min-of-N): the dense-GEMM comparisons sit near
    // 1.0x by design, so the floors below need low-noise minima. Naive and
    // fast-forward alternate inside each pair, so host drift during the
    // measurement hits both modes alike; the two runs above are the warmup.
    let (mut naive_ms, mut fast_ms) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        for (mode, samples) in [
            (SimMode::Naive, &mut naive_ms),
            (SimMode::FastForward, &mut fast_ms),
        ] {
            let start = Instant::now();
            let report = Gpu::new(config.clone()).run_with_mode(kernel, BUDGET, mode);
            std::hint::black_box(report.expect("measured run finishes"));
            samples.push(start.elapsed().as_secs_f64() * 1e3);
        }
    }
    let (naive_min, naive_median) = min_and_median(&mut naive_ms);
    let (fast_min, fast_median) = min_and_median(&mut fast_ms);
    Comparison {
        name,
        cycles: naive.cycles().get(),
        naive_ms: naive_min,
        fast_ms: fast_min,
        naive_median_ms: naive_median,
        fast_median_ms: fast_median,
        identical,
        sched: *fast.sched_stats(),
    }
}

/// The fastest and the median of an odd number of samples.
fn min_and_median(samples: &mut [f64]) -> (f64, f64) {
    samples.sort_by(f64::total_cmp);
    (samples[0], samples[samples.len() / 2])
}

fn compare_gemm(name: &'static str, design: DesignKind, size: u32) -> Comparison {
    let config = GpuConfig::for_design(design);
    let kernel = virgo_kernels::build_gemm(&config, GemmShape::square(size));
    compare_kernel(name, &config, &kernel)
}

fn main() {
    let virgo = GpuConfig::virgo();
    let stall_kernel = dma_stall_kernel(16, 512 * 1024);

    let comparisons = [
        compare_kernel("dma_stall_16x512KiB", &virgo, &stall_kernel),
        compare_gemm("virgo_gemm_256", DesignKind::Virgo, 256),
        compare_gemm("ampere_gemm_128", DesignKind::AmpereStyle, 128),
    ];

    let rows: Vec<Vec<String>> = comparisons
        .iter()
        .map(|c| {
            vec![
                c.name.to_string(),
                c.cycles.to_string(),
                format!("{:.2} / {:.2}", c.naive_ms, c.naive_median_ms),
                format!("{:.2} / {:.2}", c.fast_ms, c.fast_median_ms),
                format!("{:.1}x", c.speedup()),
                if c.identical { "yes" } else { "NO" }.to_string(),
                format!(
                    "{}/{}",
                    c.sched.processed_cycles,
                    c.sched.processed_cycles + c.sched.skipped_cycles
                ),
                c.attribution(),
            ]
        })
        .collect();
    print_table(
        "Fast-forward engine: naive vs cycle-skipping driver",
        &[
            "workload",
            "sim cycles",
            "naive ms min / med",
            "ff ms min / med",
            "speedup",
            "bit-identical",
            "proc/total",
            "horizon pinned by",
        ],
        &rows,
    );

    let mut doc = ObjWriter::new();
    doc.str("bench", "fastforward")
        .raw("comparisons", &write_array(&comparisons, Comparison::json));
    write_artifact("fastforward", &doc.finish());

    let stall = &comparisons[0];
    assert!(
        comparisons.iter().all(|c| c.identical),
        "fast-forward reports must be bit-identical to the naive loop"
    );
    assert!(
        stall.speedup() >= 3.0,
        "stall-heavy speedup regressed below 3x: {:.2}x",
        stall.speedup()
    );
    // Dense-GEMM speedup gates. With batched Gemmini operand streaming the
    // virgo kernel is almost entirely quiescent between block boundaries and
    // the driver jumps it in a handful of events — comfortably past 2x. The
    // ampere kernel is different in kind: its warps issue an HMMA/ALU/load
    // instruction nearly every cycle, so ~86k of its ~192k core-cycles are
    // *active* ticks that both modes must execute instruction-by-instruction.
    // Measured on this workload, a fast-forward pass with zero scheduler
    // overhead would still pay those ticks, capping the honest ceiling near
    // 1.4x; the gate pins the achieved ratio (≈1.3x after the in-tick horizon
    // fold removed the per-tick `next_activity` probes) with margin for CI
    // jitter, and the real protection is the floor staying well above the
    // pre-horizon 0.9x regressions.
    let gemm_floor = |name: &str| match name {
        "virgo_gemm_256" => Some(2.0),
        "ampere_gemm_128" => Some(1.15),
        _ => None,
    };
    for c in &comparisons {
        if let Some(floor) = gemm_floor(c.name) {
            assert!(
                c.speedup() >= floor,
                "{} fast-forward speedup regressed below {floor}x: {:.2}x",
                c.name,
                c.speedup()
            );
        }
    }
    println!(
        "stall-heavy speedup: {:.1}x (target >= 3x), dense gates met — all reports bit-identical",
        stall.speedup()
    );
}
