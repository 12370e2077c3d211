//! Shared experiment harness for the benchmark targets that regenerate the
//! paper's tables and figures.
//!
//! Every bench target (`cargo bench -p virgo-bench --bench <name>`) uses the
//! helpers here to build the kernels, run them on the right GPU
//! configurations and print the rows/series the paper reports. All
//! simulation requests flow through the process-wide
//! [`virgo_sweep::SweepService`]: grids are sharded across its bounded
//! worker pool and every report is memoized by content digest — in memory
//! within a process, and across invocations in `target/sweep-cache/` when
//! `VIRGO_SWEEP_CACHE=on` opts the disk layer in — so a figure bench never
//! re-simulates points a table bench already answered. The benches
//! use `harness = false`, so `cargo bench` simply executes them as programs;
//! the `micro_criterion`, `fastforward` and `sweep` targets additionally
//! provide micro-benchmarks of the simulator itself via the dependency-free
//! [`microbench`] harness.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod diff;
pub mod digest;
pub mod microbench;

use virgo::{DesignKind, SimMode, SimReport};
use virgo_kernels::{AttentionShape, GemmShape};
use virgo_sweep::{Query, SweepService};

pub use digest::ReportDigest;
pub use microbench::Measurement;

/// Cycle budget used for every simulation; generous enough for the largest
/// (1024³ Volta-style) run. Re-exported from the sweep engine so every
/// harness (and its cache keys) agrees on one budget.
pub const MAX_CYCLES: u64 = virgo_sweep::DEFAULT_MAX_CYCLES;

/// The process-wide sweep service every helper below answers from.
pub fn sweep_service() -> &'static SweepService {
    SweepService::global()
}

/// Runs the GEMM kernel for `shape` on the given design point.
///
/// # Panics
///
/// Panics if the simulation does not complete (which would indicate a kernel
/// generation bug, not a user error).
pub fn run_gemm(design: DesignKind, shape: GemmShape) -> SimReport {
    run_gemm_with_mode(design, shape, SimMode::FastForward)
}

/// Runs the GEMM kernel for `shape` on the given design point with an
/// explicit simulation-loop mode — used by the fast-forward equivalence test
/// and the `fastforward` benchmark.
///
/// # Panics
///
/// Panics if the simulation does not complete.
pub fn run_gemm_with_mode(design: DesignKind, shape: GemmShape, mode: SimMode) -> SimReport {
    run_gemm_clusters(design, shape, 1, mode)
}

/// Runs the GEMM kernel for `shape` on `clusters` clusters of the given
/// design point with an explicit simulation-loop mode — the entry point of
/// the `clusters_scaling` bench and the multi-cluster equivalence tests.
///
/// # Panics
///
/// Panics if the simulation does not complete.
pub fn run_gemm_clusters(
    design: DesignKind,
    shape: GemmShape,
    clusters: u32,
    mode: SimMode,
) -> SimReport {
    (*sweep_service()
        .run(&Query::new(design, shape).clusters(clusters).mode(mode))
        .report)
        .clone()
}

/// Runs the FlashAttention-3 kernel for `shape` on `clusters` clusters of a
/// design point (Virgo or Ampere-style) with an explicit simulation-loop
/// mode.
///
/// # Panics
///
/// Panics if the design point is not Virgo or Ampere-style, or the
/// simulation does not complete.
pub fn run_flash_attention_clusters(
    design: DesignKind,
    shape: AttentionShape,
    clusters: u32,
    mode: SimMode,
) -> SimReport {
    (*sweep_service()
        .run(&Query::new(design, shape).clusters(clusters).mode(mode))
        .report)
        .clone()
}

/// Runs the GEMM kernel for `shape` on every design point, sharded across
/// the sweep service's worker pool. Results are returned in
/// [`DesignKind::all`] order.
pub fn run_gemm_all_designs(shape: GemmShape) -> Vec<(DesignKind, SimReport)> {
    let queries: Vec<Query> = DesignKind::all()
        .into_iter()
        .map(|design| Query::new(design, shape))
        .collect();
    sweep_service()
        .run_all(&queries)
        .into_iter()
        .map(|outcome| {
            let design = outcome.point().expect("built from a point").design;
            (design, (*outcome.report).clone())
        })
        .collect()
}

/// Runs the FlashAttention-3 kernel (paper configuration) on a design point
/// using its FP32 configuration.
///
/// # Panics
///
/// Panics if the design point is not Virgo or Ampere-style, or the simulation
/// does not complete.
pub fn run_flash_attention(design: DesignKind) -> SimReport {
    run_flash_attention_with_mode(design, SimMode::FastForward)
}

/// Runs the FlashAttention-3 kernel with an explicit simulation-loop mode.
///
/// # Panics
///
/// Panics if the design point is not Virgo or Ampere-style, or the simulation
/// does not complete.
pub fn run_flash_attention_with_mode(design: DesignKind, mode: SimMode) -> SimReport {
    run_flash_attention_clusters(design, AttentionShape::paper_default(), 1, mode)
}

/// Prints a fixed-width table with a title, headers and rows.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let header_line: Vec<String> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| format!("{h:>width$}", width = widths[i]))
        .collect();
    println!("{}", header_line.join("  "));
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>width$}", width = widths.get(i).copied().unwrap_or(0)))
            .collect();
        println!("{}", line.join("  "));
    }
}

/// Prints the sweep-cache counters — called by the long sweep benches so
/// hit/miss/eviction behavior is visible in every run's output.
pub fn print_cache_summary() {
    let stats = sweep_service().cache_stats();
    println!(
        "sweep cache: {} hits ({} from disk, {} from store), {} misses, {} evictions, \
         {} corrupt entries rejected, {} store ops unreachable ({:.0}% hit rate)",
        stats.hits,
        stats.disk_hits,
        stats.remote_hits,
        stats.misses,
        stats.evictions,
        stats.disk_rejects,
        stats.store_unreachable,
        stats.hit_rate() * 100.0
    );
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(fraction: f64) -> String {
    format!("{:.1}%", fraction * 100.0)
}

/// Formats a milliwatt value.
pub fn mw(value: f64) -> String {
    format!("{value:.1} mW")
}

/// Formats a microjoule value.
pub fn uj(value: f64) -> String {
    format!("{value:.1} uJ")
}

/// Reads the GEMM sizes to sweep from the `VIRGO_GEMM_SIZES` environment
/// variable (comma-separated), defaulting to the paper's 256/512/1024.
///
/// Setting e.g. `VIRGO_GEMM_SIZES=256` makes the long benches fast for smoke
/// testing. A value with no parseable sizes falls back to the defaults (with
/// a warning) rather than silently producing an empty sweep.
pub fn gemm_sizes_from_env() -> Vec<GemmShape> {
    match std::env::var("VIRGO_GEMM_SIZES") {
        Ok(value) => {
            let sizes: Vec<GemmShape> = value
                .split(',')
                .filter_map(|s| s.trim().parse::<u32>().ok())
                .map(GemmShape::square)
                .collect();
            if sizes.is_empty() {
                eprintln!(
                    "warning: VIRGO_GEMM_SIZES={value:?} contains no sizes; \
                     using the paper defaults"
                );
                GemmShape::paper_sizes().to_vec()
            } else {
                sizes
            }
        }
        Err(_) => GemmShape::paper_sizes().to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.661), "66.1%");
        assert_eq!(mw(123.45), "123.5 mW");
        assert_eq!(uj(7.0), "7.0 uJ");
    }

    #[test]
    fn default_gemm_sizes_match_paper() {
        std::env::remove_var("VIRGO_GEMM_SIZES");
        let sizes = gemm_sizes_from_env();
        assert_eq!(sizes.len(), 3);
        assert_eq!(sizes[0], GemmShape::square(256));
    }

    #[test]
    fn small_gemm_runs_on_every_design() {
        // A reduced-size smoke test of the full simulation pipeline, through
        // the sweep service (parallel across designs, memoized).
        let shape = GemmShape {
            m: 128,
            n: 128,
            k: 128,
        };
        let results = run_gemm_all_designs(shape);
        assert_eq!(results.len(), 4);
        for (design, report) in &results {
            assert!(report.cycles().get() > 0, "{design}");
            assert!(report.performed_macs() > 0, "{design}");
        }
        // The single-point helper answers from the same cache, bit-identical.
        let again = run_gemm(results[0].0, shape);
        assert_eq!(
            ReportDigest::of(&again),
            ReportDigest::of(&results[0].1),
            "cached helper answer must be bit-identical to the sweep's"
        );
    }
}
