//! Shared experiment harness for the benchmark targets that regenerate the
//! paper's tables and figures.
//!
//! Every bench target (`cargo bench -p virgo-bench --bench <name>`) uses the
//! helpers here to build the kernels, run them on the right GPU
//! configurations and print the rows/series the paper reports. All
//! simulation requests flow through the process-wide
//! [`virgo_sweep::SweepService`]: grids are sharded across its bounded
//! worker pool and every report is memoized by content digest — in memory
//! within a process, and across invocations in `target/sweep-cache/` unless
//! `VIRGO_SWEEP_CACHE=off` turns the disk layer off — so a figure bench
//! never re-simulates points a table bench already answered. The benches
//! that CI gates write their `BENCH_*.json` artifacts through
//! [`write_artifact`]. The benches use `harness = false`, so `cargo bench`
//! simply executes them as programs;
//! the `micro_criterion`, `fastforward` and `sweep` targets additionally
//! provide micro-benchmarks of the simulator itself via the dependency-free
//! [`microbench`] harness.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod diff;
pub mod digest;
pub mod microbench;

use virgo::{DesignKind, SimReport};
use virgo_kernels::GemmShape;
use virgo_sim::json;
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

/// Runs one query through the process-wide sweep service and returns its
/// report.
///
/// # Panics
///
/// Panics if the simulation does not complete (which would indicate a kernel
/// generation bug, not a user error).
pub fn run(query: &Query) -> SimReport {
    (*sweep_service().run(query).report).clone()
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

/// Parses a comma-separated list of square GEMM sizes, the value of a size
/// knob such as `VIRGO_GEMM_SIZES`; `None` (the knob unset) yields
/// `defaults`.
///
/// Setting e.g. `VIRGO_GEMM_SIZES=256` makes the long benches fast for smoke
/// testing. A value with no parseable sizes falls back to the defaults (with
/// a warning) rather than silently producing an empty sweep.
pub fn sizes_from_env(value: Option<&str>, defaults: &[GemmShape]) -> Vec<GemmShape> {
    let Some(value) = value else {
        return defaults.to_vec();
    };
    let sizes: Vec<GemmShape> = value
        .split(',')
        .filter_map(|s| s.trim().parse::<u32>().ok())
        .map(GemmShape::square)
        .collect();
    if sizes.is_empty() {
        eprintln!("warning: {value:?} lists no GEMM sizes; using the defaults");
        return defaults.to_vec();
    }
    sizes
}

/// Writes the bench artifact `BENCH_<name>.json` at the workspace root
/// from `doc`, a compact JSON document, rendered with
/// [`Value::render_pretty`](json::Value::render_pretty).
///
/// Cargo runs bench binaries with the package directory (`crates/bench`)
/// as cwd, so the path is anchored on the manifest instead: the artifact
/// belongs next to the top-level `Cargo.toml`, where CI picks it up.
///
/// # Panics
///
/// Panics if `doc` is not valid JSON or the file cannot be written.
pub fn write_artifact(name: &str, doc: &str) {
    let value = json::parse(doc).unwrap_or_else(|e| panic!("BENCH_{name}.json: {e}"));
    let mut text = String::new();
    value.render_pretty(&mut text);
    text.push('\n');
    let path = format!("{}/../../BENCH_{name}.json", env!("CARGO_MANIFEST_DIR"));
    std::fs::write(&path, text).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("\nwrote {path}");
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
        let paper = GemmShape::paper_sizes();
        assert_eq!(sizes_from_env(None, &paper), paper);
        assert_eq!(
            sizes_from_env(Some(" 128, 64"), &paper),
            [GemmShape::square(128), GemmShape::square(64)]
        );
        for fallback in ["", "garbage", ",x,"] {
            assert_eq!(
                sizes_from_env(Some(fallback), &paper),
                paper,
                "{fallback:?}"
            );
        }
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
        let again = run(&Query::new(results[0].0, shape));
        assert_eq!(
            ReportDigest::of(&again),
            ReportDigest::of(&results[0].1),
            "cached helper answer must be bit-identical to the sweep's"
        );
    }
}
