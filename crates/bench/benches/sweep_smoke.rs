//! CI smoke gate for the sweep engine's disk cache: run the sharded 256³
//! GEMM sweep twice and require the second invocation to answer entirely
//! from cache.
//!
//! "Invocation" here means a fresh service with an *empty memory layer*
//! sharing the on-disk `target/sweep-cache/` directory — exactly what a new
//! process sees. The gates:
//!
//! * the second invocation must be **100% cache hits**, and
//! * when the first invocation was genuinely cold (no disk entries yet), the
//!   second must be ≥ 5× faster wall-clock.
//!
//! CI persists `target/sweep-cache/` across runs, so on a cache-restored
//! run the *first* invocation is already disk-warm; the speedup gate is
//! then meaningless (both passes are fast) and is skipped — the hit-rate
//! gate still applies. A simulator change still starts cold: `SimKey`s
//! digest the model crates' source (`VIRGO_SOURCE_DIGEST`), so entries
//! written by an older build miss.
//!
//! The disk layer is on by default and `VIRGO_SWEEP_CACHE` is read through
//! [`StoreConfig`](virgo_sweep::StoreConfig): a path relocates the cache,
//! and any spelling of "off" aborts the gate loudly rather than silently
//! measuring nothing.

use std::time::Instant;

use virgo::DesignKind;
use virgo_kernels::GemmShape;
use virgo_sweep::{
    default_disk_dir, Query, ReportCache, SweepPool, SweepService, DEFAULT_MAX_CYCLES,
};

/// A fresh "invocation": empty memory cache over the shared disk directory.
fn invocation() -> SweepService {
    let dir = default_disk_dir()
        .expect("sweep-smoke gates the disk cache; run without turning VIRGO_SWEEP_CACHE off");
    SweepService::new(
        SweepPool::with_host_parallelism(),
        ReportCache::new(ReportCache::DEFAULT_CAPACITY, Some(dir)),
        DEFAULT_MAX_CYCLES,
    )
}

fn main() {
    // The sharded 256³ GEMM sweep: every design at N ∈ {1, 2, 4} clusters.
    let shape = GemmShape::square(256);
    let points: Vec<Query> = DesignKind::all()
        .into_iter()
        .flat_map(|design| {
            [1u32, 2, 4]
                .into_iter()
                .map(move |n| Query::new(design, shape).clusters(n))
        })
        .collect();

    let first = invocation();
    let start = Instant::now();
    let outcomes = first.run_all(&points);
    let first_seconds = start.elapsed().as_secs_f64();
    let first_hits = outcomes.iter().filter(|o| o.from_cache).count();
    println!(
        "first invocation:  {:.3}s, {}/{} from cache",
        first_seconds,
        first_hits,
        points.len()
    );

    let second = invocation();
    let start = Instant::now();
    let outcomes = second.run_all(&points);
    let second_seconds = start.elapsed().as_secs_f64();
    let second_hits = outcomes.iter().filter(|o| o.from_cache).count();
    println!(
        "second invocation: {:.3}s, {}/{} from cache",
        second_seconds,
        second_hits,
        points.len()
    );

    assert_eq!(
        second_hits,
        points.len(),
        "second invocation must be 100% cache hits"
    );
    if first_hits == 0 {
        let speedup = first_seconds / second_seconds.max(1e-9);
        assert!(
            speedup >= 5.0,
            "second invocation must be >= 5x faster than a cold first: {speedup:.2}x"
        );
        println!("sweep-smoke gate passed: {speedup:.0}x faster with 100% hits");
    } else {
        println!(
            "sweep-smoke: first invocation was already disk-warm \
             ({first_hits} hits); speedup gate skipped, hit-rate gate passed"
        );
    }
}
