//! Sweep-engine performance benchmark: worker-pool scaling, cold-vs-warm
//! report-cache timings and the shared report store's hit/degrade behavior
//! on the full design × shape grid.
//!
//! Three questions, one per layer of the sweep engine:
//!
//! 1. **Sharding** — how does wall-clock scale with the pool size? The same
//!    grid is swept cold with 1, 2, 4 and 8 workers (each run on a fresh
//!    memory-only service so caching cannot help). Pool sizes are clamped to
//!    the host's cores, so the scaling gate (pool-4 ≥ 2.5× faster than
//!    pool-1) only applies when the host actually has ≥ 4 CPUs; the JSON
//!    records `host_parallelism` so dashboards can tell the difference.
//! 2. **Caching** — how much does memoization buy? The grid is swept once
//!    cold and once warm on the same service; the warm pass must answer
//!    every point from cache and be ≥ 5× faster (in practice it is orders of
//!    magnitude faster — a map lookup versus a simulation).
//! 3. **Sharing** — does a *fresh* service answer entirely from a warmed
//!    `virgo-store` server? An in-process store is warmed with the cold
//!    pass's reports, a brand-new service (empty memory, no disk) sweeps the
//!    grid against it — zero simulator executions, bit-identical reports —
//!    and then the store is killed and a third service must degrade to
//!    local compute while counting every unreachable store operation.
//!
//! Emits `BENCH_sweep.json` at the workspace root for CI/perf tracking.
//! `VIRGO_GEMM_SIZES` shrinks the grid for smoke runs, as with the table
//! benches.

use std::time::Instant;

use virgo::DesignKind;
use virgo_bench::{print_table, sizes_from_env, write_artifact, ReportDigest};
use virgo_kernels::GemmShape;
use virgo_sim::json::{write_array, ObjWriter};
use virgo_store::{EntryDir, StoreServer};
use virgo_sweep::{host_parallelism, Query, RemoteStore, ReportStore, StoreConfig, SweepService};

/// Pool sizes requested by the scaling satellite of the sweep-engine issue.
const POOL_SIZES: [usize; 4] = [1, 2, 4, 8];

fn grid() -> Vec<Query> {
    let mut points = Vec::new();
    let sizes = std::env::var("VIRGO_GEMM_SIZES").ok();
    for shape in sizes_from_env(sizes.as_deref(), &GemmShape::paper_sizes()) {
        for design in DesignKind::all() {
            points.push(Query::new(design, shape));
        }
    }
    points
}

struct PoolRun {
    pool_size: usize,
    workers: usize,
    seconds: f64,
}

fn main() {
    let points = grid();
    let host = host_parallelism();
    println!(
        "sweeping {} points (designs x sizes) on a {host}-CPU host",
        points.len()
    );

    // ---- Worker-pool scaling (always cold: fresh memory-only service) ----
    let mut runs: Vec<PoolRun> = Vec::new();
    for pool_size in POOL_SIZES {
        let service = SweepService::in_memory(pool_size);
        let start = Instant::now();
        let outcomes = service.run_all(&points);
        let seconds = start.elapsed().as_secs_f64();
        assert_eq!(outcomes.len(), points.len());
        assert!(
            outcomes.iter().all(|o| !o.from_cache),
            "scaling runs must be cold"
        );
        runs.push(PoolRun {
            pool_size,
            workers: service.pool().workers(),
            seconds,
        });
    }
    let pool1 = runs[0].seconds;
    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|r| {
            vec![
                r.pool_size.to_string(),
                r.workers.to_string(),
                format!("{:.3}", r.seconds),
                format!("{:.2}x", pool1 / r.seconds.max(1e-9)),
            ]
        })
        .collect();
    print_table(
        "Sweep worker-pool scaling (cold cache)",
        &["pool size", "workers", "seconds", "vs pool=1"],
        &rows,
    );

    // ---- Cold vs warm cache on one service ------------------------------
    let service = SweepService::in_memory(host.max(4));
    let start = Instant::now();
    let cold = service.run_all(&points);
    let cold_seconds = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let warm = service.run_all(&points);
    let warm_seconds = start.elapsed().as_secs_f64();
    assert!(
        warm.iter().all(|o| o.from_cache),
        "warm pass must fully hit"
    );
    assert_eq!(cold.len(), warm.len());
    let stats = service.cache_stats();
    let warm_speedup = cold_seconds / warm_seconds.max(1e-9);
    print_table(
        "Sweep cache: cold vs warm",
        &["pass", "seconds", "hits", "misses"],
        &[
            vec![
                "cold".into(),
                format!("{cold_seconds:.3}"),
                "0".into(),
                stats.misses.to_string(),
            ],
            vec![
                "warm".into(),
                format!("{warm_seconds:.6}"),
                stats.hits.to_string(),
                "0".into(),
            ],
        ],
    );
    println!("warm-cache speedup: {warm_speedup:.0}x");

    // ---- Shared report store: warm remote pass, then degrade ------------
    let store_dir = std::env::temp_dir().join(format!("virgo-bench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let mut store = StoreServer::bind("127.0.0.1:0", EntryDir::new(&store_dir))
        .expect("bind in-process report store")
        .spawn()
        .expect("spawn in-process report store");
    let addr = store.addr().to_string();
    println!("\nin-process report store serving on {addr}");

    // Warm the store out-of-band from the cold pass: PUT every report under
    // exactly the key a fresh service would derive for the same query.
    let warm_writer = RemoteStore::new(addr.clone());
    for outcome in &cold {
        warm_writer.save(service.key_for(&outcome.query), &outcome.report);
    }
    let put_stats = warm_writer.stats();
    assert_eq!(
        put_stats.puts,
        cold.len() as u64,
        "every cold report must be PUT to the store"
    );
    assert_eq!(put_stats.unreachable, 0, "in-process store unreachable");

    // A brand-new service (empty memory, no disk layer) backed only by the
    // warmed store answers the whole grid with zero simulator executions.
    let remote_service = SweepService::from_config(
        &StoreConfig::in_memory(StoreConfig::DEFAULT_MEMORY_CAPACITY)
            .with_remote_addr(Some(addr.clone())),
    );
    let start = Instant::now();
    let via_store = remote_service.run_all(&points);
    let store_seconds = start.elapsed().as_secs_f64();
    assert!(
        via_store.iter().all(|o| o.from_cache),
        "store-warm pass must answer entirely from the store"
    );
    for (cold_outcome, remote_outcome) in cold.iter().zip(&via_store) {
        assert_eq!(
            ReportDigest::of(&cold_outcome.report),
            ReportDigest::of(&remote_outcome.report),
            "{}: store round-trip changed the report",
            remote_outcome.query
        );
    }
    let rstats = remote_service.cache_stats();
    assert_eq!(rstats.remote_hits, points.len() as u64);
    assert_eq!(rstats.misses, 0, "store-warm pass must not miss");
    assert_eq!(rstats.store_unreachable, 0);
    let remote_io = remote_service
        .cache()
        .store_stats_for(virgo_sweep::StoreTier::Remote);
    println!(
        "store-warm IO: {} bytes over the wire in {} us total (~{:.0} us per report)",
        remote_io.bytes_read,
        remote_io.read_micros,
        remote_io.read_micros as f64 / points.len().max(1) as f64
    );

    // Kill the store: a service pointed at the dead address must degrade to
    // local compute — same bits — while counting every unreachable op.
    store.stop();
    let degraded_service = SweepService::from_config(
        &StoreConfig::in_memory(StoreConfig::DEFAULT_MEMORY_CAPACITY)
            .with_remote_addr(Some(addr.clone())),
    );
    let subset: Vec<Query> = points.iter().take(4).cloned().collect();
    let start = Instant::now();
    let degraded = degraded_service.run_all(&subset);
    let degraded_seconds = start.elapsed().as_secs_f64();
    let degraded_completed =
        degraded.len() == subset.len() && degraded.iter().all(|o| !o.from_cache);
    assert!(
        degraded_completed,
        "dead store must degrade to local compute"
    );
    for (cold_outcome, deg) in cold.iter().zip(&degraded) {
        assert_eq!(
            ReportDigest::of(&cold_outcome.report),
            ReportDigest::of(&deg.report),
            "{}: degraded recompute changed the report",
            deg.query
        );
    }
    let dstats = degraded_service.cache_stats();
    assert!(
        dstats.store_unreachable > 0,
        "unreachable store ops must be counted"
    );
    let _ = std::fs::remove_dir_all(&store_dir);

    print_table(
        "Shared report store: warmed remote pass vs killed store",
        &[
            "pass",
            "points",
            "seconds",
            "remote hits",
            "misses",
            "unreachable",
        ],
        &[
            vec![
                "store-warm".into(),
                points.len().to_string(),
                format!("{store_seconds:.6}"),
                rstats.remote_hits.to_string(),
                rstats.misses.to_string(),
                rstats.store_unreachable.to_string(),
            ],
            vec![
                "degraded".into(),
                subset.len().to_string(),
                format!("{degraded_seconds:.3}"),
                dstats.remote_hits.to_string(),
                dstats.misses.to_string(),
                dstats.store_unreachable.to_string(),
            ],
        ],
    );

    // ---- Machine-readable artifact --------------------------------------
    let pool_scaling = write_array(&runs, |r| {
        let mut w = ObjWriter::new();
        w.u64("pool_size", r.pool_size as u64)
            .u64("workers", r.workers as u64)
            .f64("seconds", r.seconds)
            .f64("speedup_vs_pool1", pool1 / r.seconds.max(1e-9));
        w.finish()
    });
    let mut cache = ObjWriter::new();
    cache
        .f64("cold_seconds", cold_seconds)
        .f64("warm_seconds", warm_seconds)
        .f64("warm_speedup", warm_speedup)
        .u64("hits", stats.hits)
        .u64("misses", stats.misses)
        .f64("hit_rate", stats.hit_rate());
    let mut shared = ObjWriter::new();
    shared
        .f64("warm_seconds", store_seconds)
        .u64("remote_hits", rstats.remote_hits)
        .u64("remote_misses", rstats.misses)
        .f64("remote_hit_rate", rstats.hit_rate())
        .u64("warm_unreachable", rstats.store_unreachable)
        .u64("bytes_read", remote_io.bytes_read)
        .u64("read_micros", remote_io.read_micros)
        .bool("degraded_completed", degraded_completed)
        .u64("degraded_unreachable", dstats.store_unreachable);
    let mut doc = ObjWriter::new();
    doc.str("bench", "sweep")
        .u64("host_parallelism", host as u64)
        .u64("grid_points", points.len() as u64)
        .raw("pool_scaling", &pool_scaling)
        .raw("cache", &cache.finish())
        .raw("store", &shared.finish());
    write_artifact("sweep", &doc.finish());

    // ---- Gates -----------------------------------------------------------
    assert!(
        warm_speedup >= 5.0,
        "warm cache must be >= 5x faster than cold: {warm_speedup:.2}x"
    );
    let pool4 = runs.iter().find(|r| r.pool_size == 4).expect("pool=4 run");
    if host >= 4 {
        let scaling = pool1 / pool4.seconds.max(1e-9);
        assert!(
            scaling >= 2.5,
            "pool=4 must be >= 2.5x faster than pool=1 on a {host}-CPU host: {scaling:.2}x"
        );
        println!("pool scaling gate passed: {scaling:.2}x with 4 workers");
    } else {
        println!(
            "pool scaling gate skipped: host has {host} CPU(s), pool=4 clamps to {} worker(s)",
            pool4.workers
        );
    }
    println!("warm-cache gate passed: {warm_speedup:.0}x (target >= 5x)");
    println!(
        "shared-store gate passed: {}/{} remote hits, degraded pass recomputed {} point(s) \
         with {} unreachable op(s) counted",
        rstats.remote_hits,
        points.len(),
        subset.len(),
        dstats.store_unreachable
    );
}
