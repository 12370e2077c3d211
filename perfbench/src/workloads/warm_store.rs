//! `warm_store`: a fresh sweep service answering every query from a warmed
//! `virgo-store` over TCP, with no simulation in the timed phase.
//!
//! Set-up simulates cheap Virgo and Hopper-style points once and has a fresh
//! writer PUT their reports to an in-process store. Each pass then builds a
//! new memory-only `SweepService` whose remote tier is that store and
//! queries every key once, in a seeded order, one query after another (a
//! closed loop with one client connection). This is the only workload that
//! exercises the key digest, the store protocol and the snapshot codec.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use virgo::{DesignKind, SimKey, SimReport};
use virgo_bench::ReportDigest;
use virgo_kernels::GemmShape;
use virgo_store::{EntryDir, StoreClient, StoreHandle, StoreServer};
use virgo_sweep::{Query, RemoteStore, ReportStore, StoreConfig, SweepService};

use super::grid::{split_k_point, GridPoint};
use super::{design_key, run_query, shuffled, Accounting, Ctx, OpSample, Run};
use crate::stats::{median, tail};

/// Virgo and Hopper-style 256³ at N ∈ {1, 2, 4, 8}, and the N=8 split-K.
fn points() -> Vec<GridPoint> {
    let mut points = Vec::new();
    for design in [DesignKind::Virgo, DesignKind::HopperStyle] {
        for n in [1u32, 2, 4, 8] {
            points.push(GridPoint {
                label: format!("{}-256-n{n}", design_key(design)),
                design,
                query: Query::new(design, GemmShape::square(256)).clusters(n),
            });
        }
    }
    points.push(split_k_point(1));
    points
}

/// A running store warmed with every point's report; stopping it and
/// removing its entry directory on drop.
struct Warm {
    server: StoreHandle,
    dir: PathBuf,
    points: Vec<GridPoint>,
    keys: Vec<SimKey>,
    reports: Vec<Arc<SimReport>>,
    digests: Vec<ReportDigest>,
}

impl Drop for Warm {
    fn drop(&mut self) {
        self.server.stop();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn warm(ctx: &Ctx) -> Warm {
    let dir = ctx.fresh_dir("store");
    let server = StoreServer::bind("127.0.0.1:0", EntryDir::new(&dir))
        .and_then(StoreServer::spawn)
        .expect("start an in-process report store on localhost");
    let points = points();
    let service = SweepService::in_memory(1);
    let writer = RemoteStore::new(server.addr().to_string());
    let mut keys = Vec::new();
    let mut reports = Vec::new();
    for point in &points {
        let report = service.run(&point.query).report;
        let key = service.key_for(&point.query);
        writer.save(key, &report);
        keys.push(key);
        reports.push(report);
    }
    let stats = writer.stats();
    assert!(
        stats.puts == points.len() as u64 && stats.unreachable == 0,
        "warming the store failed: {stats:?}"
    );
    let digests = reports.iter().map(|r| ReportDigest::of(r)).collect();
    Warm {
        server,
        dir,
        points,
        keys,
        reports,
        digests,
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Run {
    let (setup_s, warm) = ctx.setup(|| warm(ctx));
    let addr = warm.server.addr().to_string();
    let mut rng = ctx.rng(2);
    let mut acct = Accounting::default();
    let (mut remote_hits, mut misses, mut unreachable) = (0u64, 0u64, 0u64);
    let passes = ctx.measure(|tracer, ops| {
        let service = SweepService::from_config(
            &StoreConfig::in_memory(StoreConfig::DEFAULT_MEMORY_CAPACITY)
                .with_remote_addr(Some(addr.clone())),
        );
        for i in shuffled(warm.points.len(), &mut rng) {
            let point = &warm.points[i];
            let started = Instant::now();
            let outcome = run_query(&service, &point.query, tracer);
            let ms = started.elapsed().as_secs_f64() * 1e3;
            acct.attempted += 1;
            // A miss or an unreachable store falls back to simulating, so
            // an answer not served from the store is a failed query.
            let served = outcome.filter(|o| o.from_cache);
            match served {
                Some(o) if ReportDigest::of(&o.report) == warm.digests[i] => ops.push(OpSample {
                    ms,
                    cycles: o.report.cycles().get(),
                    design: point.design,
                }),
                _ => acct.failed += 1,
            }
        }
        let stats = service.cache_stats();
        remote_hits += stats.remote_hits;
        misses += stats.misses;
        unreachable += stats.store_unreachable;
    });

    for (point, report) in warm.points.iter().zip(&warm.reports) {
        acct.check_pin(&point.label, report);
    }
    let mut layer = vec![
        ("sweep.remote_hits".to_string(), remote_hits as f64),
        ("sweep.misses".into(), misses as f64),
        ("sweep.store_unreachable".into(), unreachable as f64),
    ];
    if ctx.tracer.enabled() {
        layer.extend(probe(ctx, &warm, &addr, &mut acct));
        let digests: Vec<f64> = ctx
            .tracer
            .durations_ns("pass", "SimKey::digest")
            .iter()
            .map(|&ns| ns as f64 / 1e6)
            .collect();
        layer.push(("key.digest_ms".into(), median(&digests).value));
        let build_ns: u64 = ctx
            .tracer
            .durations_ns("pass", "Query::materialize")
            .iter()
            .sum();
        let traced_passes = passes.traced_s.len().max(1) as f64;
        layer.push((
            "kernels.build_ms".into(),
            build_ns as f64 / 1e6 / traced_passes,
        ));
    }
    let server = warm.server.stats();
    let load = std::sync::atomic::Ordering::Relaxed;
    layer.extend([
        (
            "store.get_hits".to_string(),
            server.get_hits.load(load) as f64,
        ),
        ("store.bytes_out".into(), server.bytes_out.load(load) as f64),
        (
            "store.protocol_errors".into(),
            server.protocol_errors.load(load) as f64,
        ),
    ]);
    let mut summary = Vec::new();
    let get_ms: Vec<f64> = passes.ops.iter().map(|o| o.ms).collect();
    if !get_ms.is_empty() {
        let (p50, p90) = (median(&get_ms), tail(&get_ms, 0.9));
        layer.push(("store_get_p50_ms".into(), p50.value));
        layer.push(("store_get_p90_ms".into(), p90.value));
        summary.push((
            format!("store_get_p50_ms (n={})", p50.samples),
            p50.value,
            "ms",
        ));
        summary.push((
            format!(
                "store_get_p90_ms (p{:.1} of {})",
                p90.percentile, p90.samples
            ),
            p90.value,
            "ms",
        ));
    }
    summary.extend([
        ("sweep.remote_hits".into(), remote_hits as f64, "count"),
        ("sweep.misses".into(), misses as f64, "count"),
        (
            "sweep.store_unreachable".into(),
            unreachable as f64,
            "count",
        ),
    ]);
    drop(warm);

    Run {
        setup_s,
        passes,
        acct,
        layer,
        summary,
    }
}

/// Times the store and codec calls one by one on a persistent client:
/// raw GET and PUT, envelope decode and encode, and their sizes.
fn probe(ctx: &Ctx, warm: &Warm, addr: &str, acct: &mut Accounting) -> Vec<(String, f64)> {
    let tracer = &ctx.tracer;
    tracer.set_phase("probe");
    let mut client = StoreClient::connect(addr).expect("connect to the in-process store");
    let mut bytes = Vec::new();
    for i in shuffled(warm.keys.len(), &mut ctx.rng(3)) {
        tracer.next_op();
        let hex = warm.keys[i].to_hex();
        let fetched = tracer.span("virgo-store", "StoreClient::get", || client.get(&hex));
        let Ok(Some(text)) = fetched else {
            acct.violation(format!("{}: raw GET missed", warm.points[i].label));
            continue;
        };
        let decoded = tracer.span("virgo", "SimReport::from_cache_json", || {
            SimReport::from_cache_json(&text, &hex)
        });
        if decoded.is_err() {
            acct.violation(format!(
                "{}: stored envelope does not decode",
                warm.points[i].label
            ));
        }
        let envelope = tracer.span("virgo", "SimReport::to_cache_json", || {
            warm.reports[i].to_cache_json(&hex)
        });
        if envelope != text {
            acct.violation(format!(
                "{}: re-encoding changed the envelope",
                warm.points[i].label
            ));
        }
        let stored = tracer.span("virgo-store", "StoreClient::put", || {
            client.put(&hex, &envelope)
        });
        if !matches!(stored, Ok(true)) {
            acct.violation(format!("{}: raw PUT refused", warm.points[i].label));
        }
        bytes.push(envelope.len() as f64);
    }
    let median_ms = |name: &str| {
        let ms: Vec<f64> = tracer
            .durations_ns("probe", name)
            .iter()
            .map(|&ns| ns as f64 / 1e6)
            .collect();
        if ms.is_empty() {
            0.0
        } else {
            median(&ms).value
        }
    };
    vec![
        ("store.get_ms".into(), median_ms("StoreClient::get")),
        ("store.put_ms".into(), median_ms("StoreClient::put")),
        (
            "snapshot.decode_ms".into(),
            median_ms("SimReport::from_cache_json"),
        ),
        (
            "snapshot.encode_ms".into(),
            median_ms("SimReport::to_cache_json"),
        ),
        (
            "snapshot.bytes".into(),
            bytes.iter().sum::<f64>() / bytes.len().max(1) as f64,
        ),
    ]
}
