//! Integration tests of the sweep engine: the worker pool's ordering
//! guarantee, the report cache's bit-identity promise (fingerprint-pinned
//! for all four designs at N ∈ {1, 2, 4}) and the on-disk layer's
//! corruption handling.

use std::sync::Arc;

use virgo::{DesignKind, Gpu, SimMode, SimReport};
use virgo_bench::ReportDigest;
use virgo_kernels::GemmShape;
use virgo_sim::SplitMix64;
use virgo_sweep::{Query, ReportCache, SweepPoint, SweepPool, SweepService, DEFAULT_MAX_CYCLES};

/// Answers one design-space point through the Query API, returning
/// `(report, from_cache)`.
fn run_point(service: &SweepService, point: &SweepPoint) -> (Arc<SimReport>, bool) {
    let outcome = service.run(&Query::from(*point));
    (outcome.report, outcome.from_cache)
}

fn small_shape() -> GemmShape {
    // The smallest shape every design's tiling accepts at N up to 4.
    GemmShape {
        m: 128,
        n: 128,
        k: 128,
    }
}

/// A memory-only service so these tests are hermetic (no interaction with
/// other processes through the shared `target/sweep-cache/` directory).
fn memory_service() -> SweepService {
    SweepService::new(
        SweepPool::new(2),
        ReportCache::in_memory(256),
        DEFAULT_MAX_CYCLES,
    )
}

/// A service with a disk layer rooted in a fresh per-test temp directory.
fn disk_service(tag: &str) -> (SweepService, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("virgo-sweep-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let service = SweepService::new(
        SweepPool::new(2),
        ReportCache::new(256, Some(dir.clone())),
        DEFAULT_MAX_CYCLES,
    );
    (service, dir)
}

/// Runs a point directly on the simulator, bypassing pool and cache — the
/// reference the cached answers are compared against.
fn fresh_report(point: &SweepPoint) -> SimReport {
    let config = point.config();
    let kernel = point.workload.build(&config);
    Gpu::new(config)
        .run_with_mode(&kernel, DEFAULT_MAX_CYCLES, point.mode)
        .expect("reference simulation completes")
}

/// The acceptance fingerprint: for every design at N ∈ {1, 2, 4}, an answer
/// served from the cache is bit-identical (via `ReportDigest`, which covers
/// cycles, every counter and the exact energy/power bits) to a fresh
/// simulation of the same point.
#[test]
fn cached_reports_are_bit_identical_for_all_designs_and_cluster_counts() {
    let service = memory_service();
    let shape = small_shape();
    for clusters in [1u32, 2, 4] {
        for design in DesignKind::all() {
            let point = SweepPoint::gemm(design, shape).with_clusters(clusters);
            // First query simulates and fills the cache...
            let (first, cached_first) = run_point(&service, &point);
            assert!(!cached_first, "{point} unexpectedly pre-cached");
            // ...second query must be a hit...
            let (second, cached_second) = run_point(&service, &point);
            assert!(cached_second, "{point} missed on the second query");
            assert!(
                Arc::ptr_eq(&first, &second),
                "{point}: memory hit must share the report"
            );
            // ...and both must match an independent fresh simulation.
            let reference = ReportDigest::of(&fresh_report(&point));
            assert_eq!(
                reference,
                ReportDigest::of(&second),
                "{point}: cached report diverges from a fresh simulation"
            );
        }
    }
    let stats = service.cache_stats();
    assert_eq!(stats.misses, 12, "4 designs x 3 cluster counts");
    assert_eq!(stats.hits, 12);
    assert_eq!(stats.disk_rejects, 0);
}

/// Disk-layer round trip: a report rehydrated from `target`-style JSON files
/// in a fresh process-equivalent (memory cleared) is bit-identical too.
#[test]
fn disk_cache_roundtrip_is_bit_identical() {
    let (service, dir) = disk_service("roundtrip");
    let point = SweepPoint::gemm(DesignKind::Virgo, small_shape()).with_clusters(2);
    let (first, _) = run_point(&service, &point);
    let before = ReportDigest::of(&first);
    drop(first);
    // Simulate a new invocation: the memory layer is gone, only disk remains.
    service.cache().clear_memory();
    let (second, cached) = run_point(&service, &point);
    assert!(cached, "disk layer must serve the cleared-memory query");
    assert_eq!(service.cache_stats().disk_hits, 1);
    assert_eq!(
        before,
        ReportDigest::of(&second),
        "disk round-trip changed the report"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Property-style test: for pseudo-random `(design, shape, clusters, mode)`
/// points, a cache hit is always bit-identical to a fresh simulation of the
/// same point. SplitMix64-driven, like the rest of the workspace's
/// dependency-free property tests.
#[test]
fn random_points_hit_bit_identical() {
    let service = memory_service();
    let mut rng = SplitMix64::new(0x5EED_5157_EE01);
    let designs = DesignKind::all();
    for trial in 0..6 {
        let design = designs[rng.next_below(designs.len() as u64) as usize];
        let shape = small_shape();
        let clusters = [1u32, 2][rng.next_below(2) as usize];
        let dram_channels = [1u32, 2, 4][rng.next_below(3) as usize];
        let mode = if rng.next_below(2) == 0 {
            SimMode::FastForward
        } else {
            SimMode::Naive
        };
        let point = SweepPoint::gemm(design, shape)
            .with_clusters(clusters)
            .with_dram_channels(dram_channels)
            .with_mode(mode);
        let (first, _) = run_point(&service, &point);
        let (hit, cached) = run_point(&service, &point);
        assert!(cached, "trial {trial}: {point} second query missed");
        assert_eq!(
            ReportDigest::of(&first),
            ReportDigest::of(&hit),
            "trial {trial}: {point} hit diverged"
        );
        assert_eq!(
            ReportDigest::of(&fresh_report(&point)),
            ReportDigest::of(&hit),
            "trial {trial}: {point} cached report diverges from fresh"
        );
    }
}

/// Property-style corruption test: flipping bytes of an on-disk entry at
/// pseudo-random positions is always *detected* — the query degrades to a
/// miss and re-simulates; it never panics and never returns corrupt data.
#[test]
fn corrupted_disk_entries_are_detected_as_misses() {
    let (service, dir) = disk_service("corrupt");
    let point = SweepPoint::gemm(DesignKind::AmpereStyle, small_shape());
    let (original, _) = run_point(&service, &point);
    let before = ReportDigest::of(&original);
    drop(original);

    let entry = std::fs::read_dir(&dir)
        .expect("cache dir exists")
        .filter_map(|e| e.ok())
        .find(|e| e.path().extension().is_some_and(|x| x == "json"))
        .expect("one cache entry written")
        .path();
    let pristine = std::fs::read(&entry).unwrap();

    let mut rng = SplitMix64::new(0xC0DE_0BAD_CAFE);
    let mut rejects_seen = 0;
    for trial in 0..8 {
        // Corrupt one byte (avoiding a no-op flip), or truncate the file.
        let mut bytes = pristine.clone();
        if trial % 4 == 3 {
            bytes.truncate(bytes.len() / 2);
        } else {
            let pos = rng.next_below(bytes.len() as u64) as usize;
            bytes[pos] ^= 1 + (rng.next_below(255) as u8);
        }
        std::fs::write(&entry, &bytes).unwrap();
        service.cache().clear_memory();
        let (report, from_cache) = run_point(&service, &point);
        // Either the corruption was detected (miss + re-simulation) or the
        // flipped byte produced an equivalent document (e.g. a whitespace
        // byte); in *both* cases the answer must be bit-identical.
        assert_eq!(
            before,
            ReportDigest::of(&report),
            "trial {trial}: corrupted entry leaked into the answer"
        );
        if !from_cache {
            rejects_seen += 1;
        }
        // The miss path rewrote a valid entry; restore the pristine bytes
        // for the next trial anyway to keep trials independent.
        std::fs::write(&entry, &pristine).unwrap();
    }
    assert!(
        rejects_seen >= 6,
        "corruption almost never detected: {rejects_seen}/8 trials"
    );
    // `clear_memory` resets the counters each trial, so only the final
    // trial's reject is still visible in the stats snapshot.
    assert!(service.cache_stats().disk_rejects >= 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The streaming sweep hands completions to the caller as they finish but
/// the collected vector always lines up with the submitted grid — the
/// ordering guarantee `run_parallel` only provided by accident.
#[test]
fn sweep_collects_in_submission_order_while_streaming_completions() {
    let service = memory_service();
    let shape = small_shape();
    let grid: Vec<Query> = DesignKind::all()
        .into_iter()
        .flat_map(|design| {
            [1u32, 2]
                .into_iter()
                .map(move |n| Query::new(design, shape).clusters(n))
        })
        .collect();
    let mut completions = 0;
    let outcomes = service.run_streaming(&grid, |_| completions += 1);
    assert_eq!(completions, grid.len());
    assert_eq!(outcomes.len(), grid.len());
    for (submitted, outcome) in grid.iter().zip(&outcomes) {
        assert_eq!(
            submitted.point(),
            outcome.point(),
            "collected order diverged from submission order"
        );
    }
}
