//! Property tests of the multi-channel DRAM back-end, SplitMix64-driven in
//! the style of `tests/integration_sweep.rs`.
//!
//! Two invariants anchor the multi-channel refactor:
//!
//! 1. **Single-channel bit-identity** — a [`MultiChannelDram`] configured
//!    with one channel behaves exactly like the bare single-channel
//!    [`DramModel`] it replaced (same completion cycle for every request of
//!    any random access sequence), and a full simulation with
//!    `dram_channels = 1` is bit-identical to the default machine (whose
//!    fingerprints `tests/integration_clusters.rs` pins).
//! 2. **Conservation** — routing whole line requests over any number of
//!    channels never creates or loses traffic: the back-end's per-cluster,
//!    per-channel reads/writes/bytes/bursts always sum to the
//!    single-channel totals for the same sequence, machine-wide and per
//!    cluster. (A cold DMA whose missed lines straddle an interleave
//!    boundary pays burst rounding once per touched channel — each
//!    channel's bus really moves its own line; requested bytes are still
//!    conserved. `straddling_partial_lines_round_per_channel` in
//!    `crates/mem/src/backend.rs` pins that edge.)

use virgo::{DesignKind, SimMode};
use virgo_bench::{run, ReportDigest};
use virgo_kernels::GemmShape;
use virgo_mem::{
    DramConfig, DramModel, DramStats, GlobalMemoryConfig, MemoryBackend, MultiChannelDram,
};
use virgo_sim::{Counters, Cycle, SplitMix64};
use virgo_sweep::{Query, SweepPoint, SweepService};

/// One pseudo-random DRAM request.
#[derive(Debug, Clone, Copy)]
struct Request {
    now: u64,
    addr: u64,
    bytes: u64,
    write: bool,
}

/// A random access sequence with loosely increasing presentation times,
/// mixed transfer sizes (word-sized demand misses up to multi-KiB DMA
/// chunks) and addresses spread over a few MiB.
fn random_sequence(rng: &mut SplitMix64, len: usize) -> Vec<Request> {
    let mut now = 0u64;
    (0..len)
        .map(|_| {
            // Sometimes a burst of same-cycle requests, sometimes a gap long
            // enough to drain the queues.
            now += match rng.next_below(4) {
                0 => 0,
                1 => rng.next_below(8),
                2 => rng.next_below(200),
                _ => rng.next_below(5000),
            };
            Request {
                now,
                addr: rng.next_below(1 << 22),
                bytes: 1 + rng.next_below(8192),
                write: rng.next_below(2) == 0,
            }
        })
        .collect()
}

fn total<'a>(stats: impl IntoIterator<Item = &'a DramStats>) -> DramStats {
    let mut sum = DramStats::default();
    for s in stats {
        sum.merge(s);
    }
    sum
}

/// Property: with `channels = 1` the subsystem is the single-channel model,
/// request for request — completions are bit-identical to the pre-refactor
/// [`DramModel`] across random sequences.
#[test]
fn single_channel_subsystem_is_bit_identical_to_dram_model() {
    let mut rng = SplitMix64::new(0xD3A1_0001);
    for trial in 0..8 {
        let config = DramConfig {
            latency: [0, 10, 100][rng.next_below(3) as usize],
            bytes_per_cycle: [8, 32][rng.next_below(2) as usize],
            burst_bytes: [32, 64][rng.next_below(2) as usize],
            channels: 1,
            interleave_bytes: 256,
        };
        let mut reference = DramModel::new(config);
        let mut subsystem = MultiChannelDram::new(config);
        for (i, req) in random_sequence(&mut rng, 200).iter().enumerate() {
            let expected = reference.access(Cycle::new(req.now), req.bytes);
            let got = subsystem.access(Cycle::new(req.now), req.addr, req.bytes);
            assert_eq!(
                expected, got,
                "trial {trial} request {i}: single-channel completion diverged"
            );
        }
    }
}

/// Property: traffic is conserved across any channel count — the same line
/// requests from three clusters, routed over 2, 4 or 8 channels, move
/// exactly the bytes, bursts and request counts of the single-channel run,
/// just spread out, and each cluster's slices keep its own share.
#[test]
fn traffic_is_conserved_across_channel_counts() {
    const CLUSTERS: u32 = 3;
    let mut rng = SplitMix64::new(0xD3A1_0002);
    for trial in 0..6 {
        let sequence = random_sequence(&mut rng, 300);
        let replay = |channels: u32| {
            let mut config = GlobalMemoryConfig::default_soc(2);
            config.dram = config.dram.with_channels(channels);
            let line = u64::from(config.l2.line_bytes);
            let mut backend = MemoryBackend::new(config, CLUSTERS);
            let mut slowest = Cycle::ZERO;
            for (i, req) in sequence.iter().enumerate() {
                let cluster = i as u32 % CLUSTERS;
                let bytes = req.bytes.min(line);
                let at = Cycle::new(req.now);
                let done =
                    backend.line_access(at, cluster, req.addr / line * line, bytes, req.write);
                slowest = slowest.max(done);
            }
            assert!(slowest.get() > 0);
            backend
        };
        let cluster_total = |backend: &MemoryBackend, c: u32| {
            total(
                backend
                    .cluster_stats(c)
                    .per_channel
                    .iter()
                    .map(|ch| &ch.dram),
            )
        };
        let single = replay(1);
        let expected = single.dram_stats();
        assert!(expected.reads > 0 && expected.writes > 0);
        for channels in [2u32, 4, 8] {
            let multi = replay(channels);
            let per_channel = multi.dram_channel_stats();
            assert_eq!(per_channel.len(), channels as usize);
            assert_eq!(
                total(&per_channel),
                expected,
                "trial {trial}: {channels}-channel totals diverged"
            );
            assert_eq!(multi.dram_stats(), expected);
            for c in 0..CLUSTERS {
                assert_eq!(
                    cluster_total(&multi, c),
                    cluster_total(&single, c),
                    "trial {trial}: cluster {c}'s traffic moved at {channels} channels"
                );
            }
            // Each request lands on exactly the channel its address names.
            assert!(
                per_channel
                    .iter()
                    .filter(|s| s.reads + s.writes > 0)
                    .count()
                    > 1,
                "trial {trial}: the sequence must actually stripe over channels"
            );
        }
    }
}

/// Full-simulator contract: `with_dram_channels(1)` *is* the default
/// machine — reports are bit-identical for every design at N ∈ {1, 2, 4} —
/// and the per-channel report slices always sum to the aggregate interface
/// statistics.
#[test]
fn single_channel_config_matches_default_machine_reports() {
    let shape = GemmShape {
        m: 128,
        n: 128,
        k: 128,
    };
    let service = SweepService::in_memory(2);
    for clusters in [1u32, 2, 4] {
        for design in DesignKind::all() {
            let default_point = SweepPoint::gemm(design, shape).with_clusters(clusters);
            let explicit = default_point.with_dram_channels(1);
            let default_report = service.run(&Query::from(default_point)).report;
            let explicit_report = service.run(&Query::from(explicit)).report;
            assert_eq!(
                ReportDigest::of(&default_report),
                ReportDigest::of(&explicit_report),
                "{design} x{clusters}: channels=1 must be the default machine"
            );
            assert_eq!(default_report.dram_channels(), 1);
            assert_eq!(
                default_report.dram_channel_stats()[0],
                default_report.dram_stats(),
                "one channel carries all the traffic"
            );
        }
    }
}

/// Pushing the contention wall out: splitting the shared back-end over more
/// channels strictly reduces total DRAM queueing on a contended multi-cluster
/// GEMM, while conserving the traffic's burst count, and never slows the
/// machine down.
#[test]
fn more_channels_reduce_contention_on_a_contended_gemm() {
    let shape = GemmShape {
        m: 256,
        n: 256,
        k: 256,
    };
    let reports: Vec<_> = [1u32, 2, 4]
        .iter()
        .map(|&channels| run_gemm_clusters_channels(DesignKind::VoltaStyle, shape, 4, channels))
        .collect();
    for pair in reports.windows(2) {
        assert!(
            pair[1].dram_contention_stall_cycles() < pair[0].dram_contention_stall_cycles(),
            "channel scaling must drain queueing: {} -> {}",
            pair[0].dram_contention_stall_cycles(),
            pair[1].dram_contention_stall_cycles()
        );
        assert!(
            pair[1].cycles() <= pair[0].cycles(),
            "extra memory bandwidth must never slow the kernel down"
        );
    }
    for report in &reports {
        let summed: u64 = report.dram_channel_stats().iter().map(|c| c.bursts).sum();
        assert_eq!(summed, report.dram_stats().bursts);
        // Per-cluster per-channel stalls sum to the machine metric here:
        // the Volta-style design has no DMA engine, so every transfer is a
        // single-channel line access whose critical-path wait *is* its
        // channel wait (split DMAs on other designs make the sum an upper
        // bound instead).
        let per_cluster_sum: u64 = report
            .per_cluster()
            .iter()
            .flat_map(|c| c.contention.per_channel.iter())
            .map(|ch| ch.stall_cycles)
            .sum();
        assert_eq!(per_cluster_sum, report.dram_contention_stall_cycles());
    }
}

fn run_gemm_clusters_channels(
    design: DesignKind,
    shape: GemmShape,
    clusters: u32,
    channels: u32,
) -> virgo::SimReport {
    let query = Query::new(design, shape)
        .clusters(clusters)
        .dram_channels(channels);
    (*virgo_bench::sweep_service().run(&query).report).clone()
}

/// The bench helper (which always runs single-channel points) and an
/// explicit channels=1 sweep point answer from the same cache with the same
/// bits.
#[test]
fn helper_and_service_answers_agree() {
    let shape = GemmShape {
        m: 128,
        n: 128,
        k: 128,
    };
    let via_helper = run(&Query::new(DesignKind::Virgo, shape)
        .clusters(2)
        .mode(SimMode::FastForward));
    let via_channels = run_gemm_clusters_channels(DesignKind::Virgo, shape, 2, 1);
    assert_eq!(
        ReportDigest::of(&via_helper),
        ReportDigest::of(&via_channels)
    );
}
