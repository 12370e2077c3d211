//! Inter-cluster DSM invariants.
//!
//! Three guarantees anchor the DSM tentpole:
//!
//! 1. **DSM-off bit-identity** — with the fabric disabled (the default),
//!    every report is bit-identical to the pre-DSM machine: the fabric's
//!    presence perturbs nothing. (The pre-DSM fingerprints themselves are
//!    pinned in `integration_clusters.rs` and must keep passing unchanged;
//!    here we additionally pin that even an *enabled-but-unused* fabric
//!    changes no counter.)
//! 2. **Mode equivalence** — `SimMode::Naive` and `SimMode::FastForward`
//!    stay bit-identical when the driver folds the fabric's event horizon,
//!    for both DSM workloads at N ∈ {2, 4}.
//! 3. **Traffic conservation** — bytes put onto the fabric equal the bytes
//!    accounted per requester and per link, under SplitMix64-driven random
//!    transfer sequences on both topologies.

use virgo::{Gpu, GpuConfig, SimMode, SimReport};
use virgo_bench::ReportDigest;
use virgo_isa::Kernel;
use virgo_kernels::{
    build_flash_attention_broadcast, build_gemm, build_split_k_gemm, AttentionShape, GemmShape,
};
use virgo_mem::{DsmConfig, DsmFabric};
use virgo_sim::{Cycle, SplitMix64};

const MAX_CYCLES: u64 = 200_000_000;

fn run(config: &GpuConfig, kernel: &Kernel, mode: SimMode) -> SimReport {
    Gpu::new(config.clone())
        .run_with_mode(kernel, MAX_CYCLES, mode)
        .unwrap_or_else(|e| panic!("{} must finish: {e}", kernel.info.name))
}

fn splitk_shape() -> GemmShape {
    GemmShape {
        m: 256,
        n: 256,
        k: 512,
    }
}

/// The split-K GEMM is bit-identical across driver modes at N ∈ {2, 4},
/// on both the DSM and the DRAM reduction path.
#[test]
fn split_k_gemm_is_bit_identical_across_modes() {
    for clusters in [2u32, 4] {
        for dsm in [false, true] {
            let mut config = GpuConfig::virgo().with_clusters(clusters);
            if dsm {
                config = config.with_dsm_enabled();
            }
            let kernel = build_split_k_gemm(&config, splitk_shape());
            let naive = ReportDigest::of(&run(&config, &kernel, SimMode::Naive));
            let fast = ReportDigest::of(&run(&config, &kernel, SimMode::FastForward));
            assert_eq!(
                naive, fast,
                "split-K x{clusters} dsm={dsm} digests diverge across modes"
            );
            assert_eq!(naive.performed_macs, splitk_shape().mac_ops());
        }
    }
}

/// The broadcast FlashAttention variant is bit-identical across driver modes
/// at N ∈ {2, 4}.
#[test]
fn broadcast_attention_is_bit_identical_across_modes() {
    let shape = AttentionShape {
        seq_len: 256,
        head_dim: 64,
        heads: 1,
        batch: 1,
    };
    for clusters in [2u32, 4] {
        let config = GpuConfig::virgo()
            .to_fp32()
            .with_clusters(clusters)
            .with_dsm_enabled();
        let kernel = build_flash_attention_broadcast(&config, shape);
        let naive = ReportDigest::of(&run(&config, &kernel, SimMode::Naive));
        let fast = ReportDigest::of(&run(&config, &kernel, SimMode::FastForward));
        assert_eq!(
            naive, fast,
            "broadcast attention x{clusters} digests diverge across modes"
        );
        assert!(naive.dsm_bytes > 0, "the broadcast must use the fabric");
    }
}

/// An enabled-but-unused fabric perturbs nothing: a kernel with no remote
/// traffic reports bit-identically whether the fabric is on or off. Together
/// with the pinned pre-DSM fingerprints in `integration_clusters.rs`, this
/// is the zero-re-pin guarantee of the DSM change.
#[test]
fn unused_fabric_is_bit_identical_to_disabled() {
    let shape = GemmShape {
        m: 256,
        n: 128,
        k: 256,
    };
    for clusters in [1u32, 2] {
        let off = GpuConfig::virgo().with_clusters(clusters);
        let on = off.clone().with_dsm_enabled();
        assert!(!off.dsm.enabled && on.dsm.enabled);
        let kernel = build_gemm(&off, shape);
        let base = ReportDigest::of(&run(&off, &kernel, SimMode::FastForward));
        let with_fabric = ReportDigest::of(&run(&on, &kernel, SimMode::FastForward));
        assert_eq!(
            base, with_fabric,
            "x{clusters}: an unused fabric must not change any counter"
        );
        assert_eq!(base.dsm_transfers, 0);
        assert_eq!(base.dsm_bytes, 0);
    }
}

/// The DSM reduction path strictly beats the DRAM round trip at N = 4: less
/// DRAM traffic and fewer total cycles (the miniature of the `dsm_scaling`
/// bench gate).
#[test]
fn split_k_dsm_beats_dram_path_at_n4() {
    let dram_cfg = GpuConfig::virgo().with_clusters(4);
    let dsm_cfg = dram_cfg.clone().with_dsm_enabled();
    let dram = run(
        &dram_cfg,
        &build_split_k_gemm(&dram_cfg, splitk_shape()),
        SimMode::FastForward,
    );
    let dsm = run(
        &dsm_cfg,
        &build_split_k_gemm(&dsm_cfg, splitk_shape()),
        SimMode::FastForward,
    );
    assert!(
        dsm.dram_bytes() < dram.dram_bytes(),
        "DSM must cut DRAM traffic: {} vs {}",
        dsm.dram_bytes(),
        dram.dram_bytes()
    );
    assert!(
        dsm.cycles() < dram.cycles(),
        "DSM must cut total cycles: {:?} vs {:?}",
        dsm.cycles(),
        dram.cycles()
    );
    assert!(dsm.dsm_bytes() > 0);
    assert_eq!(dram.dsm_bytes(), 0, "DRAM path stays off the fabric");
    // The report carries the per-cluster and per-link breakdowns: every
    // producer pushed through the consumer's ingress link.
    let links = dsm.dsm_link_stats();
    assert_eq!(links.len(), 4);
    assert!(links[0].bytes > 0, "all partials land on cluster 0's port");
    assert_eq!(links[1].bytes + links[2].bytes + links[3].bytes, 0);
    for producer in &dsm.per_cluster()[1..] {
        assert!(producer.dsm.bytes > 0, "every producer used the fabric");
    }
    assert_eq!(
        dsm.per_cluster()[0].dsm.bytes,
        0,
        "the consumer only receives"
    );
}

/// The broadcast attention variant moves strictly fewer DRAM bytes than its
/// per-cluster-streams DRAM twin at the same cluster count.
#[test]
fn broadcast_attention_cuts_dram_traffic() {
    let shape = AttentionShape {
        seq_len: 256,
        head_dim: 64,
        heads: 1,
        batch: 1,
    };
    let clusters = 4;
    let dram_cfg = GpuConfig::virgo().to_fp32().with_clusters(clusters);
    let dsm_cfg = dram_cfg.clone().with_dsm_enabled();
    let dram = run(
        &dram_cfg,
        &virgo_kernels::build_flash_attention(&dram_cfg, shape),
        SimMode::FastForward,
    );
    let dsm = run(
        &dsm_cfg,
        &build_flash_attention_broadcast(&dsm_cfg, shape),
        SimMode::FastForward,
    );
    assert!(
        dsm.dram_bytes() < dram.dram_bytes(),
        "broadcast must cut DRAM traffic: {} vs {}",
        dsm.dram_bytes(),
        dram.dram_bytes()
    );
    assert!(dsm.dsm_bytes() > 0);
}

/// SplitMix64 property: across random transfer sequences, the fabric
/// conserves bytes — the machine total, the per-requester aggregates and the
/// per-link breakdown all account for exactly the submitted bytes, on both
/// topologies.
#[test]
fn random_transfer_sequences_conserve_bytes_per_link() {
    for (seed, config) in [
        (11u64, DsmConfig::enabled_default()),
        (12, DsmConfig::enabled_ring()),
        (13, DsmConfig::enabled_default()),
        (14, DsmConfig::enabled_ring()),
    ] {
        let mut rng = SplitMix64::new(seed);
        let clusters = 2 + (rng.next_below(7) as u32); // 2..=8
        let mut fabric = DsmFabric::new(config, clusters);
        let mut submitted = 0u64;
        let mut per_pair = vec![vec![0u64; clusters as usize]; clusters as usize];
        let mut now = 0u64;
        for _ in 0..200 {
            let from = rng.next_below(u64::from(clusters)) as u32;
            let to = rng.next_below(u64::from(clusters)) as u32;
            let bytes = 1 + rng.next_below(16 * 1024);
            now += rng.next_below(64);
            fabric.transfer(Cycle::new(now), from, to, bytes);
            submitted += bytes;
            per_pair[from as usize][to as usize] += bytes;
        }
        assert_eq!(fabric.stats().bytes, submitted, "seed {seed}");
        let per_cluster: u64 = fabric.per_cluster_stats().iter().map(|c| c.bytes).sum();
        assert_eq!(per_cluster, submitted, "seed {seed}");
        let per_link: u64 = fabric.per_link_stats().iter().map(|l| l.bytes).sum();
        assert_eq!(per_link, submitted, "seed {seed}");
        // The (requester, link) matrix matches the reference exactly.
        for (from, row) in per_pair.iter().enumerate() {
            for (to, &bytes) in row.iter().enumerate() {
                assert_eq!(
                    fabric.per_cluster_stats()[from].per_link[to].bytes,
                    bytes,
                    "seed {seed} pair {from}->{to}"
                );
            }
        }
        // Hop-flit accounting is at least one flit-hop per transfer and, on
        // the crossbar, exactly bytes rounded up to flits.
        assert!(fabric.stats().hop_flits >= fabric.stats().transfers);
        // Draining everything leaves the fabric quiescent.
        fabric.tick(Cycle::new(now + 10_000_000));
        assert_eq!(fabric.in_flight(), 0);
        assert_eq!(fabric.delivered(), 200);
    }
}

/// The report snapshot round-trips the DSM counters bit-exactly (cache
/// entries from a DSM run rehydrate with their fabric stats intact).
#[test]
fn dsm_report_snapshot_roundtrips() {
    let config = GpuConfig::virgo().with_clusters(2).with_dsm_enabled();
    let kernel = build_split_k_gemm(
        &config,
        GemmShape {
            m: 128,
            n: 64,
            k: 256,
        },
    );
    let report = run(&config, &kernel, SimMode::FastForward);
    assert!(report.dsm_bytes() > 0);
    let key = virgo::SimKey::digest(&config, &kernel, MAX_CYCLES, SimMode::FastForward).to_hex();
    let text = report.to_cache_json(&key);
    let back = SimReport::from_cache_json(&text, &key).expect("snapshot parses");
    assert_eq!(format!("{report:?}"), format!("{back:?}"));
    assert_eq!(back.dsm_stats(), report.dsm_stats());
    assert_eq!(back.dsm_link_stats(), report.dsm_link_stats());
}
