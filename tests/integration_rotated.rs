//! Distributed (rotated / interleaved) split-K reduction invariants.
//!
//! The rotated split-K tentpole distributes reduction ownership over all N
//! clusters so the partial-tile traffic uses every DSM ingress link instead
//! of funnelling into cluster 0. Three guarantees anchor it:
//!
//! 1. **Mode equivalence** — the distributed variants are bit-identical
//!    across `SimMode::Naive` and `SimMode::FastForward` at N ∈ {2, 4, 8},
//!    on both the DSM and the DRAM reduction path.
//! 2. **Conservation** — every ownership strategy ships exactly
//!    `(N - 1) x out_tiles` partial C tiles (SplitMix64-driven shapes): the
//!    rotation redistributes the reduction, it must not change its volume.
//! 3. **Distribution** — the rotated DSM path actually lands traffic on all
//!    N ingress links (per-owner attribution), where the contiguous kernel
//!    pins everything on link 0; the report's load-imbalance view exposes
//!    the difference.

use virgo::{Gpu, GpuConfig, SimMode, SimReport};
use virgo_bench::ReportDigest;
use virgo_isa::{Kernel, MmioCommand, PartitionStrategy, WarpOp};
use virgo_kernels::{
    build_flash_attention_interleaved, build_split_k_gemm, build_split_k_gemm_with_strategy,
    AttentionShape, GemmShape,
};

const MAX_CYCLES: u64 = 200_000_000;

fn run(config: &GpuConfig, kernel: &Kernel, mode: SimMode) -> SimReport {
    Gpu::new(config.clone())
        .run_with_mode(kernel, MAX_CYCLES, mode)
        .unwrap_or_else(|e| panic!("{} must finish: {e}", kernel.info.name))
}

/// A shape with enough K-tiles for the cluster count and a few output tiles
/// to rotate over.
fn shape_for(clusters: u32) -> GemmShape {
    GemmShape {
        m: 256,
        n: 256,
        k: if clusters > 4 { 1024 } else { 512 },
    }
}

/// Rotated and interleaved split-K are bit-identical across driver modes at
/// N ∈ {2, 4, 8}, on both reduction paths (the `mode_equivalence`-style pin
/// for the new kernels).
#[test]
fn distributed_split_k_is_bit_identical_across_modes() {
    for strategy in [PartitionStrategy::Rotated, PartitionStrategy::Interleaved] {
        for clusters in [2u32, 4, 8] {
            for dsm in [false, true] {
                // The DRAM path is covered at the small cluster counts; at
                // N = 8 it adds nothing new and doubles the slowest runs.
                if !dsm && clusters == 8 {
                    continue;
                }
                let mut config = GpuConfig::virgo().with_clusters(clusters);
                if dsm {
                    config = config.with_dsm_enabled();
                }
                let shape = shape_for(clusters);
                let kernel = build_split_k_gemm_with_strategy(&config, shape, strategy);
                let naive = ReportDigest::of(&run(&config, &kernel, SimMode::Naive));
                let fast = ReportDigest::of(&run(&config, &kernel, SimMode::FastForward));
                assert_eq!(
                    naive, fast,
                    "{strategy} split-K x{clusters} dsm={dsm} digests diverge across modes"
                );
                assert_eq!(naive.performed_macs, shape.mac_ops());
            }
        }
    }
}

/// The interleaved-loader K/V broadcast attention variant is bit-identical
/// across driver modes at N ∈ {2, 4}.
#[test]
fn interleaved_attention_is_bit_identical_across_modes() {
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
        let kernel = build_flash_attention_interleaved(&config, shape);
        let naive = ReportDigest::of(&run(&config, &kernel, SimMode::Naive));
        let fast = ReportDigest::of(&run(&config, &kernel, SimMode::FastForward));
        assert_eq!(
            naive, fast,
            "interleaved attention x{clusters} digests diverge across modes"
        );
        assert!(naive.dsm_bytes > 0, "the broadcast must use the fabric");
    }
}

/// Counts the dynamic `DmaRemote` bytes across every warp of a kernel — the
/// total partial-tile volume a split-K schedule puts on the fabric.
fn total_remote_bytes(kernel: &Kernel) -> u64 {
    let mut total = 0u64;
    for warp in &kernel.warps {
        let mut cursor = warp.program.cursor();
        while let Some(op) = cursor.next_op() {
            if let WarpOp::MmioWrite {
                cmd: MmioCommand::DmaRemote(copy),
                ..
            } = op
            {
                total += copy.bytes;
            }
        }
    }
    total
}

/// SplitMix64 property: over random shapes and cluster counts, rotated and
/// interleaved ownership conserve the total reduced bytes — exactly the
/// contiguous baseline's `(N - 1) x out_tiles` partial C tiles, no more, no
/// fewer.
#[test]
fn rotated_ownership_conserves_reduced_bytes() {
    let mut rng = virgo_sim::SplitMix64::new(0x5eed_0008);
    for _ in 0..12 {
        let clusters = 2 + (rng.next_below(4) as u32); // 2..=5
        let tiles_m = 1 + rng.next_below(4); // 1..=4 x 128
        let tiles_n = 1 + rng.next_below(4); // 1..=4 x 64
        let kt = u64::from(clusters) + rng.next_below(8); // >= clusters
        let shape = GemmShape {
            m: (tiles_m * 128) as u32,
            n: (tiles_n * 64) as u32,
            k: (kt * 128) as u32,
        };
        let config = GpuConfig::virgo()
            .with_clusters(clusters)
            .with_dsm_enabled();
        let out_tiles = tiles_m * tiles_n;
        let c_tile_bytes = 128 * 64 * 4;
        let expected = u64::from(clusters - 1) * out_tiles * c_tile_bytes;

        let contiguous = total_remote_bytes(&build_split_k_gemm(&config, shape));
        assert_eq!(contiguous, expected, "contiguous {shape} x{clusters}");
        for strategy in [PartitionStrategy::Rotated, PartitionStrategy::Interleaved] {
            let distributed =
                total_remote_bytes(&build_split_k_gemm_with_strategy(&config, shape, strategy));
            assert_eq!(
                distributed, expected,
                "{strategy} {shape} x{clusters} must conserve the reduction volume"
            );
        }
    }
}

/// The rotated DSM path lands partial-tile traffic on every ingress link and
/// the report's load-imbalance view sees the spread collapse from N (all
/// ingress on cluster 0) to ~1 (balanced).
#[test]
fn rotated_reduction_uses_every_ingress_link() {
    let clusters = 4u32;
    let config = GpuConfig::virgo()
        .with_clusters(clusters)
        .with_dsm_enabled();
    let shape = shape_for(clusters);

    let contiguous = run(
        &config,
        &build_split_k_gemm(&config, shape),
        SimMode::FastForward,
    );
    let rotated = run(
        &config,
        &build_split_k_gemm_with_strategy(&config, shape, PartitionStrategy::Rotated),
        SimMode::FastForward,
    );

    // Same fabric volume, radically different placement.
    assert_eq!(contiguous.dsm_bytes(), rotated.dsm_bytes());
    let contiguous_links = contiguous.dsm_link_stats();
    assert!(contiguous_links[0].bytes > 0);
    assert_eq!(
        contiguous_links[1..].iter().map(|l| l.bytes).sum::<u64>(),
        0,
        "the contiguous kernel funnels all ingress into cluster 0"
    );
    for (c, link) in rotated.dsm_link_stats().iter().enumerate() {
        assert!(
            link.bytes > 0,
            "rotated link {c} must carry ingress traffic"
        );
    }

    // The load-imbalance metric attributes the win: all-to-one shows the
    // maximal spread N, the rotation sits within a tile of balanced.
    let before = contiguous.load_imbalance();
    let after = rotated.load_imbalance();
    assert_eq!(before.dsm_ingress_spread, f64::from(clusters));
    assert!(
        after.dsm_ingress_spread < 1.5,
        "rotated ingress spread {} should be near 1.0",
        after.dsm_ingress_spread
    );
    assert!(after.dsm_ingress_spread >= 1.0);

    // Fewer cycles: the reduction no longer serializes on one port.
    assert!(
        rotated.cycles() < contiguous.cycles(),
        "rotated {:?} must beat contiguous {:?}",
        rotated.cycles(),
        contiguous.cycles()
    );
}
