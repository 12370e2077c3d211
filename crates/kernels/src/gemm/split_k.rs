//! Producer-consumer split-K GEMM across clusters.
//!
//! Where the plain multi-cluster Virgo GEMM ([`super::virgo`]) splits the
//! *output-tile* grid (clusters never share data), this kernel splits the
//! *reduction* dimension: every cluster computes a partial sum of every
//! output tile over its own K-slice, and the partials are then reduced on
//! the tile's *owner*. [`build`] makes the first cluster (cluster 0, or the
//! first id of `GpuConfig::allocation`) the owner of every tile (a single
//! consumer); [`build_with_strategy`] can instead deal ownership
//! across all clusters, so every cluster is producer for some tiles and
//! consumer for others. That reduction is exactly the producer-consumer
//! traffic the inter-cluster DSM fabric exists for, so the kernel is
//! generated in two A/B variants selected by `GpuConfig::dsm.enabled`:
//!
//! * **DSM path** — each producer pushes its partial C tile straight from
//!   its accumulator into the owner's scratchpad with a `DmaRemote` command
//!   over the fabric; DRAM never sees the partials.
//! * **DRAM path** — each producer stores its partial C tile to a global
//!   scratch region and the owner loads it back, paying the full write +
//!   read round trip through the shared L2/DRAM back-end.
//!
//! The owner's SIMT warps then reduce the staged partials with FPU adds and
//! the final tile is written to global memory once — identical in both
//! variants, so any difference in DRAM traffic and cycles is attributable to
//! the reduction path alone. As everywhere in this model, the schedule is
//! static: inter-cluster arrival is modelled by the fabric/DRAM timing, not
//! by cross-cluster synchronization primitives (which the ISA does not
//! have).

use std::sync::Arc;

use virgo::GpuConfig;
use virgo_isa::{
    AddrExpr, GridPartition, Kernel, LaneAccess, MemLoc, PartitionStrategy, Program,
    ProgramBuilder, WarpOp,
};

use crate::workload::GemmShape;

use super::virgo::{
    k_loop, k_loop_barriers, Operands, SMEM_A0, SMEM_A_STRIDE, TILE_K, TILE_M, TILE_N,
};
use super::{TileWalk, GLOBAL_A, GLOBAL_B, GLOBAL_C};

use crate::{dma, dma_remote, Steps};

/// Global-memory base of the partial-sum scratch region the DRAM path spills
/// through, one `region` of `out_tiles` C tiles per producer. The
/// single-consumer kernel ([`build`]) streams the partials of the `i`-th
/// producer (`i = 0, 1, ...`) through `GLOBAL_PARTIAL + i · region`; the
/// distributed kernels ([`build_with_strategy`]) put the tile-`t` partial
/// of the `p`-th allocated cluster at
/// `GLOBAL_PARTIAL + p · region + t · tile_bytes`.
pub const GLOBAL_PARTIAL: u64 = 0x8000_0000;

/// Byte address of the consumer's partial-tile staging slot `p`.
///
/// The reduction runs *after* the K-loop of its output tile, when the A/B
/// operand buffers' contents are dead (the next tile refetches them), so
/// the staging area reuses that space instead of growing past the 128 KiB
/// scratchpad: slot 0 (the consumer's own partial, and after reduction the
/// final tile) occupies the first A buffer, and producer partials ping-pong
/// between the second A buffer and the B-buffer pair — producers
/// `p = 1, 3, 5, ...` land at 0x8000 and `p = 2, 4, 6, ...` at 0x1_0000,
/// serializing the reduction over at most two in-flight partials at any
/// cluster count. The per-tile epilogue barrier orders the reduction
/// against the next tile's prefetches within the cluster.
fn stage_slot(p: u64, c_tile_bytes: u64) -> u64 {
    if p == 0 {
        SMEM_A0
    } else {
        SMEM_A_STRIDE + ((p - 1) % 2) * c_tile_bytes
    }
}

/// The split-K problem on a configuration, shared by every ownership plan:
/// the Virgo tile walk plus what split-K adds to it.
#[derive(Debug)]
struct Geometry<'a> {
    walk: TileWalk<'a>,
    /// The K-tiles each cluster accumulates, dealt contiguously.
    k_partition: GridPartition,
    /// Bytes of one producer's DRAM-path spill region.
    partial_region: u64,
    use_dsm: bool,
    /// Output-tile elements each warp reduces.
    elems_per_warp: u64,
    /// Lane-wide vectors per warp slice.
    vector_iters: u64,
}

impl<'a> Geometry<'a> {
    fn new(config: &'a GpuConfig, shape: GemmShape) -> Self {
        let walk = TileWalk::new(config, shape, (TILE_M, TILE_N, TILE_K));
        let clusters = walk.clusters();
        assert!(
            clusters >= 2,
            "split-K GEMM needs at least one producer cluster plus the consumer"
        );
        let kt_total = walk.kt;
        assert!(
            kt_total >= u64::from(clusters),
            "split-K over {clusters} clusters needs at least {clusters} K-tiles, \
             shape {shape} has {kt_total}"
        );
        let total_warps = u64::from(config.cores) * u64::from(config.core.warps);
        let elems_per_warp = u64::from(TILE_M) * u64::from(TILE_N) / total_warps;
        Geometry {
            k_partition: config.partition(kt_total),
            partial_region: walk.out_tiles * walk.c_bytes,
            use_dsm: config.dsm.enabled,
            elems_per_warp,
            vector_iters: (elems_per_warp / u64::from(config.core.lanes)).max(1),
            walk,
        }
    }
}

/// One output tile as one cluster's warps see it.
#[derive(Debug)]
struct TileStep {
    /// The cluster that reduces the tile and writes it out.
    owner: u32,
    /// Where this cluster's A/B K-tiles of the tile stream from.
    operands: Operands,
    /// Every other cluster in allocation order, with the global address its
    /// partial of the tile is spilled to on the DRAM path. The `i`-th
    /// producer's partial lands in the owner's staging slot `i + 1`.
    producers: Vec<(u32, AddrExpr)>,
    /// Where the owner writes the reduced tile.
    out: AddrExpr,
}

/// Builds the split-K GEMM kernel for `shape` on `config`'s clusters (its
/// allocation, when one is set), choosing the partial-sum path from
/// `config.dsm.enabled`. The first cluster (cluster 0, or the first
/// allocated id) owns every output tile: the other clusters only produce
/// partials.
///
/// # Panics
///
/// Panics if the shape is not divisible by the 128×64×128 thread-block tile,
/// if the configuration has fewer than two clusters (split-K needs at least
/// one producer and the consumer), or if the K dimension has fewer tiles
/// than clusters (an empty K-slice).
pub fn build(config: &GpuConfig, shape: GemmShape) -> Kernel {
    let g = Geometry::new(config, shape);
    let c_bytes = g.walk.c_bytes;
    let mut ids = g.walk.cluster_ids();
    let owner = ids.next().expect("a walk covers at least one cluster");
    // One tile body, repeated: its operand, spill and output streams advance
    // once per output tile.
    let producers: Vec<(u32, AddrExpr)> = ids
        .zip(0..)
        .map(|(p, i)| {
            let spill = GLOBAL_PARTIAL + i * g.partial_region;
            (p, AddrExpr::streaming(spill, c_bytes))
        })
        .collect();
    let plan = |_, base| {
        let step = TileStep {
            owner,
            operands: Operands::streaming(&g.walk, GLOBAL_A + base, GLOBAL_B + base),
            producers: producers.clone(),
            out: AddrExpr::streaming(GLOBAL_C + base, c_bytes),
        };
        Steps::Repeat(g.walk.out_tiles, step)
    };
    build_kernel(&g, plan, "")
}

/// Builds the split-K GEMM kernel with an explicit output-tile ownership
/// strategy.
///
/// [`PartitionStrategy::Contiguous`] delegates to [`build`] — the
/// single-consumer kernel, byte-identical programs and name, so existing
/// fingerprints and cached reports are untouched. The `Interleaved` and
/// `Rotated` strategies build the *distributed-reduction* variant instead:
/// output-tile ownership is dealt across the clusters by
/// [`GridPartition::owner`], every cluster is both producer and consumer —
/// for each tile the non-owners `DmaRemote` their partial straight into the
/// owner's scratchpad (or spill it through DRAM on the no-DSM path) and the
/// owner's SIMT warps reduce it — so the reduction traffic lands on all N
/// DSM ingress links concurrently instead of funnelling into one cluster's
/// single link. Roles change per tile, so the tile loop is unrolled and
/// each tile's operand streams carry their own bases.
///
/// # Panics
///
/// Panics under the same conditions as [`build`].
pub fn build_with_strategy(
    config: &GpuConfig,
    shape: GemmShape,
    strategy: PartitionStrategy,
) -> Kernel {
    let tag = match strategy {
        PartitionStrategy::Contiguous => return build(config, shape),
        PartitionStrategy::Interleaved => "_int",
        PartitionStrategy::Rotated => "_rot",
    };
    let g = Geometry::new(config, shape);
    let owners = config.partition_with(g.walk.out_tiles, strategy);
    let ids: Vec<u32> = g.walk.cluster_ids().collect();
    let (a_bytes, b_bytes, c_bytes) = (g.walk.a_bytes, g.walk.b_bytes, g.walk.c_bytes);
    let plan = |cluster, base| {
        let kt = g.k_partition.count(cluster);
        let tile_step = |tile: u64| {
            let owner = owners.owner(tile);
            let spill = |i: u64| GLOBAL_PARTIAL + i * g.partial_region + tile * c_bytes;
            TileStep {
                owner,
                operands: Operands::staggered(
                    &g.walk,
                    GLOBAL_A + base + tile * kt * a_bytes,
                    GLOBAL_B + base + tile * kt * b_bytes,
                ),
                producers: ids
                    .iter()
                    .zip(0..)
                    .filter(|&(&p, _)| p != owner)
                    .map(|(&p, i)| (p, AddrExpr::fixed(spill(i))))
                    .collect(),
                out: AddrExpr::fixed(GLOBAL_C + tile * c_bytes),
            }
        };
        Steps::Unrolled((0..g.walk.out_tiles).map(tile_step).collect())
    };
    build_kernel(&g, plan, tag)
}

/// Builds the kernel from each cluster's tile schedule, `plan(cluster,
/// base)` (built as the cluster is emitted and dropped after it).
fn build_kernel(g: &Geometry, plan: impl Fn(u32, u64) -> Steps<TileStep>, tag: &str) -> Kernel {
    let path = if g.use_dsm { "dsm" } else { "dram" };
    g.walk
        .kernel("splitk", &format!("_{path}{tag}"), |cluster, _, base| {
            let steps = plan(cluster, base);
            let kt = g.k_partition.count(cluster);
            let mut orch = ProgramBuilder::new();
            steps.emit(&mut orch, |b, step| {
                orchestrate_tile(b, cluster, kt, step, g)
            });
            let orchestrator = Arc::new(orch.build());

            // A cluster that owns no tile never reduces, so all its
            // followers share one barrier-only program; an owner's followers
            // each reduce a warp_index-dependent slice.
            let owns_none = steps.items().iter().all(|step| step.owner != cluster);
            let shared = owns_none.then(|| follower(cluster, kt, &steps, 0, g));
            move |warp_index| {
                if warp_index == 0 {
                    Arc::clone(&orchestrator)
                } else if let Some(shared) = &shared {
                    Arc::clone(shared)
                } else {
                    follower(cluster, kt, &steps, warp_index, g)
                }
            }
        })
}

/// Emits one output tile on `cluster`'s orchestrator: the K-slice pipeline
/// over the cluster's `kt` K-tiles, then either the producer epilogue (ship
/// the partial to the owner) or the owner epilogue (stage every partial,
/// let the followers reduce, write the final tile).
fn orchestrate_tile(b: &mut ProgramBuilder, cluster: u32, kt: u64, step: &TileStep, g: &Geometry) {
    let c = g.walk.c_bytes;
    let slot = |i: usize| AddrExpr::fixed(stage_slot(i as u64, c));
    let acc = MemLoc::accumulator(AddrExpr::fixed(0));
    k_loop(b, &g.walk, kt, &step.operands);
    if let Some(i) = step.producers.iter().position(|&(p, _)| p == cluster) {
        // Producer: ship the partial into the owner's scratchpad over the
        // fabric, or spill it through DRAM.
        b.op(if g.use_dsm {
            dma_remote(acc, MemLoc::remote_shared(step.owner, slot(i + 1)), c)
        } else {
            dma(acc, MemLoc::global(step.producers[i].1), c)
        });
        // The accumulator is overwritten by the next output tile, so the
        // shipment must drain before this tile ends.
        b.op(WarpOp::FenceAsync { max_outstanding: 0 });
    } else {
        // Owner: stage the local partial, gather the spills on the DRAM
        // path, let the followers reduce, write the final tile.
        b.op(dma(acc, MemLoc::shared(slot(0)), c));
        if !g.use_dsm {
            for (i, &(_, spill)) in step.producers.iter().enumerate() {
                b.op(dma(MemLoc::global(spill), MemLoc::shared(slot(i + 1)), c));
            }
        }
        b.op(WarpOp::FenceAsync { max_outstanding: 0 });
        b.op(WarpOp::Barrier { id: 2 });
        // Followers run the FPU reduction between barriers 2 and 3.
        b.op(WarpOp::Barrier { id: 3 });
        b.op(dma(MemLoc::shared(slot(0)), MemLoc::global(step.out), c));
        b.op(WarpOp::FenceAsync { max_outstanding: 0 });
    }
    b.op(WarpOp::Barrier { id: 1 });
}

/// Builds one follower warp of `cluster`: per output tile the K-step
/// barriers, and on the tiles the cluster owns the cross-cluster reduction
/// of the warp's slice — load its own partial once and fold every
/// producer's staged partial onto it.
fn follower(
    cluster: u32,
    kt: u64,
    steps: &Steps<TileStep>,
    warp_index: u64,
    g: &Geometry,
) -> Arc<Program> {
    let lanes = g.walk.config.core.lanes;
    let words = |p: u64, offset: u64| {
        LaneAccess::contiguous_words(
            AddrExpr::fixed(stage_slot(p, g.walk.c_bytes) + offset),
            lanes,
        )
    };
    let mut f = ProgramBuilder::new();
    steps.emit(&mut f, |b, step| {
        k_loop_barriers(b, kt);
        if step.owner == cluster {
            b.op(WarpOp::Barrier { id: 2 });
            for i in 0..g.vector_iters {
                let offset = warp_index * g.elems_per_warp * 4 + i * u64::from(lanes) * 4;
                b.op(WarpOp::LoadShared {
                    access: words(0, offset),
                });
                b.op(WarpOp::WaitLoads);
                for p in 1..u64::from(g.walk.clusters()) {
                    b.op(WarpOp::LoadShared {
                        access: words(p, offset),
                    });
                    b.op(WarpOp::WaitLoads);
                    b.op(WarpOp::Fpu {
                        rf_reads: 2,
                        rf_writes: 1,
                        flops_per_lane: 1,
                    });
                }
                b.op(WarpOp::StoreShared {
                    access: words(0, offset),
                });
            }
            b.op(WarpOp::Barrier { id: 3 });
        }
        b.op(WarpOp::Barrier { id: 1 });
    });
    Arc::new(f.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use virgo_isa::MmioCommand;

    fn shape() -> GemmShape {
        GemmShape {
            m: 128,
            n: 128,
            k: 512,
        }
    }

    #[test]
    fn both_variants_build_with_matching_macs() {
        let dram = build(&GpuConfig::virgo().with_clusters(2), shape());
        let dsm = build(
            &GpuConfig::virgo().with_clusters(2).with_dsm_enabled(),
            shape(),
        );
        assert_eq!(dram.info.total_macs, shape().mac_ops());
        assert_eq!(dsm.info.total_macs, shape().mac_ops());
        assert!(dram.info.name.ends_with("dram"), "{}", dram.info.name);
        assert!(dsm.info.name.ends_with("dsm"), "{}", dsm.info.name);
        assert_eq!(dram.clusters_used(), 2);
    }

    #[test]
    fn dsm_variant_ships_partials_over_the_fabric() {
        let kernel = build(
            &GpuConfig::virgo().with_clusters(4).with_dsm_enabled(),
            shape(),
        );
        // A producer orchestrator (cluster 1, warp 0) issues DmaRemote
        // commands targeting the consumer's scratchpad.
        let producer = kernel
            .warps
            .iter()
            .find(|w| w.cluster == 1)
            .expect("cluster 1 exists");
        let mut remote = 0;
        let mut cursor = producer.program.cursor();
        while let Some(op) = cursor.next_op() {
            if let WarpOp::MmioWrite {
                cmd: MmioCommand::DmaRemote(copy),
                ..
            } = op
            {
                assert_eq!(copy.dst.remote_cluster(), Some(0));
                remote += 1;
            }
        }
        // One shipment per output tile (2 output tiles for 128x128).
        assert_eq!(remote, 2);
    }

    #[test]
    fn dram_variant_never_uses_remote_commands() {
        let kernel = build(&GpuConfig::virgo().with_clusters(4), shape());
        for warp in &kernel.warps {
            let mut cursor = warp.program.cursor();
            while let Some(op) = cursor.next_op() {
                assert!(
                    !matches!(
                        op,
                        WarpOp::MmioWrite {
                            cmd: MmioCommand::DmaRemote(_),
                            ..
                        }
                    ),
                    "DRAM path must stay off the fabric"
                );
            }
        }
    }

    #[test]
    fn staging_slots_fit_the_scratchpad_at_any_cluster_count() {
        let c_tile_bytes = u64::from(TILE_M) * u64::from(TILE_N) * 4;
        let capacity = GpuConfig::virgo().smem.capacity_bytes;
        for p in 0..16 {
            let slot = stage_slot(p, c_tile_bytes);
            assert!(
                slot + c_tile_bytes <= capacity,
                "slot {p} at {slot:#x} overflows the {capacity}-byte scratchpad"
            );
        }
        // Concurrent slots never alias: own vs the two ping-pong slots.
        assert_ne!(stage_slot(0, c_tile_bytes), stage_slot(1, c_tile_bytes));
        assert_ne!(stage_slot(0, c_tile_bytes), stage_slot(2, c_tile_bytes));
        assert_ne!(stage_slot(1, c_tile_bytes), stage_slot(2, c_tile_bytes));
    }

    #[test]
    fn contiguous_strategy_delegates_to_the_historical_builder() {
        let config = GpuConfig::virgo().with_clusters(4).with_dsm_enabled();
        let old = build(&config, shape());
        let via = build_with_strategy(&config, shape(), PartitionStrategy::Contiguous);
        assert_eq!(old.info.name, via.info.name);
        assert_eq!(old.warps.len(), via.warps.len());
        for (a, b) in old.warps.iter().zip(via.warps.iter()) {
            assert_eq!((a.cluster, a.core, a.warp), (b.cluster, b.core, b.warp));
            assert_eq!(a.program, b.program);
        }
    }

    #[test]
    fn rotated_dsm_ships_each_tile_to_its_owner() {
        let config = GpuConfig::virgo().with_clusters(4).with_dsm_enabled();
        let big = GemmShape {
            m: 256,
            n: 256,
            k: 512,
        };
        let kernel = build_with_strategy(&config, big, PartitionStrategy::Rotated);
        assert!(
            kernel.info.name.ends_with("dsm_rot"),
            "{}",
            kernel.info.name
        );
        let out_tiles = u64::from(big.m / TILE_M) * u64::from(big.n / TILE_N);
        let partition = GridPartition::with_strategy(out_tiles, 4, PartitionStrategy::Rotated);
        let mut total_ships = 0u64;
        for cluster in 0..4u32 {
            let orch = kernel
                .warps
                .iter()
                .find(|w| w.cluster == cluster && w.core == 0 && w.warp == 0)
                .expect("orchestrator exists");
            let mut destinations = Vec::new();
            let mut cursor = orch.program.cursor();
            while let Some(op) = cursor.next_op() {
                if let WarpOp::MmioWrite {
                    cmd: MmioCommand::DmaRemote(copy),
                    ..
                } = op
                {
                    destinations.push(copy.dst.remote_cluster().expect("remote dst"));
                }
            }
            // The cluster ships every tile it does not own, in tile order,
            // each to that tile's owner.
            let expected: Vec<u32> = (0..out_tiles)
                .map(|t| partition.owner(t))
                .filter(|&o| o != cluster)
                .collect();
            assert_eq!(destinations, expected, "cluster {cluster}");
            total_ships += destinations.len() as u64;
        }
        // Conservation: (N-1) partials shipped per output tile, same as the
        // contiguous kernel's N-1 producers x all tiles.
        assert_eq!(total_ships, 3 * out_tiles);
    }

    #[test]
    fn interleaved_dram_path_stays_off_the_fabric() {
        let kernel = build_with_strategy(
            &GpuConfig::virgo().with_clusters(4),
            shape(),
            PartitionStrategy::Interleaved,
        );
        assert!(
            kernel.info.name.ends_with("dram_int"),
            "{}",
            kernel.info.name
        );
        for warp in &kernel.warps {
            let mut cursor = warp.program.cursor();
            while let Some(op) = cursor.next_op() {
                assert!(
                    !matches!(
                        op,
                        WarpOp::MmioWrite {
                            cmd: MmioCommand::DmaRemote(_),
                            ..
                        }
                    ),
                    "DRAM path must stay off the fabric"
                );
            }
        }
    }

    #[test]
    fn distributed_variants_keep_the_mac_count() {
        for strategy in [PartitionStrategy::Interleaved, PartitionStrategy::Rotated] {
            let kernel = build_with_strategy(
                &GpuConfig::virgo().with_clusters(2).with_dsm_enabled(),
                shape(),
                strategy,
            );
            assert_eq!(kernel.info.total_macs, shape().mac_ops());
            assert_eq!(kernel.clusters_used(), 2);
        }
    }

    #[test]
    fn an_allocated_build_stays_on_its_clusters() {
        let config = GpuConfig::virgo()
            .with_clusters(4)
            .with_dsm_enabled()
            .with_allocation(vec![2, 3]);
        for strategy in [
            PartitionStrategy::Contiguous,
            PartitionStrategy::Interleaved,
            PartitionStrategy::Rotated,
        ] {
            let kernel = build_with_strategy(&config, shape(), strategy);
            assert!(kernel.info.name.contains("_c2_dsm"), "{}", kernel.info.name);
            let mut remote = 0;
            for warp in &kernel.warps {
                assert!(
                    [2, 3].contains(&warp.cluster),
                    "{strategy}: {}",
                    warp.cluster
                );
                let mut cursor = warp.program.cursor();
                while let Some(op) = cursor.next_op() {
                    if let WarpOp::MmioWrite {
                        cmd: MmioCommand::DmaRemote(copy),
                        ..
                    } = op
                    {
                        let dst = copy.dst.remote_cluster();
                        assert!(matches!(dst, Some(2 | 3)), "{strategy}: {dst:?}");
                        remote += 1;
                    }
                }
            }
            // One shipment per output tile from the one cluster that does
            // not own it.
            assert_eq!(remote, 2, "{strategy}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one producer")]
    fn single_cluster_is_rejected() {
        let _ = build(&GpuConfig::virgo(), shape());
    }

    #[test]
    #[should_panic(expected = "K-tiles")]
    fn too_many_clusters_for_the_k_dimension_are_rejected() {
        let _ = build(
            &GpuConfig::virgo().with_clusters(8),
            GemmShape {
                m: 128,
                n: 64,
                k: 512,
            },
        );
    }
}
