//! Multi-cluster FlashAttention-3 with DSM K/V broadcast.
//!
//! The plain multi-cluster mapping ([`super::virgo`]) gives every cluster
//! its own K/V stream from global memory: N clusters each pull every K and V
//! column block through the shared L2/DRAM back-end. This variant keeps the
//! row-block partitioning but makes one cluster the *loader* of each column
//! block: it alone loads the K/V tiles from DRAM, then pushes them straight
//! into every peer cluster's scratchpad with `DmaRemote` commands over the
//! inter-cluster DSM fabric. DRAM sees each K/V tile once instead of N
//! times; the peers' inner loops run entirely out of their (remotely
//! filled) shared memory. [`build`] makes the first cluster the loader of
//! every column block; [`build_interleaved`] deals the column blocks
//! round-robin over the clusters, so the broadcast load spreads across all
//! of them. Both place work on [`GpuConfig::cluster_ids`], so a kernel built
//! inside an allocation stays on its clusters.
//!
//! The kernel requires an enabled DSM fabric — its DRAM-path A/B twin is the
//! plain [`super::virgo`] mapping at the same cluster count.

use std::sync::Arc;

use virgo::GpuConfig;
use virgo_isa::{
    AddrExpr, DeviceId, GridPartition, Kernel, KernelInfo, MemLoc, PartitionStrategy,
    ProgramBuilder, WarpOp,
};

use crate::workload::AttentionShape;
use crate::{
    cluster_addr_offset, cluster_suffix, dma, dma_remote, matrix_compute, place_warps, Steps,
};

use super::virgo::{
    assert_tileable, softmax_warp, ACC_O, ACC_S, GLOBAL_K, GLOBAL_O, GLOBAL_Q, GLOBAL_V, SMEM_K0,
    SMEM_KV_STRIDE, SMEM_Q, SMEM_S0, SMEM_S_STRIDE, SMEM_V0,
};
use super::BLOCK;

/// The broadcast problem on a configuration, shared by both loader plans.
#[derive(Debug)]
struct Geometry {
    /// The row-block split over the configuration's cluster ids.
    rows: GridPartition,
    rows_per_cluster: u64,
    col_blocks: u64,
    tile_bytes: u64,
}

impl Geometry {
    fn new(config: &GpuConfig, shape: AttentionShape) -> Self {
        assert!(
            config.dsm.enabled,
            "the broadcast FlashAttention mapping needs the DSM fabric enabled; \
             use the plain mapping as its DRAM-path twin"
        );
        let clusters = config.active_clusters();
        assert!(
            clusters >= 2,
            "broadcasting needs at least one peer cluster"
        );
        assert_tileable(shape);
        let row_blocks = u64::from(shape.seq_len / BLOCK) * u64::from(shape.heads * shape.batch);
        assert!(
            row_blocks.is_multiple_of(u64::from(clusters)),
            "broadcast needs the {row_blocks} row blocks to split evenly over {clusters} clusters"
        );
        Geometry {
            rows: config.partition(row_blocks),
            rows_per_cluster: row_blocks / u64::from(clusters),
            col_blocks: u64::from(shape.seq_len / BLOCK),
            tile_bytes: u64::from(BLOCK)
                * u64::from(shape.head_dim)
                * u64::from(config.dtype.bytes()),
        }
    }
}

/// One K/V column block of the inner loop.
#[derive(Debug)]
struct Column {
    /// The cluster that loads the block from DRAM and pushes it to the rest.
    loader: u32,
    /// Global-memory sources of the block's K and V tiles.
    k: AddrExpr,
    v: AddrExpr,
}

/// Builds the broadcast FlashAttention-3 kernel: row blocks split across
/// clusters, K/V column blocks loaded once by the first cluster (cluster 0
/// without an allocation) and broadcast over the DSM fabric.
///
/// # Panics
///
/// Panics if the DSM fabric is disabled in `config`, if there are fewer than
/// two clusters, if the shape is not tileable by the 64-element block, or if
/// the row blocks do not split evenly across the clusters (the broadcast
/// schedule needs every cluster on the same iteration count).
pub fn build(config: &GpuConfig, shape: AttentionShape) -> Kernel {
    let g = Geometry::new(config, shape);
    // One column body, repeated: the K/V streams advance one tile per
    // column block, across row iterations too.
    let column = Column {
        loader: config.cluster_ids()[0],
        k: AddrExpr::streaming(GLOBAL_K, g.tile_bytes),
        v: AddrExpr::streaming(GLOBAL_V, g.tile_bytes),
    };
    build_kernel(
        config,
        shape,
        &g,
        &Steps::Repeat(g.col_blocks, column),
        "dsm",
    )
}

/// Builds the interleaved-ownership K/V broadcast FlashAttention-3 kernel.
///
/// Same row-block partitioning and dataflow as [`build`], but the *loader*
/// role rotates: K/V column block `j` is pulled from DRAM by the `j mod N`-th
/// cluster ([`PartitionStrategy::Interleaved`] over the column blocks) and
/// fanned out to the other clusters from there. Where [`build`] funnels the
/// whole broadcast through cluster 0's DMA engine and egress link, here
/// every cluster sources a 1/N slice of the column blocks, so the broadcast
/// load — DRAM pulls and DSM pushes both — spreads across all N clusters.
/// The loader depends on the column, so the column loop is unrolled; each
/// column's K/V streams start at block `j` and advance one row of blocks per
/// row iteration.
///
/// # Panics
///
/// Panics under the same conditions as [`build`].
pub fn build_interleaved(config: &GpuConfig, shape: AttentionShape) -> Kernel {
    let g = Geometry::new(config, shape);
    let loaders = config.partition_with(g.col_blocks, PartitionStrategy::Interleaved);
    let row_stride = g.col_blocks * g.tile_bytes;
    // Known defect, left as is: an unrolled column's K/V/S buffer ops run
    // once per row, so they pick their double buffer by row index, while
    // the softmax warps (one repeated column body) alternate per column —
    // on half the column blocks they work on the S buffer the orchestrator
    // did not drain into.
    let columns = (0..g.col_blocks)
        .map(|j| Column {
            loader: loaders.owner(j),
            k: AddrExpr::streaming(GLOBAL_K + j * g.tile_bytes, row_stride),
            v: AddrExpr::streaming(GLOBAL_V + j * g.tile_bytes, row_stride),
        })
        .collect();
    build_kernel(config, shape, &g, &Steps::Unrolled(columns), "dsm_int")
}

/// Builds the kernel from the column schedule every cluster follows.
fn build_kernel(
    config: &GpuConfig,
    shape: AttentionShape,
    g: &Geometry,
    columns: &Steps<Column>,
    tag: &str,
) -> Kernel {
    let dtype = config.dtype;
    let tile_bytes = g.tile_bytes;
    let score_bytes = u64::from(BLOCK) * u64::from(BLOCK) * 4;
    let k_buf = AddrExpr::double_buffered(SMEM_K0, SMEM_KV_STRIDE);
    let v_buf = AddrExpr::double_buffered(SMEM_V0, SMEM_KV_STRIDE);
    let s_buf = AddrExpr::double_buffered(SMEM_S0, SMEM_S_STRIDE);

    // One column block on `cluster`'s orchestrator: the loader pulls K/V
    // from DRAM and fans the tiles out to every other cluster's scratchpad;
    // then every cluster runs both GEMMs out of its (locally or remotely
    // filled) shared memory around the softmax barriers.
    let column_step = |b: &mut ProgramBuilder, cluster: u32, column: &Column| {
        if column.loader == cluster {
            b.op(dma(
                MemLoc::global(column.k),
                MemLoc::shared(k_buf),
                tile_bytes,
            ));
            b.op(dma(
                MemLoc::global(column.v),
                MemLoc::shared(v_buf),
                tile_bytes,
            ));
            b.op(WarpOp::FenceAsync { max_outstanding: 0 });
            for peer in g.rows.cluster_ids().filter(|&peer| peer != cluster) {
                for buf in [k_buf, v_buf] {
                    b.op(dma_remote(
                        MemLoc::shared(buf),
                        MemLoc::remote_shared(peer, buf),
                        tile_bytes,
                    ));
                }
            }
            b.op(WarpOp::FenceAsync { max_outstanding: 0 });
        }
        // GEMM-1: S = Q·Kᵀ.
        b.op(matrix_compute(
            DeviceId::MATRIX0,
            AddrExpr::fixed(SMEM_Q),
            k_buf,
            ACC_S,
            (BLOCK, BLOCK, shape.head_dim),
            false,
            dtype,
        ));
        b.op(WarpOp::FenceAsync { max_outstanding: 0 });
        // Drain the score tile for the softmax warps.
        b.op(dma(
            MemLoc::accumulator(AddrExpr::fixed(ACC_S)),
            MemLoc::shared(s_buf),
            score_bytes,
        ));
        b.op(WarpOp::FenceAsync { max_outstanding: 0 });
        b.op(WarpOp::Barrier { id: 0 });
        // Softmax runs between the barriers.
        b.op(WarpOp::Barrier { id: 1 });
        // GEMM-2: O += P·V.
        b.op(matrix_compute(
            DeviceId::MATRIX0,
            s_buf,
            v_buf,
            ACC_O,
            (BLOCK, BLOCK, BLOCK),
            true,
            dtype,
        ));
        b.op(WarpOp::FenceAsync { max_outstanding: 0 });
    };

    let mut warps = Vec::new();
    for cluster in g.rows.cluster_ids() {
        let gbase = cluster_addr_offset(cluster);
        let mut orch = ProgramBuilder::new();
        orch.repeat(g.rows_per_cluster, |b| {
            // The Q row block is this cluster's own.
            b.op(dma(
                MemLoc::global(AddrExpr::streaming(GLOBAL_Q + gbase, tile_bytes)),
                MemLoc::shared(AddrExpr::fixed(SMEM_Q)),
                tile_bytes,
            ));
            b.op(WarpOp::FenceAsync { max_outstanding: 0 });
            columns.emit(b, |b, column| column_step(b, cluster, column));
            // Epilogue: the accumulated O row block goes out to this
            // cluster's partition of global memory.
            b.op(dma(
                MemLoc::accumulator(AddrExpr::fixed(ACC_O)),
                MemLoc::global(AddrExpr::streaming(GLOBAL_O + gbase, tile_bytes)),
                tile_bytes,
            ));
            b.op(WarpOp::FenceAsync { max_outstanding: 0 });
            b.op(WarpOp::Barrier { id: 2 });
        });
        let orchestrator = Arc::new(orch.build());
        place_warps(&mut warps, config, cluster, |warp_index| {
            if warp_index == 0 {
                Arc::clone(&orchestrator)
            } else {
                softmax_warp(config, warp_index, g.rows_per_cluster, g.col_blocks)
            }
        });
    }

    Kernel::new(
        KernelInfo::new(
            format!(
                "flash_attention_virgo_{tag}_{shape}{}",
                cluster_suffix(g.rows.clusters())
            ),
            shape.gemm_mac_ops(),
            dtype,
        ),
        warps,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use virgo_isa::MmioCommand;

    fn config(clusters: u32) -> GpuConfig {
        GpuConfig::virgo()
            .to_fp32()
            .with_clusters(clusters)
            .with_dsm_enabled()
    }

    #[test]
    fn matrix_commands_cover_both_gemms_across_clusters() {
        let shape = AttentionShape::paper_default();
        let kernel = build(&config(4), shape);
        let mut macs = 0u64;
        for warp in kernel.warps.iter().filter(|w| w.warp == 0 && w.core == 0) {
            let mut cursor = warp.program.cursor();
            while let Some(op) = cursor.next_op() {
                if let WarpOp::MmioWrite { cmd, .. } = op {
                    if let Some(c) = cmd.as_matrix_compute() {
                        macs += c.mac_ops();
                    }
                }
            }
        }
        assert_eq!(macs, shape.gemm_mac_ops());
    }

    #[test]
    fn only_the_broadcaster_touches_global_kv() {
        let kernel = build(&config(2), AttentionShape::paper_default());
        for warp in kernel.warps.iter().filter(|w| w.warp == 0 && w.core == 0) {
            let mut kv_loads = 0;
            let mut remote_pushes = 0;
            let mut cursor = warp.program.cursor();
            while let Some(op) = cursor.next_op() {
                if let WarpOp::MmioWrite { cmd, .. } = op {
                    match cmd {
                        MmioCommand::DmaCopy(copy) => {
                            let base = copy.src.addr.base & 0xF000_0000;
                            if base == GLOBAL_K || base == GLOBAL_V {
                                kv_loads += 1;
                            }
                        }
                        MmioCommand::DmaRemote(copy) => {
                            assert!(copy.dst.remote_cluster().is_some());
                            remote_pushes += 1;
                        }
                        MmioCommand::MatrixCompute(_) => {}
                    }
                }
            }
            if warp.cluster == 0 {
                assert!(kv_loads > 0, "broadcaster loads K/V");
                assert!(remote_pushes > 0, "broadcaster pushes K/V");
            } else {
                assert_eq!(kv_loads, 0, "peers never touch global K/V");
                assert_eq!(remote_pushes, 0);
            }
        }
    }

    #[test]
    fn interleaved_variant_rotates_the_loader_role() {
        let shape = AttentionShape::paper_default();
        let kernel = build_interleaved(&config(4), shape);
        assert!(kernel.info.name.contains("dsm_int"), "{}", kernel.info.name);
        let col_blocks = u64::from(shape.seq_len / BLOCK);
        let loaders = GridPartition::with_strategy(col_blocks, 4, PartitionStrategy::Interleaved);
        let rows_per_cluster =
            u64::from(shape.seq_len / BLOCK) * u64::from(shape.heads * shape.batch) / 4;
        for warp in kernel.warps.iter().filter(|w| w.warp == 0 && w.core == 0) {
            let mut kv_loads = 0u64;
            let mut remote_pushes = 0u64;
            let mut cursor = warp.program.cursor();
            while let Some(op) = cursor.next_op() {
                if let WarpOp::MmioWrite { cmd, .. } = op {
                    match cmd {
                        MmioCommand::DmaCopy(copy) => {
                            let base = copy.src.addr.base & 0xF000_0000;
                            if base == GLOBAL_K || base == GLOBAL_V {
                                kv_loads += 1;
                            }
                        }
                        MmioCommand::DmaRemote(copy) => {
                            assert!(copy.dst.remote_cluster().is_some());
                            remote_pushes += 1;
                        }
                        MmioCommand::MatrixCompute(_) => {}
                    }
                }
            }
            // Every cluster loads its interleaved slice of the column blocks
            // (K and V, once per row iteration) and pushes each to the 3
            // other clusters — no cluster monopolizes the broadcast.
            let owned = loaders.count(warp.cluster);
            assert_eq!(
                kv_loads,
                2 * owned * rows_per_cluster,
                "cluster {}",
                warp.cluster
            );
            assert_eq!(remote_pushes, 2 * 3 * owned * rows_per_cluster);
            assert!(kv_loads > 0, "cluster {} never loads K/V", warp.cluster);
        }
    }

    #[test]
    fn interleaved_variant_matches_broadcast_macs() {
        let shape = AttentionShape::paper_default();
        let a = build(&config(2), shape);
        let b = build_interleaved(&config(2), shape);
        assert_eq!(a.info.total_macs, b.info.total_macs);
    }

    #[test]
    fn an_allocated_build_stays_on_its_clusters() {
        let config = config(4).with_allocation(vec![1, 3]);
        let shape = AttentionShape::paper_default();
        for (kernel, loaders) in [
            (build(&config, shape), vec![1]),
            (build_interleaved(&config, shape), vec![1, 3]),
        ] {
            let name = &kernel.info.name;
            assert!(name.ends_with("_c2"), "{name}");
            let mut remote_pushes = 0;
            let mut kv_loaders = Vec::new();
            for warp in &kernel.warps {
                assert!([1, 3].contains(&warp.cluster), "{name}: {}", warp.cluster);
                let mut cursor = warp.program.cursor();
                while let Some(op) = cursor.next_op() {
                    match op {
                        WarpOp::MmioWrite {
                            cmd: MmioCommand::DmaRemote(copy),
                            ..
                        } => {
                            let dst = copy.dst.remote_cluster();
                            assert!(matches!(dst, Some(1 | 3)), "{name}: {dst:?}");
                            assert_ne!(dst, Some(warp.cluster), "{name}");
                            remote_pushes += 1;
                        }
                        WarpOp::MmioWrite {
                            cmd: MmioCommand::DmaCopy(copy),
                            ..
                        } => {
                            let base = copy.src.addr.base & 0xF000_0000;
                            if base == GLOBAL_K && !kv_loaders.contains(&warp.cluster) {
                                kv_loaders.push(warp.cluster);
                            }
                        }
                        _ => {}
                    }
                }
            }
            assert!(remote_pushes > 0, "{name}");
            kv_loaders.sort_unstable();
            assert_eq!(kv_loaders, loaders, "{name}");
        }
    }

    #[test]
    #[should_panic(expected = "DSM fabric enabled")]
    fn dsm_disabled_config_is_rejected() {
        let _ = build(
            &GpuConfig::virgo().to_fp32().with_clusters(2),
            AttentionShape::paper_default(),
        );
    }
}
