//! GEMM kernel generators, one per design point (Section 5.3).
//!
//! The paper's four GEMM kernels are one tiled GEMM mapped four ways, so
//! every generator runs on one `TileWalk`: it checks that the shape tiles
//! evenly by the design's thread-block tile, counts the output tiles and
//! the K-steps per tile, sizes the A, B and C tiles, deals the output tiles
//! over the configuration's clusters (its allocation, when one is set)
//! with [`GpuConfig::partition`], places one program per hardware warp on
//! every cluster at that cluster's global-memory partition, and names the
//! kernel `gemm_{style}_{shape}`. What a design passes to the walk is its
//! tile and the per-cluster, per-warp program:
//!
//! * [`coupled`] — Volta-, Ampere- and Hopper-style share the 64×128×32
//!   tile and one tile body (a K loop of fetch, barrier, compute, barrier,
//!   then a register-file C epilogue). Each passes its *fetch* step (SIMT
//!   copies, or the leader warp's cluster-DMA copies) and its *compute*
//!   step (`wmma` as synchronous `HMMA` steps, or asynchronous `wgmma`
//!   from [`hopper`]).
//! * [`virgo`] — the disaggregated kernel on the 128×64×128 matrix-unit
//!   tile: one orchestrator warp per cluster runs the MMIO K-loop pipeline
//!   to the cluster DMA and matrix unit, and every other warp joins its
//!   barriers.
//! * [`split_k`] — the producer-consumer split-K variant on Virgo's tile and
//!   K-loop pipeline, with the reduction dimension split over the clusters
//!   and the partial sums reduced on each output tile's owner, over the
//!   inter-cluster DSM fabric or through global memory (the A/B pair of the
//!   DSM study).

pub mod coupled;
pub mod hopper;
pub mod split_k;
pub mod virgo;

use std::sync::Arc;

use ::virgo::{DesignKind, GpuConfig};
use virgo_isa::{GridPartition, Kernel, KernelInfo, Program};

use crate::workload::GemmShape;
use crate::{cluster_addr_offset, cluster_suffix, place_warps};

/// Global-memory base address of the A matrix.
pub(crate) const GLOBAL_A: u64 = 0x1000_0000;
/// Global-memory base address of the B matrix.
pub(crate) const GLOBAL_B: u64 = 0x2000_0000;
/// Global-memory base address of the C matrix.
pub(crate) const GLOBAL_C: u64 = 0x3000_0000;

/// Builds the GEMM kernel optimized for `config`'s design point.
///
/// # Panics
///
/// Panics if the problem shape is not divisible by the design's thread-block
/// tile (all paper sizes are).
pub fn build_gemm(config: &GpuConfig, shape: GemmShape) -> Kernel {
    use coupled::{Compute, Fetch};
    let (style, fetch, compute) = match config.design {
        DesignKind::VoltaStyle => ("volta", Fetch::Simt, Compute::Wmma),
        DesignKind::AmpereStyle => ("ampere", Fetch::Dma, Compute::Wmma),
        DesignKind::HopperStyle => ("hopper", Fetch::Dma, Compute::Wgmma),
        DesignKind::Virgo => return virgo::build(config, shape),
    };
    coupled::build(config, shape, style, fetch, compute)
}

/// One GEMM's thread-block tiling on a configuration: the tile counts and
/// sizes, and the output tiles dealt contiguously over the configuration's
/// cluster ids.
#[derive(Debug)]
pub(crate) struct TileWalk<'a> {
    pub(crate) config: &'a GpuConfig,
    shape: GemmShape,
    /// Output tiles of the whole problem.
    pub(crate) out_tiles: u64,
    /// K-steps per output tile.
    pub(crate) kt: u64,
    /// Bytes of one A tile, in the configuration's operand type.
    pub(crate) a_bytes: u64,
    /// Bytes of one B tile, in the configuration's operand type.
    pub(crate) b_bytes: u64,
    /// Bytes of one FP32 C tile.
    pub(crate) c_bytes: u64,
    partition: GridPartition,
}

impl<'a> TileWalk<'a> {
    /// Tiles `shape` by the `(m, n, k)` thread-block tile on `config`.
    ///
    /// # Panics
    ///
    /// Panics if the shape is not divisible by the tile.
    pub(crate) fn new(
        config: &'a GpuConfig,
        shape: GemmShape,
        (tm, tn, tk): (u32, u32, u32),
    ) -> Self {
        assert!(
            shape.m.is_multiple_of(tm) && shape.n.is_multiple_of(tn) && shape.k.is_multiple_of(tk),
            "GEMM shape {shape} not divisible by the {tm}x{tn}x{tk} tile"
        );
        let elem = u64::from(config.dtype.bytes());
        let out_tiles = u64::from(shape.m / tm) * u64::from(shape.n / tn);
        TileWalk {
            config,
            shape,
            out_tiles,
            kt: u64::from(shape.k / tk),
            a_bytes: u64::from(tm) * u64::from(tk) * elem,
            b_bytes: u64::from(tk) * u64::from(tn) * elem,
            c_bytes: u64::from(tm) * u64::from(tn) * 4,
            partition: config.partition(out_tiles),
        }
    }

    /// Number of clusters the walk spreads over.
    pub(crate) fn clusters(&self) -> u32 {
        self.partition.clusters()
    }

    /// The cluster ids the walk places warps on, in allocation order.
    pub(crate) fn cluster_ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.partition.cluster_ids()
    }

    /// Builds the kernel named `gemm_{style}_{shape}`, then the
    /// multi-cluster suffix, then `suffix`, carrying the whole problem's
    /// MACs, with a warp on every hardware warp slot of every cluster.
    ///
    /// `cluster(id, tiles, base)` is called once per cluster, with the
    /// number of output tiles the cluster owns and its global-memory
    /// partition offset ([`cluster_addr_offset`]). It returns the program
    /// of each warp index of that cluster (see [`place_warps`]), which is
    /// dropped before the next cluster is built.
    pub(crate) fn kernel<F>(
        &self,
        style: &str,
        suffix: &str,
        mut cluster: impl FnMut(u32, u64, u64) -> F,
    ) -> Kernel
    where
        F: FnMut(u64) -> Arc<Program>,
    {
        let mut warps = Vec::new();
        for id in self.partition.cluster_ids() {
            let program = cluster(id, self.partition.count(id), cluster_addr_offset(id));
            place_warps(&mut warps, self.config, id, program);
        }
        let shape = self.shape;
        let clusters = cluster_suffix(self.clusters());
        Kernel::new(
            KernelInfo::new(
                format!("gemm_{style}_{shape}{clusters}{suffix}"),
                shape.mac_ops(),
                self.config.dtype,
            ),
            warps,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ::virgo::DesignKind;
    use virgo_isa::{PartitionStrategy, WarpOp};

    use crate::build_split_k_gemm_with_strategy;

    /// Every multiply-accumulate the kernel's warps issue: `HMMA` steps,
    /// `wgmma` operations and matrix-unit commands, over every dynamic op.
    fn issued_macs(kernel: &Kernel) -> u64 {
        let mut macs = 0;
        for warp in &kernel.warps {
            let mut cursor = warp.program.cursor();
            while let Some(op) = cursor.next_op() {
                macs += match op {
                    WarpOp::HmmaStep { macs, .. } => u64::from(macs),
                    WarpOp::WgmmaInit(op) => op.mac_ops(),
                    WarpOp::MmioWrite { cmd, .. } => {
                        cmd.as_matrix_compute().map_or(0, |c| c.mac_ops())
                    }
                    _ => 0,
                };
            }
        }
        macs
    }

    #[test]
    fn every_builder_issues_exactly_the_problems_macs() {
        let allocated = |config: GpuConfig| config.with_clusters(4).with_allocation(vec![1, 3]);
        let shape = GemmShape::square(256);
        for design in DesignKind::all() {
            let config = GpuConfig::for_design(design);
            let mut configs: Vec<GpuConfig> =
                [1, 2, 4].map(|n| config.clone().with_clusters(n)).into();
            configs.push(allocated(config));
            for config in &configs {
                let kernel = build_gemm(config, shape);
                assert_eq!(
                    issued_macs(&kernel),
                    shape.mac_ops(),
                    "{}",
                    kernel.info.name
                );
            }
        }
        let split = GemmShape {
            m: 256,
            n: 128,
            k: 512,
        };
        for config in [
            GpuConfig::virgo().with_clusters(2),
            GpuConfig::virgo().with_clusters(4).with_dsm_enabled(),
            allocated(GpuConfig::virgo()),
        ] {
            for strategy in [
                PartitionStrategy::Contiguous,
                PartitionStrategy::Interleaved,
                PartitionStrategy::Rotated,
            ] {
                let kernel = build_split_k_gemm_with_strategy(&config, split, strategy);
                assert_eq!(
                    issued_macs(&kernel),
                    split.mac_ops(),
                    "{}",
                    kernel.info.name
                );
            }
        }
    }

    #[test]
    fn every_design_produces_a_kernel() {
        let shape = GemmShape::square(256);
        for design in DesignKind::all() {
            let config = GpuConfig::for_design(design);
            let kernel = build_gemm(&config, shape);
            assert!(!kernel.warps.is_empty(), "{design}");
            assert_eq!(kernel.info.total_macs, shape.mac_ops(), "{design}");
            assert!(kernel.dynamic_instructions() > 0, "{design}");
        }
    }

    #[test]
    fn virgo_kernel_has_far_fewer_instructions_than_volta() {
        // Section 6.1.1: retired instructions in Virgo are ~0.5% of the
        // Volta-style design. The static kernels should already show an
        // enormous gap.
        let shape = GemmShape::square(256);
        let volta = build_gemm(&GpuConfig::volta_style(), shape);
        let virgo = build_gemm(&GpuConfig::virgo(), shape);
        let ratio = virgo.dynamic_instructions() as f64 / volta.dynamic_instructions() as f64;
        assert!(ratio < 0.05, "instruction ratio {ratio}");
    }

    #[test]
    fn warp_counts_match_cluster_shape() {
        let shape = GemmShape::square(256);
        assert_eq!(build_gemm(&GpuConfig::volta_style(), shape).warps.len(), 64);
        assert_eq!(
            build_gemm(&GpuConfig::hopper_style(), shape).warps.len(),
            32
        );
        assert_eq!(build_gemm(&GpuConfig::virgo(), shape).warps.len(), 64);
    }
}
