//! Kernel descriptions: the set of warp programs launched onto a cluster.

use std::collections::HashMap;
use std::sync::Arc;

use virgo_sim::{StableHash, StableHasher};

use crate::program::Program;

/// Numeric element type of matrix operands.
///
/// The paper evaluates FP16 configurations for the GEMM kernels and FP32
/// configurations for FlashAttention-3 (Section 5.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 16-bit IEEE 754 half precision.
    Fp16,
    /// 32-bit IEEE 754 single precision.
    Fp32,
}

impl DataType {
    /// Size of one element in bytes.
    pub const fn bytes(self) -> u32 {
        match self {
            DataType::Fp16 => 2,
            DataType::Fp32 => 4,
        }
    }

    /// Short lower-case name used in reports ("fp16" / "fp32").
    pub const fn name(self) -> &'static str {
        match self {
            DataType::Fp16 => "fp16",
            DataType::Fp32 => "fp32",
        }
    }
}

impl std::fmt::Display for DataType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Metadata describing a kernel, used for utilization accounting and reports.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelInfo {
    /// Human-readable kernel name (e.g. `"gemm_virgo_256"`).
    pub name: String,
    /// Total multiply-accumulate operations the kernel performs. MAC
    /// utilization (Table 3) is `total_macs / (cycles × peak MACs/cycle)`.
    pub total_macs: u64,
    /// Operand element type.
    pub dtype: DataType,
}

impl KernelInfo {
    /// Creates kernel metadata.
    pub fn new(name: impl Into<String>, total_macs: u64, dtype: DataType) -> Self {
        KernelInfo {
            name: name.into(),
            total_macs,
            dtype,
        }
    }
}

/// One warp's program and its placement within the machine.
#[derive(Debug, Clone)]
pub struct WarpAssignment {
    /// Index of the cluster this warp's thread block runs on.
    pub cluster: u32,
    /// Index of the SIMT core within the cluster this warp runs on.
    pub core: u32,
    /// Hardware warp slot within the core.
    pub warp: u32,
    /// The program the warp executes.
    pub program: Arc<Program>,
}

impl WarpAssignment {
    /// Creates a warp assignment on cluster 0 (the single-cluster default).
    pub fn new(core: u32, warp: u32, program: Arc<Program>) -> Self {
        Self::on_cluster(0, core, warp, program)
    }

    /// Creates a warp assignment on an explicit cluster.
    pub fn on_cluster(cluster: u32, core: u32, warp: u32, program: Arc<Program>) -> Self {
        WarpAssignment {
            cluster,
            core,
            warp,
            program,
        }
    }

    /// Creates a warp assignment on the cluster that owns work item `item`
    /// under `partition` — the strategy-aware placement used by kernels whose
    /// per-item warps follow the grid's ownership map rather than a fixed
    /// cluster.
    ///
    /// # Panics
    ///
    /// Panics if `item` is outside the partition's grid.
    pub fn owning(
        partition: &GridPartition,
        item: u64,
        core: u32,
        warp: u32,
        program: Arc<Program>,
    ) -> Self {
        Self::on_cluster(partition.owner(item), core, warp, program)
    }
}

/// How a linear work grid's items are mapped onto clusters.
///
/// `Contiguous` is the historical split (each cluster takes one balanced run
/// of consecutive indices). The other two distribute *ownership* across the
/// clusters so that work arriving per item — most importantly the split-K
/// partial-tile reduction, whose traffic lands on the owner's DSM ingress
/// link — spreads over all N links instead of funneling into one cluster:
///
/// * `Interleaved` deals items round-robin: item `i` belongs to cluster
///   `i mod N`.
/// * `Rotated` also deals round-robin but rotates the starting cluster by
///   one each round (`(i mod N + i div N) mod N`), so consecutive rounds of
///   the grid start their bursts on different ingress links.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PartitionStrategy {
    /// Balanced contiguous runs (the historical default).
    #[default]
    Contiguous,
    /// Round-robin: item `i` is owned by cluster `i mod N`.
    Interleaved,
    /// Round-robin with a per-round rotation of the starting cluster:
    /// item `i` is owned by cluster `(i mod N + i div N) mod N`.
    Rotated,
}

impl PartitionStrategy {
    /// Short lower-case name used in kernel names and reports.
    pub const fn name(self) -> &'static str {
        match self {
            PartitionStrategy::Contiguous => "contiguous",
            PartitionStrategy::Interleaved => "interleaved",
            PartitionStrategy::Rotated => "rotated",
        }
    }
}

impl std::fmt::Display for PartitionStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A partition of a linear work grid (e.g. GEMM output tiles or attention
/// row blocks) across the clusters of the machine.
///
/// Kernel generators use this to split a kernel's outermost tile loop. Under
/// the default [`PartitionStrategy::Contiguous`] each cluster receives a
/// contiguous run of tile indices, with the remainder spread one-per-cluster
/// over the leading clusters so the imbalance is at most one tile; the
/// interleaved and rotated strategies keep the same at-most-one-item balance
/// but deal ownership round-robin (see [`PartitionStrategy`]). A
/// single-cluster partition always covers the whole grid, which keeps
/// `clusters = 1` kernels identical to their pre-partition form.
///
/// # Example
///
/// ```
/// use virgo_isa::{GridPartition, PartitionStrategy};
///
/// let p = GridPartition::new(10, 4);
/// assert_eq!(p.count(0), 3); // clusters 0 and 1 take the remainder
/// assert_eq!(p.count(1), 3);
/// assert_eq!(p.count(2), 2);
/// assert_eq!(p.range(3), 8..10);
/// assert_eq!((0..4).map(|c| p.count(c)).sum::<u64>(), 10);
///
/// let r = GridPartition::with_strategy(10, 4, PartitionStrategy::Rotated);
/// assert_eq!(r.owner(0), 0);
/// assert_eq!(r.owner(4), 1); // the second round starts one cluster over
/// assert_eq!((0..4).map(|c| r.count(c)).sum::<u64>(), 10);
///
/// // A partition over an explicit cluster-id subset: logical slot k of the
/// // ownership map is cluster ids[k], so a builder running "inside" an
/// // allocation emits machine cluster ids without further translation.
/// let a = GridPartition::over(10, vec![2, 5]);
/// assert_eq!(a.owner(0), 2);
/// assert_eq!(a.range(5), 5..10);
/// assert_eq!(a.cluster_ids().collect::<Vec<_>>(), vec![2, 5]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridPartition {
    total: u64,
    clusters: u32,
    strategy: PartitionStrategy,
    /// Explicit machine cluster ids the grid is dealt over, or `None` for
    /// the historical `0..clusters` identity. When present the vector has
    /// exactly `clusters` distinct entries; logical ownership slot `k` maps
    /// to machine cluster `ids[k]`.
    ids: Option<Vec<u32>>,
}

impl GridPartition {
    /// Creates a contiguous partition of `total` work items over `clusters`
    /// clusters (the historical constructor — every pre-strategy call site
    /// keeps its exact ownership map).
    ///
    /// # Panics
    ///
    /// Panics if `clusters` is zero.
    pub fn new(total: u64, clusters: u32) -> Self {
        Self::with_strategy(total, clusters, PartitionStrategy::Contiguous)
    }

    /// Creates a partition of `total` work items over `clusters` clusters
    /// under an explicit ownership strategy.
    ///
    /// # Panics
    ///
    /// Panics if `clusters` is zero.
    pub fn with_strategy(total: u64, clusters: u32, strategy: PartitionStrategy) -> Self {
        assert!(clusters > 0, "cannot partition a grid over zero clusters");
        GridPartition {
            total,
            clusters,
            strategy,
            ids: None,
        }
    }

    /// Creates a contiguous partition of `total` work items over an explicit
    /// cluster-id subset — the allocation form used when a kernel runs on
    /// some (not necessarily leading) clusters of a larger machine.
    ///
    /// # Panics
    ///
    /// Panics if `ids` is empty or contains a duplicate id.
    pub fn over(total: u64, ids: Vec<u32>) -> Self {
        Self::over_with_strategy(total, ids, PartitionStrategy::Contiguous)
    }

    /// Creates a partition over an explicit cluster-id subset under an
    /// explicit ownership strategy. `GridPartition::over_with_strategy(t,
    /// (0..n).collect(), s)` has exactly the ownership map of
    /// `GridPartition::with_strategy(t, n, s)`.
    ///
    /// # Panics
    ///
    /// Panics if `ids` is empty or contains a duplicate id.
    pub fn over_with_strategy(total: u64, ids: Vec<u32>, strategy: PartitionStrategy) -> Self {
        assert!(
            !ids.is_empty(),
            "cannot partition a grid over zero clusters"
        );
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ids.len(), "duplicate cluster id in {ids:?}");
        let clusters = ids.len() as u32;
        // The identity subset is the plain partition: keeping it in the
        // `None` form preserves `Eq` with pre-subset partitions.
        let identity = ids.iter().enumerate().all(|(k, &id)| id == k as u32);
        GridPartition {
            total,
            clusters,
            strategy,
            ids: (!identity).then_some(ids),
        }
    }

    /// Total work items in the grid.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of clusters the grid is split over.
    pub fn clusters(&self) -> u32 {
        self.clusters
    }

    /// The ownership strategy.
    pub fn strategy(&self) -> PartitionStrategy {
        self.strategy
    }

    /// The machine cluster ids the grid is dealt over, in logical-slot order
    /// (`0..clusters` unless the partition was built [`GridPartition::over`]
    /// an explicit subset). Kernel builders iterate this instead of
    /// `0..clusters` so they emit correct placements inside an allocation.
    pub fn cluster_ids(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.clusters).map(move |k| self.cluster_id(k))
    }

    /// True if `cluster` is one of the ids this grid is dealt over.
    pub fn contains(&self, cluster: u32) -> bool {
        match &self.ids {
            None => cluster < self.clusters,
            Some(ids) => ids.contains(&cluster),
        }
    }

    /// The machine cluster id occupying logical ownership slot `logical`.
    fn cluster_id(&self, logical: u32) -> u32 {
        match &self.ids {
            None => logical,
            Some(ids) => ids[logical as usize],
        }
    }

    /// The logical ownership slot of machine cluster `cluster`.
    ///
    /// # Panics
    ///
    /// Panics if `cluster` is not part of the partition.
    fn logical(&self, cluster: u32) -> u32 {
        match &self.ids {
            None => {
                assert!(cluster < self.clusters, "cluster {cluster} out of range");
                cluster
            }
            Some(ids) => ids
                .iter()
                .position(|&id| id == cluster)
                .unwrap_or_else(|| panic!("cluster {cluster} not in partition {ids:?}"))
                as u32,
        }
    }

    /// The cluster that owns work item `item` — a machine cluster id when
    /// the partition spans an explicit subset.
    ///
    /// # Panics
    ///
    /// Panics if `item` is outside the grid.
    pub fn owner(&self, item: u64) -> u32 {
        assert!(item < self.total, "item {item} outside the grid");
        let n = u64::from(self.clusters);
        let logical = match self.strategy {
            PartitionStrategy::Contiguous => {
                let base = self.total / n;
                let rem = self.total % n;
                if base == 0 {
                    // Fewer items than clusters: item i sits on cluster i.
                    item as u32
                } else if item < rem * (base + 1) {
                    (item / (base + 1)) as u32
                } else {
                    (rem + (item - rem * (base + 1)) / base) as u32
                }
            }
            PartitionStrategy::Interleaved => (item % n) as u32,
            PartitionStrategy::Rotated => ((item % n + item / n) % n) as u32,
        };
        self.cluster_id(logical)
    }

    /// The work items owned by `cluster`, in ascending index order.
    ///
    /// # Panics
    ///
    /// Panics if `cluster` is not part of the partition.
    pub fn items(&self, cluster: u32) -> Vec<u64> {
        match self.strategy {
            PartitionStrategy::Contiguous => self.range(cluster).collect(),
            _ => {
                let _ = self.logical(cluster); // range-check
                (0..self.total)
                    .filter(|&item| self.owner(item) == cluster)
                    .collect()
            }
        }
    }

    /// The half-open range of work-item indices owned by `cluster`. Only the
    /// contiguous strategy owns ranges; use [`GridPartition::items`] for the
    /// interleaved/rotated maps.
    ///
    /// # Panics
    ///
    /// Panics if `cluster` is not part of the partition, or if the strategy
    /// is not [`PartitionStrategy::Contiguous`].
    pub fn range(&self, cluster: u32) -> std::ops::Range<u64> {
        let logical = self.logical(cluster);
        assert!(
            self.strategy == PartitionStrategy::Contiguous,
            "only a contiguous partition owns ranges; use items() for {}",
            self.strategy
        );
        let base = self.total / u64::from(self.clusters);
        let rem = self.total % u64::from(self.clusters);
        let c = u64::from(logical);
        let start = base * c + c.min(rem);
        let len = base + u64::from(c < rem);
        start..start + len
    }

    /// Number of work items owned by `cluster`.
    ///
    /// # Panics
    ///
    /// Panics if `cluster` is not part of the partition.
    pub fn count(&self, cluster: u32) -> u64 {
        match self.strategy {
            PartitionStrategy::Contiguous => {
                let r = self.range(cluster);
                r.end - r.start
            }
            _ => {
                // Range-check `cluster`. Both round-robin strategies are
                // permutations of the deal order within each round, so the
                // counts match the contiguous split's balance exactly: every
                // cluster gets `total / N` items plus at most one from the
                // last round.
                let _ = self.logical(cluster);
                (0..self.total)
                    .filter(|&item| self.owner(item) == cluster)
                    .count() as u64
            }
        }
    }
}

/// A kernel: the collection of warp programs launched onto the machine's
/// clusters (one thread block per cluster in the Virgo programming model,
/// where each thread block spans all cores of its cluster).
#[derive(Debug, Clone)]
pub struct Kernel {
    /// Kernel metadata.
    pub info: KernelInfo,
    /// Per-warp programs and placements.
    pub warps: Vec<WarpAssignment>,
}

impl Kernel {
    /// Creates a kernel from metadata and warp assignments.
    pub fn new(info: KernelInfo, warps: Vec<WarpAssignment>) -> Self {
        Kernel { info, warps }
    }

    /// Total dynamic instructions across every warp of the kernel.
    pub fn dynamic_instructions(&self) -> u64 {
        self.warps.iter().map(|w| w.program.dynamic_len()).sum()
    }

    /// Number of distinct (cluster, core) pairs used by the kernel's warps.
    pub fn cores_used(&self) -> usize {
        let mut cores: Vec<(u32, u32)> = self.warps.iter().map(|w| (w.cluster, w.core)).collect();
        cores.sort_unstable();
        cores.dedup();
        cores.len()
    }

    /// Number of distinct clusters used by the kernel's warps.
    pub fn clusters_used(&self) -> usize {
        let mut clusters: Vec<u32> = self.warps.iter().map(|w| w.cluster).collect();
        clusters.sort_unstable();
        clusters.dedup();
        clusters.len()
    }

    /// Highest cluster index any warp is assigned to, or `None` for an empty
    /// kernel.
    pub fn max_cluster(&self) -> Option<u32> {
        self.warps.iter().map(|w| w.cluster).max()
    }

    /// Warps assigned to a particular core (on any cluster).
    pub fn warps_on_core(&self, core: u32) -> impl Iterator<Item = &WarpAssignment> {
        self.warps.iter().filter(move |w| w.core == core)
    }

    /// Warps assigned to a particular cluster.
    pub fn warps_on_cluster(&self, cluster: u32) -> impl Iterator<Item = &WarpAssignment> {
        self.warps.iter().filter(move |w| w.cluster == cluster)
    }
}

impl StableHash for DataType {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_u64(match self {
            DataType::Fp16 => 0,
            DataType::Fp32 => 1,
        });
    }
}

impl StableHash for KernelInfo {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_str(&self.name);
        h.write_u64(self.total_macs);
        self.dtype.stable_hash(h);
    }
}

impl StableHash for Kernel {
    /// Hashes the kernel *structurally*: metadata plus every warp's placement
    /// and program contents. Warps typically share their `Arc<Program>`, so
    /// each distinct program is hashed once and its digest reused — the
    /// resulting kernel digest still depends only on program *contents*, not
    /// on sharing structure, so a kernel built with cloned (rather than
    /// shared) programs hashes identically.
    fn stable_hash(&self, h: &mut StableHasher) {
        self.info.stable_hash(h);
        let mut memo: HashMap<*const Program, (u64, u64)> = HashMap::new();
        h.write_u64(self.warps.len() as u64);
        for warp in &self.warps {
            h.write_u64(u64::from(warp.cluster));
            h.write_u64(u64::from(warp.core));
            h.write_u64(u64::from(warp.warp));
            let (hi, lo) = *memo.entry(Arc::as_ptr(&warp.program)).or_insert_with(|| {
                let mut ph = StableHasher::new();
                warp.program.stable_hash(&mut ph);
                ph.finish128()
            });
            h.write_u64(hi);
            h.write_u64(lo);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::op::WarpOp;

    fn tiny_program(ops: u32) -> Arc<Program> {
        let mut b = ProgramBuilder::new();
        b.op_n(ops, WarpOp::Nop);
        Arc::new(b.build())
    }

    #[test]
    fn data_type_sizes() {
        assert_eq!(DataType::Fp16.bytes(), 2);
        assert_eq!(DataType::Fp32.bytes(), 4);
        assert_eq!(DataType::Fp16.to_string(), "fp16");
        assert_eq!(DataType::Fp32.to_string(), "fp32");
    }

    #[test]
    fn kernel_aggregates_dynamic_instructions() {
        let info = KernelInfo::new("test", 1000, DataType::Fp16);
        let kernel = Kernel::new(
            info,
            vec![
                WarpAssignment::new(0, 0, tiny_program(3)),
                WarpAssignment::new(0, 1, tiny_program(5)),
                WarpAssignment::new(1, 0, tiny_program(7)),
            ],
        );
        assert_eq!(kernel.dynamic_instructions(), 15);
        assert_eq!(kernel.cores_used(), 2);
        assert_eq!(kernel.warps_on_core(0).count(), 2);
        assert_eq!(kernel.warps_on_core(1).count(), 1);
        assert_eq!(kernel.warps_on_core(7).count(), 0);
    }

    #[test]
    fn cluster_placement_defaults_to_zero() {
        let w = WarpAssignment::new(3, 1, tiny_program(1));
        assert_eq!(w.cluster, 0);
        let w2 = WarpAssignment::on_cluster(2, 3, 1, tiny_program(1));
        assert_eq!(w2.cluster, 2);
    }

    #[test]
    fn kernel_reports_cluster_usage() {
        let kernel = Kernel::new(
            KernelInfo::new("multi", 0, DataType::Fp16),
            vec![
                WarpAssignment::on_cluster(0, 0, 0, tiny_program(1)),
                WarpAssignment::on_cluster(1, 0, 0, tiny_program(1)),
                WarpAssignment::on_cluster(1, 1, 0, tiny_program(1)),
            ],
        );
        assert_eq!(kernel.clusters_used(), 2);
        assert_eq!(kernel.max_cluster(), Some(1));
        assert_eq!(kernel.cores_used(), 3);
        assert_eq!(kernel.warps_on_cluster(1).count(), 2);
        assert_eq!(kernel.warps_on_cluster(7).count(), 0);
    }

    #[test]
    fn grid_partition_covers_grid_without_overlap() {
        for (total, clusters) in [(0u64, 1u32), (1, 4), (10, 4), (64, 8), (7, 3)] {
            let p = GridPartition::new(total, clusters);
            let mut next = 0;
            for c in 0..clusters {
                let r = p.range(c);
                assert_eq!(r.start, next, "total={total} clusters={clusters} c={c}");
                next = r.end;
                // Balanced to within one item.
                assert!(p.count(c) >= total / u64::from(clusters));
                assert!(p.count(c) <= total.div_ceil(u64::from(clusters)));
            }
            assert_eq!(next, total);
        }
    }

    #[test]
    fn single_cluster_partition_is_the_whole_grid() {
        let p = GridPartition::new(42, 1);
        assert_eq!(p.range(0), 0..42);
        assert_eq!(p.count(0), 42);
    }

    #[test]
    #[should_panic(expected = "zero clusters")]
    fn zero_cluster_partition_panics() {
        let _ = GridPartition::new(4, 0);
    }

    #[test]
    fn all_strategies_cover_grid_without_overlap() {
        for strategy in [
            PartitionStrategy::Contiguous,
            PartitionStrategy::Interleaved,
            PartitionStrategy::Rotated,
        ] {
            for (total, clusters) in [(0u64, 1u32), (1, 4), (10, 4), (64, 8), (7, 3), (16, 8)] {
                let p = GridPartition::with_strategy(total, clusters, strategy);
                let mut seen = vec![false; total as usize];
                let mut counted = 0;
                for c in 0..clusters {
                    let items = p.items(c);
                    assert_eq!(items.len() as u64, p.count(c));
                    counted += items.len() as u64;
                    for item in items {
                        assert_eq!(p.owner(item), c, "{strategy} {total}/{clusters}");
                        assert!(!seen[item as usize], "item {item} owned twice");
                        seen[item as usize] = true;
                    }
                    // Balanced to within one item under every strategy.
                    assert!(p.count(c) >= total / u64::from(clusters));
                    assert!(p.count(c) <= total.div_ceil(u64::from(clusters)));
                }
                assert_eq!(counted, total, "{strategy} {total}/{clusters}");
            }
        }
    }

    #[test]
    fn contiguous_owner_agrees_with_range() {
        for (total, clusters) in [(1u64, 4u32), (10, 4), (64, 8), (7, 3), (100, 7)] {
            let p = GridPartition::new(total, clusters);
            for c in 0..clusters {
                for item in p.range(c) {
                    assert_eq!(p.owner(item), c, "total={total} clusters={clusters}");
                }
            }
        }
    }

    #[test]
    fn interleaved_deals_round_robin() {
        let p = GridPartition::with_strategy(10, 4, PartitionStrategy::Interleaved);
        assert_eq!(p.items(0), vec![0, 4, 8]);
        assert_eq!(p.items(1), vec![1, 5, 9]);
        assert_eq!(p.items(2), vec![2, 6]);
        assert_eq!(p.items(3), vec![3, 7]);
    }

    #[test]
    fn rotated_shifts_start_each_round() {
        // Round r starts its deal at cluster r mod N, so the clusters that
        // absorb a ragged final round rotate instead of always being the
        // leading ones.
        let p = GridPartition::with_strategy(10, 4, PartitionStrategy::Rotated);
        assert_eq!(p.items(0), vec![0, 7]);
        assert_eq!(p.items(1), vec![1, 4]);
        assert_eq!(p.items(2), vec![2, 5, 8]);
        assert_eq!(p.items(3), vec![3, 6, 9]);
    }

    #[test]
    #[should_panic(expected = "contiguous")]
    fn range_panics_for_non_contiguous_strategies() {
        let p = GridPartition::with_strategy(8, 4, PartitionStrategy::Rotated);
        let _ = p.range(0);
    }

    #[test]
    fn owning_assignment_follows_the_ownership_map() {
        let p = GridPartition::with_strategy(8, 4, PartitionStrategy::Interleaved);
        let w = WarpAssignment::owning(&p, 6, 1, 3, tiny_program(2));
        assert_eq!(w.cluster, 2);
        assert_eq!(w.core, 1);
        assert_eq!(w.warp, 3);
    }

    #[test]
    fn subset_partition_maps_logical_slots_to_machine_ids() {
        for strategy in [
            PartitionStrategy::Contiguous,
            PartitionStrategy::Interleaved,
            PartitionStrategy::Rotated,
        ] {
            let ids = vec![5u32, 1, 6];
            let sub = GridPartition::over_with_strategy(10, ids.clone(), strategy);
            let full = GridPartition::with_strategy(10, 3, strategy);
            assert_eq!(sub.clusters(), 3);
            assert_eq!(sub.cluster_ids().collect::<Vec<_>>(), ids);
            for item in 0..10 {
                // The subset's ownership map is the plain map composed with
                // the logical-slot -> machine-id translation.
                assert_eq!(
                    sub.owner(item),
                    ids[full.owner(item) as usize],
                    "{strategy} item {item}"
                );
            }
            for (k, &id) in ids.iter().enumerate() {
                assert_eq!(sub.items(id), full.items(k as u32), "{strategy} id {id}");
                assert_eq!(sub.count(id), full.count(k as u32));
                assert!(sub.contains(id));
            }
            assert!(!sub.contains(0));
            assert!(!sub.contains(7));
        }
    }

    #[test]
    fn identity_subset_equals_plain_partition() {
        let sub = GridPartition::over(12, vec![0, 1, 2, 3]);
        let full = GridPartition::new(12, 4);
        assert_eq!(sub, full);
        assert_eq!(sub.range(2), full.range(2));
    }

    #[test]
    #[should_panic(expected = "not in partition")]
    fn subset_partition_rejects_foreign_cluster() {
        let p = GridPartition::over(8, vec![2, 3]);
        let _ = p.count(0);
    }

    #[test]
    #[should_panic(expected = "duplicate cluster id")]
    fn subset_partition_rejects_duplicates() {
        let _ = GridPartition::over(8, vec![2, 2]);
    }

    #[test]
    fn kernel_info_holds_mac_count() {
        let info = KernelInfo::new("gemm", 256 * 256 * 256, DataType::Fp16);
        assert_eq!(info.total_macs, 16_777_216);
        assert_eq!(info.name, "gemm");
    }
}
