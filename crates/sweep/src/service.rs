//! The query API over the pool and the report store.
//!
//! Downstream tools (benches, examples, tests, future serving layers) should
//! not drive simulation loops by hand. They build [`Query`]s — a query names
//! a design, a workload shape, a cluster count, a DRAM channel count and a
//! simulation mode, or wraps an arbitrary `(GpuConfig, Kernel)` pair — and
//! ask the [`SweepService`]:
//!
//! * [`SweepService::run`] — "what does this query's report look like?",
//! * [`SweepService::run_all`] — "run this whole grid" (sharded across the
//!   worker pool, memoized through the report store), and
//! * [`SweepService::cheapest_meeting`] — "what is the smallest machine
//!   that meets this latency target?".
//!
//! Every answer flows through the content-addressed report store (memory,
//! and — per [`StoreConfig`] — disk and a networked `virgo-store`), so
//! asking the same question twice — in the same process, in the next one,
//! or on another host sharing the store — never simulates twice, and a
//! cached answer is bit-identical to a fresh simulation (pinned by the
//! fingerprint tests in `tests/integration_sweep.rs` and the shared-store
//! tests in `tests/integration_store.rs`).

use std::fmt;
use std::sync::{Arc, OnceLock};

use virgo::{DesignKind, Gpu, GpuConfig, SimKey, SimMode, SimReport};
use virgo_isa::Kernel;
use virgo_kernels::{build_flash_attention, build_gemm, AttentionShape, GemmShape};

use crate::cache::{CacheStats, ReportCache};
use crate::pool::{Completion, SweepError, SweepPool};
use crate::store::StoreConfig;

/// Cycle budget used for every simulation unless overridden; generous enough
/// for the largest (1024³ Volta-style) run.
pub const DEFAULT_MAX_CYCLES: u64 = 2_000_000_000;

/// The workload dimension of a sweep point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepWorkload {
    /// A GEMM of the given shape (FP16 configurations, as in Tables 3/4).
    Gemm(GemmShape),
    /// A FlashAttention-3 forward pass (FP32 configurations, Section 5.3).
    FlashAttention(AttentionShape),
}

impl SweepWorkload {
    /// The base (single-cluster) GPU configuration this workload runs on for
    /// `design` — FlashAttention uses the FP32 variants.
    pub fn base_config(&self, design: DesignKind) -> GpuConfig {
        match self {
            SweepWorkload::Gemm(_) => GpuConfig::for_design(design),
            SweepWorkload::FlashAttention(_) => GpuConfig::for_design(design).to_fp32(),
        }
    }

    /// Builds the kernel for this workload on `config`.
    ///
    /// # Panics
    ///
    /// Panics if the workload is FlashAttention on a design other than Virgo
    /// or Ampere-style (the only mappings the paper evaluates).
    pub fn build(&self, config: &GpuConfig) -> Kernel {
        match self {
            SweepWorkload::Gemm(shape) => build_gemm(config, *shape),
            SweepWorkload::FlashAttention(shape) => build_flash_attention(config, *shape),
        }
    }
}

impl From<GemmShape> for SweepWorkload {
    fn from(shape: GemmShape) -> Self {
        SweepWorkload::Gemm(shape)
    }
}

impl From<AttentionShape> for SweepWorkload {
    fn from(shape: AttentionShape) -> Self {
        SweepWorkload::FlashAttention(shape)
    }
}

impl fmt::Display for SweepWorkload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepWorkload::Gemm(shape) => write!(f, "gemm {shape}"),
            SweepWorkload::FlashAttention(shape) => write!(f, "attention {shape}"),
        }
    }
}

/// One point of a design-space sweep (the value type behind a standard
/// [`Query`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepPoint {
    /// The matrix-unit integration style.
    pub design: DesignKind,
    /// The workload (GEMM or FlashAttention) and its shape.
    pub workload: SweepWorkload,
    /// Number of clusters the machine is scaled to.
    pub clusters: u32,
    /// Number of address-interleaved DRAM channels behind the shared L2.
    pub dram_channels: u32,
    /// Simulation-loop mode.
    pub mode: SimMode,
}

impl SweepPoint {
    /// A single-cluster fast-forward GEMM point.
    pub fn gemm(design: DesignKind, shape: GemmShape) -> Self {
        SweepPoint {
            design,
            workload: SweepWorkload::Gemm(shape),
            clusters: 1,
            dram_channels: 1,
            mode: SimMode::FastForward,
        }
    }

    /// A single-cluster fast-forward FlashAttention point.
    pub fn flash_attention(design: DesignKind, shape: AttentionShape) -> Self {
        SweepPoint {
            design,
            workload: SweepWorkload::FlashAttention(shape),
            clusters: 1,
            dram_channels: 1,
            mode: SimMode::FastForward,
        }
    }

    /// Scales the point to `clusters` clusters.
    #[must_use]
    pub fn with_clusters(mut self, clusters: u32) -> Self {
        self.clusters = clusters;
        self
    }

    /// Scales the point's shared DRAM back-end to `channels` channels.
    #[must_use]
    pub fn with_dram_channels(mut self, channels: u32) -> Self {
        self.dram_channels = channels;
        self
    }

    /// Switches the simulation-loop mode.
    #[must_use]
    pub fn with_mode(mut self, mode: SimMode) -> Self {
        self.mode = mode;
        self
    }

    /// The full GPU configuration of this point.
    pub fn config(&self) -> GpuConfig {
        self.workload
            .base_config(self.design)
            .with_clusters(self.clusters.max(1))
            .with_dram_channels(self.dram_channels.max(1))
    }
}

impl fmt::Display for SweepPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} x{}", self.design, self.workload, self.clusters)?;
        if self.dram_channels > 1 {
            write!(f, " ch{}", self.dram_channels)?;
        }
        write!(f, " ({})", self.mode)
    }
}

#[derive(Debug, Clone)]
enum QueryTarget {
    /// A standard design-space point.
    Point(SweepPoint),
    /// An arbitrary configuration/kernel pair (e.g. a custom matrix-unit
    /// sweep that no [`SweepPoint`] describes), still memoized through the
    /// report store.
    Custom {
        config: Box<GpuConfig>,
        kernel: Arc<Kernel>,
        mode: SimMode,
    },
}

/// One question for the [`SweepService`], built fluently:
///
/// ```
/// use virgo::{DesignKind, SimMode};
/// use virgo_kernels::GemmShape;
/// use virgo_sweep::Query;
///
/// let shape = GemmShape { m: 128, n: 128, k: 128 };
/// let query = Query::new(DesignKind::Virgo, shape)
///     .clusters(4)
///     .dram_channels(2)
///     .mode(SimMode::Naive);
/// assert_eq!(query.point().unwrap().clusters, 4);
/// ```
///
/// Defaults: one cluster, one DRAM channel, [`SimMode::FastForward`]. Every
/// consumer describes *what* to simulate the same way, whatever it asks the
/// service to do with it.
#[derive(Debug, Clone)]
pub struct Query {
    target: QueryTarget,
}

impl Query {
    /// A standard design-space query: `design` running `workload` (a
    /// [`GemmShape`], [`AttentionShape`] or explicit [`SweepWorkload`]).
    pub fn new(design: DesignKind, workload: impl Into<SweepWorkload>) -> Self {
        Query {
            target: QueryTarget::Point(SweepPoint {
                design,
                workload: workload.into(),
                clusters: 1,
                dram_channels: 1,
                mode: SimMode::FastForward,
            }),
        }
    }

    /// A query for an arbitrary configuration and kernel (defaults to
    /// [`SimMode::FastForward`]; change it with [`Query::mode`]). The
    /// cluster/channel builders do not apply — the configuration is already
    /// complete.
    pub fn custom(config: GpuConfig, kernel: Kernel) -> Self {
        Query {
            target: QueryTarget::Custom {
                config: Box::new(config),
                kernel: Arc::new(kernel),
                mode: SimMode::FastForward,
            },
        }
    }

    /// Scales the machine to `clusters` clusters.
    ///
    /// # Panics
    ///
    /// Panics on a [`Query::custom`] query, whose configuration is already
    /// complete.
    #[must_use]
    pub fn clusters(mut self, clusters: u32) -> Self {
        match &mut self.target {
            QueryTarget::Point(point) => point.clusters = clusters,
            QueryTarget::Custom { .. } => {
                panic!("Query::clusters does not apply to a custom-config query")
            }
        }
        self
    }

    /// Scales the shared DRAM back-end to `channels` channels.
    ///
    /// # Panics
    ///
    /// Panics on a [`Query::custom`] query, whose configuration is already
    /// complete.
    #[must_use]
    pub fn dram_channels(mut self, channels: u32) -> Self {
        match &mut self.target {
            QueryTarget::Point(point) => point.dram_channels = channels,
            QueryTarget::Custom { .. } => {
                panic!("Query::dram_channels does not apply to a custom-config query")
            }
        }
        self
    }

    /// Switches the simulation-loop mode.
    #[must_use]
    pub fn mode(mut self, mode: SimMode) -> Self {
        match &mut self.target {
            QueryTarget::Point(point) => point.mode = mode,
            QueryTarget::Custom { mode: m, .. } => *m = mode,
        }
        self
    }

    /// The design-space point this query describes (`None` for a
    /// custom-config query).
    pub fn point(&self) -> Option<SweepPoint> {
        match &self.target {
            QueryTarget::Point(point) => Some(*point),
            QueryTarget::Custom { .. } => None,
        }
    }

    /// The simulation-loop mode.
    pub fn sim_mode(&self) -> SimMode {
        match &self.target {
            QueryTarget::Point(point) => point.mode,
            QueryTarget::Custom { mode, .. } => *mode,
        }
    }

    /// Resolves the query into the exact simulation inputs: the full GPU
    /// configuration and the kernel (built on demand for standard points).
    pub fn materialize(&self) -> (GpuConfig, Arc<Kernel>, SimMode) {
        match &self.target {
            QueryTarget::Point(point) => {
                let config = point.config();
                let kernel = Arc::new(point.workload.build(&config));
                (config, kernel, point.mode)
            }
            QueryTarget::Custom {
                config,
                kernel,
                mode,
            } => ((**config).clone(), Arc::clone(kernel), *mode),
        }
    }
}

impl From<SweepPoint> for Query {
    fn from(point: SweepPoint) -> Self {
        Query {
            target: QueryTarget::Point(point),
        }
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.target {
            QueryTarget::Point(point) => write!(f, "{point}"),
            QueryTarget::Custom { kernel, mode, .. } => {
                write!(f, "custom {:?} ({mode})", kernel.info.name)
            }
        }
    }
}

/// One finished query.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// The query that was simulated (or served from the store).
    pub query: Query,
    /// The report; shared, since the store may hand it to several callers.
    pub report: Arc<SimReport>,
    /// True when the report was served from the store (any tier).
    pub from_cache: bool,
}

impl SweepOutcome {
    /// The design-space point behind the query (`None` for custom-config
    /// queries).
    pub fn point(&self) -> Option<SweepPoint> {
        self.query.point()
    }
}

/// The sweep engine: a worker pool, a report store and the query API.
#[derive(Debug)]
pub struct SweepService {
    pool: SweepPool,
    cache: ReportCache,
    max_cycles: u64,
}

impl SweepService {
    /// Creates a service from explicit parts.
    pub fn new(pool: SweepPool, cache: ReportCache, max_cycles: u64) -> Self {
        SweepService {
            pool,
            cache,
            max_cycles,
        }
    }

    /// A service with a host-sized pool and the environment-governed store
    /// ([`StoreConfig::from_env`]): memory, the `VIRGO_SWEEP_CACHE` disk
    /// tier (on by default) and, when `VIRGO_SWEEP_STORE` names a server,
    /// the networked report store.
    pub fn with_defaults() -> Self {
        Self::from_config(&StoreConfig::from_env())
    }

    /// A service with a host-sized pool over the store `config` describes.
    pub fn from_config(config: &StoreConfig) -> Self {
        Self::new(
            SweepPool::with_host_parallelism(),
            ReportCache::from_config(config),
            DEFAULT_MAX_CYCLES,
        )
    }

    /// A memory-only service with an explicit pool size — used by benches
    /// that need cold-cache timings uncontaminated by the shared disk layer.
    pub fn in_memory(pool_size: usize) -> Self {
        Self::new(
            SweepPool::new(pool_size),
            ReportCache::in_memory(ReportCache::DEFAULT_CAPACITY),
            DEFAULT_MAX_CYCLES,
        )
    }

    /// The process-wide shared service. Benches, tests and examples that
    /// just want answers should use this: the in-memory tier then dedupes
    /// across every caller in the process, the disk tier across processes,
    /// and the remote tier (when configured) across hosts.
    pub fn global() -> &'static SweepService {
        static GLOBAL: OnceLock<SweepService> = OnceLock::new();
        GLOBAL.get_or_init(SweepService::with_defaults)
    }

    /// The worker pool.
    pub fn pool(&self) -> &SweepPool {
        &self.pool
    }

    /// The report cache.
    pub fn cache(&self) -> &ReportCache {
        &self.cache
    }

    /// Cache counters (for sweep summaries).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The cycle budget applied to every simulation.
    pub fn max_cycles(&self) -> u64 {
        self.max_cycles
    }

    /// The content-address this service files `query`'s report under —
    /// the [`SimKey`] of its materialized inputs at this service's cycle
    /// budget. Two services with equal budgets (and one simulator build)
    /// agree on every key, which is what makes a shared store coherent.
    pub fn key_for(&self, query: &Query) -> SimKey {
        let (config, kernel, mode) = query.materialize();
        SimKey::digest(&config, &kernel, self.max_cycles, mode)
    }

    /// Answers one query, reporting whether the store served it.
    ///
    /// # Panics
    ///
    /// Panics if the simulation does not complete within the budget (which
    /// indicates a kernel-generation bug, not a user error) — the same
    /// contract the bench helpers have always had.
    pub fn run(&self, query: &Query) -> SweepOutcome {
        let (config, kernel, mode) = query.materialize();
        let key = SimKey::digest(&config, &kernel, self.max_cycles, mode);
        let (report, from_cache) = self.cache.get_or_compute(key, || {
            Gpu::new(config.clone())
                .run_with_mode(&kernel, self.max_cycles, mode)
                .unwrap_or_else(|e| {
                    panic!(
                        "{} kernel {:?} failed: {e}",
                        config.design, kernel.info.name
                    )
                })
        });
        SweepOutcome {
            query: query.clone(),
            report,
            from_cache,
        }
    }

    /// Runs a whole grid of queries, sharded across the worker pool.
    /// Results come back in submission order; cached queries cost a store
    /// lookup.
    ///
    /// # Panics
    ///
    /// Same as [`SweepService::run`].
    pub fn run_all(&self, queries: &[Query]) -> Vec<SweepOutcome> {
        self.run_streaming(queries, |_| {})
    }

    /// Runs a whole grid of queries, invoking `each` on the calling thread
    /// as every query completes (in completion order — a progress stream),
    /// and returns the outcomes in submission order.
    ///
    /// # Panics
    ///
    /// Same as [`SweepService::run`].
    pub fn run_streaming(
        &self,
        queries: &[Query],
        mut each: impl FnMut(&SweepOutcome),
    ) -> Vec<SweepOutcome> {
        self.pool.map_streaming(
            queries.to_vec(),
            |query| self.run(&query),
            |c: Completion<'_, SweepOutcome>| each(c.result),
        )
    }

    /// Fault-isolated [`SweepService::run_all`]: a query whose simulation
    /// panics (after the pool's bounded retries) is quarantined as an
    /// `Err(SweepError)` in its submission-order slot while every other
    /// query completes normally — one bad point no longer costs the whole
    /// campaign. Cached queries are unaffected either way.
    pub fn try_run_all(&self, queries: &[Query]) -> Vec<Result<SweepOutcome, SweepError>> {
        self.pool
            .try_map(queries.to_vec(), |query| self.run(&query))
    }

    /// The smallest cluster count among `candidates` at which `base` (its
    /// cluster count is overridden per candidate) meets the latency target
    /// (in cycles), together with its report. All candidates are swept in
    /// parallel (and memoized), so follow-up questions about the same
    /// workload are free. Returns `None` when no candidate meets the
    /// target.
    ///
    /// # Panics
    ///
    /// Panics when `base` is a custom-config query (no cluster dimension to
    /// sweep), or as [`SweepService::run`].
    pub fn cheapest_meeting(
        &self,
        base: &Query,
        latency_target_cycles: u64,
        candidates: &[u32],
    ) -> Option<(u32, Arc<SimReport>)> {
        assert!(
            base.point().is_some(),
            "cheapest_meeting needs a design-space query, not a custom config"
        );
        let mut sorted: Vec<u32> = candidates.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let queries: Vec<Query> = sorted
            .iter()
            .map(|&clusters| base.clone().clusters(clusters))
            .collect();
        self.run_all(&queries)
            .into_iter()
            .find(|o| o.report.cycles().get() <= latency_target_cycles)
            .map(|o| {
                let clusters = o.point().expect("built from a point").clusters;
                (clusters, o.report)
            })
    }
}

impl Default for SweepService {
    fn default() -> Self {
        Self::with_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_gemm() -> GemmShape {
        // The smallest shape every design's tiling accepts (the Virgo GEMM
        // uses 128x64x128 thread-block tiles).
        GemmShape {
            m: 128,
            n: 128,
            k: 128,
        }
    }

    fn service() -> SweepService {
        SweepService::new(
            SweepPool::new(2),
            ReportCache::in_memory(64),
            DEFAULT_MAX_CYCLES,
        )
    }

    #[test]
    fn run_is_memoized() {
        let svc = service();
        let query = Query::new(DesignKind::Virgo, tiny_gemm());
        let a = svc.run(&query);
        let b = svc.run(&query);
        assert!(!a.from_cache);
        assert!(b.from_cache, "second run must be a cache hit");
        assert!(
            Arc::ptr_eq(&a.report, &b.report),
            "memory tier must share the Arc"
        );
        let stats = svc.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn query_builder_sets_every_dimension() {
        let query = Query::new(DesignKind::Virgo, tiny_gemm())
            .clusters(4)
            .dram_channels(2)
            .mode(SimMode::Naive);
        let point = query.point().expect("a standard query has a point");
        assert_eq!(point.clusters, 4);
        assert_eq!(point.dram_channels, 2);
        assert_eq!(point.mode, SimMode::Naive);
        assert_eq!(query.sim_mode(), SimMode::Naive);
        let (config, _, mode) = query.materialize();
        assert_eq!(config.clusters, 4);
        assert_eq!(mode, SimMode::Naive);
        assert!(format!("{query}").contains("ch2"));
    }

    #[test]
    fn run_all_preserves_submission_order_and_marks_cache() {
        let svc = service();
        let queries: Vec<Query> = DesignKind::all()
            .into_iter()
            .map(|d| Query::new(d, tiny_gemm()))
            .collect();
        let first = svc.run_all(&queries);
        assert_eq!(first.len(), 4);
        for (outcome, design) in first.iter().zip(DesignKind::all()) {
            assert_eq!(outcome.point().unwrap().design, design);
            assert!(!outcome.from_cache);
            assert!(outcome.report.cycles().get() > 0);
        }
        let second = svc.run_all(&queries);
        assert!(second.iter().all(|o| o.from_cache));
    }

    #[test]
    fn streaming_callback_sees_every_query() {
        let svc = service();
        let queries: Vec<Query> = [1u32, 2]
            .into_iter()
            .map(|n| Query::new(DesignKind::Virgo, tiny_gemm()).clusters(n))
            .collect();
        let mut seen = 0;
        svc.run_streaming(&queries, |outcome| {
            assert!(outcome.report.cycles().get() > 0);
            seen += 1;
        });
        assert_eq!(seen, 2);
    }

    #[test]
    fn cheapest_meeting_finds_smallest() {
        let svc = service();
        let base = Query::new(DesignKind::Virgo, tiny_gemm());
        // N=1 cycles for the tiny GEMM; target just under it forces N>=2 on
        // Virgo (which scales), and an absurd target of 1 cycle returns None.
        let n1 = svc.run(&base).report.cycles().get();
        let (clusters, report) = svc
            .cheapest_meeting(&base, n1, &[4, 1, 2])
            .expect("n=1 meets its own latency");
        assert_eq!(clusters, 1);
        assert_eq!(report.cycles().get(), n1);
        let tighter = svc.cheapest_meeting(&base, n1 - 1, &[1, 2, 4]);
        if let Some((clusters, report)) = tighter {
            assert!(clusters > 1, "a tighter target needs a bigger machine");
            assert!(report.cycles().get() < n1);
        }
        assert!(svc.cheapest_meeting(&base, 1, &[1, 2]).is_none());
    }

    #[test]
    fn try_run_all_quarantines_a_panicking_query_and_finishes_the_rest() {
        let svc = service();
        // FlashAttention on a Volta-style design has no paper mapping and
        // panics in kernel generation — a deterministic poison point.
        let attention = AttentionShape {
            batch: 1,
            seq_len: 128,
            head_dim: 64,
            heads: 1,
        };
        let queries = vec![
            Query::new(DesignKind::Virgo, tiny_gemm()),
            Query::new(DesignKind::VoltaStyle, attention),
            Query::new(DesignKind::AmpereStyle, tiny_gemm()),
        ];
        let out = svc.try_run_all(&queries);
        assert_eq!(out.len(), 3);
        assert!(out[0].is_ok());
        assert!(out[2].is_ok(), "queries after the poison one must finish");
        let err = out[1].as_ref().unwrap_err();
        assert_eq!(err.index, 1);
        assert_eq!(err.attempts, SweepPool::MAX_ATTEMPTS);
    }

    #[test]
    fn dram_channel_queries_are_distinct_store_entries() {
        let svc = service();
        let base = Query::new(DesignKind::Virgo, tiny_gemm()).clusters(2);
        let quad = base.clone().dram_channels(4);
        let single = svc.run(&base);
        let outcome = svc.run(&quad);
        assert!(
            !outcome.from_cache,
            "a different channel count must not alias in the store"
        );
        assert_eq!(outcome.report.dram_channels(), 4);
        assert_eq!(single.report.dram_channels(), 1);
        assert_ne!(svc.key_for(&base), svc.key_for(&quad));
        // The per-channel slices add up to the aggregate interface stats.
        let summed: u64 = outcome
            .report
            .dram_channel_stats()
            .iter()
            .map(|c| c.bytes)
            .sum();
        assert_eq!(summed, outcome.report.dram_stats().bytes);
    }

    #[test]
    fn custom_config_queries_are_memoized_too() {
        let svc = service();
        let config = GpuConfig::virgo();
        let kernel = SweepWorkload::Gemm(tiny_gemm()).build(&config);
        let query = Query::custom(config, kernel);
        let a = svc.run(&query);
        let b = svc.run(&query);
        assert!(!a.from_cache);
        assert!(b.from_cache);
        assert!(Arc::ptr_eq(&a.report, &b.report));
        assert!(query.point().is_none());
        assert!(format!("{query}").starts_with("custom"));
    }

    #[test]
    #[should_panic(expected = "does not apply to a custom-config query")]
    fn cluster_builder_rejects_custom_queries() {
        let config = GpuConfig::virgo();
        let kernel = SweepWorkload::Gemm(tiny_gemm()).build(&config);
        let _ = Query::custom(config, kernel).clusters(2);
    }
}
