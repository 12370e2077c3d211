//! Design-space sweep engine for the Virgo simulator.
//!
//! The paper's headline claims (Table 1 scalability, the Figure 12 energy
//! comparison) come from *sweeps* — grids of `(design, shape, clusters,
//! mode)` points, each an independent deterministic simulation. This crate
//! makes those sweeps tractable with the classic "scale by sharding,
//! amortize by caching" playbook, in four layers:
//!
//! 1. **Execution** — [`SweepPool`], a bounded work-stealing worker pool
//!    (`std::thread` + a shared injector deque; no external dependencies)
//!    that shards any work list across `min(num_cpus, pool_size)` workers,
//!    streams completions to the caller as they happen and collects results
//!    in submission order.
//! 2. **Storage** — the [`ReportStore`] trait and its three tiers:
//!    [`MemoryStore`] (FIFO working set), [`DiskStore`]
//!    (`target/sweep-cache/*.json`, atomic writes, corrupt-entry
//!    quarantine) and [`RemoteStore`] (a networked `virgo-store` server
//!    with retry-then-degrade-to-local policy — a dead store never fails a
//!    sweep). Every knob is parsed once into a typed [`StoreConfig`]
//!    (`VIRGO_SWEEP_CACHE`, `VIRGO_SWEEP_STORE`, `VIRGO_SWEEP_QUARANTINE`).
//! 3. **Memoization** — [`ReportCache`], the content-addressed memo of
//!    [`SimReport`](virgo::SimReport)s keyed by [`SimKey`](virgo::SimKey)
//!    (a stable 128-bit digest of the simulation inputs *and* the
//!    simulator's own source tree). It owns the configured tiers and walks
//!    them memory → disk → remote: read-through with promotion into the
//!    faster tiers, write-through on a miss. Cached reports are
//!    **bit-identical** to fresh simulations; corrupt entries are
//!    detected, quarantined and treated as misses.
//! 4. **Query API** — [`Query`], one builder-style description of a
//!    simulation, and [`SweepService`], which answers it:
//!    [`SweepService::run`] for one query, [`SweepService::run_all`] for a
//!    grid, and [`SweepService::cheapest_meeting`] for "the smallest
//!    machine meeting a latency target".
//!
//! # Example
//!
//! ```
//! use virgo::DesignKind;
//! use virgo_kernels::GemmShape;
//! use virgo_sweep::{Query, SweepService};
//!
//! let svc = SweepService::in_memory(2);
//! let shape = GemmShape { m: 128, n: 128, k: 128 };
//! // One question...
//! let outcome = svc.run(&Query::new(DesignKind::Virgo, shape));
//! assert!(outcome.report.cycles().get() > 0);
//! // ...or a sharded grid; the one-cluster query above is already memoized.
//! let queries: Vec<_> = [1u32, 2]
//!     .into_iter()
//!     .map(|n| Query::new(DesignKind::Virgo, shape).clusters(n))
//!     .collect();
//! let outcomes = svc.run_all(&queries);
//! assert!(outcomes[0].from_cache);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod pool;
pub mod service;
pub mod store;

pub use cache::{CacheStats, ReportCache};
pub use pool::{host_parallelism, Completion, SweepError, SweepPool};
pub use service::{
    Query, SweepOutcome, SweepPoint, SweepService, SweepWorkload, DEFAULT_MAX_CYCLES,
};
pub use store::{
    default_disk_dir, workspace_cache_dir, DiskStore, MemoryStore, RemoteStore, ReportStore,
    StoreConfig, StoreStats, StoreTier,
};
