//! Cycle-stepped simulation substrate for the Virgo GPU model.
//!
//! This crate contains the small, dependency-free building blocks shared by
//! every other crate in the workspace:
//!
//! * [`Cycle`] and [`Frequency`] — strongly-typed simulated time,
//! * [`stats`] — the [`Counters`] trait behind every event-counter struct
//!   (aggregation, per-job windows and the snapshot JSON, generated from
//!   one field list by [`counters!`]) and the [`Ratio`] used for
//!   utilization,
//! * [`pipe`] — bounded queues used to model hardware buffers that exert
//!   back-pressure,
//! * [`rng`] — a tiny deterministic pseudo-random generator used where the
//!   model needs arbitrary-but-reproducible choices,
//! * [`fault`] — deterministic, cycle-windowed fault-injection plans
//!   ([`FaultPlan`]) and the degraded-mode counters they produce.
//!
//! * [`activity`] — the [`NextActivity`] trait behind the cycle-skipping
//!   fast-forward engine,
//! * [`sched`] — the deterministic [`sched::EventQueue`] driving the
//!   event-driven fast-forward loop,
//! * [`json`] — the workspace's one JSON codec: a raw-number value model,
//!   a parser and the compact writer used by report snapshots, the store's
//!   STAT payload, report digests and the bench differ.
//!
//! The whole simulator is *cycle stepped*: every hardware component exposes a
//! `tick`-style method that advances it by one clock cycle. There is no
//! wall-clock dependence, so simulations are exactly reproducible. On top of
//! the tick interface, components report the earliest future cycle at which
//! they can act via [`NextActivity`], which lets the fast-forward driver park
//! components on a deterministic event queue ([`sched`]) and skip quiescent
//! regions wholesale without changing any observable statistic (see the
//! [`activity`] module for the soundness contract).
//!
//! # Example
//!
//! ```
//! use virgo_sim::{Cycle, Frequency};
//!
//! let clk = Frequency::from_mhz(400);
//! let elapsed = Cycle::new(4_000_000);
//! // 4M cycles at 400 MHz is 10 ms of simulated time.
//! assert!((clk.cycles_to_seconds(elapsed) - 0.01).abs() < 1e-12);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod activity;
pub mod cycle;
pub mod fault;
pub mod json;
pub mod pipe;
pub mod rng;
pub mod sched;
pub mod stablehash;
pub mod stats;

pub use activity::{earliest, NextActivity};
pub use cycle::{Cycle, Frequency};
pub use fault::{
    ClusterFaultStats, EccInjector, EccStats, FaultEvent, FaultKind, FaultPlan, FaultStats,
};
pub use pipe::BoundedQueue;
pub use rng::SplitMix64;
pub use sched::EventQueue;
pub use stablehash::{StableHash, StableHasher};
pub use stats::{Counters, Ratio};
