//! The Virgo GPU cluster simulator.
//!
//! This crate assembles the substrates of the workspace — SIMT cores
//! (`virgo-simt`), the banked shared memory, caches, DRAM and DMA
//! (`virgo-mem`), the core-coupled tensor units (`virgo-tensor`), the
//! disaggregated cluster-level matrix unit (`virgo-gemmini`) and the
//! energy/area models (`virgo-energy`) — into the four GPU design points the
//! paper evaluates:
//!
//! * **Volta-style** — tightly-coupled tensor cores, no DMA,
//! * **Ampere-style** — tightly-coupled tensor cores plus a cluster DMA,
//! * **Hopper-style** — operand-decoupled tensor cores plus a cluster DMA,
//! * **Virgo** — a single disaggregated matrix unit at the cluster level.
//!
//! The machine scales out by *clusters*, the paper's Table 1 argument: a
//! [`GpuConfig`] describes one cluster plus a cluster count, and the
//! simulated machine instantiates that many identical clusters all
//! contending for a single shared L2/DRAM back-end
//! (`virgo_mem::MemoryBackend`).
//!
//! The main entry point is [`Gpu`]: configure it with a [`GpuConfig`] preset
//! (scaled out with [`GpuConfig::with_clusters`] if desired), hand it a
//! [`Kernel`](virgo_isa::Kernel) built by `virgo-kernels`, and it returns a
//! [`SimReport`] containing the cycle count, MAC utilization, per-component
//! active power and energy, per-cluster breakdowns (including DRAM-contention
//! stalls on the shared channel) and the raw event statistics the paper's
//! tables and figures are derived from.
//!
//! # Example
//!
//! ```
//! use virgo::{DesignKind, Gpu, GpuConfig};
//! use virgo_isa::{DataType, Kernel, KernelInfo, ProgramBuilder, WarpAssignment, WarpOp};
//! use std::sync::Arc;
//!
//! // A trivial kernel: one warp executing a few ALU instructions.
//! let mut b = ProgramBuilder::new();
//! b.op_n(8, WarpOp::Alu { rf_reads: 2, rf_writes: 1 });
//! let program = Arc::new(b.build());
//! let kernel = Kernel::new(
//!     KernelInfo::new("smoke", 0, DataType::Fp16),
//!     vec![WarpAssignment::new(0, 0, program)],
//! );
//!
//! let mut gpu = Gpu::new(GpuConfig::for_design(DesignKind::Virgo));
//! let report = gpu.run(&kernel, 10_000).expect("kernel finishes");
//! assert!(report.cycles().get() > 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cluster;
pub mod config;
pub mod jobs;
pub mod key;
mod machine;
pub mod report;
pub mod run;
mod scheduler;
pub mod snapshot;

pub use cluster::ClusterStats;
pub use config::{DesignKind, GpuConfig, MatrixUnitSpec};
pub use jobs::{JobCompletion, JobId, JobTable};
pub use key::SimKey;
pub use report::{ClusterReport, LoadImbalance, SchedStats, SimReport};
pub use run::{
    BlockedOn, Gpu, SimError, SimMode, TimeoutDiagnosis, WarpDiagnosis, WatchdogVerdict,
};
pub use snapshot::SnapshotError;
// Fault-injection vocabulary, re-exported so callers can build a
// [`GpuConfig::with_faults`] plan without depending on `virgo-sim` directly.
pub use virgo_sim::{ClusterFaultStats, FaultEvent, FaultKind, FaultPlan, FaultStats};
