//! Memory system for the Virgo GPU model.
//!
//! The components in this crate implement the cluster memory system described
//! in Section 3.2 of the paper:
//!
//! * [`SharedMemory`] — the cluster-local scratchpad with two-dimensional
//!   banking (banks × subbanks), wide matrix-unit ports that split requests
//!   into word-sized sub-requests, priority for wide requests, and separate
//!   read/write paths,
//! * [`AccumulatorMemory`] — the single-banked SRAM private to the
//!   disaggregated matrix unit,
//! * [`Cache`] / [`GlobalMemory`] / [`MemoryBackend`] — the global-memory
//!   hierarchy, split into per-cluster front-ends of per-core L1 caches and
//!   the single machine-wide back-end where the shared L2 and the
//!   address-interleaved multi-channel DRAM subsystem
//!   ([`MultiChannelDram`]) arbitrate between clusters,
//! * [`Coalescer`] — the SIMT memory coalescer added to the Vortex core
//!   (Section 3.2.3),
//! * [`DmaEngine`] — the MMIO-programmed cluster DMA engine that moves tiles
//!   between global memory, shared memory and the accumulator memory
//!   (Section 3.2.4),
//! * [`DsmFabric`] — the inter-cluster distributed-shared-memory fabric:
//!   one DSM port per cluster, Hopper-style remote scratchpad transfers
//!   with per-link bandwidth arbitration and contention accounting.
//!
//! # Modelling style
//!
//! All components use a *latency/occupancy* timing model: a request is
//! presented once, the component computes how long it occupies the relevant
//! resources (bank cycles, DRAM bus cycles, ...) given its current state, and
//! returns the completion cycle. Each component keeps event counters that the
//! SoC model later converts into energy via `virgo-energy`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod accmem;
pub mod backend;
pub mod cache;
pub mod coalescer;
pub mod dma;
pub mod dram;
pub mod dsm;
pub mod global;
pub mod smem;

pub use accmem::{AccumulatorMemory, AccumulatorStats};
pub use backend::{ChannelContentionStats, ClusterContentionStats, MemoryBackend};
pub use cache::{Cache, CacheConfig};
pub use coalescer::{Coalescer, CoalescerStats};
pub use dma::{DmaConfig, DmaEngine, DmaStats, DmaTransfer};
pub use dram::{DramConfig, DramModel, DramStats, MultiChannelDram};
pub use dsm::{
    ClusterDsmStats, DsmConfig, DsmFabric, DsmFabricStats, DsmLinkStats, DsmTopology,
    DSM_FLIT_BYTES,
};
pub use global::{GlobalMemory, GlobalMemoryConfig, GlobalMemoryStats};
pub use smem::{SharedMemory, SmemConfig, SmemStats};
