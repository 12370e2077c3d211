//! The disaggregated, cluster-level matrix unit of Virgo.
//!
//! The unit is derived from the Gemmini systolic-array generator
//! (Section 5.2): a 16×16 (configurable) array of fused multiply-add
//! processing elements, fed from the cluster shared memory through the wide
//! ports of the banked interconnect, accumulating into a private accumulator
//! SRAM. A coarse-grain FSM iterates the full `m × n × k` problem of one
//! `virgo_compute` command, so a single MMIO command from a SIMT core covers
//! an entire thread-block tile (128×64×128 in the evaluated configuration).
//!
//! The SIMT cores program the unit through memory-mapped control registers
//! ([`GemminiUnit::try_submit`]) and synchronize with it by polling a busy
//! register (`virgo_fence` in the kernel API). A submitted
//! [`MatrixComputeCmd`](virgo_isa::MatrixComputeCmd) carries the operand
//! addresses latched when its MMIO store issued.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod unit;

pub use unit::{GemminiConfig, GemminiStats, GemminiUnit};
