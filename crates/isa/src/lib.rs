//! Warp-level instruction set and kernel representation for the Virgo GPU
//! model.
//!
//! The RTL artifact of the Virgo paper compiles C++ kernels with the Vortex
//! LLVM toolchain into RISC-V binaries. For the cycle-level model in this
//! workspace the binary encoding is irrelevant — what determines utilization,
//! power and energy is the *dynamic instruction mix* each warp presents to the
//! core pipeline. This crate therefore defines:
//!
//! * [`WarpOp`] — the warp-level operations the SIMT core issues (ALU/FPU
//!   work, global/shared loads and stores, Volta-style `HMMA` steps,
//!   Hopper-style asynchronous `wgmma` operations, MMIO commands to the
//!   cluster DMA and the disaggregated matrix unit, barriers and fences),
//! * [`Program`] — a loop-structured per-warp program, so that even a
//!   1024³ GEMM (tens of millions of dynamic instructions) is represented in
//!   a few kilobytes,
//! * [`ProgramBuilder`] — a small DSL used by the kernel generators in
//!   `virgo-kernels`,
//! * [`Kernel`] — the set of warp programs making up a thread block, plus the
//!   metadata (expected MAC count) needed to compute utilization.
//!
//! # Example
//!
//! ```
//! use virgo_isa::{ProgramBuilder, WarpOp};
//!
//! let mut b = ProgramBuilder::new();
//! b.op(WarpOp::Alu { rf_reads: 2, rf_writes: 1 });
//! b.repeat(4, |b| {
//!     b.op(WarpOp::Nop);
//! });
//! let program = b.build();
//! assert_eq!(program.dynamic_len(), 5);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod addr;
pub mod builder;
pub mod kernel;
pub mod mmio;
pub mod op;
pub mod program;

pub use addr::{
    decode_remote_smem, remote_smem_addr, AddrExpr, LaneAccess, MemRegion, REMOTE_SMEM_WINDOW,
};
pub use builder::ProgramBuilder;
pub use kernel::{DataType, GridPartition, Kernel, KernelInfo, PartitionStrategy, WarpAssignment};
pub use mmio::{DeviceId, DmaCopyCmd, MatrixComputeCmd, MemLoc, MmioCommand, WgmmaOp};
pub use op::WarpOp;
pub use program::{Program, ProgramCursor};
