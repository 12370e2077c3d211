//! The Gemmini-derived systolic matrix unit and its coarse-grain FSM.

use virgo_isa::MatrixComputeCmd;
use virgo_mem::{AccumulatorMemory, SharedMemory};
use virgo_sim::{BoundedQueue, Cycle, StableHash, StableHasher};

/// Configuration of one disaggregated matrix unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GemminiConfig {
    /// Systolic array dimension (16 for the FP16 configuration of Table 2,
    /// 8 for FP32). The array performs `dim × dim` MACs per cycle.
    pub dim: u32,
    /// Width of each shared-memory read issued by the streaming FSM, in
    /// bytes (`4 × dim` in the paper's interconnect).
    pub smem_read_bytes: u64,
    /// Depth of the MMIO command queue.
    pub queue_depth: usize,
}

impl StableHash for GemminiConfig {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_u64(u64::from(self.dim));
        h.write_u64(self.smem_read_bytes);
        h.write_u64(self.queue_depth as u64);
    }
}

impl GemminiConfig {
    /// The Table 2 FP16 configuration: a 16×16 array reading 64-byte words.
    pub fn fp16_16x16() -> Self {
        GemminiConfig {
            dim: 16,
            smem_read_bytes: 64,
            queue_depth: 4,
        }
    }

    /// The Table 2 FP32 configuration: an 8×8 array.
    pub fn fp32_8x8() -> Self {
        GemminiConfig {
            dim: 8,
            smem_read_bytes: 32,
            queue_depth: 4,
        }
    }

    /// A smaller unit used by the heterogeneous configuration of Section 6.3.
    pub fn fp16_8x8() -> Self {
        GemminiConfig {
            dim: 8,
            smem_read_bytes: 32,
            queue_depth: 4,
        }
    }

    /// Peak multiply-accumulates per cycle.
    pub fn macs_per_cycle(&self) -> u64 {
        u64::from(self.dim) * u64::from(self.dim)
    }

    /// Pipeline fill/drain latency of the array in cycles.
    pub fn fill_latency(&self) -> u64 {
        2 * u64::from(self.dim)
    }
}

impl Default for GemminiConfig {
    fn default() -> Self {
        GemminiConfig::fp16_16x16()
    }
}

/// Event counters for one disaggregated matrix unit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GemminiStats {
    /// Commands completed.
    pub commands: u64,
    /// Multiply-accumulate operations performed.
    pub macs: u64,
    /// 32-bit words read from shared memory by the streaming FSM.
    pub smem_words_read: u64,
    /// 32-bit words written to the accumulator memory.
    pub accum_words_written: u64,
    /// 32-bit words read back from the accumulator memory (when
    /// accumulating onto a previous tile).
    pub accum_words_read: u64,
    /// FSM control events (one per column block plus one per command).
    pub control_events: u64,
    /// Cycles the array spent computing.
    pub busy_cycles: u64,
    /// Cycles lost to array fill/drain at block boundaries.
    pub fill_drain_cycles: u64,
}

/// Execution state of the command currently in the FSM.
#[derive(Debug, Clone, Copy)]
struct ActiveCommand {
    cmd: MatrixComputeCmd,
    /// Column blocks of `dim` output columns.
    total_blocks: u32,
    /// Index of the column block currently streaming.
    block: u32,
    /// Cycles executed within the current block.
    cycle_in_block: u64,
    /// Cycles one block takes (compute + fill/drain).
    block_cycles: u64,
    /// Operand bytes that must be streamed per block.
    block_bytes: u64,
    /// Absolute cycle of the current block's first tick; the block-boundary
    /// event the fast-forward horizon reports is `block_start + block_cycles
    /// - 1`.
    block_start: u64,
}

/// One disaggregated (Virgo-style) matrix unit instance.
///
/// # Example
///
/// ```
/// use virgo_gemmini::{GemminiConfig, GemminiUnit};
/// use virgo_isa::{AddrExpr, DataType, MatrixComputeCmd};
/// use virgo_mem::{AccumulatorMemory, SharedMemory, SmemConfig};
/// use virgo_sim::Cycle;
///
/// let mut unit = GemminiUnit::new(GemminiConfig::fp16_16x16());
/// let mut smem = SharedMemory::new(SmemConfig::virgo_cluster());
/// let mut acc = AccumulatorMemory::default_virgo();
/// let cmd = MatrixComputeCmd {
///     a: AddrExpr::fixed(0), b: AddrExpr::fixed(0x10000), acc_addr: 0,
///     m: 32, n: 32, k: 32, accumulate: false, dtype: DataType::Fp16,
/// };
/// assert!(unit.try_submit(cmd));
/// let mut cycle = 0;
/// while unit.busy() {
///     unit.tick(Cycle::new(cycle), &mut smem, &mut acc);
///     cycle += 1;
/// }
/// assert_eq!(unit.stats().macs, 32 * 32 * 32);
/// ```
#[derive(Debug, Clone)]
pub struct GemminiUnit {
    config: GemminiConfig,
    queue: BoundedQueue<MatrixComputeCmd>,
    active: Option<ActiveCommand>,
    stats: GemminiStats,
}

impl GemminiUnit {
    /// Creates an idle matrix unit.
    ///
    /// # Panics
    ///
    /// Panics if the systolic dimension is zero.
    pub fn new(config: GemminiConfig) -> Self {
        assert!(config.dim > 0, "systolic array dimension must be non-zero");
        GemminiUnit {
            queue: BoundedQueue::new(config.queue_depth),
            config,
            active: None,
            stats: GemminiStats::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &GemminiConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> GemminiStats {
        self.stats
    }

    /// Number of commands accepted but not yet completed.
    pub fn pending(&self) -> u32 {
        (self.queue.len() + usize::from(self.active.is_some())) as u32
    }

    /// True while the unit has queued or in-flight work — the value of the
    /// memory-mapped busy register the cores poll in `virgo_fence`.
    pub fn busy(&self) -> bool {
        self.pending() > 0
    }

    /// Attempts to latch a command into the MMIO command registers. Its
    /// operand addresses must be resolved ([`virgo_isa::AddrExpr::fixed`]
    /// form), as the program cursor yields them. Returns `false` when the
    /// command queue is full.
    pub fn try_submit(&mut self, cmd: MatrixComputeCmd) -> bool {
        self.queue.push(cmd).is_ok()
    }

    /// Advances the FSM by one cycle; returns the number of commands that
    /// completed this cycle (0 or 1).
    ///
    /// Operand streaming is *batched*: on block entry the whole per-block
    /// read schedule is precomputed and enqueued into the shared memory's
    /// pending stream-read queue (see [`SharedMemory::stream_read`]), so
    /// mid-block ticks are pure compute accounting and the unit's
    /// fast-forward horizon is the block boundary, not `now`. The enqueued
    /// schedule is bit-identical to the historical one-wide-read-per-cycle
    /// loop; the cluster drains it at each read's true cycle.
    pub fn tick(
        &mut self,
        now: Cycle,
        smem: &mut SharedMemory,
        accmem: &mut AccumulatorMemory,
    ) -> u32 {
        if self.active.is_none() {
            if let Some(cmd) = self.queue.pop() {
                let active = self.start_command(cmd, now);
                self.enqueue_block_reads(&active, smem);
                self.active = Some(active);
            }
        }
        let Some(mut active) = self.active else {
            return 0;
        };

        // Advance the compute schedule.
        active.cycle_in_block += 1;
        if active.cycle_in_block < self.config.fill_latency() {
            self.stats.fill_drain_cycles += 1;
        } else {
            self.stats.busy_cycles += 1;
        }

        let mut completed = 0;
        if active.cycle_in_block >= active.block_cycles {
            // Column block finished: drain the output columns into the
            // accumulator memory (read-modify-write when accumulating).
            let out_bytes = u64::from(active.cmd.m)
                * u64::from(self.config.dim).min(u64::from(active.cmd.n))
                * 4;
            let acc_addr = active.cmd.acc_addr
                + u64::from(active.block) * out_bytes % accmem.capacity_bytes().max(1);
            if active.cmd.accumulate {
                accmem.access(
                    now,
                    acc_addr.min(accmem.capacity_bytes() - out_bytes.min(accmem.capacity_bytes())),
                    out_bytes,
                    false,
                );
                self.stats.accum_words_read += out_bytes / 4;
            }
            accmem.access(
                now,
                acc_addr.min(accmem.capacity_bytes() - out_bytes.min(accmem.capacity_bytes())),
                out_bytes,
                true,
            );
            self.stats.accum_words_written += out_bytes / 4;
            self.stats.control_events += 1;

            active.block += 1;
            active.cycle_in_block = 0;
            if active.block >= active.total_blocks {
                // Command complete.
                self.stats.commands += 1;
                self.stats.macs += active.cmd.mac_ops();
                self.stats.control_events += 1;
                self.active = None;
                completed = 1;
                return completed;
            }
            // Next block starts on the following cycle; enqueue its operand
            // schedule now so the unit can park until the next boundary.
            active.block_start = now.get() + 1;
            self.enqueue_block_reads(&active, smem);
        }

        self.active = Some(active);
        completed
    }

    /// Builds the execution schedule for a command latched at cycle `now`.
    fn start_command(&self, cmd: MatrixComputeCmd, now: Cycle) -> ActiveCommand {
        let dim = u64::from(self.config.dim);
        let total_blocks = cmd.n.div_ceil(self.config.dim).max(1);
        // Weight-stationary schedule: each column block holds `dim` output
        // columns stationary while the full A tile streams through, so one
        // block takes m·k / dim compute cycles plus the array fill/drain.
        let compute_cycles = (u64::from(cmd.m) * u64::from(cmd.k)).div_ceil(dim).max(1);
        let block_cycles = compute_cycles + self.config.fill_latency();
        // Operand traffic per block: the whole A tile plus this block's
        // columns of B.
        let block_bytes = cmd.a_bytes() + cmd.b_bytes() / u64::from(total_blocks);
        ActiveCommand {
            cmd,
            total_blocks,
            block: 0,
            cycle_in_block: 0,
            block_cycles,
            block_bytes,
            block_start: now.get(),
        }
    }

    /// Enqueues the current block's whole operand-read schedule into the
    /// shared memory's pending stream-read queue.
    ///
    /// This is the closed form of the historical demand-paced loop, which on
    /// each in-block tick `j` issued at most one wide read while
    /// `bytes_issued < block_bytes·(j+1)/block_cycles`: read number `i`
    /// (with `issued` bytes already scheduled) fires at the earliest tick
    /// `j >= prev + 1` whose demand reaches `issued + 1`, and reads whose
    /// tick would fall past the block end are dropped exactly as the
    /// reference schedule starves them.
    fn enqueue_block_reads(&mut self, active: &ActiveCommand, smem: &mut SharedMemory) {
        let block_bytes = active.block_bytes;
        let block_cycles = active.block_cycles.max(1);
        let read_bytes = self.config.smem_read_bytes;
        if block_bytes == 0 || read_bytes == 0 {
            return;
        }
        // A-tile bytes stream repeatedly; the B block is fetched once at the
        // head of the block. Reads are spread across the A and B regions so
        // they land in their respective banks.
        let b_block_bytes = active.cmd.b_bytes() / u64::from(active.total_blocks).max(1);
        let mut issued = 0u64;
        let mut prev_tick: Option<u64> = None;
        while issued < block_bytes {
            let chunk = read_bytes.min(block_bytes - issued);
            // demand(j) = block_bytes·(j+1)/block_cycles ≥ issued+1
            //   ⟺  j ≥ ceil((issued+1)·block_cycles / block_bytes) − 1.
            let mut tick = ((issued + 1) * block_cycles)
                .div_ceil(block_bytes)
                .saturating_sub(1);
            if let Some(prev) = prev_tick {
                tick = tick.max(prev + 1);
            }
            if tick >= block_cycles {
                // The one-read-per-cycle port cannot keep up with demand
                // inside this block; the reference schedule drops the tail.
                break;
            }
            let addr = if issued < b_block_bytes {
                active.cmd.b.resolved() + u64::from(active.block) * b_block_bytes + issued
            } else {
                active.cmd.a.resolved() + (issued - b_block_bytes) % active.cmd.a_bytes().max(1)
            };
            smem.stream_read(Cycle::new(active.block_start + tick), addr, chunk);
            self.stats.smem_words_read += chunk.div_ceil(4);
            prev_tick = Some(tick);
            issued += chunk;
        }
    }

    /// Bulk-replays `cycles` parked mid-block ticks: the compute schedule
    /// advances and the fill/drain vs. busy split is applied in closed form.
    /// The caller guarantees (via [`Self::next_activity`]) that the window
    /// never straddles a block boundary. A no-op on an idle unit.
    pub fn fast_forward(&mut self, cycles: u64) {
        let Some(active) = &mut self.active else {
            return;
        };
        let start = active.cycle_in_block;
        let end = start + cycles;
        debug_assert!(
            end < active.block_cycles,
            "fast-forward window may not straddle a block boundary"
        );
        // A tick with pre-increment cycle_in_block = j counts as fill/drain
        // iff j + 1 < fill_latency, i.e. j < fill_latency - 1.
        let fill_ticks = self.config.fill_latency().saturating_sub(1);
        let fills = end.min(fill_ticks).saturating_sub(start.min(fill_ticks));
        self.stats.fill_drain_cycles += fills;
        self.stats.busy_cycles += cycles - fills;
        active.cycle_in_block = end;
    }

    /// The earliest cycle `>= now` at which ticking the unit can change its
    /// state, or `None` when it is drained (see `virgo_sim::activity`).
    ///
    /// Mid-block the FSM only performs closed-form compute accounting (the
    /// operand reads were pre-scheduled on block entry), so its next real
    /// event is the block boundary: accumulator writeback, block advance or
    /// command completion. An idle unit with queued commands latches one on
    /// the next tick; a drained unit never acts again on its own.
    pub fn next_activity(&self, now: Cycle) -> Option<Cycle> {
        match &self.active {
            Some(active) => {
                let block_end = active.block_start + active.block_cycles.max(1) - 1;
                Some(Cycle::new(block_end).max(now))
            }
            None if !self.queue.is_empty() => Some(now),
            None => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use virgo_isa::{AddrExpr, DataType, DeviceId, MmioCommand, ProgramBuilder, WarpOp};
    use virgo_mem::SmemConfig;

    fn setup() -> (GemminiUnit, SharedMemory, AccumulatorMemory) {
        (
            GemminiUnit::new(GemminiConfig::fp16_16x16()),
            SharedMemory::new(SmemConfig::virgo_cluster()),
            AccumulatorMemory::default_virgo(),
        )
    }

    fn cmd(m: u32, n: u32, k: u32, accumulate: bool) -> MatrixComputeCmd {
        MatrixComputeCmd {
            a: AddrExpr::fixed(0),
            b: AddrExpr::fixed(64 * 1024),
            acc_addr: 0,
            m,
            n,
            k,
            accumulate,
            dtype: DataType::Fp16,
        }
    }

    fn run_to_idle(
        unit: &mut GemminiUnit,
        smem: &mut SharedMemory,
        acc: &mut AccumulatorMemory,
        limit: u64,
    ) -> u64 {
        for cycle in 0..limit {
            unit.tick(Cycle::new(cycle), smem, acc);
            if !unit.busy() {
                return cycle + 1;
            }
        }
        limit
    }

    #[test]
    fn command_completes_with_correct_mac_count() {
        let (mut unit, mut smem, mut acc) = setup();
        assert!(unit.try_submit(cmd(128, 64, 128, false)));
        assert!(unit.busy());
        let cycles = run_to_idle(&mut unit, &mut smem, &mut acc, 100_000);
        assert_eq!(unit.stats().commands, 1);
        assert_eq!(unit.stats().macs, 128 * 64 * 128);
        // Ideal compute time is m·n·k / 256 = 4096 cycles; fill/drain and
        // streaming overheads put the real figure somewhat above that but
        // well below 2x.
        assert!(cycles >= 4096, "too fast: {cycles}");
        assert!(cycles < 8192, "too slow: {cycles}");
    }

    #[test]
    fn resolve_applies_execution_count() {
        // A double-buffered compute command in a loop reaches the unit with
        // the buffers of its iteration latched.
        let cmd = MatrixComputeCmd {
            a: AddrExpr::double_buffered(0, 0x8000),
            b: AddrExpr::double_buffered(0x10000, 0x4000),
            ..cmd(16, 16, 16, true)
        };
        let mut b = ProgramBuilder::new();
        b.repeat(3, |b| {
            b.op(WarpOp::MmioWrite {
                device: DeviceId::MATRIX0,
                cmd: MmioCommand::MatrixCompute(cmd),
            });
        });
        let program = Arc::new(b.build());
        let mut cursor = program.cursor();
        let (mut unit, mut smem, mut acc) = setup();
        let mut latched = Vec::new();
        while let Some(WarpOp::MmioWrite { cmd, .. }) = cursor.next_op() {
            let resolved = *cmd.as_matrix_compute().expect("compute command");
            latched.push((resolved.a.resolved(), resolved.b.resolved()));
            assert_eq!((resolved.m, resolved.accumulate), (16, true));
            assert!(unit.try_submit(resolved));
        }
        run_to_idle(&mut unit, &mut smem, &mut acc, 100_000);
        assert_eq!(unit.stats().commands, 3);
        assert_eq!(
            latched,
            [(0, 0x10000), (0x8000, 0x14000), (0, 0x10000)],
            "addresses alternate with the loop iteration"
        );
    }

    #[test]
    fn high_utilization_for_large_tiles() {
        let (mut unit, mut smem, mut acc) = setup();
        unit.try_submit(cmd(128, 64, 128, false));
        let cycles = run_to_idle(&mut unit, &mut smem, &mut acc, 100_000);
        let util = unit.stats().macs as f64 / (cycles as f64 * 256.0);
        assert!(util > 0.80, "utilization {util}");
    }

    #[test]
    fn operand_streaming_reads_a_per_block_and_b_once() {
        let (mut unit, mut smem, mut acc) = setup();
        unit.try_submit(cmd(128, 64, 128, false));
        run_to_idle(&mut unit, &mut smem, &mut acc, 100_000);
        let expected_bytes = {
            let a = 128 * 128 * 2u64;
            let b = 128 * 64 * 2u64;
            let blocks = 64 / 16;
            a * blocks + b
        };
        let read_bytes = unit.stats().smem_words_read * 4;
        let ratio = read_bytes as f64 / expected_bytes as f64;
        assert!(
            (0.95..1.05).contains(&ratio),
            "read {read_bytes}, expected {expected_bytes}"
        );
    }

    #[test]
    fn accumulate_mode_reads_back_previous_partials() {
        let (mut unit, mut smem, mut acc) = setup();
        unit.try_submit(cmd(32, 32, 32, false));
        run_to_idle(&mut unit, &mut smem, &mut acc, 100_000);
        let writes_only = unit.stats();
        assert_eq!(writes_only.accum_words_read, 0);
        assert!(writes_only.accum_words_written > 0);

        let (mut unit2, mut smem2, mut acc2) = setup();
        unit2.try_submit(cmd(32, 32, 32, true));
        run_to_idle(&mut unit2, &mut smem2, &mut acc2, 100_000);
        assert_eq!(
            unit2.stats().accum_words_read,
            unit2.stats().accum_words_written
        );
    }

    #[test]
    fn commands_queue_and_run_in_order() {
        let (mut unit, mut smem, mut acc) = setup();
        assert!(unit.try_submit(cmd(32, 32, 32, false)));
        assert!(unit.try_submit(cmd(32, 32, 32, true)));
        assert_eq!(unit.pending(), 2);
        run_to_idle(&mut unit, &mut smem, &mut acc, 100_000);
        assert_eq!(unit.stats().commands, 2);
        assert_eq!(unit.pending(), 0);
    }

    #[test]
    fn queue_depth_is_bounded() {
        let mut unit = GemminiUnit::new(GemminiConfig {
            queue_depth: 1,
            ..GemminiConfig::fp16_16x16()
        });
        assert!(unit.try_submit(cmd(16, 16, 16, false)));
        assert!(!unit.try_submit(cmd(16, 16, 16, false)));
    }

    #[test]
    fn smaller_array_takes_proportionally_longer() {
        let big = {
            let (mut unit, mut smem, mut acc) = setup();
            unit.try_submit(cmd(64, 64, 64, false));
            run_to_idle(&mut unit, &mut smem, &mut acc, 1_000_000)
        };
        let small = {
            let mut unit = GemminiUnit::new(GemminiConfig::fp16_8x8());
            let mut smem = SharedMemory::new(SmemConfig::virgo_cluster());
            let mut acc = AccumulatorMemory::default_virgo();
            unit.try_submit(cmd(64, 64, 64, false));
            run_to_idle(&mut unit, &mut smem, &mut acc, 1_000_000)
        };
        // A 8×8 array has 4x fewer MACs; expect roughly 3-5x longer runtime.
        assert!(small as f64 > big as f64 * 2.5, "big {big}, small {small}");
    }

    #[test]
    fn idle_tick_does_nothing() {
        let (mut unit, mut smem, mut acc) = setup();
        assert_eq!(unit.tick(Cycle::new(0), &mut smem, &mut acc), 0);
        assert!(!unit.busy());
        assert_eq!(unit.stats().commands, 0);
    }

    /// SplitMix64 step — the deterministic PRNG behind the property sweep.
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The historical per-cycle streaming FSM, re-executed literally one
    /// tick at a time against its own memories: on each in-block tick `j` it
    /// issues at most one wide read while `issued < block_bytes·(j+1) /
    /// block_cycles`, splits the compute schedule into fill/drain vs busy,
    /// and performs the accumulator writeback at each block boundary. The
    /// batched FSM's closed-form schedule must reproduce this bit-for-bit.
    fn reference_run(
        config: &GemminiConfig,
        cmds: &[MatrixComputeCmd],
        smem: &mut SharedMemory,
        acc: &mut AccumulatorMemory,
    ) -> (GemminiStats, u64) {
        let mut stats = GemminiStats::default();
        let mut cycle = 0u64;
        for cmd in cmds {
            let dim = u64::from(config.dim);
            let total_blocks = cmd.n.div_ceil(config.dim).max(1);
            let compute_cycles = (u64::from(cmd.m) * u64::from(cmd.k)).div_ceil(dim).max(1);
            let block_cycles = compute_cycles + config.fill_latency();
            let block_bytes = cmd.a_bytes() + cmd.b_bytes() / u64::from(total_blocks);
            let b_block_bytes = cmd.b_bytes() / u64::from(total_blocks);
            for block in 0..total_blocks {
                let block_start = cycle;
                let mut issued = 0u64;
                for j in 0..block_cycles {
                    // Demand-paced one-wide-read-per-cycle port.
                    if issued < block_bytes && issued < block_bytes * (j + 1) / block_cycles {
                        let chunk = config.smem_read_bytes.min(block_bytes - issued);
                        let addr = if issued < b_block_bytes {
                            cmd.b.resolved() + u64::from(block) * b_block_bytes + issued
                        } else {
                            cmd.a.resolved() + (issued - b_block_bytes) % cmd.a_bytes().max(1)
                        };
                        smem.access_wide(Cycle::new(block_start + j), addr, chunk, false);
                        stats.smem_words_read += chunk.div_ceil(4);
                        issued += chunk;
                    }
                    if j + 1 < config.fill_latency() {
                        stats.fill_drain_cycles += 1;
                    } else {
                        stats.busy_cycles += 1;
                    }
                    cycle += 1;
                }
                let now = Cycle::new(cycle - 1);
                let out_bytes = u64::from(cmd.m) * u64::from(config.dim).min(u64::from(cmd.n)) * 4;
                let acc_addr =
                    cmd.acc_addr + u64::from(block) * out_bytes % acc.capacity_bytes().max(1);
                let clamped =
                    acc_addr.min(acc.capacity_bytes() - out_bytes.min(acc.capacity_bytes()));
                if cmd.accumulate {
                    acc.access(now, clamped, out_bytes, false);
                    stats.accum_words_read += out_bytes / 4;
                }
                acc.access(now, clamped, out_bytes, true);
                stats.accum_words_written += out_bytes / 4;
                stats.control_events += 1;
            }
            stats.commands += 1;
            stats.macs += cmd.mac_ops();
            stats.control_events += 1;
        }
        (stats, cycle)
    }

    #[test]
    fn batched_streaming_matches_per_cycle_reference_on_random_commands() {
        let mut state = 0x5EED_CAFE_F00D_u64;
        for round in 0..64 {
            let dim = [4u32, 8, 16][(splitmix64(&mut state) % 3) as usize];
            let config = GemminiConfig {
                dim,
                smem_read_bytes: u64::from(dim) * 4,
                queue_depth: 4,
            };
            let mut cmds = Vec::new();
            for _ in 0..=(splitmix64(&mut state) % 2) {
                cmds.push(MatrixComputeCmd {
                    a: AddrExpr::fixed(0),
                    b: AddrExpr::fixed(64 * 1024),
                    acc_addr: 0,
                    m: (splitmix64(&mut state) % 40 + 1) as u32,
                    n: (splitmix64(&mut state) % 40 + 1) as u32,
                    k: (splitmix64(&mut state) % 40 + 1) as u32,
                    accumulate: splitmix64(&mut state).is_multiple_of(2),
                    dtype: if splitmix64(&mut state).is_multiple_of(2) {
                        DataType::Fp16
                    } else {
                        DataType::Fp32
                    },
                });
            }

            // Batched run: tick every cycle and drain the pending stream
            // reads with the cluster's bracket so each lands at its true
            // scheduled cycle.
            let mut unit = GemminiUnit::new(config);
            let mut smem = SharedMemory::new(SmemConfig::virgo_cluster());
            let mut acc = AccumulatorMemory::default_virgo();
            for cmd in &cmds {
                assert!(unit.try_submit(*cmd));
            }
            let mut cycles = 0u64;
            while unit.busy() {
                let now = Cycle::new(cycles);
                smem.drain_stream_reads(now, false);
                unit.tick(now, &mut smem, &mut acc);
                smem.drain_stream_reads(now, true);
                cycles += 1;
                assert!(cycles < 1_000_000, "round {round}: runaway command");
            }
            assert_eq!(smem.stream_reads_pending(), 0, "round {round}");

            let mut ref_smem = SharedMemory::new(SmemConfig::virgo_cluster());
            let mut ref_acc = AccumulatorMemory::default_virgo();
            let (ref_stats, ref_cycles) =
                reference_run(&config, &cmds, &mut ref_smem, &mut ref_acc);

            assert_eq!(unit.stats(), ref_stats, "round {round}: {cmds:?}");
            assert_eq!(cycles, ref_cycles, "round {round}: completion drifted");
            assert_eq!(
                smem.stats(),
                ref_smem.stats(),
                "round {round}: smem footprint drifted"
            );
            for bank in 0..SmemConfig::virgo_cluster().banks as usize {
                assert_eq!(
                    smem.bank_free_at(bank),
                    ref_smem.bank_free_at(bank),
                    "round {round}: bank {bank} occupancy drifted"
                );
            }
            assert_eq!(
                acc.busy_until(),
                ref_acc.busy_until(),
                "round {round}: accumulator occupancy drifted"
            );
        }
    }
}
