//! The Hopper-style operand-decoupled tensor core (Section 5.1.3).
//!
//! The unit extends the tightly-coupled design into a decoupled
//! access/execute architecture (Figure 6 of the paper): an *access frontend*
//! issues a statically-determined sequence of read requests for the operand
//! tiles held in shared memory, and an *execute backend* drains the returned
//! data through operand buffers into the dot-product units. Because the
//! access frontend can run ahead, shared-memory latency is overlapped with
//! compute. Accumulator tiles still live in the warp's register file and are
//! read and written back by the unit, which is what keeps the register
//! pressure (and the associated issue-stage energy) non-trivial for this
//! design point.

use virgo_isa::WgmmaOp;
use virgo_mem::SharedMemory;
use virgo_sim::{BoundedQueue, Cycle, StableHash, StableHasher};

/// Configuration of one operand-decoupled tensor core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecoupledConfig {
    /// FP16 multiply-accumulates per cycle (64 in Table 2, limited by the
    /// shared-memory bandwidth available to the unit).
    pub macs_per_cycle: u32,
    /// Width of each shared-memory read issued by the access frontend, in
    /// bytes.
    pub smem_read_bytes: u64,
    /// Depth of the asynchronous operation queue (`wgmma` group size).
    pub queue_depth: usize,
}

impl StableHash for DecoupledConfig {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_u64(u64::from(self.macs_per_cycle));
        h.write_u64(self.smem_read_bytes);
        h.write_u64(self.queue_depth as u64);
    }
}

impl Default for DecoupledConfig {
    fn default() -> Self {
        DecoupledConfig {
            macs_per_cycle: 64,
            smem_read_bytes: 32,
            queue_depth: 4,
        }
    }
}

/// Event counters for one operand-decoupled unit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecoupledStats {
    /// `wgmma` operations completed.
    pub ops: u64,
    /// Multiply-accumulate operations performed.
    pub macs: u64,
    /// 32-bit words staged through the operand buffers.
    pub operand_buffer_words: u64,
    /// 32-bit words staged through the result buffer.
    pub result_buffer_words: u64,
    /// Register-file reads performed by the unit for accumulator input
    /// (charged to the owning core's register file).
    pub rf_accum_reads: u64,
    /// Register-file writes performed by the unit for accumulator output.
    pub rf_accum_writes: u64,
    /// Control/sequencing events (address generation, FSM steps).
    pub control_events: u64,
    /// Cycles the execute backend was busy.
    pub busy_cycles: u64,
}

/// Progress state of the operation currently in the unit.
#[derive(Debug, Clone, Copy)]
struct ActiveOp {
    op: WgmmaOp,
    /// Cycle at which the access frontend will have delivered all operands.
    operands_ready: Cycle,
    /// Cycle at which the execute backend finishes, once started.
    done: Option<Cycle>,
}

/// One Hopper-style operand-decoupled tensor core instance.
///
/// The owning cluster calls [`OperandDecoupledUnit::tick`] once per cycle,
/// passing the shared memory so the access frontend can issue its reads.
#[derive(Debug, Clone)]
pub struct OperandDecoupledUnit {
    config: DecoupledConfig,
    queue: BoundedQueue<WgmmaOp>,
    active: Option<ActiveOp>,
    stats: DecoupledStats,
}

impl OperandDecoupledUnit {
    /// Creates an idle unit.
    ///
    /// # Panics
    ///
    /// Panics if `macs_per_cycle` or `smem_read_bytes` is zero.
    pub fn new(config: DecoupledConfig) -> Self {
        assert!(config.macs_per_cycle > 0, "unit needs at least one MAC");
        assert!(config.smem_read_bytes > 0, "read width must be non-zero");
        OperandDecoupledUnit {
            queue: BoundedQueue::new(config.queue_depth),
            config,
            active: None,
            stats: DecoupledStats::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &DecoupledConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> DecoupledStats {
        self.stats
    }

    /// Number of operations accepted but not yet completed.
    pub fn pending(&self) -> u32 {
        (self.queue.len() + usize::from(self.active.is_some())) as u32
    }

    /// Attempts to enqueue an asynchronous operation whose tile addresses
    /// were latched at issue ([`virgo_isa::AddrExpr::fixed`] form, as the
    /// program cursor yields them).
    ///
    /// Returns `false` when the operation queue is full.
    pub fn try_enqueue(&mut self, op: &WgmmaOp) -> bool {
        self.queue.push(*op).is_ok()
    }

    /// The first cycle at which [`OperandDecoupledUnit::try_enqueue`] can
    /// succeed if nothing else enqueues before then: `now` while the queue
    /// has space; with the queue full, the cycle after the active operation
    /// retires, because the tick at that cycle dequeues before the cores
    /// issue. When that retirement is not yet known, or nothing is active
    /// (the next tick dequeues), the answer is `now`: early, which a caller
    /// may only take as "retry".
    pub fn accept_at(&self, now: Cycle) -> Cycle {
        if self.queue.has_space() {
            return now;
        }
        match &self.active {
            Some(ActiveOp {
                done: Some(done), ..
            }) => (*done).max(now).plus(1),
            // The backend launches at the tick that sees the operands, so
            // the retirement is already determined.
            Some(ActiveOp {
                op,
                operands_ready,
                done: None,
            }) if *operands_ready > now => operands_ready.plus(self.compute_cycles(op) + 1),
            _ => now,
        }
    }

    /// Cycles the execute backend spends on `op` once its operands arrived.
    fn compute_cycles(&self, op: &WgmmaOp) -> u64 {
        op.mac_ops()
            .div_ceil(u64::from(self.config.macs_per_cycle))
            .max(1)
    }

    /// Advances the unit by one cycle, issuing shared-memory reads for the
    /// operation at the head of the queue and retiring the active operation
    /// when its compute finishes. Returns the number of operations that
    /// completed this cycle.
    pub fn tick(&mut self, now: Cycle, smem: &mut SharedMemory) -> u32 {
        // Start the next operation: the access frontend issues the whole
        // statically-known read sequence, whose completion time the banked
        // shared-memory model computes (this is where it runs ahead of the
        // execute backend).
        if self.active.is_none() {
            if let Some(op) = self.queue.pop() {
                let operands_ready = self.fetch_operands(now, &op, smem);
                self.active = Some(ActiveOp {
                    op,
                    operands_ready,
                    done: None,
                });
            }
        }

        let Some(mut active) = self.active else {
            return 0;
        };

        // Launch the execute backend once operands have arrived.
        if active.done.is_none() && now >= active.operands_ready {
            let compute_cycles = self.compute_cycles(&active.op);
            active.done = Some(now.plus(compute_cycles));
            self.stats.busy_cycles += compute_cycles;
        }

        // Retire when finished.
        let mut completed = 0;
        if let Some(done) = active.done {
            if now >= done {
                self.retire(&active.op);
                completed = 1;
                self.active = None;
                return completed;
            }
        }
        self.active = Some(active);
        completed
    }

    /// Issues the operand reads of `op` to the shared memory and returns the
    /// cycle at which the last word arrives.
    fn fetch_operands(&mut self, now: Cycle, op: &WgmmaOp, smem: &mut SharedMemory) -> Cycle {
        let a_bytes = u64::from(op.m) * u64::from(op.k) * u64::from(op.dtype.bytes());
        let b_bytes = u64::from(op.k) * u64::from(op.n) * u64::from(op.dtype.bytes());
        let mut ready = now;
        for (base, bytes) in [(op.a.resolved(), a_bytes), (op.b.resolved(), b_bytes)] {
            let mut offset = 0;
            while offset < bytes {
                let chunk = (bytes - offset).min(self.config.smem_read_bytes);
                // The access frontend issues its statically-known request
                // sequence back-to-back; the banked shared memory serializes
                // them on bank occupancy, so the SRAM latency is paid once,
                // not once per request.
                let done = smem.access_wide(now, base + offset, chunk, false).done;
                ready = ready.max(done);
                offset += chunk;
            }
        }
        self.stats.operand_buffer_words += (a_bytes + b_bytes).div_ceil(4);
        self.stats.control_events += (a_bytes + b_bytes).div_ceil(self.config.smem_read_bytes);
        ready
    }

    /// Records the completion of one operation.
    fn retire(&mut self, op: &WgmmaOp) {
        self.stats.ops += 1;
        self.stats.macs += op.mac_ops();
        let accum_words = op.accumulator_words();
        self.stats.result_buffer_words += accum_words;
        // The accumulator tile is read from and written back to the warp's
        // register file (Section 5.1.3).
        self.stats.rf_accum_reads += accum_words;
        self.stats.rf_accum_writes += accum_words;
        self.stats.control_events += 1;
    }

    /// The earliest cycle `>= now` at which ticking the unit can change its
    /// state, or `None` when it is drained (see `virgo_sim::activity`).
    ///
    /// Between its access/execute milestones the unit's tick is a no-op: all
    /// operand reads are issued when an operation starts, and the backend
    /// state only changes when the operands arrive (`operands_ready`) and
    /// when the compute finishes (`done`). Those milestones — plus `now`
    /// itself when a queued operation is waiting to start — are the unit's
    /// next-activity events.
    pub fn next_activity(&self, now: Cycle) -> Option<Cycle> {
        match &self.active {
            Some(active) => match active.done {
                Some(done) => Some(done.max(now)),
                None => Some(active.operands_ready.max(now)),
            },
            None if !self.queue.is_empty() => Some(now),
            None => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use virgo_isa::{AddrExpr, DataType, ProgramBuilder, WarpOp};
    use virgo_mem::SmemConfig;

    fn wgmma(m: u32, n: u32, k: u32) -> WgmmaOp {
        WgmmaOp {
            a: AddrExpr::fixed(0),
            b: AddrExpr::fixed(0x8000),
            m,
            n,
            k,
            dtype: DataType::Fp16,
        }
    }

    fn run_until_idle(unit: &mut OperandDecoupledUnit, smem: &mut SharedMemory, limit: u64) -> u64 {
        for cycle in 0..limit {
            unit.tick(Cycle::new(cycle), smem);
            if unit.pending() == 0 {
                return cycle;
            }
        }
        limit
    }

    #[test]
    fn operation_completes_and_counts_macs() {
        let mut unit = OperandDecoupledUnit::new(DecoupledConfig::default());
        let mut smem = SharedMemory::new(SmemConfig::default_cluster());
        assert!(unit.try_enqueue(&wgmma(16, 16, 32)));
        assert_eq!(unit.pending(), 1);
        let cycles = run_until_idle(&mut unit, &mut smem, 10_000);
        assert_eq!(unit.stats().ops, 1);
        assert_eq!(unit.stats().macs, 16 * 16 * 32);
        // 8192 MACs at 64/cycle = 128 compute cycles, plus operand fetch.
        assert!(cycles >= 128, "completed too fast: {cycles}");
        assert!(smem.stats().bytes_read >= 2 * 16 * 32 * 2);
    }

    #[test]
    fn accumulator_traffic_hits_register_file() {
        let mut unit = OperandDecoupledUnit::new(DecoupledConfig::default());
        let mut smem = SharedMemory::new(SmemConfig::default_cluster());
        unit.try_enqueue(&wgmma(16, 16, 32));
        run_until_idle(&mut unit, &mut smem, 10_000);
        assert_eq!(unit.stats().rf_accum_reads, 256);
        assert_eq!(unit.stats().rf_accum_writes, 256);
    }

    #[test]
    fn queue_depth_limits_outstanding_ops() {
        let mut unit = OperandDecoupledUnit::new(DecoupledConfig {
            queue_depth: 2,
            ..Default::default()
        });
        assert!(unit.try_enqueue(&wgmma(16, 16, 32)));
        assert!(unit.try_enqueue(&wgmma(16, 16, 32)));
        assert!(!unit.try_enqueue(&wgmma(16, 16, 32)));
        assert_eq!(unit.pending(), 2);
    }

    #[test]
    fn double_buffered_addresses_resolve_at_enqueue() {
        let mut unit = OperandDecoupledUnit::new(DecoupledConfig::default());
        let mut smem = SharedMemory::new(SmemConfig::default_cluster());
        let op = WgmmaOp {
            a: AddrExpr::double_buffered(0, 0x4000),
            b: AddrExpr::double_buffered(0x8000, 0x4000),
            m: 16,
            n: 16,
            k: 16,
            dtype: DataType::Fp16,
        };
        let mut b = ProgramBuilder::new();
        b.repeat(2, |b| {
            b.op(WarpOp::WgmmaInit(op));
        });
        let program = Arc::new(b.build());
        let mut cursor = program.cursor();
        // The two iterations reach the unit latched to the two buffers.
        let mut latched = Vec::new();
        while let Some(WarpOp::WgmmaInit(resolved)) = cursor.next_op() {
            latched.push((resolved.a.resolved(), resolved.b.resolved()));
            assert!(unit.try_enqueue(&resolved));
            run_until_idle(&mut unit, &mut smem, 10_000);
        }
        assert_eq!(latched, [(0, 0x8000), (0x4000, 0xC000)]);
        assert_eq!(unit.stats().ops, 2);
    }

    #[test]
    fn back_to_back_ops_pipeline() {
        let mut unit = OperandDecoupledUnit::new(DecoupledConfig::default());
        let mut smem = SharedMemory::new(SmemConfig::double_banked());
        for _ in 0..4 {
            assert!(unit.try_enqueue(&wgmma(16, 16, 32)));
        }
        let cycles = run_until_idle(&mut unit, &mut smem, 100_000);
        assert_eq!(unit.stats().ops, 4);
        // Four ops of 128 compute cycles each: at least 512 cycles total.
        assert!(cycles >= 512);
    }

    #[test]
    fn accept_at_names_the_cycle_a_full_queue_takes_the_next_op() {
        let mut unit = OperandDecoupledUnit::new(DecoupledConfig {
            queue_depth: 2,
            ..Default::default()
        });
        let mut smem = SharedMemory::new(SmemConfig::default_cluster());
        let op = wgmma(16, 16, 32);
        // A core that enqueues whenever it can, after the unit's tick, as
        // the cluster orders them.
        let mut promised: Option<Cycle> = None;
        let mut kept = 0;
        for cycle in 0..10_000 {
            let now = Cycle::new(cycle);
            unit.tick(now, &mut smem);
            let at = unit.accept_at(now);
            if unit.try_enqueue(&op) {
                assert_eq!(at, now, "cycle {cycle}");
                if let Some(p) = promised.take() {
                    assert_eq!(p, now, "a promised cycle is exact");
                    kept += 1;
                }
            } else if at > now {
                // Until then every retry fails, and the promise holds.
                assert_eq!(*promised.get_or_insert(at), at, "cycle {cycle}");
            }
            if kept == 8 {
                return;
            }
        }
        panic!("only {kept} promises were kept");
    }

    #[test]
    fn idle_unit_tick_is_harmless() {
        let mut unit = OperandDecoupledUnit::new(DecoupledConfig::default());
        let mut smem = SharedMemory::new(SmemConfig::default_cluster());
        assert_eq!(unit.tick(Cycle::new(0), &mut smem), 0);
        assert_eq!(unit.stats().ops, 0);
        assert_eq!(unit.pending(), 0);
    }
}
