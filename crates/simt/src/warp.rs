//! Per-warp execution state.

use std::sync::Arc;

use virgo_isa::{Program, ProgramCursor, WarpOp};
use virgo_sim::Cycle;

/// `WarpContext::earliest_load` while no load is in flight.
pub(crate) const NO_LOAD: Cycle = Cycle::new(u64::MAX);

/// Why a warp is currently unable to issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockReason {
    /// Waiting for all outstanding loads to write back (`WaitLoads`).
    Loads,
    /// Waiting at a cluster barrier for the given generation ticket.
    Barrier {
        /// Barrier id.
        id: u8,
        /// Generation ticket returned by the synchronizer.
        ticket: u64,
    },
    /// Waiting for the core's operand-decoupled tensor unit to drain.
    WgmmaDrain,
    /// Spinning in `virgo_fence(max_outstanding)`.
    Fence {
        /// Maximum number of asynchronous operations allowed to remain.
        max_outstanding: u32,
    },
}

/// The dynamic state of one hardware warp.
#[derive(Debug, Clone)]
pub struct WarpContext {
    /// Cluster-unique warp id (used for barrier arrival bookkeeping).
    pub global_id: u32,
    cursor: ProgramCursor,
    /// The next operation to issue, if already fetched from the cursor
    /// (its addresses already resolved).
    pending: Option<WarpOp>,
    /// Completion cycles of outstanding loads.
    outstanding_loads: Vec<Cycle>,
    /// Minimum of `outstanding_loads` (`NO_LOAD` when empty), so the
    /// per-tick retire check and the horizon fold need not scan the list.
    earliest_load: Cycle,
    /// Why the warp is blocked, if it is.
    block: Option<BlockReason>,
    /// Cycle at which the warp last emitted a fence poll.
    last_fence_poll: Cycle,
}

impl WarpContext {
    /// Creates a warp positioned at the start of `program`.
    pub fn new(global_id: u32, program: &Arc<Program>) -> Self {
        WarpContext {
            global_id,
            cursor: program.cursor(),
            pending: None,
            outstanding_loads: Vec::new(),
            earliest_load: NO_LOAD,
            block: None,
            last_fence_poll: Cycle::ZERO,
        }
    }

    /// Returns the next operation to issue without consuming it, fetching
    /// from the program cursor if necessary.
    pub fn peek(&mut self) -> Option<WarpOp> {
        self.peek_ref().copied()
    }

    /// [`WarpContext::peek`] by reference, without copying the op.
    pub(crate) fn peek_ref(&mut self) -> Option<&WarpOp> {
        if self.pending.is_none() {
            self.pending = self.cursor.next_op();
        }
        self.pending.as_ref()
    }

    /// Consumes the pending operation (after it has issued or been
    /// resolved).
    ///
    /// # Panics
    ///
    /// Panics if there is no pending operation.
    pub fn consume(&mut self) -> WarpOp {
        let op = self.pending.take().expect("consume without pending op");
        // Eagerly prefetch the next operation so that `is_finished` reflects
        // the program end as soon as the last instruction retires.
        self.pending = self.cursor.next_op();
        op
    }

    /// Registers an outstanding load completing at `done`.
    pub fn push_load(&mut self, done: Cycle) {
        self.outstanding_loads.push(done);
        self.earliest_load = self.earliest_load.min(done);
    }

    /// Retires loads whose completion cycle has passed; returns how many.
    pub fn retire_loads(&mut self, now: Cycle) -> usize {
        if self.earliest_load > now {
            return 0;
        }
        let before = self.outstanding_loads.len();
        self.outstanding_loads.retain(|&done| done > now);
        self.earliest_load = self
            .outstanding_loads
            .iter()
            .copied()
            .min()
            .unwrap_or(NO_LOAD);
        before - self.outstanding_loads.len()
    }

    /// Number of loads still in flight.
    pub fn loads_in_flight(&self) -> usize {
        self.outstanding_loads.len()
    }

    /// Completion cycle of the earliest outstanding load, if any — the next
    /// cycle at which [`WarpContext::retire_loads`] can retire something.
    pub fn earliest_load_done(&self) -> Option<Cycle> {
        (!self.outstanding_loads.is_empty()).then_some(self.earliest_load)
    }

    /// Marks the warp blocked for `reason`.
    pub fn block(&mut self, reason: BlockReason) {
        self.block = Some(reason);
    }

    /// Clears the blocked state.
    pub fn unblock(&mut self) {
        self.block = None;
    }

    /// The current block reason, if any.
    pub fn block_reason(&self) -> Option<BlockReason> {
        self.block
    }

    /// True when the warp can attempt to issue this cycle.
    pub fn is_runnable(&self) -> bool {
        self.block.is_none() && !self.is_finished()
    }

    /// True when the warp has executed its whole program, drained its
    /// outstanding loads and is not waiting on any synchronization event.
    pub fn is_finished(&self) -> bool {
        self.pending.is_none()
            && self.block.is_none()
            && self.outstanding_loads.is_empty()
            && self.cursor.is_done()
    }

    /// Re-anchors the fence-poll rate limiter at `at`, the warp's first
    /// live cycle. A freshly built warp anchors at cycle zero, which is
    /// correct for a run starting at zero but charges the first poll of a
    /// warp born mid-session (a job admitted at cycle `T > 0`) one interval
    /// early relative to its own start. Anchoring at birth makes the poll
    /// cadence a pure function of warp-relative time — and is a no-op for
    /// `at == 0`, so standalone runs are bit-identical.
    pub fn anchor_fence_polls(&mut self, at: Cycle) {
        self.last_fence_poll = self.last_fence_poll.max(at);
    }

    /// Records a fence poll at `now`; returns true when a new poll should be
    /// charged (at most one per `interval` cycles).
    pub fn fence_poll_due(&mut self, now: Cycle, interval: u32) -> bool {
        if now.saturating_sub(self.last_fence_poll).get() >= u64::from(interval.max(1)) {
            self.last_fence_poll = now;
            true
        } else {
            false
        }
    }

    /// Replays, in closed form, the fence polls that [`WarpContext::fence_poll_due`]
    /// would have recorded over the window of `cycles` ticks starting at
    /// `from` (during which the warp is known to stay fence-blocked), and
    /// returns how many polls were charged.
    ///
    /// Used by the fast-forward engine: the naive loop calls `fence_poll_due`
    /// once per tick at `from, from + 1, ..., from + cycles - 1`; this method
    /// produces the identical poll count and leaves the poll timestamp
    /// exactly where the per-tick sequence would have left it.
    pub fn fast_forward_fence_polls(&mut self, from: Cycle, cycles: u64, interval: u32) -> u64 {
        let step = u64::from(interval.max(1));
        let first = (self.last_fence_poll.get() + step).max(from.get());
        let end = from.get() + cycles; // exclusive
        if first >= end {
            return 0;
        }
        let count = (end - 1 - first) / step + 1;
        self.last_fence_poll = Cycle::new(first + (count - 1) * step);
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use virgo_isa::{AddrExpr, LaneAccess, ProgramBuilder};
    use virgo_sim::SplitMix64;

    fn warp_with(ops: u32) -> WarpContext {
        let mut b = ProgramBuilder::new();
        b.op_n(ops, WarpOp::Nop);
        WarpContext::new(0, &Arc::new(b.build()))
    }

    #[test]
    fn peek_then_consume_walks_program() {
        let mut w = warp_with(2);
        assert!(w.peek().is_some());
        w.consume();
        assert!(w.peek().is_some());
        w.consume();
        assert!(w.peek().is_none());
        assert!(w.is_finished());
    }

    #[test]
    fn addresses_advance_per_consume() {
        let access = LaneAccess::contiguous_words(AddrExpr::double_buffered(0x100, 0x800), 8);
        let mut b = ProgramBuilder::new();
        b.repeat(3, |b| {
            b.op(WarpOp::StoreShared { access });
        });
        let mut w = WarpContext::new(0, &Arc::new(b.build()));
        for expected in [0x100, 0x900, 0x100] {
            let Some(WarpOp::StoreShared { access }) = w.peek() else {
                panic!("expected the pending store");
            };
            // Peeking again does not advance the address.
            assert_eq!(w.peek(), Some(WarpOp::StoreShared { access }));
            assert_eq!(access.addr, AddrExpr::fixed(expected));
            w.consume();
        }
        assert!(w.is_finished());
    }

    #[test]
    fn loads_block_completion_until_retired() {
        let mut w = warp_with(1);
        w.peek();
        w.consume();
        w.push_load(Cycle::new(10));
        assert!(!w.is_finished());
        assert_eq!(w.retire_loads(Cycle::new(5)), 0);
        assert_eq!(w.loads_in_flight(), 1);
        assert_eq!(w.retire_loads(Cycle::new(10)), 1);
        assert!(w.is_finished());
    }

    #[test]
    fn load_horizon_matches_a_brute_force_model() {
        let mut rng = SplitMix64::new(0x10AD_0001);
        for case in 0..64 {
            let mut w = warp_with(0);
            let mut model: Vec<Cycle> = Vec::new();
            let mut now = 0u64;
            for step in 0..200 {
                if rng.next_below(3) > 0 {
                    // Non-monotone completions, often repeating a cycle.
                    let done = Cycle::new(now + rng.next_below(12));
                    w.push_load(done);
                    model.push(done);
                } else {
                    now += rng.next_below(4);
                    let before = model.len();
                    model.retain(|&done| done > Cycle::new(now));
                    let retired = w.retire_loads(Cycle::new(now));
                    assert_eq!(retired, before - model.len(), "case {case} step {step}");
                }
                assert_eq!(w.loads_in_flight(), model.len(), "case {case} step {step}");
                assert_eq!(
                    w.earliest_load_done(),
                    model.iter().copied().min(),
                    "case {case} step {step}"
                );
                assert_eq!(w.is_finished(), model.is_empty(), "case {case} step {step}");
            }
        }
    }

    #[test]
    fn block_and_unblock_toggle_runnability() {
        let mut w = warp_with(1);
        assert!(w.is_runnable());
        w.block(BlockReason::Loads);
        assert!(!w.is_runnable());
        assert_eq!(w.block_reason(), Some(BlockReason::Loads));
        w.unblock();
        assert!(w.is_runnable());
    }

    #[test]
    fn finished_warp_is_not_runnable() {
        let w = warp_with(0);
        assert!(w.is_finished());
        assert!(!w.is_runnable());
    }

    #[test]
    fn fence_poll_rate_limited() {
        let mut w = warp_with(1);
        assert!(w.fence_poll_due(Cycle::new(8), 8));
        assert!(!w.fence_poll_due(Cycle::new(12), 8));
        assert!(w.fence_poll_due(Cycle::new(16), 8));
    }

    #[test]
    #[should_panic(expected = "consume without pending")]
    fn consume_without_peek_panics() {
        let mut w = warp_with(1);
        let _ = w.consume();
    }
}
