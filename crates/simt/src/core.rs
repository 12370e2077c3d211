//! The SIMT core: warp scheduling, instruction issue, execution pipelines.

use std::sync::Arc;

use virgo_isa::{LaneAccess, Program, WarpOp};
use virgo_sim::{earliest, Cycle};

use crate::config::CoreConfig;
use crate::port::ClusterPort;
use crate::stats::CoreStats;
use crate::warp::{BlockReason, WarpContext, NO_LOAD};

/// A point-in-time view of one warp's scheduling state, used to build the
/// structured deadlock diagnosis attached to `SimError::Timeout`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarpSnapshot {
    /// Cluster-unique warp id.
    pub global_id: u32,
    /// True once the warp has retired its whole program and drained its
    /// loads.
    pub finished: bool,
    /// Why the warp cannot issue, if it is blocked.
    pub block: Option<BlockReason>,
    /// Loads still in flight.
    pub loads_in_flight: usize,
}

/// What one [`SimtCore::tick`] did, as cheap hints for the event-driven
/// driver (`SimMode::FastForward`). All fields are computed from work the
/// tick performs anyway, so consuming them costs nothing extra; the naive
/// per-cycle loop simply ignores the value.
#[derive(Debug, Clone, Copy, Default)]
pub struct TickOutcome {
    /// Instructions issued this cycle (the input to the active/stall/idle
    /// classification). Synchronization pseudo-operations (`vx_bar`,
    /// `WaitLoads`, fences) resolve without consuming an issue slot and are
    /// not counted here.
    pub issued: u32,
    /// A warp was ready this cycle but could not issue for a reason that
    /// retries every cycle (functional-unit slot or LSQ contention, a full
    /// device inbox, issue-width exhaustion). Such a core is guaranteed
    /// active at `now + 1`, so the driver can re-schedule it without paying
    /// for a [`SimtCore::next_activity`] probe. Two hazards are deliberately
    /// excluded, because their retries are pure no-ops until a tensor unit
    /// frees: an `HmmaStep` against a busy tightly-coupled unit parks the
    /// warp at the unit's `busy_until`, and a `WgmmaInit` against a full
    /// operand-decoupled queue parks it at the cycle the queue next accepts
    /// ([`ClusterPort::wgmma_accept_at`]).
    pub retry_next: bool,
    /// The tick may have mutated state outside the core — it issued a real
    /// instruction or arrived at a barrier. When false, the driver can skip
    /// its cross-component signature checks (barrier releases, device
    /// inboxes, fabric transfers): every other path through the tick only
    /// reads through the port.
    pub acted: bool,
    /// A warp transitioned to finished during this tick (last instruction
    /// consumed, final load drained, or final unblock). This is the only
    /// core-side event that can flip the machine-wide finish check, so the
    /// driver gates that walk on it.
    pub warp_retired: bool,
    /// The core's event horizon after this tick: the earliest in-flight
    /// load completion of any warp not waiting on a barrier, fence or
    /// drain, and the park cycle of every hazard-blocked `HmmaStep` or
    /// `WgmmaInit` warp. Follows the [`SimtCore::next_activity`] contract
    /// (`None` = dormant until an external wake; barrier / fence / drain
    /// releases arrive through the driver's cross-component signature
    /// checks). Only meaningful when `retry_next` is false — a guaranteed
    /// next-cycle retry supersedes it — and it spares the driver a separate
    /// post-tick [`SimtCore::next_activity`] probe.
    pub horizon: Option<Cycle>,
}

impl TickOutcome {
    /// Folds one event time into the horizon (earliest wins).
    fn fold_horizon(&mut self, t: Cycle) {
        self.horizon = Some(match self.horizon {
            Some(h) => h.min(t),
            None => t,
        });
    }
}

/// Iterates the indices of the set bits of `mask`, lowest first.
fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let w = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            w
        })
    })
}

/// The cycle until which a runnable warp of core `core_id` whose next op
/// is `op` cannot do anything observable, or `None` when it may act now.
/// Only two ops park: an `HmmaStep` against a busy tightly-coupled unit
/// (until its `busy_until`) and a `WgmmaInit` against a full
/// operand-decoupled queue (until it accepts again).
fn parked_until(op: &WarpOp, core_id: u32, now: Cycle, port: &dyn ClusterPort) -> Option<Cycle> {
    let at = match op {
        WarpOp::HmmaStep { .. } => port.hmma_busy_until(now, core_id),
        WarpOp::WgmmaInit(_) => port.wgmma_accept_at(now, core_id),
        _ => return None,
    };
    at.filter(|&t| t > now)
}

/// True for the block reasons only another agent can release (a barrier, a
/// fence or a tensor-unit drain), as opposed to the warp's own loads.
fn is_waiting(block: Option<BlockReason>) -> bool {
    matches!(
        block,
        Some(BlockReason::Barrier { .. } | BlockReason::Fence { .. } | BlockReason::WgmmaDrain)
    )
}

/// One SIMT core of the cluster.
///
/// The core executes the warps assigned to it, issuing up to
/// `issue_width` instructions per cycle subject to functional-unit
/// availability (ALU/FPU/LSU/tensor), the load/store queue capacity, and the
/// blocking semantics of synchronization operations. Everything outside the
/// core — memories, matrix units, DMA, barriers — is reached through the
/// [`ClusterPort`] passed to [`SimtCore::tick`].
///
/// Each warp is in exactly one of four states: runnable, waiting on another
/// agent (barrier, fence, drain), blocked on its own loads, or finished.
/// The core keeps the first two as bitmasks beside the warps, plus the
/// earliest load completion over all warps, so a tick visits only the warps
/// that can act.
#[derive(Debug)]
pub struct SimtCore {
    config: CoreConfig,
    core_id: u32,
    warps: Vec<WarpContext>,
    stats: CoreStats,
    /// Round-robin pointer for warp scheduling fairness.
    next_warp: usize,
    /// Bit `w` is set while warp `w` is runnable ([`WarpContext::is_runnable`]).
    runnable: u64,
    /// Bit `w` is set while warp `w` waits on a barrier, a fence or a
    /// tensor-unit drain.
    waiting: u64,
    /// Earliest outstanding load completion over every warp (`NO_LOAD` when
    /// none): the next cycle at which any warp can retire a load.
    earliest_load: Cycle,
    /// `instrs_per_icache_access - 1`: the per-issue fetch check is a mask.
    icache_mask: u64,
    /// Reusable lane-address buffer for [`SimtCore::memory_access`], so the
    /// load/store hot path allocates nothing per instruction.
    lane_scratch: Vec<u64>,
}

impl SimtCore {
    /// Creates a core with no warps assigned.
    ///
    /// # Panics
    ///
    /// Panics if `config.warps` exceeds 64, the width of the core's warp
    /// masks, or if `config.instrs_per_icache_access` is not a power of two.
    pub fn new(config: CoreConfig, core_id: u32) -> Self {
        assert!(
            config.warps <= 64,
            "a SIMT core holds at most 64 warps, the configuration asks for {}",
            config.warps
        );
        assert!(
            config.instrs_per_icache_access.is_power_of_two(),
            "a SIMT core fetches a power-of-two number of instructions per icache access, the configuration asks for {}",
            config.instrs_per_icache_access
        );
        SimtCore {
            config,
            core_id,
            warps: Vec::new(),
            stats: CoreStats::default(),
            next_warp: 0,
            runnable: 0,
            waiting: 0,
            earliest_load: NO_LOAD,
            icache_mask: u64::from(config.instrs_per_icache_access) - 1,
            lane_scratch: Vec::new(),
        }
    }

    /// The core's configuration.
    pub fn config(&self) -> &CoreConfig {
        &self.config
    }

    /// Index of this core within the cluster.
    pub fn core_id(&self) -> u32 {
        self.core_id
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CoreStats {
        self.stats
    }

    /// Assigns a warp running `program` to the core.
    ///
    /// # Panics
    ///
    /// Panics if the core already holds its full complement of hardware
    /// warps.
    pub fn assign_warp(&mut self, global_id: u32, program: &Arc<Program>) {
        assert!(
            (self.warps.len() as u32) < self.config.warps,
            "core {} already has {} warps",
            self.core_id,
            self.warps.len()
        );
        self.warps.push(WarpContext::new(global_id, program));
        self.sync_masks(self.warps.len() - 1);
    }

    /// Number of warps assigned.
    pub fn warp_count(&self) -> usize {
        self.warps.len()
    }

    /// Re-anchors every warp's fence-poll rate limiter at `at` (see
    /// [`WarpContext::anchor_fence_polls`]). Called when the core is built
    /// into a cluster slot that leaves reset at a non-zero cycle.
    pub fn anchor_fence_polls(&mut self, at: Cycle) {
        for warp in &mut self.warps {
            warp.anchor_fence_polls(at);
        }
    }

    /// True once every assigned warp has finished: none is runnable or
    /// waiting, and none has a load in flight (a warp blocked on its own
    /// loads has one).
    pub fn all_finished(&self) -> bool {
        self.runnable == 0 && self.waiting == 0 && self.earliest_load == NO_LOAD
    }

    /// Snapshots the scheduling state of every assigned warp, for timeout
    /// diagnosis.
    pub fn warp_snapshots(&self) -> Vec<WarpSnapshot> {
        self.warps
            .iter()
            .map(|w| WarpSnapshot {
                global_id: w.global_id,
                finished: w.is_finished(),
                block: w.block_reason(),
                loads_in_flight: w.loads_in_flight(),
            })
            .collect()
    }

    /// Re-derives warp `w`'s bits in the `runnable` and `waiting` masks
    /// from its context, after anything that may have changed its state.
    fn sync_masks(&mut self, w: usize) {
        let bit = 1u64 << w;
        let warp = &self.warps[w];
        self.runnable = (self.runnable & !bit) | if warp.is_runnable() { bit } else { 0 };
        self.waiting = (self.waiting & !bit)
            | if is_waiting(warp.block_reason()) {
                bit
            } else {
                0
            };
    }

    /// Advances the core by one cycle.
    ///
    /// The returned [`TickOutcome`] carries cheap liveness hints for the
    /// event-driven driver, computed from work the tick does anyway: whether
    /// a ready warp is guaranteed to retry next cycle (skip the horizon
    /// probe), whether anything outside the core may have changed (skip the
    /// cross-component signature checks), and whether a warp just finished
    /// (the only moment the machine-wide finish check can flip).
    pub fn tick(&mut self, now: Cycle, port: &mut dyn ClusterPort) -> TickOutcome {
        if self.warps.is_empty() {
            self.stats.idle_cycles += 1;
            return TickOutcome::default();
        }

        let mut outcome = TickOutcome::default();
        self.retire_and_unblock(now, port, &mut outcome);
        self.issue(now, port, &mut outcome);

        if outcome.issued > 0 {
            self.stats.active_cycles += 1;
        } else if self.runnable != 0 {
            self.stats.stall_cycles += 1;
        } else {
            self.stats.idle_cycles += 1;
        }
        outcome
    }

    /// Reports the earliest cycle `>= now` at which ticking this core can do
    /// anything beyond time-uniform stall/idle accounting, or `None` when the
    /// core will never act again on its own (all warps finished, or blocked
    /// on conditions only *other* agents can satisfy).
    ///
    /// This is the core-side half of the fast-forward engine's soundness
    /// argument (see `virgo_sim::activity`):
    ///
    /// * A warp that could attempt to issue pins the horizon to `now` —
    ///   conservatively, since the attempt may still fail on a structural
    ///   hazard whose retry-per-cycle behavior must be replayed faithfully.
    ///   Two hazards are refined: an `HmmaStep` retrying against a busy
    ///   tightly-coupled unit, and a `WgmmaInit` retrying against a full
    ///   operand-decoupled queue. Their retries are pure no-ops (no
    ///   statistics, no state change) until the unit's `busy_until`, or
    ///   until [`ClusterPort::wgmma_accept_at`], so such a warp contributes
    ///   that cycle instead of `now`. The window is only skipped when
    ///   *every* runnable warp of the core is hazard-blocked this way,
    ///   because any other runnable warp issues immediately.
    /// * A warp waiting on outstanding loads contributes the completion cycle
    ///   of its earliest load: retiring a load is the only time-driven event
    ///   that can change the warp's state or the core's stall classification.
    /// * A warp blocked on a barrier, tensor-unit drain or fence contributes
    ///   `now` if the condition is already satisfied (it unblocks on the next
    ///   tick) and nothing otherwise — progress on those conditions comes
    ///   from other cores or cluster devices, which report it themselves.
    ///
    /// Takes `&mut self` because inspecting the next operation may fetch it
    /// from the program cursor, exactly as the issue stage would.
    pub fn next_activity(&mut self, now: Cycle, port: &dyn ClusterPort) -> Option<Cycle> {
        for w in bits(self.waiting) {
            if self.released(w, port) {
                return Some(now);
            }
        }
        let mut next = None;
        for w in bits(self.runnable) {
            match self.warps[w].peek() {
                Some(op) => match parked_until(&op, self.core_id, now, port) {
                    Some(t) => next = earliest(next, Some(t)),
                    None => return Some(now),
                },
                // The program drained on this fetch; the warp may have
                // finished.
                None => self.sync_masks(w),
            }
        }
        earliest(next, self.load_horizon(now))
    }

    /// Bulk-replays `cycles` ticks of a quiescent window starting at `from`,
    /// during which no warp can issue, unblock, or retire a load: the caller
    /// parks the core until the [`TickOutcome::horizon`] its last tick
    /// reported, or until another component wakes it.
    ///
    /// Produces statistics bit-identical to ticking the core `cycles` times:
    /// the stall/idle classification (which is constant across
    /// the window because no warp's runnability can change), fence wait
    /// cycles, and the rate-limited fence poll instructions.
    pub fn fast_forward(&mut self, from: Cycle, cycles: u64) {
        if cycles == 0 {
            return;
        }
        if self.warps.is_empty() {
            self.stats.idle_cycles += cycles;
            return;
        }
        let mut fence_waiting = false;
        let interval = self.config.fence_poll_interval;
        for w in bits(self.waiting) {
            let warp = &mut self.warps[w];
            if let Some(BlockReason::Fence { .. }) = warp.block_reason() {
                fence_waiting = true;
                self.stats.fence_poll_instrs +=
                    warp.fast_forward_fence_polls(from, cycles, interval);
            }
        }
        if fence_waiting {
            self.stats.fence_wait_cycles += cycles;
        }
        if self.runnable != 0 {
            self.stats.stall_cycles += cycles;
        } else {
            self.stats.idle_cycles += cycles;
        }
    }

    /// True when waiting warp `w`'s barrier, drain or fence condition holds,
    /// so it unblocks on its next tick.
    fn released(&self, w: usize, port: &dyn ClusterPort) -> bool {
        match self.warps[w].block_reason() {
            Some(BlockReason::Barrier { id, ticket }) => port.barrier_passed(id, ticket),
            Some(BlockReason::WgmmaDrain) => port.wgmma_pending(self.core_id) == 0,
            Some(BlockReason::Fence { max_outstanding }) => {
                port.async_outstanding() <= max_outstanding
            }
            Some(BlockReason::Loads) | None => false,
        }
    }

    /// The earliest in-flight load completion (clamped to `now`) over every
    /// warp not waiting on another agent — the loads whose retirement can
    /// unblock a warp, finish it, or change the stall classification.
    fn load_horizon(&self, now: Cycle) -> Option<Cycle> {
        if self.earliest_load == NO_LOAD {
            return None;
        }
        if self.waiting == 0 {
            return Some(self.earliest_load.max(now));
        }
        let live = u64::MAX >> (64 - self.warps.len());
        bits(live & !self.waiting)
            .filter_map(|w| self.warps[w].earliest_load_done())
            .min()
            .map(|t| t.max(now))
    }

    /// Retires completed loads and releases warps whose blocking condition
    /// has been satisfied. Only reads through the port; flags warps that
    /// finish here (final load drained / final unblock) in `outcome`.
    fn retire_and_unblock(
        &mut self,
        now: Cycle,
        port: &mut dyn ClusterPort,
        outcome: &mut TickOutcome,
    ) {
        if self.earliest_load <= now {
            let mut earliest_load = NO_LOAD;
            for w in 0..self.warps.len() {
                let warp = &mut self.warps[w];
                if warp.retire_loads(now) > 0 {
                    if warp.block_reason() == Some(BlockReason::Loads)
                        && warp.loads_in_flight() == 0
                    {
                        warp.unblock();
                    }
                    outcome.warp_retired |= warp.is_finished();
                    self.sync_masks(w);
                }
                if let Some(t) = self.warps[w].earliest_load_done() {
                    earliest_load = earliest_load.min(t);
                }
            }
            self.earliest_load = earliest_load;
        }

        let mut fence_waiting = false;
        for w in bits(self.waiting) {
            if self.released(w, port) {
                self.warps[w].unblock();
                outcome.warp_retired |= self.warps[w].is_finished();
                self.sync_masks(w);
            } else if matches!(
                self.warps[w].block_reason(),
                Some(BlockReason::Fence { .. })
            ) {
                fence_waiting = true;
                if self.warps[w].fence_poll_due(now, self.config.fence_poll_interval) {
                    self.stats.fence_poll_instrs += 1;
                }
            }
        }
        if fence_waiting {
            self.stats.fence_wait_cycles += 1;
        }
    }

    /// Attempts to issue up to `issue_width` instructions; records the issue
    /// count and the driver hints in `outcome`.
    ///
    /// Runnable warps are visited in round-robin order from `next_warp`;
    /// the others cannot act and are skipped. The scan position still
    /// counts every warp: stopping at the issue-width cap before the last
    /// position sets `retry_next` even when only blocked warps remain
    /// unscanned, which keeps the dispatched events unchanged.
    fn issue(&mut self, now: Cycle, port: &mut dyn ClusterPort, outcome: &mut TickOutcome) {
        let mut issued = 0u32;
        let mut alu_slots = self.config.alu_units;
        let mut fpu_slots = self.config.fpu_units;
        let mut lsu_slots = self.config.lsu_width;

        let warp_count = self.warps.len();
        // `next_warp` is always a warp index, and warps are never removed,
        // so it is in range.
        let start = self.next_warp;
        let before_start = (1u64 << start) - 1;
        let order = bits(self.runnable & !before_start).chain(bits(self.runnable & before_start));
        // Scan positions covered so far, counting skipped warps.
        let mut scanned = 0;

        for current in order {
            if issued >= self.config.issue_width {
                break;
            }
            scanned = if current >= start {
                current - start + 1
            } else {
                current + warp_count - start + 1
            };
            let index = if current + 1 == warp_count {
                0
            } else {
                current + 1
            };
            let Some(op) = self.warps[current].peek() else {
                // Program drained: the warp waits for its loads, or finished
                // on this fetch.
                self.sync_masks(current);
                continue;
            };

            match op {
                // Synchronization pseudo-operations: resolved without
                // consuming an issue slot or issue energy.
                WarpOp::WaitLoads => {
                    if self.warps[current].loads_in_flight() == 0 {
                        self.warps[current].consume();
                        self.fold_warp_horizon(current, now, port, outcome);
                    } else {
                        self.warps[current].block(BlockReason::Loads);
                        self.sync_masks(current);
                    }
                    continue;
                }
                WarpOp::WgmmaWait => {
                    if port.wgmma_pending(self.core_id) == 0 {
                        self.warps[current].consume();
                        self.fold_warp_horizon(current, now, port, outcome);
                    } else {
                        self.warps[current].block(BlockReason::WgmmaDrain);
                        self.sync_masks(current);
                    }
                    continue;
                }
                WarpOp::Barrier { id } => {
                    let global_id = self.warps[current].global_id;
                    let ticket = port.barrier_arrive(id, global_id);
                    self.stats.barrier_arrivals += 1;
                    // The vx_bar instruction itself occupies an issue slot.
                    self.stats.instrs_issued += 1;
                    self.warps[current].consume();
                    self.warps[current].block(BlockReason::Barrier { id, ticket });
                    self.sync_masks(current);
                    // Arriving can release the barrier for every waiting core.
                    outcome.acted = true;
                    continue;
                }
                WarpOp::FenceAsync { max_outstanding } => {
                    // The first busy-register poll of the fence is an issued
                    // load instruction; subsequent polls while blocked are
                    // accounted separately as fence_poll_instrs.
                    self.stats.instrs_issued += 1;
                    if port.async_outstanding() > max_outstanding {
                        self.warps[current].consume();
                        self.warps[current].block(BlockReason::Fence { max_outstanding });
                        self.sync_masks(current);
                    } else {
                        self.warps[current].consume();
                        self.fold_warp_horizon(current, now, port, outcome);
                    }
                    continue;
                }
                _ => {}
            }

            // Real instructions below need an issue slot and possibly a
            // functional unit.
            let ok = match op {
                WarpOp::Alu { .. } => {
                    if alu_slots == 0 {
                        false
                    } else {
                        alu_slots -= 1;
                        self.stats.alu_lane_ops += u64::from(self.config.lanes);
                        true
                    }
                }
                WarpOp::Fpu { flops_per_lane, .. } => {
                    if fpu_slots == 0 {
                        false
                    } else {
                        fpu_slots -= 1;
                        self.stats.fpu_lane_ops +=
                            u64::from(self.config.lanes) * u64::from(flops_per_lane.max(1));
                        true
                    }
                }
                WarpOp::LoadGlobal { access } | WarpOp::LoadShared { access } => {
                    if lsu_slots == 0
                        || self.warps[current].loads_in_flight() >= self.config.lsq_entries as usize
                    {
                        false
                    } else {
                        lsu_slots -= 1;
                        let shared = matches!(op, WarpOp::LoadShared { .. });
                        let done = self.memory_access(now, port, &access, shared, false);
                        self.warps[current].push_load(done);
                        self.earliest_load = self.earliest_load.min(done);
                        self.stats.lsu_lane_ops += u64::from(access.active_lanes);
                        true
                    }
                }
                WarpOp::StoreGlobal { access } | WarpOp::StoreShared { access } => {
                    if lsu_slots == 0 {
                        false
                    } else {
                        lsu_slots -= 1;
                        let shared = matches!(op, WarpOp::StoreShared { .. });
                        let _ = self.memory_access(now, port, &access, shared, true);
                        self.stats.lsu_lane_ops += u64::from(access.active_lanes);
                        true
                    }
                }
                WarpOp::HmmaStep { macs, .. } => {
                    if port.try_hmma(now, self.core_id, macs) {
                        self.stats.hmma_steps += 1;
                        true
                    } else {
                        false
                    }
                }
                WarpOp::WgmmaInit(wgmma) => {
                    if port.try_wgmma(now, self.core_id, &wgmma) {
                        self.stats.wgmma_ops += 1;
                        true
                    } else {
                        false
                    }
                }
                WarpOp::MmioWrite { device, cmd } => {
                    if port.mmio_write(now, self.core_id, device, &cmd) {
                        self.stats.mmio_writes += 1;
                        true
                    } else {
                        false
                    }
                }
                WarpOp::Nop => true,
                // Handled above.
                WarpOp::WaitLoads
                | WarpOp::WgmmaWait
                | WarpOp::Barrier { .. }
                | WarpOp::FenceAsync { .. } => unreachable!("blocking ops handled earlier"),
            };

            if ok {
                self.warps[current].consume();
                self.fold_warp_horizon(current, now, port, outcome);
                self.account_issue(&op);
                issued += 1;
                self.next_warp = index;
            } else {
                // Slot/LSQ/inbox contention retries every cycle, so the core
                // is guaranteed active next cycle. Hazard-blocked HMMA steps
                // and wgmma enqueues are no-ops until the tensor unit frees,
                // so the warp parks there instead.
                match parked_until(&op, self.core_id, now, port) {
                    Some(t) => outcome.fold_horizon(t),
                    None => outcome.retry_next = true,
                }
            }
        }
        // Stopping at the issue-width cap may leave ready warps unscanned.
        if issued == self.config.issue_width && scanned < warp_count {
            outcome.retry_next = true;
        }
        if !outcome.retry_next {
            if let Some(t) = self.load_horizon(now) {
                outcome.fold_horizon(t);
            }
        }
        outcome.issued = issued;
        outcome.acted |= issued > 0;
    }

    /// Folds warp `current`'s post-issue contribution into `outcome`,
    /// mirroring the [`SimtCore::next_activity`] arms for a runnable warp: a
    /// parked `HmmaStep` or `WgmmaInit` contributes its park cycle, any
    /// other pending op means the warp acts next cycle (`retry_next`), and a
    /// warp that just finished is flagged and leaves the runnable mask. Its
    /// loads are folded once per tick, by [`SimtCore::issue`].
    fn fold_warp_horizon(
        &mut self,
        current: usize,
        now: Cycle,
        port: &dyn ClusterPort,
        outcome: &mut TickOutcome,
    ) {
        let core_id = self.core_id;
        if self.warps[current].is_finished() {
            outcome.warp_retired = true;
            self.sync_masks(current);
        } else if let Some(op) = self.warps[current].peek_ref() {
            match parked_until(op, core_id, now, port) {
                Some(t) => outcome.fold_horizon(t),
                None => outcome.retry_next = true,
            }
        }
    }

    /// Issues one warp memory access through the cluster port and returns its
    /// completion cycle.
    fn memory_access(
        &mut self,
        now: Cycle,
        port: &mut dyn ClusterPort,
        access: &LaneAccess,
        shared: bool,
        write: bool,
    ) -> Cycle {
        let mut lane_addrs = std::mem::take(&mut self.lane_scratch);
        lane_addrs.clear();
        lane_addrs.extend(access.lane_addrs());
        let done = if shared {
            port.shared_access(now, self.core_id, &lane_addrs, write)
        } else {
            port.global_access(now, self.core_id, &lane_addrs, access.bytes_per_lane, write)
        };
        self.lane_scratch = lane_addrs;
        done
    }

    /// Updates per-instruction statistics after a successful issue.
    fn account_issue(&mut self, op: &WarpOp) {
        self.stats.instrs_issued += 1;
        if self.stats.instrs_issued & self.icache_mask == 0 {
            self.stats.icache_accesses += 1;
        }
        let lanes = u64::from(self.config.lanes);
        self.stats.rf_reads += u64::from(op.rf_reads()) * lanes;
        let writes = u64::from(op.rf_writes()) * lanes;
        self.stats.rf_writes += writes;
        if writes > 0 {
            self.stats.writebacks += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use virgo_isa::{AddrExpr, DeviceId, MmioCommand, ProgramBuilder, WgmmaOp};
    use virgo_sim::SplitMix64;

    /// A permissive test double for the cluster services.
    #[derive(Debug, Default)]
    struct FakePort {
        shared_calls: u32,
        global_calls: u32,
        hmma_calls: u32,
        hmma_busy: bool,
        hmma_free_at: Option<Cycle>,
        wgmma_calls: u32,
        wgmma_full: bool,
        wgmma_accept: Option<Cycle>,
        wgmma_pending: u32,
        mmio_calls: u32,
        async_outstanding: u32,
        barrier_arrivals: u32,
        barrier_open: bool,
        mem_latency: u64,
    }

    impl ClusterPort for FakePort {
        fn shared_access(&mut self, now: Cycle, _core: u32, _lanes: &[u64], _write: bool) -> Cycle {
            self.shared_calls += 1;
            now.plus(self.mem_latency)
        }
        fn global_access(
            &mut self,
            now: Cycle,
            _core: u32,
            _lanes: &[u64],
            _bytes: u32,
            _write: bool,
        ) -> Cycle {
            self.global_calls += 1;
            now.plus(self.mem_latency)
        }
        fn try_hmma(&mut self, _now: Cycle, _core: u32, _macs: u32) -> bool {
            if self.hmma_busy {
                false
            } else {
                self.hmma_calls += 1;
                true
            }
        }
        fn hmma_busy_until(&self, _now: Cycle, _core: u32) -> Option<Cycle> {
            self.hmma_free_at
        }
        fn try_wgmma(&mut self, _now: Cycle, _core: u32, _op: &WgmmaOp) -> bool {
            if self.wgmma_full {
                false
            } else {
                self.wgmma_calls += 1;
                true
            }
        }
        fn wgmma_accept_at(&self, _now: Cycle, _core: u32) -> Option<Cycle> {
            self.wgmma_accept
        }
        fn wgmma_pending(&self, _core: u32) -> u32 {
            self.wgmma_pending
        }
        fn mmio_write(
            &mut self,
            _now: Cycle,
            _core: u32,
            _device: DeviceId,
            _cmd: &MmioCommand,
        ) -> bool {
            self.mmio_calls += 1;
            true
        }
        fn async_outstanding(&self) -> u32 {
            self.async_outstanding
        }
        fn barrier_arrive(&mut self, _id: u8, _warp: u32) -> u64 {
            self.barrier_arrivals += 1;
            0
        }
        fn barrier_passed(&self, _id: u8, _ticket: u64) -> bool {
            self.barrier_open
        }
    }

    fn core_with_program(build: impl FnOnce(&mut ProgramBuilder)) -> SimtCore {
        let mut b = ProgramBuilder::new();
        build(&mut b);
        let program = Arc::new(b.build());
        let mut core = SimtCore::new(CoreConfig::vortex_default(), 0);
        core.assign_warp(0, &program);
        core
    }

    fn run(core: &mut SimtCore, port: &mut FakePort, max_cycles: u64) -> u64 {
        for cycle in 0..max_cycles {
            if core.all_finished() {
                return cycle;
            }
            core.tick(Cycle::new(cycle), port);
        }
        max_cycles
    }

    #[test]
    fn issues_alu_instructions_one_per_cycle() {
        let mut core = core_with_program(|b| {
            b.op_n(
                10,
                WarpOp::Alu {
                    rf_reads: 2,
                    rf_writes: 1,
                },
            );
        });
        let mut port = FakePort::default();
        let cycles = run(&mut core, &mut port, 1000);
        assert_eq!(core.stats().instrs_issued, 10);
        assert!(
            cycles >= 10,
            "single-issue core needs >= 10 cycles, took {cycles}"
        );
        assert_eq!(core.stats().alu_lane_ops, 10 * 8);
        assert_eq!(core.stats().rf_reads, 10 * 2 * 8);
        assert_eq!(core.stats().rf_writes, 10 * 8);
    }

    #[test]
    fn wait_loads_blocks_until_memory_returns() {
        let access = LaneAccess::contiguous_words(AddrExpr::fixed(0), 8);
        let mut core = core_with_program(|b| {
            b.op(WarpOp::LoadShared { access });
            b.op(WarpOp::WaitLoads);
            b.op(WarpOp::Alu {
                rf_reads: 1,
                rf_writes: 1,
            });
        });
        let mut port = FakePort {
            mem_latency: 50,
            ..Default::default()
        };
        let cycles = run(&mut core, &mut port, 1000);
        assert!(
            cycles >= 50,
            "ALU must wait for the 50-cycle load, took {cycles}"
        );
        assert_eq!(port.shared_calls, 1);
        assert_eq!(core.stats().instrs_issued, 2);
    }

    #[test]
    fn multiple_warps_hide_memory_latency() {
        let access = LaneAccess::contiguous_words(AddrExpr::fixed(0), 8);
        let program = {
            let mut b = ProgramBuilder::new();
            b.repeat(4, |b| {
                b.op(WarpOp::LoadShared { access });
                b.op(WarpOp::WaitLoads);
                b.op(WarpOp::Alu {
                    rf_reads: 1,
                    rf_writes: 1,
                });
            });
            Arc::new(b.build())
        };
        let run_with_warps = |count: u32| -> u64 {
            let mut core = SimtCore::new(CoreConfig::vortex_default(), 0);
            for w in 0..count {
                core.assign_warp(w, &program);
            }
            let mut port = FakePort {
                mem_latency: 20,
                ..Default::default()
            };
            let mut cycle = 0;
            while !core.all_finished() && cycle < 10_000 {
                core.tick(Cycle::new(cycle), &mut port);
                cycle += 1;
            }
            cycle
        };
        let one = run_with_warps(1);
        let four = run_with_warps(4);
        // Four warps do 4x the work in much less than 4x the time.
        assert!(four < one * 3, "one warp: {one}, four warps: {four}");
    }

    #[test]
    fn hmma_structural_hazard_stalls_warp() {
        let mut core = core_with_program(|b| {
            b.op(WarpOp::HmmaStep {
                macs: 64,
                rf_reads: 4,
                rf_writes: 2,
            });
        });
        let mut port = FakePort {
            hmma_busy: true,
            ..Default::default()
        };
        for cycle in 0..10 {
            core.tick(Cycle::new(cycle), &mut port);
        }
        assert_eq!(core.stats().hmma_steps, 0);
        assert!(!core.all_finished());
        // Unit frees up: the step issues.
        port.hmma_busy = false;
        for cycle in 10..20 {
            core.tick(Cycle::new(cycle), &mut port);
        }
        assert_eq!(core.stats().hmma_steps, 1);
        assert!(core.all_finished());
    }

    #[test]
    fn hmma_hazard_refines_event_horizon_to_busy_until() {
        let mut core = core_with_program(|b| {
            b.op(WarpOp::HmmaStep {
                macs: 64,
                rf_reads: 4,
                rf_writes: 2,
            });
        });
        let port = FakePort {
            hmma_busy: true,
            hmma_free_at: Some(Cycle::new(17)),
            ..Default::default()
        };
        // The only runnable warp is retrying against a busy unit: the core's
        // horizon jumps to the unit's release cycle instead of pinning to now.
        assert_eq!(
            core.next_activity(Cycle::new(3), &port),
            Some(Cycle::new(17))
        );
        // Without release information the core stays conservatively pinned.
        let pinned = FakePort {
            hmma_busy: true,
            ..Default::default()
        };
        assert_eq!(
            core.next_activity(Cycle::new(3), &pinned),
            Some(Cycle::new(3))
        );
    }

    #[test]
    fn hmma_hazard_refinement_requires_every_runnable_warp_blocked() {
        let program_hmma = {
            let mut b = ProgramBuilder::new();
            b.op(WarpOp::HmmaStep {
                macs: 64,
                rf_reads: 4,
                rf_writes: 2,
            });
            Arc::new(b.build())
        };
        let program_alu = {
            let mut b = ProgramBuilder::new();
            b.op(WarpOp::Alu {
                rf_reads: 1,
                rf_writes: 1,
            });
            Arc::new(b.build())
        };
        let mut core = SimtCore::new(CoreConfig::vortex_default(), 0);
        core.assign_warp(0, &program_hmma);
        core.assign_warp(1, &program_alu);
        let port = FakePort {
            hmma_busy: true,
            hmma_free_at: Some(Cycle::new(50)),
            ..Default::default()
        };
        // The ALU warp can issue right now, so the horizon stays at now.
        assert_eq!(
            core.next_activity(Cycle::new(0), &port),
            Some(Cycle::new(0))
        );
    }

    fn wgmma_op() -> WgmmaOp {
        WgmmaOp {
            a: AddrExpr::fixed(0),
            b: AddrExpr::fixed(0x800),
            m: 16,
            n: 16,
            k: 32,
            dtype: virgo_isa::DataType::Fp16,
        }
    }

    #[test]
    fn full_wgmma_queue_parks_the_warp_until_it_accepts() {
        let mut core = core_with_program(|b| {
            b.op(WarpOp::WgmmaInit(wgmma_op()));
        });
        let mut port = FakePort {
            wgmma_full: true,
            wgmma_accept: Some(Cycle::new(40)),
            ..Default::default()
        };
        // The rejected enqueue parks the core at the acceptance cycle, both
        // in the tick's own horizon and in the probe.
        let outcome = core.tick(Cycle::new(3), &mut port);
        assert!(!outcome.retry_next);
        assert_eq!(outcome.horizon, Some(Cycle::new(40)));
        assert_eq!(
            core.next_activity(Cycle::new(4), &port),
            Some(Cycle::new(40))
        );
        assert_eq!(core.stats().stall_cycles, 1);
        // Without an acceptance cycle the warp retries every cycle.
        port.wgmma_accept = None;
        assert!(core.tick(Cycle::new(4), &mut port).retry_next);
        assert_eq!(
            core.next_activity(Cycle::new(5), &port),
            Some(Cycle::new(5))
        );
        port.wgmma_full = false;
        core.tick(Cycle::new(5), &mut port);
        assert_eq!(core.stats().wgmma_ops, 1);
        assert!(core.all_finished());
    }

    impl SimtCore {
        /// Panics unless the warp masks, the earliest-load cache and
        /// `all_finished` equal a recomputation from each warp's context.
        fn assert_masks_match_warps(&self, context: &str) {
            let mut runnable = 0u64;
            let mut waiting = 0u64;
            let mut earliest_load = NO_LOAD;
            for (w, warp) in self.warps.iter().enumerate() {
                if warp.is_runnable() {
                    runnable |= 1 << w;
                }
                if is_waiting(warp.block_reason()) {
                    waiting |= 1 << w;
                }
                if let Some(t) = warp.earliest_load_done() {
                    earliest_load = earliest_load.min(t);
                }
            }
            assert_eq!(self.runnable, runnable, "runnable mask, {context}");
            assert_eq!(self.waiting, waiting, "waiting mask, {context}");
            assert_eq!(
                self.earliest_load, earliest_load,
                "earliest load, {context}"
            );
            assert_eq!(
                self.all_finished(),
                self.warps.iter().all(WarpContext::is_finished),
                "all_finished, {context}"
            );
        }
    }

    /// One random op of every kind the masks track: ALU work, shared loads
    /// and stores, `WaitLoads`, HMMA steps, barriers, fences and the two
    /// `wgmma` ops.
    fn random_op(rng: &mut SplitMix64) -> WarpOp {
        let access = LaneAccess::contiguous_words(AddrExpr::fixed(rng.next_below(64) * 4), 8);
        match rng.next_below(10) {
            0 | 1 => WarpOp::Alu {
                rf_reads: 2,
                rf_writes: 1,
            },
            2 => WarpOp::LoadShared { access },
            3 => WarpOp::StoreShared { access },
            4 => WarpOp::WaitLoads,
            5 => WarpOp::HmmaStep {
                macs: 64,
                rf_reads: 4,
                rf_writes: 2,
            },
            6 => WarpOp::Barrier { id: 0 },
            7 => WarpOp::FenceAsync {
                max_outstanding: rng.next_below(2) as u32,
            },
            8 => WarpOp::WgmmaInit(wgmma_op()),
            _ => WarpOp::WgmmaWait,
        }
    }

    #[test]
    fn warp_masks_match_a_recomputation_on_random_programs() {
        for seed in 0..48u64 {
            let mut rng = SplitMix64::new(0xC0DE_0023 ^ seed);
            let mut core = SimtCore::new(CoreConfig::vortex_default(), 0);
            for w in 0..1 + rng.next_below(8) as u32 {
                let mut b = ProgramBuilder::new();
                for _ in 0..rng.next_below(12) {
                    b.op(random_op(&mut rng));
                }
                let body: Vec<WarpOp> = (0..rng.next_below(4))
                    .map(|_| random_op(&mut rng))
                    .collect();
                b.repeat(rng.next_below(4), |b| {
                    for &op in &body {
                        b.op(op);
                    }
                });
                core.assign_warp(w, &Arc::new(b.build()));
            }
            core.assert_masks_match_warps(&format!("seed {seed}, assigned"));
            let mut port = FakePort::default();
            for cycle in 0..400u64 {
                // The cluster around the core changes under it: the tensor
                // units fill and drain, barriers open, async work retires.
                port.mem_latency = 1 + rng.next_below(20);
                port.hmma_busy = rng.next_below(3) == 0;
                port.hmma_free_at = port
                    .hmma_busy
                    .then(|| Cycle::new(cycle + rng.next_below(6)));
                port.wgmma_full = rng.next_below(3) == 0;
                port.wgmma_accept = port
                    .wgmma_full
                    .then(|| Cycle::new(cycle + rng.next_below(6)));
                port.wgmma_pending = rng.next_below(2) as u32;
                port.async_outstanding = rng.next_below(3) as u32;
                port.barrier_open = rng.next_below(4) == 0;
                let now = Cycle::new(cycle);
                if rng.next_below(4) == 0 {
                    core.next_activity(now, &port);
                    core.assert_masks_match_warps(&format!("seed {seed}, probe at {cycle}"));
                }
                core.tick(now, &mut port);
                core.assert_masks_match_warps(&format!("seed {seed}, tick {cycle}"));
            }
        }
    }

    #[test]
    fn warp_snapshots_expose_block_state() {
        let mut core = core_with_program(|b| {
            b.op(WarpOp::FenceAsync { max_outstanding: 0 });
            b.op(WarpOp::Nop);
        });
        let mut port = FakePort {
            async_outstanding: 2,
            ..Default::default()
        };
        core.tick(Cycle::new(0), &mut port);
        let snaps = core.warp_snapshots();
        assert_eq!(snaps.len(), 1);
        assert!(!snaps[0].finished);
        assert_eq!(
            snaps[0].block,
            Some(BlockReason::Fence { max_outstanding: 0 })
        );
    }

    #[test]
    fn barrier_blocks_until_released() {
        let mut core = core_with_program(|b| {
            b.op(WarpOp::Barrier { id: 0 });
            b.op(WarpOp::Nop);
        });
        let mut port = FakePort::default();
        for cycle in 0..5 {
            core.tick(Cycle::new(cycle), &mut port);
        }
        assert!(!core.all_finished());
        assert_eq!(port.barrier_arrivals, 1);
        port.barrier_open = true;
        for cycle in 5..10 {
            core.tick(Cycle::new(cycle), &mut port);
        }
        assert!(core.all_finished());
        assert_eq!(core.stats().barrier_arrivals, 1);
    }

    #[test]
    fn fence_blocks_and_polls_until_async_done() {
        let mut core = core_with_program(|b| {
            b.op(WarpOp::FenceAsync { max_outstanding: 0 });
            b.op(WarpOp::Nop);
        });
        let mut port = FakePort {
            async_outstanding: 2,
            ..Default::default()
        };
        for cycle in 0..100 {
            core.tick(Cycle::new(cycle), &mut port);
        }
        assert!(!core.all_finished());
        assert!(core.stats().fence_poll_instrs > 0);
        assert!(core.stats().fence_wait_cycles > 50);
        port.async_outstanding = 0;
        for cycle in 100..110 {
            core.tick(Cycle::new(cycle), &mut port);
        }
        assert!(core.all_finished());
    }

    #[test]
    fn wgmma_wait_blocks_until_unit_drains() {
        let mut core = core_with_program(|b| {
            b.op(WarpOp::WgmmaInit(wgmma_op()));
            b.op(WarpOp::WgmmaWait);
        });
        let mut port = FakePort {
            wgmma_pending: 1,
            ..Default::default()
        };
        for cycle in 0..10 {
            core.tick(Cycle::new(cycle), &mut port);
        }
        assert_eq!(core.stats().wgmma_ops, 1);
        assert!(!core.all_finished());
        port.wgmma_pending = 0;
        for cycle in 10..20 {
            core.tick(Cycle::new(cycle), &mut port);
        }
        assert!(core.all_finished());
    }

    #[test]
    fn mmio_write_issues_through_port() {
        let cmd = MmioCommand::DmaCopy(virgo_isa::DmaCopyCmd::new(
            virgo_isa::MemLoc::global(0u64),
            virgo_isa::MemLoc::shared(0u64),
            1024,
        ));
        let mut core = core_with_program(|b| {
            b.op(WarpOp::MmioWrite {
                device: DeviceId::DMA0,
                cmd,
            });
        });
        let mut port = FakePort::default();
        run(&mut core, &mut port, 100);
        assert_eq!(port.mmio_calls, 1);
        assert_eq!(core.stats().mmio_writes, 1);
    }

    #[test]
    fn idle_and_active_cycle_accounting() {
        let mut core = core_with_program(|b| {
            b.op(WarpOp::Nop);
        });
        let mut port = FakePort::default();
        core.tick(Cycle::new(0), &mut port); // issues the nop
        core.tick(Cycle::new(1), &mut port); // nothing left: idle
        let s = core.stats();
        assert_eq!(s.active_cycles, 1);
        assert_eq!(s.idle_cycles, 1);
        assert_eq!(s.stall_cycles, 0);
    }

    #[test]
    #[should_panic(expected = "at most 64 warps")]
    fn more_than_64_warp_slots_panics() {
        SimtCore::new(
            CoreConfig {
                warps: 65,
                ..CoreConfig::vortex_default()
            },
            0,
        );
    }

    fn icache_interval(instrs_per_icache_access: u32) -> CoreConfig {
        CoreConfig {
            instrs_per_icache_access,
            ..CoreConfig::vortex_default()
        }
    }

    #[test]
    #[should_panic(expected = "power-of-two number of instructions per icache access")]
    fn zero_instructions_per_icache_access_panics() {
        SimtCore::new(icache_interval(0), 0);
    }

    #[test]
    #[should_panic(expected = "power-of-two number of instructions per icache access")]
    fn non_power_of_two_icache_interval_panics() {
        SimtCore::new(icache_interval(6), 0);
    }

    #[test]
    #[should_panic(expected = "already has")]
    fn over_assigning_warps_panics() {
        let program = Arc::new(ProgramBuilder::new().build());
        let mut core = SimtCore::new(CoreConfig::vortex_default(), 0);
        for w in 0..9 {
            core.assign_warp(w, &program);
        }
    }
}
