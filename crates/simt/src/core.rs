//! The SIMT core: warp scheduling, instruction issue, execution pipelines.

use std::sync::Arc;

use virgo_isa::{LaneAccess, Program, WarpOp};
use virgo_sim::{earliest, Cycle};

use crate::config::CoreConfig;
use crate::port::ClusterPort;
use crate::stats::CoreStats;
use crate::warp::{BlockReason, WarpContext};

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
    /// for a [`SimtCore::next_activity`] probe. Hazard-blocked `HmmaStep`
    /// retries are deliberately excluded: those are pure no-ops until the
    /// tensor unit frees, and the probe parks the core at `busy_until`
    /// instead.
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
    /// The core's event horizon after this tick, folded from the per-warp
    /// state the issue scan walks anyway: the earliest in-flight load
    /// completion and the tensor unit's `busy_until` for hazard-parked
    /// `HmmaStep` warps. Follows the [`SimtCore::next_activity`] contract
    /// (`None` = dormant until an external wake; barrier / fence / drain
    /// releases arrive through the driver's cross-component signature
    /// checks). Only meaningful when `retry_next` is false — a guaranteed
    /// next-cycle retry supersedes it — and it spares the driver a separate
    /// post-tick [`SimtCore::next_activity`] probe, which re-walks every
    /// warp.
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

/// One SIMT core of the cluster.
///
/// The core executes the warps assigned to it, issuing up to
/// `issue_width` instructions per cycle subject to functional-unit
/// availability (ALU/FPU/LSU/tensor), the load/store queue capacity, and the
/// blocking semantics of synchronization operations. Everything outside the
/// core — memories, matrix units, DMA, barriers — is reached through the
/// [`ClusterPort`] passed to [`SimtCore::tick`].
#[derive(Debug)]
pub struct SimtCore {
    config: CoreConfig,
    core_id: u32,
    warps: Vec<WarpContext>,
    stats: CoreStats,
    /// Round-robin pointer for warp scheduling fairness.
    next_warp: usize,
    /// Reusable lane-address buffer for [`SimtCore::memory_access`], so the
    /// load/store hot path allocates nothing per instruction.
    lane_scratch: Vec<u64>,
}

impl SimtCore {
    /// Creates a core with no warps assigned.
    pub fn new(config: CoreConfig, core_id: u32) -> Self {
        SimtCore {
            config,
            core_id,
            warps: Vec::new(),
            stats: CoreStats::default(),
            next_warp: 0,
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

    /// True once every assigned warp has finished.
    pub fn all_finished(&self) -> bool {
        self.warps.iter().all(|w| w.is_finished())
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

    /// Advances the core by one cycle.
    ///
    /// The returned [`TickOutcome`] carries cheap liveness hints for the
    /// event-driven driver, computed from work the tick does anyway: whether
    /// a ready warp is guaranteed to retry next cycle (skip the horizon
    /// probe), whether anything outside the core may have changed (skip the
    /// cross-component signature checks), and whether a warp just finished
    /// (the only moment the machine-wide finish check can flip).
    pub fn tick(&mut self, now: Cycle, port: &mut dyn ClusterPort) -> TickOutcome {
        self.stats.total_cycles += 1;
        if self.warps.is_empty() {
            self.stats.idle_cycles += 1;
            return TickOutcome::default();
        }

        let mut outcome = TickOutcome::default();
        self.retire_and_unblock(now, port, &mut outcome);
        self.issue(now, port, &mut outcome);

        if outcome.issued > 0 {
            self.stats.active_cycles += 1;
        } else if self.warps.iter().any(|w| w.is_runnable()) {
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
    ///   The one refined case is an `HmmaStep` retrying against a busy
    ///   tightly-coupled unit: the retries are pure no-ops (no statistics, no
    ///   state change) until the unit's `busy_until`, so such a warp
    ///   contributes that cycle instead of `now`. The window is only skipped
    ///   when *every* runnable warp of the core is hazard-blocked this way,
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
        let core_id = self.core_id;
        let mut next: Option<Cycle> = None;
        for warp in &mut self.warps {
            if warp.is_finished() {
                continue;
            }
            match warp.block_reason() {
                None => {
                    match warp.peek() {
                        // Structural-hazard refinement: an HMMA step retrying
                        // against a busy tightly-coupled unit does nothing
                        // observable until the unit frees.
                        Some(WarpOp::HmmaStep { .. }) => match port.hmma_busy_until(now, core_id) {
                            Some(t) if t > now => next = earliest(next, Some(t)),
                            _ => return Some(now),
                        },
                        Some(_) => return Some(now),
                        None => {}
                    }
                    // Loads still in flight (with the program drained, or
                    // behind a hazard-blocked HMMA step): the warp finishes /
                    // the stall classification can change only when they
                    // retire.
                    next = earliest(next, warp.earliest_load_done().map(|c| c.max(now)));
                }
                Some(BlockReason::Loads) => {
                    if warp.loads_in_flight() == 0 {
                        return Some(now);
                    }
                    next = earliest(next, warp.earliest_load_done().map(|c| c.max(now)));
                }
                Some(BlockReason::Barrier { id, ticket }) => {
                    if port.barrier_passed(id, ticket) {
                        return Some(now);
                    }
                }
                Some(BlockReason::WgmmaDrain) => {
                    if port.wgmma_pending(core_id) == 0 {
                        return Some(now);
                    }
                }
                Some(BlockReason::Fence { max_outstanding }) => {
                    if port.async_outstanding() <= max_outstanding {
                        return Some(now);
                    }
                }
            }
        }
        next
    }

    /// Bulk-replays `cycles` ticks of a quiescent window starting at `from`,
    /// during which no warp can issue, unblock, or retire a load: the caller
    /// parks the core until the [`TickOutcome::horizon`] its last tick
    /// reported, or until another component wakes it.
    ///
    /// Produces statistics bit-identical to ticking the core `cycles` times:
    /// total cycles, the stall/idle classification (which is constant across
    /// the window because no warp's runnability can change), fence wait
    /// cycles, and the rate-limited fence poll instructions.
    pub fn fast_forward(&mut self, from: Cycle, cycles: u64) {
        if cycles == 0 {
            return;
        }
        self.stats.total_cycles += cycles;
        if self.warps.is_empty() {
            self.stats.idle_cycles += cycles;
            return;
        }
        let mut fence_waiting = false;
        let interval = self.config.fence_poll_interval;
        for warp in &mut self.warps {
            if let Some(BlockReason::Fence { .. }) = warp.block_reason() {
                fence_waiting = true;
                self.stats.fence_poll_instrs +=
                    warp.fast_forward_fence_polls(from, cycles, interval);
            }
        }
        if fence_waiting {
            self.stats.fence_wait_cycles += cycles;
        }
        if self.warps.iter().any(WarpContext::is_runnable) {
            self.stats.stall_cycles += cycles;
        } else {
            self.stats.idle_cycles += cycles;
        }
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
        let mut fence_waiting = false;
        for warp in &mut self.warps {
            let retired = warp.retire_loads(now);
            let mut unblocked = false;
            match warp.block_reason() {
                None => {}
                Some(BlockReason::Loads) if warp.loads_in_flight() == 0 => {
                    warp.unblock();
                    unblocked = true;
                }
                Some(BlockReason::Loads) => {}
                Some(BlockReason::Barrier { id, ticket }) if port.barrier_passed(id, ticket) => {
                    warp.unblock();
                    unblocked = true;
                }
                Some(BlockReason::Barrier { .. }) => {}
                Some(BlockReason::WgmmaDrain) if port.wgmma_pending(self.core_id) == 0 => {
                    warp.unblock();
                    unblocked = true;
                }
                Some(BlockReason::WgmmaDrain) => {}
                Some(BlockReason::Fence { max_outstanding }) => {
                    if port.async_outstanding() <= max_outstanding {
                        warp.unblock();
                        unblocked = true;
                    } else {
                        fence_waiting = true;
                        if warp.fence_poll_due(now, self.config.fence_poll_interval) {
                            self.stats.fence_poll_instrs += 1;
                        }
                    }
                }
            }
            if (retired > 0 || unblocked) && warp.is_finished() {
                outcome.warp_retired = true;
            }
        }
        if fence_waiting {
            self.stats.fence_wait_cycles += 1;
        }
    }

    /// Attempts to issue up to `issue_width` instructions; records the issue
    /// count and the driver hints in `outcome`.
    fn issue(&mut self, now: Cycle, port: &mut dyn ClusterPort, outcome: &mut TickOutcome) {
        let mut issued = 0u32;
        let mut alu_slots = self.config.alu_units;
        let mut fpu_slots = self.config.fpu_units;
        let mut lsu_slots = self.config.lsu_width;

        let warp_count = self.warps.len();
        let mut scanned = 0;
        // `next_warp` is always a scan index of this loop, and warps are
        // never removed, so it is in range.
        let mut index = self.next_warp;

        while issued < self.config.issue_width && scanned < warp_count {
            scanned += 1;
            let current = index;
            index += 1;
            if index == warp_count {
                index = 0;
            }

            if !self.warps[current].is_runnable() {
                // Blocked warps still contribute to the event horizon: a
                // load-blocked warp wakes at its earliest completion; barrier
                // / fence / drain releases arrive as external wakes and
                // contribute nothing (see `next_activity`).
                if matches!(self.warps[current].block_reason(), Some(BlockReason::Loads)) {
                    if let Some(t) = self.warps[current].earliest_load_done() {
                        outcome.fold_horizon(t.max(now));
                    }
                }
                continue;
            }
            let Some(op) = self.warps[current].peek() else {
                // Program drained but loads still in flight: the warp can
                // only finish (and flip the stall classification) when they
                // retire.
                if let Some(t) = self.warps[current].earliest_load_done() {
                    outcome.fold_horizon(t.max(now));
                }
                continue;
            };

            match op {
                // Synchronization pseudo-operations: resolved without
                // consuming an issue slot or issue energy.
                WarpOp::WaitLoads => {
                    if self.warps[current].loads_in_flight() == 0 {
                        self.warps[current].consume();
                        outcome.warp_retired |= self.warps[current].is_finished();
                        self.fold_warp_horizon(current, now, port, outcome);
                    } else {
                        self.warps[current].block(BlockReason::Loads);
                        if let Some(t) = self.warps[current].earliest_load_done() {
                            outcome.fold_horizon(t.max(now));
                        }
                    }
                    continue;
                }
                WarpOp::WgmmaWait => {
                    if port.wgmma_pending(self.core_id) == 0 {
                        self.warps[current].consume();
                        outcome.warp_retired |= self.warps[current].is_finished();
                        self.fold_warp_horizon(current, now, port, outcome);
                    } else {
                        self.warps[current].block(BlockReason::WgmmaDrain);
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
                    // Arriving can release the barrier for every waiting core.
                    outcome.acted = true;
                    continue;
                }
                WarpOp::FenceAsync { max_outstanding } => {
                    // The first busy-register poll of the fence is an issued
                    // load instruction; subsequent polls while blocked are
                    // accounted separately as fence_poll_instrs.
                    self.stats.instrs_issued += 1;
                    self.warps[current].consume();
                    if port.async_outstanding() > max_outstanding {
                        self.warps[current].block(BlockReason::Fence { max_outstanding });
                    } else {
                        outcome.warp_retired |= self.warps[current].is_finished();
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
                outcome.warp_retired |= self.warps[current].is_finished();
                self.fold_warp_horizon(current, now, port, outcome);
                self.account_issue(&op);
                issued += 1;
                self.next_warp = index;
            } else if !matches!(op, WarpOp::HmmaStep { .. }) {
                // Slot/LSQ/inbox contention retries every cycle, so the core
                // is guaranteed active next cycle. Hazard-blocked HMMA steps
                // are excluded: they are no-ops until the tensor unit frees,
                // so the warp parks at its `busy_until` instead.
                outcome.retry_next = true;
            } else {
                match port.hmma_busy_until(now, self.core_id) {
                    Some(t) if t > now => outcome.fold_horizon(t),
                    _ => outcome.retry_next = true,
                }
                if let Some(t) = self.warps[current].earliest_load_done() {
                    outcome.fold_horizon(t.max(now));
                }
            }
        }
        // Stopping at the issue-width cap may leave ready warps unscanned.
        if issued == self.config.issue_width && scanned < warp_count {
            outcome.retry_next = true;
        }
        outcome.issued = issued;
        outcome.acted |= issued > 0;
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

    /// Folds warp `current`'s post-scan contribution into `outcome`'s event
    /// horizon, mirroring the [`SimtCore::next_activity`] arms for an
    /// unblocked warp: a pending non-`HmmaStep` op means the warp acts next
    /// cycle (`retry_next`), a pending `HmmaStep` parks at the tensor unit's
    /// `busy_until`, and in-flight loads contribute their earliest
    /// completion.
    fn fold_warp_horizon(
        &mut self,
        current: usize,
        now: Cycle,
        port: &mut dyn ClusterPort,
        outcome: &mut TickOutcome,
    ) {
        match self.warps[current].peek() {
            Some(WarpOp::HmmaStep { .. }) => match port.hmma_busy_until(now, self.core_id) {
                Some(t) if t > now => outcome.fold_horizon(t),
                _ => outcome.retry_next = true,
            },
            Some(_) => outcome.retry_next = true,
            None => {}
        }
        if let Some(t) = self.warps[current].earliest_load_done() {
            outcome.fold_horizon(t.max(now));
        }
    }

    /// Updates per-instruction statistics after a successful issue.
    fn account_issue(&mut self, op: &WarpOp) {
        self.stats.instrs_issued += 1;
        if self
            .stats
            .instrs_issued
            .is_multiple_of(u64::from(self.config.instrs_per_icache_access.max(1)))
        {
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

    /// A permissive test double for the cluster services.
    #[derive(Debug, Default)]
    struct FakePort {
        shared_calls: u32,
        global_calls: u32,
        hmma_calls: u32,
        hmma_busy: bool,
        hmma_free_at: Option<Cycle>,
        wgmma_calls: u32,
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
            self.wgmma_calls += 1;
            true
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
        let op = WgmmaOp {
            a: AddrExpr::fixed(0),
            b: AddrExpr::fixed(0x800),
            m: 16,
            n: 16,
            k: 32,
            dtype: virgo_isa::DataType::Fp16,
        };
        let mut core = core_with_program(|b| {
            b.op(WarpOp::WgmmaInit(op));
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
        assert_eq!(s.total_cycles, 2);
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
