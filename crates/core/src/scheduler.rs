//! The event scheduler: the one fast-forward engine, owned by a
//! [`crate::jobs::JobTable`] and persisting across its
//! [`crate::jobs::JobTable::advance_until`] calls. [`crate::run::Gpu::run`]
//! drives it too, as a one-job session.
//!
//! Components are identified by dense ids in the naive loop's tick order —
//! id 0 is the DSM fabric, then per cluster slot the devices followed by
//! each core. The calendar is one array, `next_at[id]`: the cycle of each
//! component's next event (`NEVER` while it is parked with none). Each
//! step dispatches the minimum cycle, visiting the components due there in
//! ascending id order, so execution visits components in exactly the
//! reference sequence. A machine has a few dozen components at most, so a
//! linear scan for the minimum is cheaper than keeping a heap ordered.
//! `synced[id]` is the first cycle a component has not yet accounted; the
//! gap up to the dispatched cycle is bulk-replayed (`fast_forward_*`)
//! before the tick, which by the `virgo_sim::activity` contract only
//! contains time-uniform stall/idle accounting.
//!
//! A job's components are registered at its start cycle when it is admitted
//! and dropped when it leaves; cluster slots no job owns are never
//! dispatched. Wakes between components are edge-triggered off monotone
//! signatures:
//!
//! * a barrier release during core `i`'s tick re-dispatches later cores
//!   the same cycle and earlier ones the next cycle (naive timing);
//! * a submission into the devices (`inbox_mark`) wakes the devices next
//!   cycle — they tick before the cores, so a same-cycle wake would run
//!   too early;
//! * an async completion during a devices tick re-dispatches that
//!   cluster's cores the same cycle (they tick after the devices);
//! * new DSM traffic registers the fabric at its next delivery cycle.
//!
//! A wake only ever moves a component's event earlier. Every tick clears
//! the component's entry and re-registers the whole horizon it reports, so
//! an event superseded by an earlier wake never fires on its own.

use virgo_sim::Cycle;

use crate::machine::Machine;
use crate::report::SchedStats;

/// Component id of the DSM fabric.
const FABRIC: usize = 0;

/// `Scheduler::next_at` of a component with no pending event.
const NEVER: u64 = u64::MAX;

/// One resident job's scheduler counters, kept on its lead (lowest) cluster
/// slot so a multi-cluster job counts each processed cycle once.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    stats: SchedStats,
    /// One past the last processed cycle already counted for the job.
    counted_to: u64,
}

impl Tally {
    /// Counts cycle `c` as processed for the job (once) and returns the
    /// counters for the event's attribution.
    fn at(&mut self, c: u64) -> &mut SchedStats {
        if self.counted_to <= c {
            self.counted_to = c + 1;
            self.stats.processed_cycles += 1;
        }
        &mut self.stats
    }
}

/// Dispatch state of the event-driven time advance.
#[derive(Debug)]
pub(crate) struct Scheduler {
    /// Cycle of each component's next event, `NEVER` when it has none.
    next_at: Vec<u64>,
    /// First cycle each component has not yet accounted.
    synced: Vec<u64>,
    cores: usize,
    /// The lead cluster slot of the job owning each slot.
    lead: Vec<usize>,
    /// Per-job counters, indexed by lead slot.
    tally: Vec<Tally>,
    /// Lead slots of the resident jobs, charged for every fabric tick.
    resident: Vec<usize>,
}

impl Scheduler {
    /// An empty scheduler for `clusters` slots of `cores` cores each.
    pub(crate) fn new(clusters: usize, cores: usize) -> Self {
        let total = 1 + clusters * (1 + cores);
        Scheduler {
            next_at: vec![NEVER; total],
            synced: vec![0; total],
            cores,
            lead: vec![0; clusters],
            tally: vec![Tally::default(); clusters],
            resident: Vec::new(),
        }
    }

    /// Component id of cluster slot `k`'s devices; its cores follow.
    fn devices_id(&self, k: usize) -> usize {
        1 + k * (1 + self.cores)
    }

    /// Registers a newly admitted job's components (cluster slots `ids`,
    /// ascending) at each cluster's start cycle. Late-started clusters
    /// (fault windows) and mid-session admissions hold everything in reset
    /// until `start_at`; neither mode accounts the held cycles.
    pub(crate) fn admit(&mut self, machine: &Machine, ids: &[u32]) {
        let lead = ids[0] as usize;
        self.tally[lead] = Tally::default();
        self.resident.push(lead);
        for &k in ids {
            let k = k as usize;
            self.lead[k] = lead;
            let start = machine.clusters[k].start_at();
            let base = self.devices_id(k);
            self.synced[base..=base + self.cores].fill(start);
            self.wake_all(base..=base + self.cores, start);
        }
    }

    /// Drops a departing job's components (cluster slots `ids`, ascending),
    /// first replaying every parked component's tail up to `now` so stall
    /// and idle counters match the naive loop, which ticked everything
    /// through cycle `now - 1`. Returns the job's counters over its
    /// residency from `admitted`.
    pub(crate) fn leave(
        &mut self,
        machine: &mut Machine,
        ids: &[u32],
        admitted: u64,
        now: u64,
    ) -> SchedStats {
        for &k in ids {
            let cluster = &mut machine.clusters[k as usize];
            let base = self.devices_id(k as usize);
            for (off, id) in (base..=base + self.cores).enumerate() {
                let lag = now.saturating_sub(self.synced[id]);
                if lag == 0 {
                    continue;
                }
                let from = Cycle::new(self.synced[id]);
                if off == 0 {
                    cluster.fast_forward_devices(lag);
                } else {
                    cluster.fast_forward_core(off - 1, from, lag);
                }
                self.synced[id] = now;
            }
            self.next_at[base..=base + self.cores].fill(NEVER);
        }
        let lead = ids[0] as usize;
        self.resident.retain(|&l| l != lead);
        if self.resident.is_empty() {
            // The table rebuilds the fabric cold when it empties: forget its
            // pending deliveries too.
            self.next_at[FABRIC] = NEVER;
        }
        let mut stats = self.tally[lead].stats;
        stats.skipped_cycles = (now - admitted).saturating_sub(stats.processed_cycles);
        stats
    }

    /// Makes component `id` due at `t`, or at `at` if that is later (a
    /// component that already ticked this cycle acts next at `c + 1`),
    /// unless it is due earlier already.
    fn wake(&mut self, id: usize, t: u64, at: u64) {
        let t = t.max(at);
        if t < self.next_at[id] {
            self.next_at[id] = t;
        }
    }

    /// Makes components `ids` due at `at` unless they are due earlier.
    fn wake_all(&mut self, ids: std::ops::RangeInclusive<usize>, at: u64) {
        for next in &mut self.next_at[ids] {
            *next = (*next).min(at);
        }
    }

    /// Dispatches events in cycle order up to (not including) `horizon`.
    ///
    /// Returns the session cycle reached: `c + 1` right after a processed
    /// cycle `c` on which `finished` reports some resident job done, or
    /// `horizon` once no event remains before it. The finish walk runs
    /// only on cycles that saw an event able to flip it: a warp retiring, a
    /// device/fabric tick (engines draining), or a core horizon going
    /// dormant.
    pub(crate) fn run(
        &mut self,
        machine: &mut Machine,
        horizon: u64,
        finished: impl Fn(&Machine) -> bool,
    ) -> u64 {
        loop {
            let c = self.next_at.iter().copied().min().unwrap_or(NEVER);
            if c >= horizon {
                return horizon;
            }
            let now = Cycle::new(c);
            let next = c + 1;
            let mut check_finish = false;

            let Machine {
                clusters,
                backend,
                fabric,
            } = &mut *machine;
            if self.next_at[FABRIC] == c {
                self.next_at[FABRIC] = NEVER;
                fabric.tick(now);
                for &lead in &self.resident {
                    self.tally[lead].at(c).dsm_events += 1;
                }
                check_finish = true;
                if let Some(t) = fabric.next_activity(now) {
                    self.wake(FABRIC, t.get(), next);
                }
            }
            for (k, cluster) in clusters.iter_mut().enumerate() {
                let base = self.devices_id(k);
                let last = base + self.cores;
                let lead = self.lead[k];
                if self.next_at[base] == c {
                    self.next_at[base] = NEVER;
                    let lag = c.saturating_sub(self.synced[base]);
                    if lag > 0 {
                        cluster.fast_forward_devices(lag);
                    }
                    let (dma, gemmini, tensor) = cluster.devices().due_engines(now);
                    let stats = self.tally[lead].at(c);
                    stats.dma_events += u64::from(dma);
                    stats.gemmini_events += u64::from(gemmini);
                    stats.tensor_events += u64::from(tensor);
                    let completions = cluster.devices().completion_mark();
                    let in_flight = fabric.in_flight();
                    cluster.tick_devices(now, backend, fabric);
                    self.synced[base] = c + 1;
                    check_finish = true;
                    if cluster.devices().completion_mark() != completions {
                        // The cores tick after the devices: same cycle.
                        self.wake_all(base + 1..=last, c);
                    }
                    if fabric.in_flight() != in_flight {
                        if let Some(t) = fabric.next_activity(now) {
                            self.wake(FABRIC, t.get(), next);
                        }
                    }
                    if let Some(t) = cluster.devices().next_activity(now) {
                        self.wake(base, t.get(), next);
                    }
                }
                for i in 0..self.cores {
                    let id = base + 1 + i;
                    if self.next_at[id] != c {
                        continue;
                    }
                    self.next_at[id] = NEVER;
                    let lag = c.saturating_sub(self.synced[id]);
                    if lag > 0 {
                        cluster.fast_forward_core(i, Cycle::new(self.synced[id]), lag);
                    }
                    self.tally[lead].at(c).simt_events += 1;
                    let releases = cluster.devices().synchronizer.release_events();
                    let inbox = cluster.devices().inbox_mark();
                    let in_flight = fabric.in_flight();
                    let outcome = cluster.tick_core(i, now, backend, fabric);
                    self.synced[id] = c + 1;
                    check_finish |= outcome.warp_retired;
                    if outcome.acted {
                        // Only a real issue or a barrier arrival can change
                        // anything outside the core, so the signature checks
                        // are skipped on all other ticks.
                        if cluster.devices().synchronizer.release_events() != releases {
                            // Later cores see the release this cycle, this
                            // one and earlier ones on the next.
                            self.wake_all(id + 1..=last, c);
                            self.wake_all(base + 1..=id, next);
                        }
                        if cluster.devices().inbox_mark() != inbox {
                            self.wake(base, next, next);
                        }
                        if fabric.in_flight() != in_flight {
                            if let Some(t) = fabric.next_activity(now) {
                                self.wake(FABRIC, t.get(), next);
                            }
                        }
                    }
                    if outcome.retry_next {
                        // A ready warp lost slot arbitration this cycle and
                        // retries next cycle.
                        self.wake(id, next, next);
                    } else {
                        // The tick folded the core's event horizon from the
                        // warp walk it performed anyway — no separate
                        // `next_activity` probe.
                        match outcome.horizon {
                            Some(t) => self.wake(id, t.get(), next),
                            None => check_finish = true,
                        }
                    }
                }
            }
            if check_finish && finished(machine) {
                return c + 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wakes_only_move_an_event_earlier() {
        // Fabric, one devices block and two cores.
        let mut s = Scheduler::new(1, 2);
        s.wake(2, 10, 1);
        s.wake(2, 20, 1);
        assert_eq!(s.next_at[2], 10, "a later wake leaves the earlier event");
        s.wake(2, 0, 5);
        assert_eq!(s.next_at[2], 5, "a wake never lands before `at`");
        s.wake_all(1..=3, 7);
        assert_eq!(s.next_at, [NEVER, 7, 5, 7]);
    }
}
