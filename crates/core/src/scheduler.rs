//! The event-queue scheduler: the one fast-forward engine, owned by a
//! [`crate::jobs::JobTable`] and persisting across its
//! [`crate::jobs::JobTable::advance_until`] calls. [`crate::run::Gpu::run`]
//! drives it too, as a one-job session.
//!
//! Components are identified by dense ids in the naive loop's tick order —
//! id 0 is the DSM fabric, then per cluster slot the devices followed by
//! each core — and all components due at a cycle are processed in ascending
//! id order, so execution visits components in exactly the reference
//! sequence. `synced[id]` is the first cycle a component has not yet
//! accounted; the gap up to the dispatched cycle is bulk-replayed
//! (`fast_forward_*`) before the tick, which by the `virgo_sim::activity`
//! contract only contains time-uniform stall/idle accounting.
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

use virgo_sim::{Cycle, EventQueue, NextActivity};

use crate::machine::Machine;
use crate::report::SchedStats;

/// Component id of the DSM fabric.
const FABRIC: usize = 0;

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
    queue: EventQueue,
    /// First cycle each component has not yet accounted.
    synced: Vec<u64>,
    due: Vec<bool>,
    /// Fast path for the overwhelmingly common "due again next cycle" case:
    /// a bool per component instead of a heap round-trip. Invariant:
    /// `due_next` marks components due at cycle `resume_at`.
    due_next: Vec<bool>,
    any_next: bool,
    /// First cycle not yet dispatched.
    resume_at: u64,
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
            queue: EventQueue::new(total),
            synced: vec![0; total],
            due: vec![false; total],
            due_next: vec![false; total],
            any_next: false,
            resume_at: 0,
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
            for id in base..=base + self.cores {
                self.synced[id] = start;
                self.queue.schedule(id as u32, Cycle::new(start));
            }
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
                    cluster.fast_forward_devices(from, lag);
                } else {
                    cluster.fast_forward_core(off - 1, from, lag);
                }
                self.synced[id] = now;
            }
            self.due_next[base..=base + self.cores].fill(false);
        }
        let span = 1 + self.cores as u32;
        self.queue
            .cancel(|id| id != FABRIC as u32 && ids.contains(&((id - 1) / span)));
        let lead = ids[0] as usize;
        self.resident.retain(|&l| l != lead);
        if self.resident.is_empty() {
            // The table rebuilds the fabric cold when it empties: forget its
            // pending deliveries too.
            self.queue.clear();
            self.due_next.fill(false);
        }
        self.any_next = self.due_next.contains(&true);
        let mut stats = self.tally[lead].stats;
        stats.skipped_cycles = (now - admitted).saturating_sub(stats.processed_cycles);
        stats
    }

    /// Marks component `id`, whose next event is at `t`, due: on the
    /// `due_next` fast path when that is the next cycle, on the heap
    /// otherwise.
    fn wake(&mut self, id: usize, t: Cycle, next: Cycle) {
        if t <= next {
            self.due_next[id] = true;
            self.any_next = true;
        } else {
            self.queue.schedule(id as u32, t);
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
        let mut due = std::mem::take(&mut self.due);
        let reached = loop {
            let next_c = if self.any_next {
                Some(self.resume_at)
            } else {
                self.queue.next_cycle()
            };
            let c = match next_c {
                Some(c) if c < horizon => c,
                _ => break horizon,
            };
            // `due_next` (marks for this cycle) becomes `due`; the recycled
            // buffer is cleared for the upcoming cycle's marks. Heap events
            // landing on the same cycle are merged in.
            std::mem::swap(&mut due, &mut self.due_next);
            self.due_next.fill(false);
            self.any_next = false;
            if self.queue.next_cycle() == Some(c) {
                self.queue.pop_due(c, &mut due);
            }
            self.resume_at = c + 1;
            let now = Cycle::new(c);
            let next = Cycle::new(c + 1);
            let mut check_finish = false;

            let Machine {
                clusters,
                backend,
                fabric,
            } = &mut *machine;
            if due[FABRIC] {
                fabric.tick(now);
                for &lead in &self.resident {
                    self.tally[lead].at(c).dsm_events += 1;
                }
                check_finish = true;
                if let Some(t) = fabric.next_activity(now) {
                    self.wake(FABRIC, t, next);
                }
            }
            for (k, cluster) in clusters.iter_mut().enumerate() {
                let base = self.devices_id(k);
                let lead = self.lead[k];
                if due[base] {
                    let lag = c.saturating_sub(self.synced[base]);
                    if lag > 0 {
                        cluster.fast_forward_devices(Cycle::new(self.synced[base]), lag);
                    }
                    let (dma, gemmini, tensor) = cluster.due_engines(now);
                    let stats = self.tally[lead].at(c);
                    stats.dma_events += u64::from(dma);
                    stats.gemmini_events += u64::from(gemmini);
                    stats.tensor_events += u64::from(tensor);
                    let completions = cluster.completion_mark();
                    let transfers = fabric.stats().transfers;
                    cluster.tick_devices(now, backend, fabric);
                    self.synced[base] = c + 1;
                    check_finish = true;
                    if cluster.completion_mark() != completions {
                        due[base + 1..=base + self.cores].fill(true);
                    }
                    if fabric.stats().transfers != transfers {
                        if let Some(t) = fabric.next_activity(now) {
                            self.wake(FABRIC, t, next);
                        }
                    }
                    if let Some(t) = cluster.devices_next_activity(now) {
                        self.wake(base, t, next);
                    }
                }
                for i in 0..self.cores {
                    let id = base + 1 + i;
                    if !due[id] {
                        continue;
                    }
                    let lag = c.saturating_sub(self.synced[id]);
                    if lag > 0 {
                        cluster.fast_forward_core(i, Cycle::new(self.synced[id]), lag);
                    }
                    self.tally[lead].at(c).simt_events += 1;
                    let releases = cluster.barrier_release_events();
                    let inbox = cluster.inbox_mark();
                    let transfers = fabric.stats().transfers;
                    let outcome = cluster.tick_core(i, now, backend, fabric);
                    self.synced[id] = c + 1;
                    check_finish |= outcome.warp_retired;
                    if outcome.acted {
                        // Only a real issue or a barrier arrival can change
                        // anything outside the core, so the signature checks
                        // are skipped on all other ticks.
                        if cluster.barrier_release_events() != releases {
                            due[id + 1..=base + self.cores].fill(true);
                            self.due_next[base + 1..=id].fill(true);
                            self.any_next = true;
                        }
                        if cluster.inbox_mark() != inbox {
                            self.due_next[base] = true;
                            self.any_next = true;
                        }
                        if fabric.stats().transfers != transfers {
                            if let Some(t) = fabric.next_activity(now) {
                                self.wake(FABRIC, t, next);
                            }
                        }
                    }
                    if outcome.retry_next {
                        // A ready warp lost slot arbitration this cycle and
                        // retries next cycle.
                        self.due_next[id] = true;
                        self.any_next = true;
                    } else {
                        // The tick folded the core's event horizon from the
                        // warp walk it performed anyway — no separate
                        // `next_activity` probe.
                        match outcome.horizon {
                            Some(t) => self.wake(id, t, next),
                            None => check_finish = true,
                        }
                    }
                }
            }
            if check_finish && finished(machine) {
                break c + 1;
            }
        };
        self.due = due;
        reached
    }
}
