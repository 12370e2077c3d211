//! Multi-job residency: a table of concurrently-resident kernels, each bound
//! to a disjoint cluster subset of one shared machine.
//!
//! A [`JobTable`] is a *session*: the machine stays up, jobs are admitted
//! onto free cluster slots while others are still running, and every job
//! retires with its own [`SimReport`] sliced out of the shared components'
//! per-cluster counters ([`virgo_mem::MemoryBackend::per_cluster_stats`],
//! [`virgo_mem::DsmFabric::per_cluster_stats`]) over its residency window.
//! Cross-job contention on the
//! shared L2/DRAM back-end is modelled for free: resident jobs issue into
//! the same [`virgo_mem::MemoryBackend`], so one tenant's DRAM traffic
//! lengthens another's latency exactly as on real hardware.
//!
//! The session is the simulator's only time-advance loop:
//! [`crate::run::Gpu::run`] is a one-job session that admits its kernel
//! onto every cluster at cycle 0 and advances it to completion.
//!
//! # Equivalence guarantees
//!
//! * **Single job ≡ standalone.** A job admitted at cycle 0 onto every
//!   cluster of an otherwise-idle table produces the byte-identical
//!   [`SimReport`] (scheduler counters included) that
//!   [`crate::run::Gpu::run`] of the same kernel does. The naive loop's
//!   idle-slot clusters hold the empty kernel, whose ticks touch nothing
//!   shared.
//! * **Sequential ≡ standalone.** When the table goes fully idle the shared
//!   back-end and fabric are rebuilt cold, so the i-th job of a back-to-back
//!   sequence sees exactly the cold caches of an i-th standalone run. All
//!   component timing is relative to request start (`busy_until`
//!   arithmetic), so the admission offset shifts nothing.
//! * **Naive ≡ fast-forward.** Under [`SimMode::FastForward`] the
//!   event-queue scheduler ticks each component (the fabric, each resident
//!   cluster's devices and cores) only on the cycles it can act, and
//!   bulk-replays a parked component's time-uniform accounting right before
//!   its next tick (the `virgo_sim::activity` soundness contract). A job
//!   parked in a long DMA or fence wait is jumped over even while other
//!   jobs keep the machine busy. Its jumps stop at the caller's target,
//!   at every resident deadline and at every pending half-budget watchdog
//!   checkpoint, so retirements, timeouts and verdicts land on the cycles
//!   the naive loop produces.

use virgo_isa::{Kernel, KernelInfo};
use virgo_mem::{ClusterContentionStats, ClusterDsmStats};
use virgo_sim::{Counters, Cycle};

use crate::config::GpuConfig;
use crate::machine::Machine;
use crate::report::{JobView, SchedStats, SimReport};
use crate::run::{SimError, SimMode, WatchdogVerdict};
use crate::scheduler::Scheduler;

/// Identifier of a job admitted to a [`JobTable`], unique within the session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(u64);

impl JobId {
    /// The raw session-unique index (admission order).
    pub fn get(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job{}", self.0)
    }
}

/// A retired (or timed-out) job, handed back by [`JobTable::advance_until`]
/// at the exact cycle the job left the machine.
#[derive(Debug)]
pub struct JobCompletion {
    /// The job's session-unique id.
    pub id: JobId,
    /// The name given at admission (e.g. `"tenant-a/req3"`).
    pub name: String,
    /// The cluster slots the job owned, in ascending order.
    pub clusters: Vec<u32>,
    /// Absolute session cycle the job was admitted.
    pub admitted: u64,
    /// Absolute session cycle the job retired or timed out.
    pub retired: u64,
    /// The job's report, or [`SimError::Timeout`] with a diagnosis naming
    /// this job if its cycle budget ran out.
    pub result: Result<SimReport, SimError>,
}

impl JobCompletion {
    /// The job's residency duration in cycles.
    pub fn residency(&self) -> u64 {
        self.retired - self.admitted
    }
}

/// One resident job: a kernel bound to its cluster subset, plus the
/// admission-time snapshots its retirement report is sliced against.
#[derive(Debug)]
struct ResidentJob {
    id: JobId,
    name: String,
    info: KernelInfo,
    clusters: Vec<u32>,
    admitted: u64,
    budget: u64,
    backend_base: Vec<ClusterContentionStats>,
    fabric_base: Vec<ClusterDsmStats>,
    /// Instructions retired on the job's clusters at its half-budget
    /// checkpoint — the livelock detector.
    watchdog_sample: Option<u64>,
}

impl ResidentJob {
    fn deadline(&self) -> u64 {
        self.admitted.saturating_add(self.budget)
    }

    fn watchdog_at(&self) -> u64 {
        self.admitted + self.budget / 2
    }
}

/// A session of concurrently-resident jobs scheduled onto disjoint cluster
/// subsets of one machine.
///
/// ```
/// use virgo::{GpuConfig, JobTable, SimMode};
/// use virgo_isa::{DataType, Kernel, KernelInfo, ProgramBuilder, WarpAssignment, WarpOp};
/// use std::sync::Arc;
///
/// let mut b = ProgramBuilder::new();
/// b.op_n(8, WarpOp::Alu { rf_reads: 2, rf_writes: 1 });
/// let program = Arc::new(b.build());
/// let kernel = Kernel::new(
///     KernelInfo::new("req", 0, DataType::Fp16),
///     vec![WarpAssignment::on_cluster(1, 0, 0, program)],
/// );
///
/// let config = GpuConfig::virgo().with_clusters(2);
/// let mut table = JobTable::new(config, SimMode::FastForward);
/// let id = table.admit("tenant-a/req0", &kernel, &[1], 10_000).unwrap();
/// let done = table.advance_until(10_000);
/// assert_eq!(done.len(), 1);
/// assert_eq!(done[0].id, id);
/// let report = done[0].result.as_ref().unwrap();
/// assert_eq!(report.instructions_retired(), 8);
/// ```
#[derive(Debug)]
pub struct JobTable {
    config: GpuConfig,
    mode: SimMode,
    machine: Machine,
    jobs: Vec<ResidentJob>,
    /// Slot ownership, indexed by cluster id.
    occupied: Vec<bool>,
    now: u64,
    next_id: u64,
    /// The event-queue scheduler under [`SimMode::FastForward`]; `None`
    /// under [`SimMode::Naive`], which ticks the whole machine every cycle.
    sched: Option<Scheduler>,
}

impl JobTable {
    /// Creates an idle session: every cluster slot free, shared back-end and
    /// fabric cold, clock at zero.
    pub fn new(config: GpuConfig, mode: SimMode) -> Self {
        let machine = Machine::idle(&config);
        let slots = config.clusters.max(1) as usize;
        let sched =
            (mode == SimMode::FastForward).then(|| Scheduler::new(slots, config.cores as usize));
        JobTable {
            config,
            mode,
            machine,
            jobs: Vec::new(),
            occupied: vec![false; slots],
            now: 0,
            next_id: 0,
            sched,
        }
    }

    /// The session configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.config
    }

    /// The time-advance mode the session runs under.
    pub fn mode(&self) -> SimMode {
        self.mode
    }

    /// The current session cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Number of jobs currently resident.
    pub fn resident(&self) -> usize {
        self.jobs.len()
    }

    /// True when no job is resident.
    pub fn is_idle(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Cluster slots no resident job owns, in ascending order.
    pub fn free_clusters(&self) -> Vec<u32> {
        self.occupied
            .iter()
            .enumerate()
            .filter(|(_, &taken)| !taken)
            .map(|(id, _)| id as u32)
            .collect()
    }

    /// Admits `kernel` onto the cluster slots in `clusters` with a residency
    /// budget of `budget` cycles, effective at the current session cycle.
    ///
    /// # Errors
    ///
    /// [`SimError::EmptyKernel`] if the kernel has no warps,
    /// [`SimError::ClusterOutOfRange`] if a requested slot does not exist,
    /// and [`SimError::ClusterBusy`] if a requested slot is owned by another
    /// resident job, requested twice, or the kernel assigns warps outside
    /// the requested subset.
    pub fn admit(
        &mut self,
        name: &str,
        kernel: &Kernel,
        clusters: &[u32],
        budget: u64,
    ) -> Result<JobId, SimError> {
        if kernel.warps.is_empty() {
            return Err(SimError::EmptyKernel);
        }
        let slots = self.occupied.len() as u32;
        let mut requested = vec![false; self.occupied.len()];
        for &id in clusters {
            if id >= slots {
                return Err(SimError::ClusterOutOfRange {
                    max_cluster: id,
                    clusters: slots,
                });
            }
            if self.occupied[id as usize] || requested[id as usize] {
                return Err(SimError::ClusterBusy { cluster: id });
            }
            requested[id as usize] = true;
        }
        if let Some(w) = kernel
            .warps
            .iter()
            .find(|w| w.cluster >= slots || !requested[w.cluster as usize])
        {
            return Err(SimError::ClusterBusy { cluster: w.cluster });
        }

        let mut owned: Vec<u32> = clusters.to_vec();
        owned.sort_unstable();
        self.machine.load(&self.config, kernel, &owned, self.now);
        if let Some(sched) = &mut self.sched {
            sched.admit(&self.machine, &owned);
        }
        for &id in &owned {
            self.occupied[id as usize] = true;
        }
        let id = JobId(self.next_id);
        self.next_id += 1;
        self.jobs.push(ResidentJob {
            id,
            name: name.to_string(),
            info: kernel.info.clone(),
            clusters: owned,
            admitted: self.now,
            budget,
            backend_base: self.machine.backend.per_cluster_stats().to_vec(),
            fabric_base: self.machine.fabric.per_cluster_stats().to_vec(),
            watchdog_sample: None,
        });
        Ok(id)
    }

    /// Advances the session clock toward `target`, returning as soon as any
    /// jobs complete (retire or time out) — at the exact cycle they left the
    /// machine, so the caller can admit follow-on work at that same cycle —
    /// or with an empty vector once the clock reaches `target`.
    ///
    /// At each cycle finished jobs retire *before* the tick (a job finishing
    /// at cycle `c` reports `c - admitted` cycles, exactly the standalone
    /// count), then expired budgets time out, then the machine advances:
    /// one tick of every component under [`SimMode::Naive`], the
    /// event-queue scheduler under [`SimMode::FastForward`].
    pub fn advance_until(&mut self, target: u64) -> Vec<JobCompletion> {
        loop {
            let done = self.retire_finished();
            if !done.is_empty() {
                return done;
            }
            if self.now >= target {
                return Vec::new();
            }
            if self.jobs.is_empty() {
                // An idle machine's ticks are no-ops on every counter that
                // can ever be observed again: skip straight to the target in
                // both modes.
                self.now = target;
                return Vec::new();
            }
            self.sample_watchdogs();
            let expired = self.expire_timeouts();
            if !expired.is_empty() {
                return expired;
            }
            let Some(sched) = &mut self.sched else {
                self.machine.tick(Cycle::new(self.now));
                self.now += 1;
                continue;
            };
            // Deadlines and watchdog checkpoints are handled here, between
            // scheduler runs, so no jump may cross one.
            let horizon = self.jobs.iter().fold(target, |h, job| {
                let h = h.min(job.deadline());
                match job.watchdog_sample {
                    None => h.min(job.watchdog_at()),
                    Some(_) => h,
                }
            });
            let jobs = &self.jobs;
            self.now = sched.run(&mut self.machine, horizon, |machine| {
                jobs.iter().any(|job| machine.finished_on(&job.clusters))
            });
        }
    }

    /// Takes the half-budget retirement checkpoint for any job that reached
    /// it (the scheduler never jumps past a pending checkpoint).
    fn sample_watchdogs(&mut self) {
        for job in &mut self.jobs {
            if job.watchdog_sample.is_none() && self.now >= job.watchdog_at() {
                job.watchdog_sample = Some(self.machine.retired_on(&job.clusters));
            }
        }
    }

    /// Retires every job whose clusters have finished, building its report
    /// from its residency-window counter deltas before the slots are
    /// returned to idle.
    fn retire_finished(&mut self) -> Vec<JobCompletion> {
        let mut done = Vec::new();
        let mut i = 0;
        while i < self.jobs.len() {
            if self.machine.finished_on(&self.jobs[i].clusters) {
                let job = self.jobs.remove(i);
                let sched = self.leave(&job);
                let report = self.job_report(&job, sched);
                self.release(&job.clusters);
                done.push(JobCompletion {
                    id: job.id,
                    name: job.name,
                    clusters: job.clusters,
                    admitted: job.admitted,
                    retired: self.now,
                    result: Ok(report),
                });
            } else {
                i += 1;
            }
        }
        done
    }

    /// Times out every job whose budget has elapsed, with the deadlock /
    /// livelock / slow-progress verdict probed over the job's own clusters
    /// and the diagnosis naming the job.
    fn expire_timeouts(&mut self) -> Vec<JobCompletion> {
        let mut done = Vec::new();
        let mut i = 0;
        while i < self.jobs.len() {
            if self.now >= self.jobs[i].deadline() {
                let job = self.jobs.remove(i);
                self.leave(&job);
                let verdict = if self
                    .machine
                    .next_activity_on(&job.clusters, Cycle::new(self.now))
                    .is_none()
                {
                    WatchdogVerdict::Deadlock
                } else {
                    match job.watchdog_sample {
                        Some(sample) if self.machine.retired_on(&job.clusters) == sample => {
                            WatchdogVerdict::Livelock
                        }
                        _ => WatchdogVerdict::SlowProgress,
                    }
                };
                let diagnosis = self.machine.timeout_diagnosis_on(
                    &job.clusters,
                    &job.name,
                    verdict,
                    self.config.faults.active_at(self.now),
                );
                self.release(&job.clusters);
                done.push(JobCompletion {
                    id: job.id,
                    name: job.name,
                    clusters: job.clusters,
                    admitted: job.admitted,
                    retired: self.now,
                    result: Err(SimError::Timeout {
                        limit: job.budget,
                        diagnosis,
                    }),
                });
            } else {
                i += 1;
            }
        }
        done
    }

    /// Drops a departing job's components from the scheduler, accounting
    /// their parked tails up to now, and returns the job's scheduler
    /// counters (all zero under [`SimMode::Naive`]).
    fn leave(&mut self, job: &ResidentJob) -> SchedStats {
        match &mut self.sched {
            Some(sched) => sched.leave(&mut self.machine, &job.clusters, job.admitted, self.now),
            None => SchedStats::default(),
        }
    }

    /// Returns a departed job's slots to idle, rebuilding the shared
    /// back-end cold when the whole table empties — the sequential ≡
    /// standalone guarantee.
    fn release(&mut self, clusters: &[u32]) {
        for &id in clusters {
            self.occupied[id as usize] = false;
        }
        self.machine.unload(&self.config, clusters, self.now);
        if self.jobs.is_empty() {
            self.machine.reset_shared(&self.config);
        }
    }

    /// Builds a job's report from its residency window: its cluster slots
    /// plus the shared-counter deltas since admission.
    fn job_report(&self, job: &ResidentJob, sched: SchedStats) -> SimReport {
        let machine = &self.machine;
        let view = JobView {
            clusters: job
                .clusters
                .iter()
                .map(|&id| &machine.clusters[id as usize])
                .collect(),
            contention: machine
                .backend
                .per_cluster_stats()
                .to_vec()
                .since(&job.backend_base),
            dsm: machine
                .fabric
                .per_cluster_stats()
                .to_vec()
                .since(&job.fabric_base),
            admitted: job.admitted,
            end: self.now,
        };
        SimReport::from_parts(&view, &job.info, Cycle::new(self.now - job.admitted), sched)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GpuConfig;
    use crate::run::Gpu;
    use std::sync::Arc;
    use virgo_isa::{DataType, ProgramBuilder, WarpAssignment, WarpOp};
    use virgo_mem::DsmConfig;
    use virgo_sim::{FaultKind, FaultPlan, SplitMix64};

    /// A two-cluster kernel with mixed-length ALU streams and a per-cluster
    /// barrier, so the two clusters finish at different times.
    fn two_cluster_kernel() -> Kernel {
        let mut warps = Vec::new();
        for cluster in 0..2u32 {
            for warp in 0..2u32 {
                let mut b = ProgramBuilder::new();
                b.op_n(
                    16 + 16 * cluster + 4 * warp,
                    WarpOp::Alu {
                        rf_reads: 2,
                        rf_writes: 1,
                    },
                );
                b.op(WarpOp::Barrier { id: 0 });
                warps.push(WarpAssignment::on_cluster(
                    cluster,
                    0,
                    warp,
                    Arc::new(b.build()),
                ));
            }
        }
        Kernel::new(KernelInfo::new("two", 0, DataType::Fp16), warps)
    }

    fn one_cluster_kernel(cluster: u32, ops: u32) -> Kernel {
        let mut b = ProgramBuilder::new();
        b.op_n(
            ops,
            WarpOp::Alu {
                rf_reads: 2,
                rf_writes: 1,
            },
        );
        Kernel::new(
            KernelInfo::new("one", 0, DataType::Fp16),
            vec![WarpAssignment::on_cluster(
                cluster,
                0,
                0,
                Arc::new(b.build()),
            )],
        )
    }

    fn assert_reports_match(session: &SimReport, standalone: &SimReport) {
        assert_eq!(session.cycles(), standalone.cycles());
        assert_eq!(
            session.instructions_retired(),
            standalone.instructions_retired()
        );
        assert_eq!(
            session.total_energy_mj().to_bits(),
            standalone.total_energy_mj().to_bits(),
        );
        assert_eq!(session.per_cluster().len(), standalone.per_cluster().len());
        for (s, r) in session.per_cluster().iter().zip(standalone.per_cluster()) {
            assert_eq!(s.cluster, r.cluster);
            assert_eq!(s.core_stats, r.core_stats);
            assert_eq!(s.contention, r.contention);
            assert_eq!(s.energy_mj.to_bits(), r.energy_mj.to_bits());
        }
    }

    #[test]
    fn full_machine_job_matches_standalone_in_both_modes() {
        let config = GpuConfig::virgo().with_clusters(2);
        let kernel = two_cluster_kernel();
        for mode in [SimMode::Naive, SimMode::FastForward] {
            let standalone = Gpu::new(config.clone())
                .run_with_mode(&kernel, 100_000, mode)
                .unwrap();
            let mut table = JobTable::new(config.clone(), mode);
            table.admit("solo", &kernel, &[0, 1], 100_000).unwrap();
            let done = table.advance_until(100_000);
            assert_eq!(done.len(), 1, "{mode}");
            let session = done[0].result.as_ref().unwrap();
            assert_reports_match(session, &standalone);
        }
    }

    #[test]
    fn sequential_jobs_each_match_standalone() {
        // Back-to-back full-machine jobs: the table resets the shared
        // back-end between them, so every report matches a cold standalone
        // run even though the session clock keeps counting.
        let config = GpuConfig::virgo().with_clusters(2);
        let kernel = two_cluster_kernel();
        let standalone = Gpu::new(config.clone()).run(&kernel, 100_000).unwrap();
        let mut table = JobTable::new(config.clone(), SimMode::FastForward);
        for round in 0..3 {
            table
                .admit(&format!("round{round}"), &kernel, &[0, 1], 100_000)
                .unwrap();
            let done = table.advance_until(u64::MAX);
            assert_eq!(done.len(), 1);
            assert_eq!(done[0].admitted, table.now() - standalone.cycles().get());
            assert_reports_match(done[0].result.as_ref().unwrap(), &standalone);
        }
        assert!(table.is_idle());
    }

    #[test]
    fn concurrent_disjoint_jobs_agree_across_modes() {
        let config = GpuConfig::virgo().with_clusters(2);
        let mut per_mode = Vec::new();
        for mode in [SimMode::Naive, SimMode::FastForward] {
            let mut table = JobTable::new(config.clone(), mode);
            table
                .admit("a", &one_cluster_kernel(0, 40), &[0], 100_000)
                .unwrap();
            table
                .admit("b", &one_cluster_kernel(1, 90), &[1], 100_000)
                .unwrap();
            let mut done = Vec::new();
            while !table.is_idle() {
                done.extend(table.advance_until(u64::MAX));
            }
            done.sort_by_key(|c| c.id);
            assert_eq!(done.len(), 2);
            // The short job frees its cluster while the long one runs on.
            assert!(done[0].retired < done[1].retired, "{mode}");
            per_mode.push(
                done.iter()
                    .map(|c| {
                        let r = c.result.as_ref().unwrap();
                        (
                            c.retired,
                            r.cycles().get(),
                            r.instructions_retired(),
                            r.total_energy_mj().to_bits(),
                        )
                    })
                    .collect::<Vec<_>>(),
            );
        }
        assert_eq!(per_mode[0], per_mode[1]);
    }

    #[test]
    fn admission_is_validated() {
        let config = GpuConfig::virgo().with_clusters(2);
        let mut table = JobTable::new(config, SimMode::FastForward);
        let empty = Kernel::new(KernelInfo::new("none", 0, DataType::Fp16), Vec::new());
        assert_eq!(
            table.admit("e", &empty, &[0], 100).unwrap_err(),
            SimError::EmptyKernel
        );
        let k0 = one_cluster_kernel(0, 4);
        assert_eq!(
            table.admit("far", &k0, &[7], 100).unwrap_err(),
            SimError::ClusterOutOfRange {
                max_cluster: 7,
                clusters: 2
            }
        );
        assert_eq!(
            table.admit("dup", &k0, &[0, 0], 100).unwrap_err(),
            SimError::ClusterBusy { cluster: 0 }
        );
        // Warps outside the requested subset are rejected.
        assert_eq!(
            table.admit("stray", &k0, &[1], 100).unwrap_err(),
            SimError::ClusterBusy { cluster: 0 }
        );
        table.admit("ok", &k0, &[0], 100_000).unwrap();
        assert_eq!(table.free_clusters(), vec![1]);
        assert_eq!(
            table
                .admit("conflict", &one_cluster_kernel(0, 4), &[0], 100)
                .unwrap_err(),
            SimError::ClusterBusy { cluster: 0 }
        );
    }

    #[test]
    fn timed_out_job_is_diagnosed_and_evicted() {
        // A lone warp at a two-participant barrier deadlocks on cluster 1
        // while an honest job runs on cluster 0.
        let mut b = ProgramBuilder::new();
        b.op(WarpOp::Barrier { id: 0 });
        let stuck = Kernel::new(
            KernelInfo::new("stuck", 0, DataType::Fp16),
            vec![
                WarpAssignment::on_cluster(1, 0, 0, Arc::new(b.build())),
                WarpAssignment::on_cluster(1, 0, 1, Arc::new(ProgramBuilder::new().build())),
            ],
        );
        let config = GpuConfig::virgo().with_clusters(2);
        for mode in [SimMode::Naive, SimMode::FastForward] {
            let mut table = JobTable::new(config.clone(), mode);
            table
                .admit("good", &one_cluster_kernel(0, 32), &[0], 100_000)
                .unwrap();
            table.admit("tenant-b/req1", &stuck, &[1], 2_000).unwrap();
            let mut done = Vec::new();
            while !table.is_idle() {
                done.extend(table.advance_until(u64::MAX));
            }
            done.sort_by_key(|c| c.id);
            assert!(done[0].result.is_ok(), "{mode}");
            let Err(SimError::Timeout { limit, diagnosis }) = &done[1].result else {
                panic!("expected a timeout in {mode}");
            };
            assert_eq!(*limit, 2_000, "{mode}");
            assert_eq!(done[1].retired - done[1].admitted, 2_000, "{mode}");
            assert_eq!(diagnosis.verdict, WatchdogVerdict::Deadlock, "{mode}");
            assert_eq!(diagnosis.job.as_deref(), Some("tenant-b/req1"), "{mode}");
            assert_eq!(diagnosis.warps.len(), 1, "{mode}");
            assert_eq!(diagnosis.warps[0].cluster, 1, "{mode}");
            // The slot is reusable after eviction.
            assert_eq!(table.free_clusters(), vec![0, 1], "{mode}");
        }
    }

    #[test]
    fn job_parked_in_a_dma_wait_is_jumped_while_another_runs() {
        // Job A programs one long DRAM-to-shared DMA tile and fences on it;
        // job B, admitted while A is parked, keeps its own cluster busy
        // issuing every cycle.
        let mut b = ProgramBuilder::new();
        b.op(WarpOp::MmioWrite {
            device: virgo_isa::DeviceId::DMA0,
            cmd: virgo_isa::MmioCommand::DmaCopy(virgo_isa::DmaCopyCmd::new(
                virgo_isa::MemLoc::global(0u64),
                virgo_isa::MemLoc::shared(0u64),
                256 * 1024,
            )),
        });
        b.op(WarpOp::FenceAsync { max_outstanding: 0 });
        let parked = Kernel::new(
            KernelInfo::new("parked", 0, DataType::Fp16),
            vec![WarpAssignment::on_cluster(0, 0, 0, Arc::new(b.build()))],
        );
        let config = GpuConfig::virgo().with_clusters(2);
        let mut per_mode = Vec::new();
        for mode in [SimMode::Naive, SimMode::FastForward] {
            let mut table = JobTable::new(config.clone(), mode);
            table.admit("a", &parked, &[0], 10_000_000).unwrap();
            assert!(table.advance_until(500).is_empty(), "{mode}");
            table
                .admit("b", &one_cluster_kernel(1, 2_000), &[1], 10_000_000)
                .unwrap();
            let mut done = Vec::new();
            while !table.is_idle() {
                done.extend(table.advance_until(u64::MAX));
            }
            done.sort_by_key(|c| c.id);
            // B's compute finishes inside A's DMA wait.
            assert!(done[1].retired < done[0].retired, "{mode}");
            let sched: Vec<SchedStats> = done
                .iter()
                .map(|c| *c.result.as_ref().unwrap().sched_stats())
                .collect();
            match mode {
                SimMode::Naive => assert!(sched.iter().all(|s| *s == SchedStats::default())),
                SimMode::FastForward => {
                    for (c, s) in done.iter().zip(&sched) {
                        assert_eq!(s.processed_cycles + s.skipped_cycles, c.residency());
                    }
                    // A is jumped over even while B keeps the machine busy:
                    // it processes fewer cycles than B is resident.
                    assert!(sched[0].processed_cycles < done[1].residency());
                    assert!(sched[1].simt_events > 0);
                }
            }
            // Everything but the scheduler counters must match across modes.
            per_mode.push(
                done.iter()
                    .map(|c| {
                        let mut r = c.result.clone().unwrap();
                        r.sched = SchedStats::default();
                        (c.admitted, c.retired, format!("{r:?}"))
                    })
                    .collect::<Vec<_>>(),
            );
        }
        assert_eq!(per_mode[0], per_mode[1]);
    }

    /// One warp on `from` that runs `alu` ALU ops, then pushes `stores`
    /// fire-and-forget 128-byte SIMT stores into `to`'s scratchpad.
    fn remote_store_kernel(from: u32, to: u32, alu: u32, stores: u32) -> Kernel {
        let mut b = ProgramBuilder::new();
        b.op_n(
            alu,
            WarpOp::Alu {
                rf_reads: 2,
                rf_writes: 1,
            },
        );
        let remote = virgo_isa::AddrExpr::fixed(virgo_isa::remote_smem_addr(to, 0));
        b.op_n(
            stores,
            WarpOp::StoreShared {
                access: virgo_isa::LaneAccess::contiguous_words(remote, 32),
            },
        );
        Kernel::new(
            KernelInfo::new("remote", 0, DataType::Fp16),
            vec![WarpAssignment::on_cluster(from, 0, 0, Arc::new(b.build()))],
        )
    }

    #[test]
    fn concurrent_dsm_job_retires_at_its_own_cycle() {
        // A on {0,1} floods link 1 with remote stores whose deliveries
        // trail long after B on {2,3} has finished and its one remote store
        // has landed; B must retire then, not when A's traffic drains.
        let config = GpuConfig::virgo().with_clusters(4).with_dsm_enabled();
        let a = remote_store_kernel(0, 1, 0, 256);
        let b = remote_store_kernel(2, 3, 8, 1);
        let mut per_mode = Vec::new();
        for mode in [SimMode::Naive, SimMode::FastForward] {
            let standalone = Gpu::new(config.clone())
                .run_with_mode(&b, 100_000, mode)
                .unwrap();
            let mut table = JobTable::new(config.clone(), mode);
            table.admit("a", &a, &[0, 1], 100_000).unwrap();
            table.admit("b", &b, &[2, 3], 100_000).unwrap();
            let mut done = Vec::new();
            while !table.is_idle() {
                done.extend(table.advance_until(u64::MAX));
            }
            done.sort_by_key(|c| c.id);
            assert_eq!(done[1].residency(), standalone.cycles().get(), "{mode}");
            assert!(done[1].retired < done[0].retired, "{mode}");
            per_mode.push((done[0].retired, done[1].retired));
        }
        assert_eq!(per_mode[0], per_mode[1]);
    }

    /// A random job for the conservation property: on each of its clusters
    /// one warp runs some ALU work, a DMA copy from global memory, a few
    /// global loads and stores and, with the fabric on and a second
    /// cluster in the job, remote stores into that cluster's scratchpad.
    fn random_traffic_kernel(rng: &mut SplitMix64, clusters: &[u32], dsm: bool) -> Kernel {
        use virgo_isa::{
            remote_smem_addr, AddrExpr, DeviceId, DmaCopyCmd, LaneAccess, MemLoc, MmioCommand,
        };
        let mut warps = Vec::new();
        for (i, &cluster) in clusters.iter().enumerate() {
            let mut b = ProgramBuilder::new();
            b.op_n(
                1 + rng.next_below(64) as u32,
                WarpOp::Alu {
                    rf_reads: 2,
                    rf_writes: 1,
                },
            );
            // Global addresses overlap across jobs, so the L2 both hits and
            // misses.
            let global = |rng: &mut SplitMix64| rng.next_below(1 << 11) * 32;
            let cmd = MmioCommand::DmaCopy(DmaCopyCmd::new(
                MemLoc::global(global(rng)),
                MemLoc::shared(0u64),
                32 * (1 + rng.next_below(128)),
            ));
            b.op(WarpOp::MmioWrite {
                device: DeviceId::DMA0,
                cmd,
            });
            b.op(WarpOp::FenceAsync { max_outstanding: 0 });
            for _ in 0..rng.next_below(4) {
                let access = LaneAccess::contiguous_words(AddrExpr::fixed(global(rng)), 32);
                b.op(WarpOp::LoadGlobal { access });
                b.op(WarpOp::StoreGlobal { access });
            }
            b.op(WarpOp::WaitLoads);
            if dsm && clusters.len() > 1 {
                let to = clusters[(i + 1) % clusters.len()];
                let remote = AddrExpr::fixed(remote_smem_addr(to, 0));
                b.op_n(
                    1 + rng.next_below(16) as u32,
                    WarpOp::StoreShared {
                        access: LaneAccess::contiguous_words(remote, 32),
                    },
                );
            }
            warps.push(WarpAssignment::on_cluster(
                cluster,
                0,
                0,
                Arc::new(b.build()),
            ));
        }
        Kernel::new(KernelInfo::new("traffic", 0, DataType::Fp16), warps)
    }

    /// One warp on `cluster` that DMA-copies 4 KiB from global `addr` into
    /// its scratchpad, then runs `alu` ALU ops and pushes `stores` remote
    /// stores into cluster `to`'s scratchpad.
    fn dma_then_remote_warp(
        cluster: u32,
        addr: u64,
        alu: u32,
        to: u32,
        stores: u32,
    ) -> WarpAssignment {
        use virgo_isa::{DeviceId, DmaCopyCmd, MemLoc, MmioCommand};
        let mut b = ProgramBuilder::new();
        let cmd = MmioCommand::DmaCopy(DmaCopyCmd::new(
            MemLoc::global(addr),
            MemLoc::shared(0u64),
            4096,
        ));
        b.op(WarpOp::MmioWrite {
            device: DeviceId::DMA0,
            cmd,
        });
        b.op(WarpOp::FenceAsync { max_outstanding: 0 });
        b.op_n(
            alu,
            WarpOp::Alu {
                rf_reads: 2,
                rf_writes: 1,
            },
        );
        let remote = virgo_isa::AddrExpr::fixed(virgo_isa::remote_smem_addr(to, 0));
        b.op_n(
            stores,
            WarpOp::StoreShared {
                access: virgo_isa::LaneAccess::contiguous_words(remote, 32),
            },
        );
        WarpAssignment::on_cluster(cluster, 0, 0, Arc::new(b.build()))
    }

    /// Regression: a job that shared a faulted machine reports only its own
    /// reroutes and re-stripes. On a 4-cluster ring with segment 2 dead and
    /// DRAM channel 1 down, job "a" on {0, 1} reads DRAM and stays resident
    /// while job "b" on {2} reads DRAM and stores into cluster 3, whose
    /// short path crosses the dead segment. A sentinel on cluster 3 keeps
    /// the table from emptying (which would rebuild the shared components
    /// cold) before the machine's slices are read.
    #[test]
    fn shared_faulted_machine_charges_each_job_its_own_recovery() {
        let plan = FaultPlan::seeded(7)
            .with_event(FaultKind::DsmLinkDown { link: 2 }, 0, 1_000_000)
            .with_event(FaultKind::DramChannelDown { channel: 1 }, 0, 1_000_000);
        let config = GpuConfig::virgo()
            .with_clusters(4)
            .with_dsm(DsmConfig::enabled_ring())
            .with_dram_channels(2)
            .with_faults(plan);
        let kernel =
            |name: &str, warps| Kernel::new(KernelInfo::new(name, 0, DataType::Fp16), warps);
        let a = kernel(
            "a",
            vec![
                dma_then_remote_warp(0, 0, 2_000, 0, 0),
                dma_then_remote_warp(1, 8192, 2_000, 1, 0),
            ],
        );
        let b = kernel("b", vec![dma_then_remote_warp(2, 1 << 20, 8, 3, 16)]);
        for mode in [SimMode::Naive, SimMode::FastForward] {
            let mut table = JobTable::new(config.clone(), mode);
            table
                .admit("sentinel", &one_cluster_kernel(3, 20_000), &[3], 1_000_000)
                .unwrap();
            table.admit("a", &a, &[0, 1], 1_000_000).unwrap();
            table.admit("b", &b, &[2], 1_000_000).unwrap();
            let mut done = Vec::new();
            while table.resident() > 1 {
                done.extend(table.advance_until(u64::MAX));
            }
            done.sort_by_key(|c| c.id);
            assert!(done[1].retired < done[0].retired, "{mode}: a outlives b");
            let a = done[0].result.as_ref().unwrap().fault_stats();
            let b = done[1].result.as_ref().unwrap().fault_stats();
            let machine_reroutes: u64 = table
                .machine
                .fabric
                .per_cluster_stats()
                .iter()
                .map(|c| c.rerouted_transfers)
                .sum();
            let machine_restripes: u64 = table
                .machine
                .backend
                .per_cluster_stats()
                .iter()
                .map(|c| c.dram_restriped_accesses)
                .sum();
            assert_eq!(a.dsm_rerouted_transfers, 0, "{mode}: a sends nothing");
            assert_eq!(a.dsm_blocked_cycles, 0, "{mode}");
            assert_eq!(b.dsm_rerouted_transfers, 16, "{mode}: b's stores detour");
            assert_eq!(machine_reroutes, 16, "{mode}");
            assert!(a.dram_restriped_accesses > 0, "{mode}");
            assert!(b.dram_restriped_accesses > 0, "{mode}");
            assert_eq!(
                a.dram_restriped_accesses + b.dram_restriped_accesses,
                machine_restripes,
                "{mode}: each re-stripe is charged once"
            );
        }
    }

    /// A random fault plan with one finite window of each kind inside the
    /// first 4k cycles, where the random sessions' jobs run: a DSM link
    /// down and one slow, a DRAM channel down and one throttled.
    fn random_fault_plan(rng: &mut SplitMix64, links: u32, channels: u32) -> FaultPlan {
        let mut plan = FaultPlan::seeded(rng.next_u64());
        for kind in 0..4 {
            let link = rng.next_below(u64::from(links)) as u32;
            let channel = rng.next_below(u64::from(channels)) as u32;
            let kind = match kind {
                0 => FaultKind::DsmLinkDown { link },
                1 => FaultKind::DsmLinkSlow {
                    link,
                    bandwidth_divisor: 2 + rng.next_below(4) as u32,
                },
                2 => FaultKind::DramChannelDown { channel },
                _ => FaultKind::DramChannelThrottle {
                    channel,
                    latency_multiplier: 2 + rng.next_below(4) as u32,
                },
            };
            let from = rng.next_below(2_000);
            plan = plan.with_event(kind, from, from + 1 + rng.next_below(2_000));
        }
        plan
    }

    /// Property: every memory-system event lands in exactly one job's
    /// report. Random sessions — 2 to 4 jobs on random cluster subsets,
    /// admitted at random offsets while others run, DSM off or on a faulted
    /// ring, 1 to 4 DRAM channels — under both modes: the per-job sums of
    /// DRAM bytes and bursts, L2 accesses and misses, DMA bytes, DSM
    /// transfers and bytes, and the five fault-recovery counters (DSM
    /// reroutes, blocked and recovery cycles, DRAM re-stripes and recovery
    /// cycles) equal the machine's own totals, and each job's DRAM-burst
    /// energy is its own bursts' energy. A long ALU-only sentinel job holds
    /// one cluster so the table never empties (which would rebuild the
    /// shared back-end cold) before the machine totals are read.
    #[test]
    fn per_job_traffic_sums_to_the_machine_totals() {
        use virgo_energy::{EnergyEvent, EnergyTable};
        const CLUSTERS: u32 = 6;
        const BUDGET: u64 = 1_000_000;
        let burst_mj = EnergyTable::default_16nm().energy_pj(EnergyEvent::DramBurst) * 1e-9;
        let mut fault_totals = [0u64; 5];
        for seed in 0..6u64 {
            let mut rng = SplitMix64::new(0xC0_5E57 + seed);
            let dsm = seed % 2 == 1;
            let channels = 1 + rng.next_below(4) as u32;
            let mut config = GpuConfig::virgo()
                .with_clusters(CLUSTERS)
                .with_dram_channels(channels);
            if dsm {
                // A stream of its own, so the sessions stay those of the
                // fault-free draws.
                let faults = random_fault_plan(&mut SplitMix64::new(!seed), CLUSTERS, channels);
                config = config
                    .with_dsm(DsmConfig::enabled_ring())
                    .with_faults(faults);
            }
            let jobs = 2 + rng.next_below(3) as usize;
            let sentinel = rng.next_below(u64::from(CLUSTERS)) as u32;
            let mut plan = Vec::new();
            let mut at = 0;
            for _ in 0..jobs {
                at += rng.next_below(2_000);
                plan.push((at, rng.next_u64()));
            }
            for mode in [SimMode::Naive, SimMode::FastForward] {
                let label = format!("seed {seed} {mode} dsm {dsm} ch {channels} jobs {jobs}");
                let mut table = JobTable::new(config.clone(), mode);
                table
                    .admit(
                        "sentinel",
                        &one_cluster_kernel(sentinel, 40_000),
                        &[sentinel],
                        BUDGET,
                    )
                    .unwrap();
                let mut reports = Vec::new();
                for &(at, job_seed) in &plan {
                    let mut rng = SplitMix64::new(job_seed);
                    while table.now() < at || table.free_clusters().is_empty() {
                        let target = if table.now() < at { at } else { u64::MAX };
                        reports.extend(table.advance_until(target));
                    }
                    let mut free = table.free_clusters();
                    let size = 1 + rng.next_below(free.len().min(3) as u64) as usize;
                    let mut owned = Vec::new();
                    for _ in 0..size {
                        owned.push(free.remove(rng.next_below(free.len() as u64) as usize));
                    }
                    owned.sort_unstable();
                    let kernel = random_traffic_kernel(&mut rng, &owned, dsm);
                    table.admit("job", &kernel, &owned, BUDGET).unwrap();
                }
                while table.resident() > 1 {
                    reports.extend(table.advance_until(u64::MAX));
                }
                assert_eq!(
                    reports.len(),
                    jobs,
                    "{label}: the sentinel outlives the jobs"
                );
                let reports: Vec<SimReport> =
                    reports.into_iter().map(|c| c.result.unwrap()).collect();

                let backend = &table.machine.backend;
                let fabric = &table.machine.fabric;
                assert_eq!(
                    backend.cluster_stats(sentinel),
                    ClusterContentionStats::for_channels(channels),
                    "{label}: the sentinel issues no memory traffic"
                );
                let sum = |f: &dyn Fn(&SimReport) -> u64| reports.iter().map(f).sum::<u64>();
                let machine_l2: u64 = backend
                    .per_cluster_stats()
                    .iter()
                    .map(|c| c.l2_accesses)
                    .sum();
                let machine_misses: u64 = backend
                    .per_cluster_stats()
                    .iter()
                    .map(|c| c.l2_misses)
                    .sum();
                let machine_dma: u64 = backend
                    .per_cluster_stats()
                    .iter()
                    .map(|c| c.dma_bytes)
                    .sum();
                let dram = backend.dram_stats();
                assert!(dram.bursts > 0, "{label}: the jobs reach DRAM");
                assert_eq!(sum(&|r| r.gmem_stats().l2_accesses), machine_l2, "{label}");
                assert_eq!(
                    sum(&|r| r.gmem_stats().l2_misses),
                    machine_misses,
                    "{label}"
                );
                assert_eq!(sum(&|r| r.gmem_stats().dma_bytes), machine_dma, "{label}");
                assert_eq!(sum(&|r| r.dram_stats().bytes), dram.bytes, "{label}");
                assert_eq!(sum(&|r| r.dram_stats().bursts), dram.bursts, "{label}");
                let channel_bursts: Vec<u64> = (0..channels as usize)
                    .map(|ch| sum(&|r| r.dram_channel_stats()[ch].bursts))
                    .collect();
                let machine_channels: Vec<u64> = backend
                    .dram_channel_stats()
                    .iter()
                    .map(|c| c.bursts)
                    .collect();
                assert_eq!(channel_bursts, machine_channels, "{label}");
                let transfers = fabric.stats();
                assert_eq!(dsm, transfers.transfers > 0, "{label}");
                assert_eq!(
                    sum(&|r| r.dsm_stats().transfers),
                    transfers.transfers,
                    "{label}"
                );
                assert_eq!(sum(&|r| r.dsm_stats().bytes), transfers.bytes, "{label}");
                let mut machine_faults = [0u64; 5];
                for c in backend.per_cluster_stats() {
                    machine_faults[0] += c.dram_restriped_accesses;
                    machine_faults[1] += c.dram_recovery_cycles;
                }
                for c in fabric.per_cluster_stats() {
                    machine_faults[2] += c.rerouted_transfers;
                    machine_faults[3] += c.blocked_cycles;
                    machine_faults[4] += c.recovery_cycles;
                }
                let job_faults = [
                    sum(&|r| r.fault_stats().dram_restriped_accesses),
                    sum(&|r| {
                        r.per_cluster()
                            .iter()
                            .map(|c| c.contention.dram_recovery_cycles)
                            .sum()
                    }),
                    sum(&|r| r.fault_stats().dsm_rerouted_transfers),
                    sum(&|r| r.fault_stats().dsm_blocked_cycles),
                    sum(&|r| r.per_cluster().iter().map(|c| c.dsm.recovery_cycles).sum()),
                ];
                assert_eq!(job_faults, machine_faults, "{label}: fault counters");
                assert_eq!(
                    sum(&|r| r.fault_stats().recovery_cycles),
                    machine_faults[1] + machine_faults[4],
                    "{label}"
                );
                fault_totals
                    .iter_mut()
                    .zip(machine_faults)
                    .for_each(|(t, m)| *t += m);
                for r in &reports {
                    let slices: f64 = r.per_cluster().iter().map(|c| c.energy_mj).sum();
                    let burst_energy = r.total_energy_mj() - slices;
                    let own = r.dram_stats().bursts as f64 * burst_mj;
                    assert!(
                        (burst_energy - own).abs() <= 1e-9 * r.total_energy_mj(),
                        "{label}: DRAM burst energy {burst_energy} mJ vs own bursts {own} mJ"
                    );
                }
            }
        }
        // Blocked cycles need a fully severed ring, which one dead link
        // never makes; the other four counters all move.
        assert!(
            [0, 1, 2, 4].iter().all(|&i| fault_totals[i] > 0),
            "the fault plans re-stripe, reroute and recover: {fault_totals:?}"
        );
    }

    #[test]
    fn idle_table_jumps_to_target() {
        let mut table = JobTable::new(GpuConfig::virgo(), SimMode::Naive);
        assert!(table.advance_until(5_000).is_empty());
        assert_eq!(table.now(), 5_000);
        // Admission starts a job mid-session.
        table
            .admit("late", &one_cluster_kernel(0, 8), &[0], 100_000)
            .unwrap();
        let done = table.advance_until(u64::MAX);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].admitted, 5_000);
        assert!(done[0].result.is_ok());
    }
}
