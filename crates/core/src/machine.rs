//! The machine under simulation, driven by the residency session
//! ([`crate::jobs::JobTable`]) that [`crate::run::Gpu::run`] also runs on.
//!
//! A [`Machine`] is every cluster plus the shared L2/DRAM back-end they
//! contend for and the inter-cluster DSM fabric linking their scratchpads.
//! The multi-job extensions treat the cluster vector as a slot table: a job
//! is *loaded* by rebuilding its subset of cluster slots around a kernel
//! (fresh cores, engines and scratchpads), and *unloaded* by putting an
//! idle cluster back in the slot. The shared back-end and fabric deliberately persist
//! across loads: cross-job contention there is the phenomenon the job table
//! exists to model.

use virgo_isa::Kernel;
use virgo_mem::{DsmFabric, MemoryBackend};
use virgo_sim::{earliest, Cycle, NextActivity};
use virgo_simt::BlockReason;

use crate::cluster::Cluster;
use crate::config::GpuConfig;
use crate::run::{BlockedOn, TimeoutDiagnosis, WarpDiagnosis, WatchdogVerdict};

/// The machine under simulation: every cluster plus the shared memory
/// back-end they contend for and the inter-cluster DSM fabric linking their
/// scratchpads.
#[derive(Debug)]
pub(crate) struct Machine {
    pub(crate) clusters: Vec<Cluster>,
    pub(crate) backend: MemoryBackend,
    pub(crate) fabric: DsmFabric,
}

/// A kernel with no warps: the program loaded into a cluster slot that no
/// resident job owns. Its clusters are finished on arrival, report no
/// future activity and never touch the shared back-end.
fn idle_kernel(config: &GpuConfig) -> Kernel {
    Kernel::new(
        virgo_isa::KernelInfo::new("idle", 0, config.dtype),
        Vec::new(),
    )
}

/// A cold shared back-end and DSM fabric, with the fault plan applied.
fn cold_shared(config: &GpuConfig) -> (MemoryBackend, DsmFabric) {
    let cluster_count = config.clusters.max(1);
    let mut backend = MemoryBackend::new(config.global_memory(), cluster_count);
    let mut fabric = DsmFabric::new(config.dsm, cluster_count);
    if !config.faults.events.is_empty() {
        // An empty plan must not touch the components at all: the
        // faults-off machine stays bit-identical to the pre-fault model.
        backend.apply_faults(&config.faults);
        fabric.apply_faults(&config.faults);
    }
    (backend, fabric)
}

impl Machine {
    /// An all-idle machine: every cluster slot holds the empty kernel, the
    /// shared back-end and fabric are cold. The starting state of a
    /// [`crate::jobs::JobTable`] session.
    pub(crate) fn idle(config: &GpuConfig) -> Machine {
        let kernel = idle_kernel(config);
        let (backend, fabric) = cold_shared(config);
        Machine {
            clusters: (0..config.clusters.max(1))
                .map(|c| Cluster::new(config.clone(), &kernel, c))
                .collect(),
            backend,
            fabric,
        }
    }

    /// Loads `kernel` onto the cluster slots in `ids`, replacing whatever
    /// occupied them with freshly-built clusters whose hold-in-reset window
    /// ends at `at` (or later, if the fault plan starts the cluster late).
    pub(crate) fn load(&mut self, config: &GpuConfig, kernel: &Kernel, ids: &[u32], at: u64) {
        for &id in ids {
            self.clusters[id as usize] = Cluster::new_at(config.clone(), kernel, id, at);
        }
    }

    /// Returns the cluster slots in `ids` to the idle state.
    pub(crate) fn unload(&mut self, config: &GpuConfig, ids: &[u32], at: u64) {
        let kernel = idle_kernel(config);
        for &id in ids {
            self.clusters[id as usize] = Cluster::new_at(config.clone(), &kernel, id, at);
        }
    }

    /// Replaces the shared back-end and DSM fabric with cold instances
    /// (re-applying the fault plan). Called by the job table whenever the
    /// machine goes fully idle, so a job admitted at cycle `T` onto an empty
    /// machine sees exactly the cold caches a standalone [`crate::run::Gpu`]
    /// run would — the mechanism behind the sequential ≡ standalone
    /// bit-identity guarantee.
    pub(crate) fn reset_shared(&mut self, config: &GpuConfig) {
        (self.backend, self.fabric) = cold_shared(config);
    }

    /// Whether the job occupying the cluster slots in `ids` has finished:
    /// its clusters are done and no DSM transfer from or to them is still
    /// in flight. Other jobs' DSM traffic does not delay it.
    pub(crate) fn finished_on(&self, ids: &[u32]) -> bool {
        ids.iter().all(|&id| self.clusters[id as usize].finished()) && self.fabric.quiescent_on(ids)
    }

    pub(crate) fn tick(&mut self, now: Cycle) {
        self.fabric.tick(now);
        for cluster in &mut self.clusters {
            cluster.tick(now, &mut self.backend, &mut self.fabric);
        }
    }

    /// Folds the event horizons of the cluster slots in `ids`, plus the DSM
    /// fabric's earliest in-flight delivery — the per-job deadlock probe.
    /// `Some(now)` short-circuits: some component can act this cycle. `None`
    /// means nothing on the job's clusters will ever act again.
    pub(crate) fn next_activity_on(&mut self, ids: &[u32], now: Cycle) -> Option<Cycle> {
        let mut next = self.fabric.next_activity(now);
        if next == Some(now) {
            return next;
        }
        for &id in ids {
            let cluster = &mut self.clusters[id as usize];
            match cluster.next_activity(now, &mut self.backend, &mut self.fabric) {
                Some(t) if t <= now => return Some(now),
                event => next = earliest(next, event),
            }
        }
        next
    }

    /// Real (non-poll) instructions retired on the cluster slots in `ids` —
    /// the watchdog's forward-progress measure.
    pub(crate) fn retired_on(&self, ids: &[u32]) -> u64 {
        ids.iter()
            .map(|&id| self.clusters[id as usize].core_stats().instrs_issued)
            .sum()
    }

    /// Timeout diagnosis: only the warps on the job's clusters, with the
    /// owning job named so a multi-resident timeout is attributable.
    pub(crate) fn timeout_diagnosis_on(
        &self,
        ids: &[u32],
        job: &str,
        verdict: WatchdogVerdict,
        active_fault_windows: u64,
    ) -> TimeoutDiagnosis {
        TimeoutDiagnosis {
            verdict,
            active_fault_windows,
            warps: diagnose(ids.iter().map(|&id| &self.clusters[id as usize])),
            job: Some(job.to_string()),
        }
    }
}

/// Collects the blocked-on state of every unfinished warp on the given
/// clusters, in (cluster, core, warp) order.
fn diagnose<'a>(clusters: impl Iterator<Item = &'a Cluster>) -> Vec<WarpDiagnosis> {
    let mut warps = Vec::new();
    for cluster in clusters {
        for placed in cluster.unfinished_warps() {
            let blocked_on = match placed.snapshot.block {
                Some(BlockReason::Fence { max_outstanding }) => BlockedOn::Fence {
                    max_outstanding,
                    outstanding: placed.async_outstanding,
                },
                Some(BlockReason::Barrier { id, .. }) => BlockedOn::Barrier { id },
                Some(BlockReason::WgmmaDrain) => BlockedOn::WgmmaDrain,
                Some(BlockReason::Loads) => BlockedOn::Loads {
                    in_flight: placed.snapshot.loads_in_flight as u32,
                },
                None => BlockedOn::Stalled,
            };
            warps.push(WarpDiagnosis {
                cluster: placed.cluster,
                core: placed.core,
                warp: placed.snapshot.global_id,
                blocked_on,
            });
        }
    }
    warps
}
