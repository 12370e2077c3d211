//! The top-level GPU object and simulation driver.

use std::fmt;

use virgo_isa::Kernel;

use crate::config::GpuConfig;
use crate::jobs::JobTable;
use crate::report::SimReport;

/// What one unfinished warp was stuck on when the cycle budget ran out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockedOn {
    /// Spinning in `virgo_fence(max_outstanding)` while `outstanding`
    /// asynchronous operations had still not completed.
    Fence {
        /// The fence's threshold.
        max_outstanding: u32,
        /// Asynchronous operations outstanding on the warp's cluster at
        /// timeout.
        outstanding: u32,
    },
    /// Waiting at cluster barrier `id` for a release that never came
    /// (mismatched barrier participation).
    Barrier {
        /// Barrier id.
        id: u8,
    },
    /// Waiting for the core's operand-decoupled tensor unit to drain.
    WgmmaDrain,
    /// Waiting for `in_flight` outstanding loads to write back.
    Loads {
        /// Loads still in flight.
        in_flight: u32,
    },
    /// Runnable but unable to issue — typically a structural hazard such as
    /// an `HMMA` step retried forever against a busy or absent unit.
    Stalled,
}

impl fmt::Display for BlockedOn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlockedOn::Fence {
                max_outstanding,
                outstanding,
            } => write!(
                f,
                "virgo_fence({max_outstanding}) with {outstanding} async ops outstanding"
            ),
            BlockedOn::Barrier { id } => write!(f, "barrier {id}"),
            BlockedOn::WgmmaDrain => write!(f, "wgmma drain"),
            BlockedOn::Loads { in_flight } => write!(f, "{in_flight} outstanding loads"),
            BlockedOn::Stalled => write!(f, "issue stall (busy unit or hazard)"),
        }
    }
}

/// The placement and blocked state of one unfinished warp at timeout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarpDiagnosis {
    /// Cluster the warp ran on.
    pub cluster: u32,
    /// Core within the cluster.
    pub core: u32,
    /// The warp's cluster-unique id.
    pub warp: u32,
    /// What the warp was stuck on.
    pub blocked_on: BlockedOn,
}

/// The progress watchdog's classification of why the cycle budget ran out.
///
/// The session distinguishes a machine that *cannot* make progress from one
/// that is merely not getting anywhere, folding the event-horizon probe and
/// retirement accounting it already maintains:
///
/// * **Deadlock** — no component reports any future activity: every
///   unfinished warp is blocked on a condition nothing can ever satisfy
///   (mismatched barriers, a fence on an operation that was never launched).
/// * **Livelock** — the machine stays busy (fence-poll spinning keeps the
///   event horizon at `now`) but retired no real instruction over the second
///   half of the budget.
/// * **SlowProgress** — instructions were still retiring; the budget was
///   simply too small for the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WatchdogVerdict {
    /// No component will ever act again.
    Deadlock,
    /// Activity without retirement (e.g. every live warp spinning in
    /// `virgo_fence`).
    Livelock,
    /// The kernel was still making forward progress at timeout.
    #[default]
    SlowProgress,
}

impl fmt::Display for WatchdogVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WatchdogVerdict::Deadlock => write!(f, "deadlock"),
            WatchdogVerdict::Livelock => write!(f, "livelock"),
            WatchdogVerdict::SlowProgress => write!(f, "slow progress"),
        }
    }
}

/// Structured diagnosis attached to [`SimError::Timeout`]: the progress
/// watchdog's verdict plus every unfinished warp with its placement and
/// blocking condition, captured at the moment the cycle budget ran out. This
/// replaces the old workflow of re-running a deadlocked kernel under
/// [`SimMode::Naive`] with ad-hoc tracing just to find out which warp was
/// stuck on what.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TimeoutDiagnosis {
    /// The watchdog's deadlock / livelock / slow-progress classification.
    pub verdict: WatchdogVerdict,
    /// Fault windows from the configuration's [`crate::FaultPlan`] that were
    /// active at the timeout cycle — a degraded machine that stops making
    /// progress usually implicates them.
    pub active_fault_windows: u64,
    /// One entry per unfinished warp, in (cluster, core, warp) order.
    pub warps: Vec<WarpDiagnosis>,
    /// The job (or tenant request) that owned the timed-out clusters, when
    /// the timeout came from a multi-job residency session. `None` for
    /// [`Gpu::run`], whose machine has exactly one owner.
    pub job: Option<String>,
}

impl TimeoutDiagnosis {
    /// True when no warp information was captured (e.g. a hand-constructed
    /// error).
    pub fn is_empty(&self) -> bool {
        self.warps.is_empty()
    }

    /// Unfinished warps blocked on a given kind of condition.
    pub fn count_where(&self, pred: impl Fn(&BlockedOn) -> bool) -> usize {
        self.warps.iter().filter(|w| pred(&w.blocked_on)).count()
    }
}

impl fmt::Display for TimeoutDiagnosis {
    /// Renders the verdict headline followed by a per-warp table, one
    /// indented line per stuck warp (capped at eight rows).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} unfinished warp(s)",
            self.verdict,
            self.warps.len()
        )?;
        if let Some(job) = &self.job {
            write!(f, " in job '{job}'")?;
        }
        if self.active_fault_windows > 0 {
            write!(
                f,
                ", {} injected fault window(s) active",
                self.active_fault_windows
            )?;
        }
        const SHOWN: usize = 8;
        for w in self.warps.iter().take(SHOWN) {
            write!(
                f,
                "\n  cluster {} core {} warp {}: {}",
                w.cluster, w.core, w.warp, w.blocked_on
            )?;
        }
        if self.warps.len() > SHOWN {
            write!(f, "\n  ... {} more", self.warps.len() - SHOWN)?;
        }
        Ok(())
    }
}

/// Errors returned by [`Gpu::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The kernel did not finish within the cycle budget — usually a
    /// deadlocked synchronization pattern (mismatched barriers or a fence on
    /// an operation that was never launched). The diagnosis names every
    /// unfinished warp and what it was blocked on.
    Timeout {
        /// The cycle budget that was exhausted.
        limit: u64,
        /// Per-warp blocked-on state at timeout.
        diagnosis: TimeoutDiagnosis,
    },
    /// The kernel uses no warps.
    EmptyKernel,
    /// The kernel assigns warps to cluster indices outside the configuration.
    ClusterOutOfRange {
        /// The highest cluster index the kernel uses.
        max_cluster: u32,
        /// The number of clusters the configuration provides.
        clusters: u32,
    },
    /// A [`crate::jobs::JobTable`] admission targeted a cluster slot that is
    /// not free for the job: either another resident job still owns it, or
    /// the kernel assigns warps to a cluster outside the job's allocation.
    ClusterBusy {
        /// The contested cluster index.
        cluster: u32,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Timeout { limit, diagnosis } => {
                write!(f, "kernel did not finish within {limit} cycles")?;
                if !diagnosis.is_empty() {
                    write!(f, ": {diagnosis}")?;
                }
                Ok(())
            }
            SimError::EmptyKernel => write!(f, "kernel has no warps"),
            SimError::ClusterOutOfRange {
                max_cluster,
                clusters,
            } => write!(
                f,
                "kernel assigns warps to cluster {max_cluster} but the machine has {clusters} cluster(s)"
            ),
            SimError::ClusterBusy { cluster } => {
                write!(f, "cluster {cluster} is not free for the job")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// How the simulation session advances time.
///
/// Both modes produce **bit-identical** [`SimReport`]s — the fast-forward
/// engine's soundness contract (see `virgo_sim::activity`) guarantees that
/// skipped cycles could only have performed time-uniform stall accounting,
/// which is replayed in bulk. [`SimMode::Naive`] is retained as the reference
/// implementation for equivalence testing and debugging.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SimMode {
    /// Tick every component once per cycle, the classic cycle-stepped loop.
    Naive,
    /// Run the event-queue scheduler: each component (DSM fabric, each
    /// cluster's devices, each SIMT core) is ticked only on the cycles it
    /// can act, and its skipped stall/idle cycles are bulk-accounted. This
    /// is the default; on stall-heavy workloads (DRAM/DMA-bound tiles, fence
    /// waits) it reduces wall-clock time by orders of magnitude.
    #[default]
    FastForward,
}

impl fmt::Display for SimMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimMode::Naive => write!(f, "naive"),
            SimMode::FastForward => write!(f, "fast-forward"),
        }
    }
}

impl virgo_sim::StableHash for SimMode {
    fn stable_hash(&self, h: &mut virgo_sim::StableHasher) {
        h.write_u64(match self {
            SimMode::Naive => 0,
            SimMode::FastForward => 1,
        });
    }
}

/// A simulated GPU — `clusters` identical clusters sharing one L2/DRAM
/// back-end — at a fixed configuration.
///
/// Each [`Gpu::run`] builds a fresh machine (cold caches, idle engines) so
/// runs are independent and reproducible.
#[derive(Debug, Clone)]
pub struct Gpu {
    config: GpuConfig,
}

impl Gpu {
    /// Creates a GPU with the given configuration.
    pub fn new(config: GpuConfig) -> Self {
        Gpu { config }
    }

    /// The configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.config
    }

    /// Simulates `kernel` to completion, up to `max_cycles`, using the
    /// default [`SimMode::FastForward`] driver.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Timeout`] if the kernel has not finished within
    /// `max_cycles`, [`SimError::EmptyKernel`] if the kernel contains no
    /// warps, and [`SimError::ClusterOutOfRange`] if the kernel targets
    /// clusters the configuration does not have.
    pub fn run(&mut self, kernel: &Kernel, max_cycles: u64) -> Result<SimReport, SimError> {
        self.run_with_mode(kernel, max_cycles, SimMode::FastForward)
    }

    /// Simulates `kernel` to completion, up to `max_cycles`, with an explicit
    /// time-advance mode.
    ///
    /// The run is a one-job [`JobTable`] session: the kernel is admitted
    /// onto every cluster at cycle 0 with a budget of `max_cycles` and
    /// advanced until it retires or times out. [`SimMode::FastForward`]
    /// runs the event-queue scheduler: every component (DSM fabric, each
    /// cluster's devices, each SIMT core) registers the cycle of its next
    /// event, the session jumps straight from event to event, and a
    /// component's parked gap is bulk-replayed right before its next tick so
    /// every statistic stays bit-identical to the naive loop. A kernel with
    /// no future activity at all (a deadlock) is forwarded straight to the
    /// cycle budget.
    ///
    /// # Errors
    ///
    /// Same as [`Gpu::run`].
    pub fn run_with_mode(
        &mut self,
        kernel: &Kernel,
        max_cycles: u64,
        mode: SimMode,
    ) -> Result<SimReport, SimError> {
        if kernel.warps.is_empty() {
            return Err(SimError::EmptyKernel);
        }
        let clusters = self.config.clusters.max(1);
        if let Some(max_cluster) = kernel.max_cluster() {
            if max_cluster >= clusters {
                return Err(SimError::ClusterOutOfRange {
                    max_cluster,
                    clusters,
                });
            }
        }
        let all: Vec<u32> = (0..clusters).collect();
        let mut session = JobTable::new(self.config.clone(), mode);
        session.admit(&kernel.info.name, kernel, &all, max_cycles)?;
        let done = session
            .advance_until(u64::MAX)
            .pop()
            .expect("a resident job retires or times out before the clock runs out");
        done.result.map_err(|err| match err {
            SimError::Timeout {
                limit,
                mut diagnosis,
            } => {
                diagnosis.job = None;
                SimError::Timeout { limit, diagnosis }
            }
            other => other,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DesignKind, GpuConfig};
    use std::sync::Arc;
    use virgo_isa::{DataType, KernelInfo, ProgramBuilder, WarpAssignment, WarpOp};

    fn kernel(ops: u32) -> Kernel {
        let mut b = ProgramBuilder::new();
        b.op_n(
            ops,
            WarpOp::Alu {
                rf_reads: 1,
                rf_writes: 1,
            },
        );
        Kernel::new(
            KernelInfo::new("k", 0, DataType::Fp16),
            vec![WarpAssignment::new(0, 0, Arc::new(b.build()))],
        )
    }

    #[test]
    fn run_returns_report_for_finishing_kernel() {
        let mut gpu = Gpu::new(GpuConfig::for_design(DesignKind::AmpereStyle));
        let report = gpu.run(&kernel(4), 1000).unwrap();
        assert_eq!(report.instructions_retired(), 4);
    }

    #[test]
    fn empty_kernel_is_rejected() {
        let mut gpu = Gpu::new(GpuConfig::virgo());
        let empty = Kernel::new(KernelInfo::new("none", 0, DataType::Fp16), Vec::new());
        assert_eq!(gpu.run(&empty, 100).unwrap_err(), SimError::EmptyKernel);
    }

    #[test]
    fn out_of_range_cluster_is_rejected() {
        let mut b = ProgramBuilder::new();
        b.op(WarpOp::Nop);
        let kernel = Kernel::new(
            KernelInfo::new("far", 0, DataType::Fp16),
            vec![WarpAssignment::on_cluster(3, 0, 0, Arc::new(b.build()))],
        );
        let mut gpu = Gpu::new(GpuConfig::virgo().with_clusters(2));
        assert_eq!(
            gpu.run(&kernel, 100).unwrap_err(),
            SimError::ClusterOutOfRange {
                max_cluster: 3,
                clusters: 2
            }
        );
    }

    #[test]
    fn deadlocked_kernel_times_out_with_diagnosis() {
        // A single warp waiting at a two-participant barrier never finishes.
        let mut b = ProgramBuilder::new();
        b.op(WarpOp::Barrier { id: 0 });
        let lonely = Kernel::new(
            KernelInfo::new("deadlock", 0, DataType::Fp16),
            vec![
                WarpAssignment::new(0, 0, Arc::new(b.build())),
                WarpAssignment::new(0, 1, Arc::new(ProgramBuilder::new().build())),
            ],
        );
        let mut gpu = Gpu::new(GpuConfig::virgo());
        let Err(SimError::Timeout { limit, diagnosis }) = gpu.run(&lonely, 2000) else {
            panic!("expected a timeout");
        };
        assert_eq!(limit, 2000);
        assert_eq!(diagnosis.verdict, WatchdogVerdict::Deadlock);
        assert_eq!(diagnosis.active_fault_windows, 0);
        assert_eq!(diagnosis.warps.len(), 1);
        assert_eq!(diagnosis.warps[0].cluster, 0);
        assert_eq!(diagnosis.warps[0].core, 0);
        assert_eq!(diagnosis.warps[0].blocked_on, BlockedOn::Barrier { id: 0 });
        assert_eq!(
            diagnosis.count_where(|b| matches!(b, BlockedOn::Barrier { .. })),
            1
        );
    }

    #[test]
    fn fence_deadlock_diagnosis_reports_outstanding_ops() {
        // A fence that can never be satisfied: threshold 0 with an async
        // matrix command the (unit-less) configuration will never complete.
        let cmd = virgo_isa::MmioCommand::MatrixCompute(virgo_isa::MatrixComputeCmd {
            a: virgo_isa::AddrExpr::fixed(0),
            b: virgo_isa::AddrExpr::fixed(0),
            acc_addr: 0,
            m: 64,
            n: 64,
            k: 1024,
            accumulate: false,
            dtype: DataType::Fp16,
        });
        let mut b = ProgramBuilder::new();
        b.op(WarpOp::MmioWrite {
            device: virgo_isa::DeviceId::MATRIX0,
            cmd,
        });
        b.op(WarpOp::FenceAsync { max_outstanding: 0 });
        let kernel = Kernel::new(
            KernelInfo::new("fence-stuck", 0, DataType::Fp16),
            vec![WarpAssignment::new(0, 0, Arc::new(b.build()))],
        );
        let mut gpu = Gpu::new(GpuConfig::virgo());
        // Budget too small for the 64x64x1024 command to finish streaming.
        let Err(SimError::Timeout { diagnosis, .. }) = gpu.run(&kernel, 500) else {
            panic!("expected a timeout");
        };
        assert_eq!(diagnosis.warps.len(), 1);
        assert!(matches!(
            diagnosis.warps[0].blocked_on,
            BlockedOn::Fence {
                max_outstanding: 0,
                outstanding: 1
            }
        ));
        // The unit keeps streaming (activity) while the warp spins without
        // retiring anything: the watchdog calls that a livelock.
        assert_eq!(diagnosis.verdict, WatchdogVerdict::Livelock);
        let msg = SimError::Timeout {
            limit: 500,
            diagnosis,
        }
        .to_string();
        assert!(msg.contains("virgo_fence(0)"), "{msg}");
        assert!(msg.contains("livelock"), "{msg}");
    }

    #[test]
    fn undersized_budget_is_classified_as_slow_progress() {
        // 1000 back-to-back ALU instructions cannot retire in 100 cycles,
        // but the core retires one every cycle right up to the limit.
        let mut gpu = Gpu::new(GpuConfig::virgo());
        for mode in [SimMode::Naive, SimMode::FastForward] {
            let Err(SimError::Timeout { diagnosis, .. }) =
                gpu.run_with_mode(&kernel(1000), 100, mode)
            else {
                panic!("expected a timeout");
            };
            assert_eq!(diagnosis.verdict, WatchdogVerdict::SlowProgress, "{mode}");
        }
    }

    #[test]
    fn deadlock_verdict_is_mode_identical() {
        let mut b = ProgramBuilder::new();
        b.op(WarpOp::Barrier { id: 0 });
        let lonely = Kernel::new(
            KernelInfo::new("deadlock", 0, DataType::Fp16),
            vec![
                WarpAssignment::new(0, 0, Arc::new(b.build())),
                WarpAssignment::new(0, 1, Arc::new(ProgramBuilder::new().build())),
            ],
        );
        let mut gpu = Gpu::new(GpuConfig::virgo());
        for mode in [SimMode::Naive, SimMode::FastForward] {
            let Err(SimError::Timeout { diagnosis, .. }) = gpu.run_with_mode(&lonely, 2000, mode)
            else {
                panic!("expected a timeout");
            };
            assert_eq!(diagnosis.verdict, WatchdogVerdict::Deadlock, "{mode}");
        }
    }

    #[test]
    fn timeout_diagnosis_renders_fault_windows_and_warp_table() {
        let diag = TimeoutDiagnosis {
            verdict: WatchdogVerdict::Deadlock,
            active_fault_windows: 2,
            warps: vec![
                WarpDiagnosis {
                    cluster: 0,
                    core: 0,
                    warp: 0,
                    blocked_on: BlockedOn::Barrier { id: 1 },
                },
                WarpDiagnosis {
                    cluster: 1,
                    core: 3,
                    warp: 7,
                    blocked_on: BlockedOn::Stalled,
                },
            ],
            job: None,
        };
        let msg = diag.to_string();
        assert!(msg.starts_with("deadlock: 2 unfinished warp(s)"), "{msg}");
        assert!(msg.contains("2 injected fault window(s) active"), "{msg}");
        // One indented table row per warp.
        assert_eq!(msg.lines().count(), 3, "{msg}");
        assert!(msg.contains("\n  cluster 1 core 3 warp 7"), "{msg}");
        // A session timeout names the owning job right after the headline.
        let named = TimeoutDiagnosis {
            job: Some("tenant-a/req3".to_string()),
            ..diag
        };
        let msg = named.to_string();
        assert!(
            msg.starts_with("deadlock: 2 unfinished warp(s) in job 'tenant-a/req3'"),
            "{msg}"
        );
    }

    #[test]
    fn runs_are_reproducible() {
        let mut gpu = Gpu::new(GpuConfig::virgo());
        let a = gpu.run(&kernel(64), 100_000).unwrap();
        let b = gpu.run(&kernel(64), 100_000).unwrap();
        assert_eq!(a.cycles(), b.cycles());
        assert_eq!(a.instructions_retired(), b.instructions_retired());
        assert!((a.total_energy_mj() - b.total_energy_mj()).abs() < 1e-15);
    }

    #[test]
    fn error_messages_are_informative() {
        assert!(SimError::Timeout {
            limit: 5,
            diagnosis: TimeoutDiagnosis::default()
        }
        .to_string()
        .contains("5 cycles"));
        assert!(SimError::EmptyKernel.to_string().contains("no warps"));
        let diag = TimeoutDiagnosis {
            warps: vec![WarpDiagnosis {
                cluster: 1,
                core: 2,
                warp: 3,
                blocked_on: BlockedOn::Barrier { id: 7 },
            }],
            ..TimeoutDiagnosis::default()
        };
        let msg = SimError::Timeout {
            limit: 9,
            diagnosis: diag,
        }
        .to_string();
        assert!(msg.contains("cluster 1 core 2 warp 3"), "{msg}");
        assert!(msg.contains("barrier 7"), "{msg}");
    }
}
