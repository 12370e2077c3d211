//! Simulation reports: cycles, utilization, energy, power and area, with
//! per-cluster breakdowns and machine-wide aggregates.
//!
//! A report stores each counter once, in the per-cluster slice that
//! attributes it ([`ClusterReport`]). Every machine-wide aggregate —
//! [`SimReport::core_stats`], [`SimReport::gmem_stats`],
//! [`SimReport::dram_stats`], [`SimReport::dsm_stats`] and the rest — is a
//! sum over the slices, taken when the accessor is called.

use virgo_energy::{
    AreaModel, AreaReport, Component, EnergyEvent, EnergyLedger, EnergyTable, MatrixSubcomponent,
    PowerReport,
};
use virgo_isa::KernelInfo;
use virgo_mem::{
    ClusterContentionStats, ClusterDsmStats, DmaStats, DramStats, DsmFabricStats, DsmLinkStats,
    GlobalMemoryStats, SmemStats,
};
use virgo_sim::{ClusterFaultStats, Counters, Cycle, FaultPlan, FaultStats, Frequency, Ratio};
use virgo_simt::CoreStats;

use crate::cluster::{Cluster, ClusterStats};
use crate::config::DesignKind;

/// Event-driven scheduler statistics: how the fast-forward scheduler spent
/// a job's residency and which component class pinned each event.
///
/// A job's counters cover its own components (its clusters' devices and
/// cores) plus the DSM fabric while it was resident; for a
/// [`crate::run::Gpu::run`], whose one job owns every cluster from cycle 0,
/// that is the whole machine. These counters describe the *scheduler*, not
/// the architecture: they are all zero under `SimMode::Naive` (which has no
/// scheduler) and are deliberately excluded from the report
/// digest/fingerprint, so the two simulation modes stay bit-identical on
/// every architectural statistic while still exposing where the event
/// queue's time went.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Cycles on which at least one of the job's components (or the
    /// fabric) was scheduled and ticked.
    pub processed_cycles: u64,
    /// The rest of the residency: cycles jumped over without touching any
    /// of the job's components.
    pub skipped_cycles: u64,
    /// SIMT-core ticks the scheduler dispatched.
    pub simt_events: u64,
    /// Device ticks pinned by a disaggregated Gemmini matrix unit (an event
    /// horizon — typically a block boundary of a batched operand schedule —
    /// at or before the dispatched cycle).
    pub gemmini_events: u64,
    /// Device ticks pinned by an operand-decoupled tensor unit.
    pub tensor_events: u64,
    /// Device ticks pinned by the cluster DMA engine.
    pub dma_events: u64,
    /// Inter-cluster DSM fabric ticks (dispatched at transfer deliveries).
    pub dsm_events: u64,
    /// Always zero: the scheduler has no dense-region fallback to naive
    /// stepping any more. Kept so existing readers of the field still build.
    pub bailout_engagements: u64,
}
virgo_sim::counters!(SchedStats {
    processed_cycles,
    skipped_cycles,
    simt_events,
    gemmini_events,
    tensor_events,
    dma_events,
    dsm_events,
    bailout_engagements,
});

/// Per-cluster slice of a [`SimReport`].
///
/// Each entry aggregates one cluster's private resources (cores, shared
/// memory, L1 front-end, DMA engine, matrix units) plus the traffic this
/// cluster issued to the shared L2/DRAM back-end and the DSM fabric.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// The cluster's index within the machine.
    pub cluster: u32,
    /// Aggregated SIMT-core statistics for this cluster.
    pub core_stats: CoreStats,
    /// This cluster's shared-memory statistics.
    pub smem_stats: SmemStats,
    /// This cluster's L1 front-end statistics. The `l2_*`/`dma_bytes`
    /// fields are zero here: the shared back-end counts this cluster's L2
    /// and DMA traffic in [`ClusterReport::contention`], and
    /// [`SimReport::gmem_stats`] adds it in.
    pub gmem_stats: GlobalMemoryStats,
    /// This cluster's DMA statistics, when the design has a DMA engine.
    pub dma_stats: Option<DmaStats>,
    /// This cluster's MMIO / async-tracking statistics.
    pub cluster_stats: ClusterStats,
    /// This cluster's L2, DMA and per-channel DRAM traffic on the shared
    /// back-end, with the contention it suffered there and the DRAM
    /// re-stripes and recovery latency its accesses were charged.
    pub contention: ClusterContentionStats,
    /// This cluster's traffic over the inter-cluster DSM fabric, with its
    /// transfers' reroutes, blocked and recovery cycles (all counters zero
    /// when the fabric is disabled or unused).
    pub dsm: ClusterDsmStats,
    /// Multiply-accumulates performed by this cluster's matrix units.
    pub performed_macs: u64,
    /// Active energy this cluster's events contributed, in millijoules,
    /// without its DRAM bursts (see [`SimReport`] on the energy total).
    pub energy_mj: f64,
    /// This cluster's slice of the fault-injection accounting (all zero
    /// without a fault plan): cluster-scoped windows that activated, this
    /// cluster's scratchpad ECC events and its degraded-mode cycles.
    pub fault: ClusterFaultStats,
}

impl ClusterReport {
    /// Cycles this cluster's DRAM transfers spent queued behind busy shared
    /// channels (critical-path wait per logical transfer) — the per-cluster
    /// contention metric of the scaling study. See
    /// [`ClusterContentionStats::dram_stall_cycles`] for the exact
    /// accounting and `contention.per_channel` for the channel breakdown.
    pub fn dram_stall_cycles(&self) -> u64 {
        self.contention.dram_stall_cycles
    }
}

/// How evenly a kernel's work landed on the clusters, derived from the
/// per-cluster report slices (see [`SimReport::load_imbalance`]).
///
/// Two axes, both expressed as a max/mean spread where 1.0 is a perfectly
/// balanced machine and N is everything-on-one-cluster:
///
/// * **active cycles** — per-cluster SIMT active cycles, the compute-side
///   view of tail-cluster effects on irregular grids, and
/// * **DSM ingress bytes** — per-destination fabric traffic, the
///   reduction-side view: an all-to-one reduction shows a spread of N (the
///   whole reduction funnels into one ingress link) while a rotated one sits
///   near 1.0.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadImbalance {
    /// SIMT active cycles per cluster, in cluster order.
    pub active_cycles: Vec<u64>,
    /// DSM ingress bytes per cluster (traffic *arriving at* each cluster's
    /// port), in cluster order; all zero when the fabric is unused.
    pub dsm_ingress_bytes: Vec<u64>,
    /// `max / mean` of the per-cluster active cycles (0.0 when no cluster
    /// recorded an active cycle).
    pub active_spread: f64,
    /// `max / mean` of the per-cluster ingress bytes (0.0 when the fabric
    /// moved no bytes).
    pub dsm_ingress_spread: f64,
}

/// `max / mean` of a sample vector, 0.0 for an empty or all-zero vector.
fn spread(samples: &[u64]) -> f64 {
    let total: u64 = samples.iter().sum();
    if total == 0 || samples.is_empty() {
        return 0.0;
    }
    let mean = total as f64 / samples.len() as f64;
    let max = samples.iter().copied().max().unwrap_or(0);
    max as f64 / mean
}

/// The result of simulating one kernel on one GPU configuration.
///
/// A report bundles the raw event statistics together with the derived
/// quantities the paper's evaluation uses: cycle count, MAC utilization
/// (Table 3), per-component active power (Figures 8–10), matrix-unit energy
/// breakdown (Figure 11), shared-memory read footprint (Table 4) and the SoC
/// area breakdown (Figure 7).
///
/// The report stores the per-cluster slices ([`SimReport::per_cluster`])
/// and no machine-wide copy of any counter: each aggregate accessor sums the
/// slices when called, so with a single cluster it equals the slice. A job
/// that shared the machine with others reports exactly the traffic its own
/// clusters issued.
///
/// Energy is the one total that is not a plain sum of
/// [`ClusterReport::energy_mj`]: a slice covers its cluster's own events,
/// while the total also charges the DRAM bursts the slices' per-channel
/// counters hold, once per burst on the channel that served it. The slice
/// is therefore slightly below the total even at one cluster.
#[derive(Debug, Clone)]
pub struct SimReport {
    // Fields are `pub(crate)` so the sibling `snapshot` module can serialize
    // and rehydrate reports for the sweep cache; external code goes through
    // the accessors below.
    pub(crate) design: DesignKind,
    pub(crate) kernel_name: String,
    pub(crate) cycles: Cycle,
    pub(crate) frequency: Frequency,
    pub(crate) kernel_macs: u64,
    pub(crate) peak_macs_per_cycle: u64,
    pub(crate) per_cluster: Vec<ClusterReport>,
    /// Fault-plan windows first activated during the residency, machine-wide.
    pub(crate) fault_windows: u64,
    /// Residency cycles with at least one fault-plan window active,
    /// machine-wide.
    pub(crate) degraded_cycles: u64,
    pub(crate) sched: SchedStats,
    pub(crate) power: PowerReport,
    pub(crate) area: AreaReport,
}

/// One job's view of the machine at retirement: the cluster slots the job
/// owned plus the shared components' per-cluster slices accumulated over its
/// residency window (retirement minus admission snapshots), of which the
/// report keeps the job's own clusters'.
///
/// A [`crate::run::Gpu::run`] session builds the degenerate view — every
/// cluster, a cold machine's zero base, `admitted = 0` — the whole
/// machine's report.
pub(crate) struct JobView<'a> {
    /// The cluster slots the job ran on, in cluster-id order.
    pub(crate) clusters: Vec<&'a Cluster>,
    /// The back-end's per-cluster slices over the residency window.
    pub(crate) contention: Vec<ClusterContentionStats>,
    /// The DSM fabric's per-cluster slices over the residency window.
    pub(crate) dsm: Vec<ClusterDsmStats>,
    /// Absolute cycle the job was admitted (0 for a standalone run).
    pub(crate) admitted: u64,
    /// Absolute cycle the window closed (equals the relative cycle count
    /// for a standalone run).
    pub(crate) end: u64,
}

/// Fault windows first activated inside `(admitted, end]` — all of them when
/// `admitted` is zero, so the standalone path is unchanged.
fn windows_between(count_by: impl Fn(u64) -> u64, admitted: u64, end: u64) -> u64 {
    let before = if admitted == 0 {
        0
    } else {
        count_by(admitted - 1)
    };
    count_by(end).saturating_sub(before)
}

impl SimReport {
    /// Builds a report from one job's view of the machine.
    ///
    /// `cycles` is the job's residency duration (`end - admitted`). All
    /// plan-derived fault counters are windowed to the residency. Every
    /// counter, DRAM burst energy and the degraded-mode reroutes,
    /// re-stripes and recovery included, comes from the job's own clusters'
    /// slices, so it is exact under concurrent residency too.
    pub(crate) fn from_parts(
        view: &JobView<'_>,
        info: &KernelInfo,
        cycles: Cycle,
        sched: SchedStats,
    ) -> Self {
        let config = view.clusters[0].config();
        let table = EnergyTable::default_16nm();
        let plan: &FaultPlan = &config.faults;
        let (admitted, end) = (view.admitted, view.end);

        // Per-cluster slices, each with its own energy ledger; the machine
        // ledger is their merge plus the slices' DRAM bursts.
        let mut machine_ledger = EnergyLedger::new();
        let mut per_cluster = Vec::with_capacity(view.clusters.len());
        for &cluster in &view.clusters {
            let id = cluster.cluster_id();
            let contention = view.contention[id as usize].clone();
            let dsm = view.dsm[id as usize].clone();
            let ledger = build_cluster_ledger(cluster, &contention, &dsm);
            let devices = cluster.devices();
            let ecc = devices.smem.ecc_stats();
            // DRAM interface energy is charged per channel: each channel's
            // PHY and controller see only the bursts routed to it.
            for channel in &contention.per_channel {
                machine_ledger.record(
                    Component::DmaOther,
                    EnergyEvent::DramBurst,
                    channel.dram.bursts,
                );
            }
            per_cluster.push(ClusterReport {
                cluster: id,
                core_stats: cluster.core_stats(),
                smem_stats: devices.smem.stats(),
                gmem_stats: devices.gmem.stats(),
                dma_stats: devices.dma.as_ref().map(|d| d.stats()),
                cluster_stats: devices.stats(),
                contention,
                dsm,
                performed_macs: cluster.performed_macs(),
                energy_mj: ledger.total_energy_pj(&table) * 1e-9,
                fault: ClusterFaultStats {
                    injected: windows_between(
                        |c| plan.cluster_windows_activated_by(id, c),
                        admitted,
                        end,
                    ) + ecc.injected,
                    detected: ecc.detected,
                    corrected: ecc.corrected,
                    degraded_cycles: plan
                        .cluster_degraded_cycles(id, end)
                        .saturating_sub(plan.cluster_degraded_cycles(id, admitted)),
                },
            });
            machine_ledger.merge(&ledger);
        }
        let power = PowerReport::from_ledger(&machine_ledger, &table, cycles, config.frequency);
        let area = AreaModel::default_16nm().estimate(&config.area_params());

        SimReport {
            design: config.design,
            kernel_name: info.name.clone(),
            cycles,
            frequency: config.frequency,
            kernel_macs: info.total_macs,
            peak_macs_per_cycle: config.machine_peak_macs_per_cycle(),
            per_cluster,
            // The plan's windows are machine-wide: activations and the
            // union of degraded cycles, both clipped to the residency.
            fault_windows: windows_between(|c| plan.windows_activated_by(c), admitted, end),
            degraded_cycles: plan
                .degraded_cycles(end)
                .saturating_sub(plan.degraded_cycles(admitted)),
            sched,
            power,
            area,
        }
    }

    /// The design point that ran the kernel.
    pub fn design(&self) -> DesignKind {
        self.design
    }

    /// The kernel's name.
    pub fn kernel_name(&self) -> &str {
        &self.kernel_name
    }

    /// Simulated cycles from kernel launch to completion.
    pub fn cycles(&self) -> Cycle {
        self.cycles
    }

    /// Simulated runtime in seconds at the SoC clock.
    pub fn runtime_seconds(&self) -> f64 {
        self.frequency.cycles_to_seconds(self.cycles)
    }

    /// The sum of one counter set over the per-cluster slices.
    fn sum<T: Counters + Default>(&self, field: impl Fn(&ClusterReport) -> &T) -> T {
        let mut total = T::default();
        self.per_cluster.iter().for_each(|c| total.merge(field(c)));
        total
    }

    /// Multiply-accumulates actually performed by the matrix units, summed
    /// over every cluster.
    pub fn performed_macs(&self) -> u64 {
        self.sum(|c| &c.performed_macs)
    }

    /// Multiply-accumulates the kernel was expected to perform.
    pub fn kernel_macs(&self) -> u64 {
        self.kernel_macs
    }

    /// MAC utilization — the Table 3 metric: performed MACs divided by the
    /// machine's peak MAC capacity over the runtime.
    pub fn mac_utilization(&self) -> Ratio {
        Ratio::new(
            self.performed_macs() as f64,
            self.cycles.as_f64() * self.peak_macs_per_cycle as f64,
        )
    }

    /// Total instructions retired by the SIMT cores (excluding fence polls).
    pub fn instructions_retired(&self) -> u64 {
        self.core_stats().instrs_issued
    }

    /// Busy-register polls issued inside `virgo_fence` loops.
    pub fn fence_poll_instructions(&self) -> u64 {
        self.core_stats().fence_poll_instrs
    }

    /// Cycles during which at least one warp was spinning in `virgo_fence`
    /// (Section 4.5.1's synchronization-overhead metric), summed over cores.
    pub fn fence_wait_cycles(&self) -> u64 {
        self.core_stats().fence_wait_cycles
    }

    /// The shared-memory read footprint in bytes (Table 4).
    pub fn smem_read_footprint_bytes(&self) -> u64 {
        self.smem_stats().bytes_read
    }

    /// SIMT-core statistics, summed over clusters.
    pub fn core_stats(&self) -> CoreStats {
        self.sum(|c| &c.core_stats)
    }

    /// Shared-memory statistics, summed over clusters.
    pub fn smem_stats(&self) -> SmemStats {
        self.sum(|c| &c.smem_stats)
    }

    /// Event-driven scheduler statistics (all zero under `SimMode::Naive`;
    /// excluded from the report digest).
    pub fn sched_stats(&self) -> &SchedStats {
        &self.sched
    }

    /// Global-memory (cache hierarchy) statistics, summed over clusters:
    /// the L1 front-ends' counters plus the L2 and DMA traffic each cluster
    /// issued to the shared back-end.
    pub fn gmem_stats(&self) -> GlobalMemoryStats {
        let mut total = self.sum(|c| &c.gmem_stats);
        for c in &self.per_cluster {
            total.l2_accesses += c.contention.l2_accesses;
            total.l2_misses += c.contention.l2_misses;
            total.dma_bytes += c.contention.dma_bytes;
        }
        total
    }

    /// DRAM interface statistics, summed over clusters and channels.
    pub fn dram_stats(&self) -> DramStats {
        let mut total = DramStats::default();
        self.dram_channel_stats()
            .iter()
            .for_each(|c| total.merge(c));
        total
    }

    /// Per-channel DRAM interface statistics, summed over clusters, in
    /// channel order. A single-channel machine has exactly one entry, equal
    /// to [`SimReport::dram_stats`].
    pub fn dram_channel_stats(&self) -> Vec<DramStats> {
        ClusterContentionStats::dram_channels(self.per_cluster.iter().map(|c| &c.contention))
    }

    /// Number of DRAM channels the machine's back-end was configured with.
    pub fn dram_channels(&self) -> usize {
        self.dram_channel_stats().len()
    }

    /// DMA statistics summed over clusters, when the design has DMA engines.
    pub fn dma_stats(&self) -> Option<DmaStats> {
        let mut slices = self.per_cluster.iter().filter_map(|c| c.dma_stats.as_ref());
        let mut total = *slices.next()?;
        slices.for_each(|s| total.merge(s));
        Some(total)
    }

    /// Cluster-level (MMIO / async tracking) statistics, summed over
    /// clusters.
    pub fn cluster_stats(&self) -> ClusterStats {
        self.sum(|c| &c.cluster_stats)
    }

    /// Per-cluster breakdowns, in cluster order.
    pub fn per_cluster(&self) -> &[ClusterReport] {
        &self.per_cluster
    }

    /// Number of clusters the machine simulated.
    pub fn clusters(&self) -> usize {
        self.per_cluster.len()
    }

    /// Total wall-clock cycles DRAM transfers lost to channel contention,
    /// summed over clusters — the machine-wide contention metric of the
    /// cluster-scaling study. Each logical transfer contributes its exposed
    /// critical-path wait: queueing the fixed DRAM latency hides costs
    /// nothing, and a DMA split across channels counts the slowest
    /// channel's queue rather than the sum of concurrent queues, so the
    /// metric is comparable across DRAM channel counts.
    pub fn dram_contention_stall_cycles(&self) -> u64 {
        self.sum(|c| &c.contention.dram_stall_cycles)
    }

    /// Inter-cluster DSM fabric counters, summed over the requester
    /// clusters (all zero when the fabric is disabled or the kernel never
    /// issued remote traffic).
    pub fn dsm_stats(&self) -> DsmFabricStats {
        DsmFabricStats::sum(self.per_cluster.iter().map(|c| &c.dsm))
    }

    /// Per-ingress-link DSM traffic, summed over requester clusters, in
    /// link (= destination cluster) order.
    pub fn dsm_link_stats(&self) -> Vec<DsmLinkStats> {
        self.sum(|c| &c.dsm.per_link)
    }

    /// Bytes moved cluster-to-cluster over the DSM fabric.
    pub fn dsm_bytes(&self) -> u64 {
        self.dsm_stats().bytes
    }

    /// The per-cluster load-imbalance view: SIMT active cycles per cluster
    /// and DSM ingress bytes per destination cluster, each with its
    /// `max / mean` spread. Derived entirely from the stored per-cluster
    /// slices, so it is available on cache-rehydrated reports too.
    pub fn load_imbalance(&self) -> LoadImbalance {
        let active_cycles: Vec<u64> = self
            .per_cluster
            .iter()
            .map(|c| c.core_stats.active_cycles)
            .collect();
        let dsm_ingress_bytes: Vec<u64> = self.dsm_link_stats().iter().map(|l| l.bytes).collect();
        LoadImbalance {
            active_spread: spread(&active_cycles),
            dsm_ingress_spread: spread(&dsm_ingress_bytes),
            active_cycles,
            dsm_ingress_bytes,
        }
    }

    /// Fault-injection and degraded-mode accounting (all zero when the
    /// configuration carries no fault plan). The ECC events, reroutes,
    /// blocked cycles, re-stripes and recovery cycles are sums over the
    /// job's slices, so they are the job's own; the activated windows (in
    /// `injected`) and `degraded_cycles` are machine-wide facts of the fault
    /// plan, clipped to the residency.
    pub fn fault_stats(&self) -> FaultStats {
        let mut fault = FaultStats {
            injected: self.fault_windows,
            degraded_cycles: self.degraded_cycles,
            ..FaultStats::default()
        };
        for c in &self.per_cluster {
            // The SECDED model detects every upset it injects, so a slice's
            // ECC injections are its detections.
            fault.injected += c.fault.detected;
            fault.detected += c.fault.detected;
            fault.corrected += c.fault.corrected;
            fault.dsm_rerouted_transfers += c.dsm.rerouted_transfers;
            fault.dsm_blocked_cycles += c.dsm.blocked_cycles;
            fault.dram_restriped_accesses += c.contention.dram_restriped_accesses;
            fault.recovery_cycles += c.dsm.recovery_cycles + c.contention.dram_recovery_cycles;
        }
        fault
    }

    /// True when any fault activity was recorded: a window activated, an
    /// ECC upset was injected, or a component ran in degraded mode.
    pub fn faults_injected(&self) -> bool {
        let fault = self.fault_stats();
        fault.injected > 0 || fault.degraded_cycles > 0
    }

    /// Total DRAM traffic in bytes at the channel interface (after burst
    /// rounding) — the demand the DSM fabric exists to reduce.
    pub fn dram_bytes(&self) -> u64 {
        self.dram_stats().bytes
    }

    /// The active power / energy report (Figures 8–11).
    pub fn power(&self) -> &PowerReport {
        &self.power
    }

    /// The SoC area breakdown (Figure 7).
    pub fn area(&self) -> &AreaReport {
        &self.area
    }

    /// Total active energy in millijoules.
    pub fn total_energy_mj(&self) -> f64 {
        self.power.total_energy_mj()
    }

    /// Total SoC active power in milliwatts.
    pub fn active_power_mw(&self) -> f64 {
        self.power.active_power_mw()
    }
}

/// Converts the event counters of one cluster's components into an energy
/// ledger. Shared-L2 accesses are charged to the requesting cluster via its
/// `contention` counters, and DSM link-hop traversals via its `dsm`
/// counters; DRAM bursts are *not* recorded here — the report's total
/// charges them from the same `contention` slices, per channel.
fn build_cluster_ledger(
    cluster: &Cluster,
    contention: &ClusterContentionStats,
    dsm: &ClusterDsmStats,
) -> EnergyLedger {
    let devices = cluster.devices();
    let core_stats = cluster.core_stats();
    let mut ledger = EnergyLedger::new();

    // SIMT cores (Figure 10 stages). Register reads are part of the issue /
    // operand-collection stage; register writes are charged to writeback,
    // matching the paper's attribution of register-file power.
    ledger.record(
        Component::CoreIssue,
        EnergyEvent::InstrIssued,
        core_stats.instrs_issued + core_stats.fence_poll_instrs,
    );
    ledger.record(
        Component::CoreIssue,
        EnergyEvent::RegRead,
        core_stats.rf_reads,
    );
    ledger.record(
        Component::CoreWriteback,
        EnergyEvent::RegWrite,
        core_stats.rf_writes,
    );
    ledger.record(
        Component::CoreWriteback,
        EnergyEvent::Writeback,
        core_stats.writebacks,
    );
    ledger.record(
        Component::CoreAlu,
        EnergyEvent::AluOp,
        core_stats.alu_lane_ops,
    );
    ledger.record(
        Component::CoreFpu,
        EnergyEvent::FpuOp,
        core_stats.fpu_lane_ops,
    );
    ledger.record(
        Component::CoreLsu,
        EnergyEvent::LsuOp,
        core_stats.lsu_lane_ops,
    );
    ledger.record(
        Component::CoreLsu,
        EnergyEvent::CoalescerOp,
        devices.coalescer_ops(),
    );
    ledger.record(
        Component::CoreOther,
        EnergyEvent::BarrierEvent,
        core_stats.barrier_arrivals + devices.synchronizer.release_events(),
    );
    ledger.record(
        Component::CoreOther,
        EnergyEvent::MmioAccess,
        core_stats.fence_poll_instrs,
    );

    // Instruction fetch: one L1I line access per group of issued
    // instructions, plus the data-side L1 traffic of this cluster's
    // front-end. The shared L2 is charged with the cluster's own accesses so
    // contention energy follows the requester.
    let gmem = devices.gmem.stats();
    ledger.record(
        Component::L1Cache,
        EnergyEvent::L1Access,
        core_stats.icache_accesses + gmem.l1_accesses,
    );
    ledger.record(Component::L1Cache, EnergyEvent::L1Fill, gmem.l1_misses);
    ledger.record(
        Component::L2Cache,
        EnergyEvent::L2Access,
        contention.l2_accesses,
    );

    // Shared memory.
    let smem = devices.smem.stats();
    ledger.record(
        Component::SharedMem,
        EnergyEvent::SmemWordAccess,
        smem.words_read + smem.words_written,
    );
    ledger.record(
        Component::SharedMem,
        EnergyEvent::SmemConflict,
        smem.conflict_cycles,
    );

    // DMA engine and MMIO plumbing.
    if let Some(dma) = &devices.dma {
        ledger.record(Component::DmaOther, EnergyEvent::DmaBeat, dma.stats().beats);
    }
    // Inter-cluster DSM fabric: each flit-hop traversal is charged to the
    // requesting cluster (zero when the fabric is disabled, so the ledger —
    // and every pinned energy bit — is untouched on non-DSM machines).
    ledger.record(Component::DmaOther, EnergyEvent::DsmLinkHop, dsm.hop_flits);
    ledger.record(
        Component::DmaOther,
        EnergyEvent::MmioAccess,
        devices.stats().mmio_writes,
    );

    // Tightly-coupled tensor units (Volta/Ampere-style).
    for unit in &devices.tightly_units {
        let s = unit.stats();
        ledger.record_matrix(MatrixSubcomponent::PeArray, EnergyEvent::MacTreePe, s.macs);
        ledger.record_matrix(
            MatrixSubcomponent::OperandBuffer,
            EnergyEvent::OperandBufferAccess,
            s.operand_buffer_words,
        );
        ledger.record_matrix(
            MatrixSubcomponent::ResultBuffer,
            EnergyEvent::ResultBufferAccess,
            s.result_buffer_words,
        );
        ledger.record_matrix(
            MatrixSubcomponent::Control,
            EnergyEvent::MatrixControl,
            s.control_events,
        );
    }

    // Operand-decoupled tensor units (Hopper-style). Their accumulator
    // traffic hits the core register file.
    for unit in &devices.decoupled_units {
        let s = unit.stats();
        ledger.record_matrix(MatrixSubcomponent::PeArray, EnergyEvent::MacTreePe, s.macs);
        ledger.record_matrix(
            MatrixSubcomponent::OperandBuffer,
            EnergyEvent::OperandBufferAccess,
            s.operand_buffer_words,
        );
        ledger.record_matrix(
            MatrixSubcomponent::ResultBuffer,
            EnergyEvent::ResultBufferAccess,
            s.result_buffer_words,
        );
        ledger.record_matrix(
            MatrixSubcomponent::Control,
            EnergyEvent::MatrixControl,
            s.control_events,
        );
        ledger.record(Component::CoreIssue, EnergyEvent::RegRead, s.rf_accum_reads);
        ledger.record(
            Component::CoreWriteback,
            EnergyEvent::RegWrite,
            s.rf_accum_writes,
        );
    }

    // Disaggregated matrix units (Virgo).
    for unit in &devices.gemmini_units {
        let s = unit.stats();
        ledger.record_matrix(
            MatrixSubcomponent::PeArray,
            EnergyEvent::MacSystolic,
            s.macs,
        );
        ledger.record_matrix(
            MatrixSubcomponent::SmemInterface,
            EnergyEvent::OperandBufferAccess,
            s.smem_words_read,
        );
        ledger.record_matrix(
            MatrixSubcomponent::AccumMem,
            EnergyEvent::AccumWordAccess,
            s.accum_words_read + s.accum_words_written,
        );
        ledger.record_matrix(
            MatrixSubcomponent::Control,
            EnergyEvent::MatrixControl,
            s.control_events,
        );
    }

    ledger
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GpuConfig;
    use crate::run::Gpu;
    use std::sync::Arc;
    use virgo_isa::{DataType, Kernel, ProgramBuilder, WarpAssignment, WarpOp};

    fn trivial_kernel(macs_claimed: u64) -> Kernel {
        let mut b = ProgramBuilder::new();
        b.op_n(
            32,
            WarpOp::Alu {
                rf_reads: 2,
                rf_writes: 1,
            },
        );
        Kernel::new(
            KernelInfo::new("alu-only", macs_claimed, DataType::Fp16),
            vec![WarpAssignment::new(0, 0, Arc::new(b.build()))],
        )
    }

    #[test]
    fn report_exposes_basic_quantities() {
        let mut gpu = Gpu::new(GpuConfig::virgo());
        let report = gpu.run(&trivial_kernel(0), 100_000).unwrap();
        assert_eq!(report.design(), DesignKind::Virgo);
        assert_eq!(report.kernel_name(), "alu-only");
        assert_eq!(report.instructions_retired(), 32);
        assert!(report.cycles().get() >= 32);
        assert!(report.runtime_seconds() > 0.0);
        assert!(report.total_energy_mj() > 0.0);
        assert!(report.active_power_mw() > 0.0);
        assert!(report.area().total_mm2() > 0.0);
        assert_eq!(report.clusters(), 1);
        assert_eq!(report.per_cluster().len(), 1);
    }

    #[test]
    fn utilization_is_zero_without_matrix_work() {
        let mut gpu = Gpu::new(GpuConfig::virgo());
        let report = gpu.run(&trivial_kernel(1000), 100_000).unwrap();
        assert_eq!(report.performed_macs(), 0);
        assert_eq!(report.mac_utilization().as_percent(), 0.0);
    }

    #[test]
    fn core_energy_dominates_for_alu_only_kernel() {
        let mut gpu = Gpu::new(GpuConfig::virgo());
        let report = gpu.run(&trivial_kernel(0), 100_000).unwrap();
        let core = report.power().core_energy_uj();
        let total = report.power().total_energy_uj();
        assert!(core > 0.0);
        assert!(core / total > 0.5, "core fraction {}", core / total);
    }

    #[test]
    fn single_cluster_slice_matches_machine_aggregates() {
        let mut gpu = Gpu::new(GpuConfig::virgo());
        let report = gpu.run(&trivial_kernel(0), 100_000).unwrap();
        let slice = &report.per_cluster()[0];
        assert_eq!(slice.core_stats, report.core_stats());
        assert_eq!(slice.smem_stats, report.smem_stats());
        assert_eq!(slice.performed_macs, report.performed_macs());
        assert_eq!(
            slice.dram_stall_cycles(),
            report.dram_contention_stall_cycles()
        );
    }

    #[test]
    fn multi_cluster_report_has_one_slice_per_cluster() {
        let program = {
            let mut b = ProgramBuilder::new();
            b.op_n(
                8,
                WarpOp::Alu {
                    rf_reads: 2,
                    rf_writes: 1,
                },
            );
            Arc::new(b.build())
        };
        let kernel = Kernel::new(
            KernelInfo::new("pair", 0, DataType::Fp16),
            vec![
                WarpAssignment::on_cluster(0, 0, 0, Arc::clone(&program)),
                WarpAssignment::on_cluster(1, 0, 0, Arc::clone(&program)),
            ],
        );
        let mut gpu = Gpu::new(GpuConfig::virgo().with_clusters(2));
        let report = gpu.run(&kernel, 100_000).unwrap();
        assert_eq!(report.clusters(), 2);
        assert_eq!(report.instructions_retired(), 16);
        let total: u64 = report
            .per_cluster()
            .iter()
            .map(|c| c.core_stats.instrs_issued)
            .sum();
        assert_eq!(total, 16);
        // Cluster energies sum to (almost exactly) the machine energy; the
        // shared DRAM burst charge is the only machine-level extra.
        let summed: f64 = report.per_cluster().iter().map(|c| c.energy_mj).sum();
        assert!(summed <= report.total_energy_mj() + 1e-12);
    }

    #[test]
    fn spread_handles_degenerate_inputs() {
        assert_eq!(spread(&[]), 0.0);
        assert_eq!(spread(&[0, 0, 0]), 0.0);
        assert_eq!(spread(&[100, 100, 100, 100]), 1.0);
        // Everything on one of four clusters: max / mean = 4.
        assert_eq!(spread(&[400, 0, 0, 0]), 4.0);
    }

    #[test]
    fn load_imbalance_reflects_uneven_cluster_work() {
        // Cluster 0 runs 4x the instructions of cluster 1.
        let busy = {
            let mut b = ProgramBuilder::new();
            b.op_n(
                64,
                WarpOp::Alu {
                    rf_reads: 2,
                    rf_writes: 1,
                },
            );
            Arc::new(b.build())
        };
        let light = {
            let mut b = ProgramBuilder::new();
            b.op_n(
                16,
                WarpOp::Alu {
                    rf_reads: 2,
                    rf_writes: 1,
                },
            );
            Arc::new(b.build())
        };
        let kernel = Kernel::new(
            KernelInfo::new("skew", 0, DataType::Fp16),
            vec![
                WarpAssignment::on_cluster(0, 0, 0, busy),
                WarpAssignment::on_cluster(1, 0, 0, light),
            ],
        );
        let mut gpu = Gpu::new(GpuConfig::virgo().with_clusters(2));
        let report = gpu.run(&kernel, 100_000).unwrap();
        let imbalance = report.load_imbalance();
        assert_eq!(imbalance.active_cycles.len(), 2);
        assert!(imbalance.active_cycles[0] > imbalance.active_cycles[1]);
        assert!(
            imbalance.active_spread > 1.0 && imbalance.active_spread <= 2.0,
            "spread {}",
            imbalance.active_spread
        );
        // No DSM traffic: the ingress axis reports zero, not NaN.
        assert_eq!(imbalance.dsm_ingress_spread, 0.0);
    }
}
