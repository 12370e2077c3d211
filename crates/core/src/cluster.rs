//! One cluster of the machine: SIMT cores plus the cluster-level devices
//! they share, executing against the machine-wide shared memory back-end.

use virgo_gemmini::GemminiUnit;
use virgo_isa::{decode_remote_smem, DeviceId, Kernel, MmioCommand, WgmmaOp};
use virgo_mem::{
    AccumulatorMemory, Coalescer, DmaEngine, DmaTransfer, DsmFabric, GlobalMemory, MemoryBackend,
    SharedMemory,
};
use virgo_sim::{earliest, Counters, Cycle};
use virgo_simt::{
    ClusterPort, ClusterSynchronizer, CoreStats, SimtCore, TickOutcome, WarpSnapshot,
};
use virgo_tensor::{OperandDecoupledUnit, TightlyCoupledUnit};

use crate::config::{DesignKind, GpuConfig};

/// Miscellaneous cluster-level event counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterStats {
    /// MMIO register writes routed over the cluster interconnect.
    pub mmio_writes: u64,
    /// MMIO writes rejected because the target device queue was full.
    pub mmio_rejects: u64,
    /// Asynchronous operations (DMA transfers and matrix commands) launched.
    pub async_ops_launched: u64,
    /// Asynchronous operations completed.
    pub async_ops_completed: u64,
}
virgo_sim::counters!(ClusterStats {
    mmio_writes,
    mmio_rejects,
    async_ops_launched,
    async_ops_completed,
});

/// Everything in the cluster that is *not* a SIMT core: memories,
/// matrix units, DMA, synchronizer and the MMIO/async-tracking glue.
///
/// The cores program against [`ClusterPort`], which the cluster implements by
/// pairing these devices with the machine-wide [`MemoryBackend`] at tick
/// time.
#[derive(Debug)]
pub struct ClusterDevices {
    /// The cluster shared memory.
    pub smem: SharedMemory,
    /// This cluster's global-memory front-end (the private per-core L1s);
    /// misses feed the shared [`MemoryBackend`].
    pub gmem: GlobalMemory,
    /// Per-core memory coalescers.
    coalescers: Vec<Coalescer>,
    /// The cluster-wide barrier synchronizer.
    pub synchronizer: ClusterSynchronizer,
    /// The cluster DMA engine, when the design has one.
    pub dma: Option<DmaEngine>,
    /// Per-core tightly-coupled tensor units (Volta/Ampere-style).
    pub tightly_units: Vec<TightlyCoupledUnit>,
    /// Per-core operand-decoupled tensor units (Hopper-style).
    pub decoupled_units: Vec<OperandDecoupledUnit>,
    /// Cluster-level disaggregated matrix units (Virgo).
    pub gemmini_units: Vec<GemminiUnit>,
    /// Accumulator memories, one per disaggregated unit.
    pub accumulators: Vec<AccumulatorMemory>,
    /// Monotonic tag source for DMA transfers.
    next_dma_tag: u64,
    stats: ClusterStats,
}

impl ClusterDevices {
    /// Builds the device complement for `cluster` of a configuration, sized
    /// for `participants` warps taking part in cluster barriers.
    pub fn new(config: &GpuConfig, cluster: u32, participants: u64) -> Self {
        let cores = config.cores as usize;
        let (tightly_units, decoupled_units) = match config.design {
            DesignKind::VoltaStyle | DesignKind::AmpereStyle => (
                (0..cores)
                    .map(|_| TightlyCoupledUnit::new(config.tightly))
                    .collect(),
                Vec::new(),
            ),
            DesignKind::HopperStyle => (
                Vec::new(),
                (0..cores)
                    .map(|_| OperandDecoupledUnit::new(config.decoupled))
                    .collect(),
            ),
            DesignKind::Virgo => (Vec::new(), Vec::new()),
        };
        let gemmini_units: Vec<GemminiUnit> = config
            .matrix_units
            .iter()
            .map(|spec| GemminiUnit::new(spec.gemmini))
            .collect();
        let accumulators = config
            .matrix_units
            .iter()
            .map(|spec| AccumulatorMemory::new(spec.accumulator_bytes, 64))
            .collect();
        let line_bytes = u64::from(config.global_memory().l1.line_bytes);
        let mut smem = SharedMemory::new(config.smem);
        if let Some(ecc) = config.faults.ecc_injector(cluster) {
            smem.set_ecc(ecc);
        }

        ClusterDevices {
            smem,
            gmem: GlobalMemory::for_cluster(config.global_memory(), cluster),
            coalescers: (0..cores).map(|_| Coalescer::new(line_bytes)).collect(),
            synchronizer: ClusterSynchronizer::new(participants.max(1)),
            dma: config.design.has_dma().then(|| DmaEngine::new(config.dma)),
            tightly_units,
            decoupled_units,
            gemmini_units,
            accumulators,
            next_dma_tag: 0,
            stats: ClusterStats::default(),
        }
    }

    /// Cluster-level event counters.
    pub fn stats(&self) -> ClusterStats {
        self.stats
    }

    /// Aggregated coalescer statistics across cores.
    pub fn coalescer_ops(&self) -> u64 {
        self.coalescers
            .iter()
            .map(|c| c.stats().line_requests)
            .sum()
    }

    /// Outstanding asynchronous operations (DMA + matrix commands):
    /// launched minus completed.
    pub fn async_outstanding(&self) -> u32 {
        (self.stats.async_ops_launched - self.stats.async_ops_completed) as u32
    }

    /// Advances every cluster device by one cycle. Global-memory traffic
    /// (the DMA engine's endpoints) flows through the shared `backend`;
    /// remote-scratchpad endpoints traverse the machine-wide DSM `fabric`.
    pub fn tick(&mut self, now: Cycle, backend: &mut MemoryBackend, fabric: &mut DsmFabric) {
        // The matrix units' batched operand schedules sit in the shared
        // memory's pending stream-read queue; replaying them at the right
        // points reproduces the reference one-read-per-cycle interleaving
        // exactly. Reads dated before this cycle were issued on earlier
        // (possibly skipped) ticks, so they precede everything this cycle
        // does; reads dated *at* this cycle land between the DMA sub-tick and
        // the core ticks, where the per-cycle FSM used to issue them.
        self.smem.drain_stream_reads(now, false);
        // DMA engine.
        if let Some(dma) = &mut self.dma {
            let completed = dma.tick(
                now,
                &mut self.gmem,
                backend,
                &mut self.smem,
                self.accumulators.first_mut(),
                fabric,
            );
            self.stats.async_ops_completed += completed.len() as u64;
        }
        self.smem.drain_stream_reads(now, true);
        // Disaggregated matrix units.
        for (unit, acc) in self
            .gemmini_units
            .iter_mut()
            .zip(self.accumulators.iter_mut())
        {
            self.stats.async_ops_completed += u64::from(unit.tick(now, &mut self.smem, acc));
        }
        // A command latched this cycle may have scheduled its first read for
        // this very cycle; apply it before the decoupled units and cores run.
        self.smem.drain_stream_reads(now, true);
        // Operand-decoupled tensor units.
        for unit in &mut self.decoupled_units {
            unit.tick(now, &mut self.smem);
        }
    }

    /// Reports the earliest cycle `>= now` at which ticking any cluster
    /// device can change observable state, or `None` when every engine is
    /// drained (see `virgo_sim::activity` for the contract).
    ///
    /// The tightly-coupled tensor units are deliberately absent: they have no
    /// tick; their structural-hazard release cycle reaches the fast-forward
    /// engine through `ClusterPort::hmma_busy_until` instead, so a core whose
    /// runnable warps are all hazard-blocked can jump to it.
    ///
    /// The shared memory has no horizon of its own, though its pending
    /// stream-read queue holds future-dated reads that only this block's
    /// tick drains. That stays sound: every pending read was scheduled by a
    /// Gemmini unit whose own horizon is at or before the end of the block
    /// that scheduled it, so the producer keeps this tick scheduled for as
    /// long as reads are outstanding (and a core access drains the reads due
    /// by then itself, in `ClusterPort::shared_access`).
    pub fn next_activity(&self, now: Cycle) -> Option<Cycle> {
        let mut next = self.dma.as_ref().and_then(|d| d.next_activity(now));
        for unit in &self.gemmini_units {
            next = earliest(next, unit.next_activity(now));
        }
        for unit in &self.decoupled_units {
            next = earliest(next, unit.next_activity(now));
        }
        next
    }

    /// Which device engine classes have an event horizon at or before `now`:
    /// `(dma, gemmini, tensor)`. The event-driven driver samples this right
    /// before a devices tick to attribute the event in
    /// [`crate::report::SchedStats`].
    pub(crate) fn due_engines(&self, now: Cycle) -> (bool, bool, bool) {
        let due = |h: Option<Cycle>| h.is_some_and(|t| t <= now);
        (
            self.dma.as_ref().is_some_and(|e| due(e.next_activity(now))),
            self.gemmini_units.iter().any(|u| due(u.next_activity(now))),
            self.decoupled_units
                .iter()
                .any(|u| due(u.next_activity(now))),
        )
    }

    /// Bulk-replays `cycles` skipped ticks of a quiescent window, during
    /// which only closed-form per-cycle accounting advances.
    ///
    /// Within such a window the decoupled units' ticks are no-ops between
    /// milestones, so the counters to replay are the DMA engine's busy time
    /// and the matrix units' mid-block compute schedules (their operand reads
    /// were pre-scheduled on block entry and drain independently).
    pub fn fast_forward(&mut self, cycles: u64) {
        if let Some(dma) = &mut self.dma {
            dma.fast_forward(cycles);
        }
        for unit in &mut self.gemmini_units {
            unit.fast_forward(cycles);
        }
    }

    /// True when every asynchronous engine has drained.
    pub fn quiescent(&self) -> bool {
        self.async_outstanding() == 0
            && self.dma.as_ref().is_none_or(DmaEngine::is_idle)
            && self.gemmini_units.iter().all(|u| !u.busy())
            && self.decoupled_units.iter().all(|u| u.pending() == 0)
            && self.smem.stream_reads_pending() == 0
    }

    /// Signature of "work was submitted to the devices": bumps when a core
    /// performs an MMIO write or enqueues into a decoupled tensor unit.
    /// Across a *core* tick neither term can decrease (retirement only
    /// happens in the devices tick), so a changed value means a submission
    /// and the event-driven driver wakes the devices on the next cycle.
    pub(crate) fn inbox_mark(&self) -> u64 {
        self.stats.mmio_writes
            + self
                .decoupled_units
                .iter()
                .map(|u| u64::from(u.pending()))
                .sum::<u64>()
    }

    /// Monotone signature of "an asynchronous operation completed": bumps
    /// when the DMA engine or a matrix unit retires an async op, or a
    /// decoupled tensor unit retires a wgmma. The event-driven driver
    /// compares it across a devices tick to unblock fence/drain-parked cores
    /// on the same cycle, exactly when the naive loop would.
    pub(crate) fn completion_mark(&self) -> u64 {
        self.stats.async_ops_completed
            + self
                .decoupled_units
                .iter()
                .map(|u| u.stats().ops)
                .sum::<u64>()
    }

    fn submit_dma(&mut self, cmd: &virgo_isa::DmaCopyCmd) -> bool {
        let Some(dma) = &mut self.dma else {
            // A design without a DMA engine silently drops the command; the
            // kernels generated for such designs never issue one.
            return true;
        };
        let transfer = DmaTransfer {
            src_region: cmd.src.region,
            src_addr: cmd.src.addr.resolved(),
            dst_region: cmd.dst.region,
            dst_addr: cmd.dst.addr.resolved(),
            bytes: cmd.bytes,
            tag: self.next_dma_tag,
        };
        match dma.submit(transfer) {
            Ok(()) => {
                self.next_dma_tag += 1;
                self.stats.async_ops_launched += 1;
                true
            }
            Err(_) => {
                self.stats.mmio_rejects += 1;
                false
            }
        }
    }

    fn submit_matrix(&mut self, unit: u8, cmd: &virgo_isa::MatrixComputeCmd) -> bool {
        let Some(target) = self.gemmini_units.get_mut(unit as usize) else {
            return true;
        };
        if target.try_submit(*cmd) {
            self.stats.async_ops_launched += 1;
            true
        } else {
            self.stats.mmio_rejects += 1;
            false
        }
    }
}

/// The borrow context a cluster's cores execute against: the cluster's own
/// devices paired with the machine-wide shared memory back-end and the
/// inter-cluster DSM fabric. This is the [`ClusterPort`] implementation the
/// cores see.
struct ClusterCtx<'a> {
    devices: &'a mut ClusterDevices,
    backend: &'a mut MemoryBackend,
    fabric: &'a mut DsmFabric,
}

impl ClusterPort for ClusterCtx<'_> {
    fn shared_access(&mut self, now: Cycle, _core: u32, lane_addrs: &[u64], write: bool) -> Cycle {
        // Lane addresses in the remote DSM window target a peer cluster's
        // scratchpad over the fabric; a warp's access is uniform (kernel
        // generators never mix local and remote lanes in one instruction),
        // so the first lane decides the route.
        if let Some(&first) = lane_addrs.first() {
            if let Some((peer, _)) = decode_remote_smem(first) {
                debug_assert!(
                    lane_addrs
                        .iter()
                        .all(|&a| decode_remote_smem(a).is_some_and(|(c, _)| c == peer)),
                    "mixed local/remote lanes in one shared access"
                );
                let bytes = lane_addrs.len() as u64 * 4;
                return self
                    .fabric
                    .transfer(now, self.devices.gmem.cluster(), peer, bytes);
            }
        }
        // Pending matrix-unit stream reads dated up to this cycle precede a
        // core access in the reference schedule (devices tick before cores);
        // under the event-driven driver the devices may be parked mid-block,
        // so replay them here before the core's access claims the banks.
        self.devices.smem.drain_stream_reads(now, true);
        self.devices.smem.access_simt(now, lane_addrs, write).done
    }

    fn global_access(
        &mut self,
        now: Cycle,
        core: u32,
        lane_addrs: &[u64],
        bytes_per_lane: u32,
        write: bool,
    ) -> Cycle {
        let line_bytes = self.devices.coalescers[core as usize].line_bytes();
        let line_requests =
            self.devices.coalescers[core as usize].coalesce_lines(lane_addrs, bytes_per_lane);
        let mut done = now;
        for &line in line_requests {
            done = done.max(self.devices.gmem.access_from_core(
                now,
                core as usize,
                line,
                line_bytes,
                write,
                self.backend,
            ));
        }
        done
    }

    fn try_hmma(&mut self, now: Cycle, core: u32, macs: u32) -> bool {
        self.devices
            .tightly_units
            .get_mut(core as usize)
            .is_some_and(|unit| unit.try_step(now, macs))
    }

    fn hmma_busy_until(&self, now: Cycle, core: u32) -> Option<Cycle> {
        self.devices
            .tightly_units
            .get(core as usize)
            .and_then(|unit| unit.next_activity(now))
    }

    fn try_wgmma(&mut self, _now: Cycle, core: u32, op: &WgmmaOp) -> bool {
        self.devices
            .decoupled_units
            .get_mut(core as usize)
            .is_some_and(|unit| unit.try_enqueue(op))
    }

    fn wgmma_accept_at(&self, now: Cycle, core: u32) -> Option<Cycle> {
        self.devices
            .decoupled_units
            .get(core as usize)
            .map(|unit| unit.accept_at(now))
    }

    fn wgmma_pending(&self, core: u32) -> u32 {
        self.devices
            .decoupled_units
            .get(core as usize)
            .map_or(0, OperandDecoupledUnit::pending)
    }

    fn mmio_write(&mut self, _now: Cycle, _core: u32, device: DeviceId, cmd: &MmioCommand) -> bool {
        self.devices.stats.mmio_writes += 1;
        match (device, cmd) {
            (DeviceId::Dma(_), MmioCommand::DmaCopy(copy) | MmioCommand::DmaRemote(copy)) => {
                self.devices.submit_dma(copy)
            }
            (DeviceId::MatrixUnit(idx), MmioCommand::MatrixCompute(compute)) => {
                self.devices.submit_matrix(idx, compute)
            }
            // A mismatched command (e.g. a compute command written to the DMA
            // engine) is accepted and ignored, like a store to a reserved
            // MMIO register.
            _ => true,
        }
    }

    fn async_outstanding(&self) -> u32 {
        self.devices.async_outstanding()
    }

    fn barrier_arrive(&mut self, id: u8, warp_global_id: u32) -> u64 {
        self.devices.synchronizer.arrive(id, warp_global_id)
    }

    fn barrier_passed(&self, id: u8, ticket: u64) -> bool {
        self.devices.synchronizer.passed(id, ticket)
    }
}

/// A warp's scheduling state at timeout, with its machine placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlacedWarpSnapshot {
    /// Cluster the warp ran on.
    pub cluster: u32,
    /// Core within the cluster.
    pub core: u32,
    /// The warp's scheduling state.
    pub snapshot: WarpSnapshot,
    /// Asynchronous cluster operations outstanding when the snapshot was
    /// taken (context for `BlockReason::Fence`).
    pub async_outstanding: u32,
}

/// One GPU cluster: the SIMT cores plus their shared devices.
#[derive(Debug)]
pub struct Cluster {
    config: GpuConfig,
    cluster_id: u32,
    cores: Vec<SimtCore>,
    devices: ClusterDevices,
    /// First cycle at which the cluster participates. Zero normally; a
    /// `FaultKind::LateClusterStart` window holds the whole cluster (cores
    /// and devices) in reset until its `until` cycle.
    start_at: u64,
}

impl Cluster {
    /// Builds cluster `cluster_id` and loads onto it the warps of `kernel`
    /// assigned to that cluster. Warps assigned to other clusters are
    /// ignored; the caller builds one `Cluster` per configured cluster.
    ///
    /// # Panics
    ///
    /// Panics if the kernel assigns one of this cluster's warps to a core
    /// index outside the configuration.
    pub fn new(config: GpuConfig, kernel: &Kernel, cluster_id: u32) -> Self {
        let participants = kernel.warps_on_cluster(cluster_id).count() as u64;
        let devices = ClusterDevices::new(&config, cluster_id, participants);
        let mut cores: Vec<SimtCore> = (0..config.cores)
            .map(|id| SimtCore::new(config.core, id))
            .collect();
        for (index, warp) in kernel.warps_on_cluster(cluster_id).enumerate() {
            assert!(
                (warp.core as usize) < cores.len(),
                "kernel assigns warp to core {} but cluster {} has {} cores",
                warp.core,
                cluster_id,
                cores.len()
            );
            cores[warp.core as usize].assign_warp(index as u32, &warp.program);
        }
        let start_at = config.faults.cluster_start(cluster_id);
        Cluster {
            config,
            cluster_id,
            cores,
            devices,
            start_at,
        }
    }

    /// [`Cluster::new`] with the reset window extended to at least `at`: a
    /// cluster slot loaded mid-session (by a job admitted at cycle `at`)
    /// holds in reset until its admission, or later if a `LateClusterStart`
    /// fault pushes it further.
    ///
    /// # Panics
    ///
    /// Same as [`Cluster::new`].
    pub fn new_at(config: GpuConfig, kernel: &Kernel, cluster_id: u32, at: u64) -> Self {
        let mut cluster = Cluster::new(config, kernel, cluster_id);
        cluster.start_at = cluster.start_at.max(at);
        // Fence-poll rate limiting must be relative to the warp's own birth,
        // or a job admitted at cycle T would charge its first poll of every
        // fence one interval earlier than the same kernel run standalone.
        // Anchoring at the admission cycle (not the fault-extended start) is
        // a no-op at `at == 0`, keeping the single-job path bit-identical.
        for core in &mut cluster.cores {
            core.anchor_fence_polls(virgo_sim::Cycle::new(at));
        }
        cluster
    }

    /// First cycle at which the cluster leaves reset (zero unless a
    /// `LateClusterStart` fault holds it back).
    pub fn start_at(&self) -> u64 {
        self.start_at
    }

    /// The configuration the cluster was built from.
    pub fn config(&self) -> &GpuConfig {
        &self.config
    }

    /// This cluster's index within the machine.
    pub fn cluster_id(&self) -> u32 {
        self.cluster_id
    }

    /// The cluster devices (memories, matrix units, DMA, synchronizer).
    pub fn devices(&self) -> &ClusterDevices {
        &self.devices
    }

    /// The SIMT cores.
    pub fn cores(&self) -> &[SimtCore] {
        &self.cores
    }

    /// Aggregated core statistics across the cluster.
    pub fn core_stats(&self) -> CoreStats {
        let mut total = CoreStats::default();
        for core in &self.cores {
            total.merge(&core.stats());
        }
        total
    }

    /// Multiply-accumulates performed by this cluster's matrix units.
    pub fn performed_macs(&self) -> u64 {
        self.devices
            .tightly_units
            .iter()
            .map(|u| u.stats().macs)
            .chain(self.devices.decoupled_units.iter().map(|u| u.stats().macs))
            .chain(self.devices.gemmini_units.iter().map(|u| u.stats().macs))
            .sum()
    }

    /// Snapshots every unfinished warp's scheduling state, with placement,
    /// for timeout diagnosis.
    pub fn unfinished_warps(&self) -> Vec<PlacedWarpSnapshot> {
        let outstanding = self.devices.async_outstanding();
        let mut out = Vec::new();
        for core in &self.cores {
            for snapshot in core.warp_snapshots() {
                if !snapshot.finished {
                    out.push(PlacedWarpSnapshot {
                        cluster: self.cluster_id,
                        core: core.core_id(),
                        snapshot,
                        async_outstanding: outstanding,
                    });
                }
            }
        }
        out
    }

    /// True when every core has retired its warps and every asynchronous
    /// engine has drained.
    pub fn finished(&self) -> bool {
        self.cores.iter().all(SimtCore::all_finished) && self.devices.quiescent()
    }

    /// Reports the earliest cycle `>= now` at which ticking the cluster can
    /// change observable state (beyond time-uniform stall accounting), or
    /// `None` when nothing in this cluster will ever happen again on its own.
    /// The job table folds this over a timed-out job's clusters; `None` on
    /// all of them is a deadlock verdict.
    pub fn next_activity(
        &mut self,
        now: Cycle,
        backend: &mut MemoryBackend,
        fabric: &mut DsmFabric,
    ) -> Option<Cycle> {
        if now.get() < self.start_at {
            // Nothing can happen before the late-start release; the release
            // cycle itself is the next event.
            return Some(Cycle::new(self.start_at));
        }
        let mut next = self.devices.next_activity(now);
        if next == Some(now) {
            return next;
        }
        let ctx = ClusterCtx {
            devices: &mut self.devices,
            backend,
            fabric,
        };
        for core in &mut self.cores {
            match core.next_activity(now, &ctx) {
                Some(t) if t <= now => return Some(now),
                event => next = earliest(next, event),
            }
        }
        next
    }

    // --- Per-component entry points -------------------------------------
    //
    // Both simulation modes advance the cluster's devices and each core
    // through these. The naive loop (`Machine::tick`) ticks everything every
    // cycle from `start_at` on; the event scheduler (see `scheduler.rs`)
    // ticks a component only on the cycles it is scheduled for, never before
    // `start_at`, and bulk-replays the gap since its last tick first, so
    // per-cycle accounting stays bit-identical to the naive loop.

    /// Ticks only the cluster devices (DMA, matrix units, decoupled units).
    pub fn tick_devices(
        &mut self,
        now: Cycle,
        backend: &mut MemoryBackend,
        fabric: &mut DsmFabric,
    ) {
        debug_assert!(now.get() >= self.start_at, "devices ticked in reset");
        self.devices.tick(now, backend, fabric);
    }

    /// Ticks only core `core` against the cluster port and returns the
    /// tick's outcome hints for the event-driven driver (see
    /// [`virgo_simt::TickOutcome`]).
    pub fn tick_core(
        &mut self,
        core: usize,
        now: Cycle,
        backend: &mut MemoryBackend,
        fabric: &mut DsmFabric,
    ) -> TickOutcome {
        debug_assert!(now.get() >= self.start_at, "core ticked in reset");
        let mut ctx = ClusterCtx {
            devices: &mut self.devices,
            backend,
            fabric,
        };
        self.cores[core].tick(now, &mut ctx)
    }

    /// Bulk-replays `cycles` parked device ticks (DMA busy time, matrix-unit
    /// compute schedules).
    pub fn fast_forward_devices(&mut self, cycles: u64) {
        self.devices.fast_forward(cycles);
    }

    /// Bulk-replays `cycles` parked ticks of core `core`, the first at
    /// `from`.
    pub fn fast_forward_core(&mut self, core: usize, from: Cycle, cycles: u64) {
        self.cores[core].fast_forward(from, cycles);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use std::sync::Arc;
    use virgo_isa::{
        AddrExpr, DataType, DmaCopyCmd, KernelInfo, LaneAccess, MemLoc, ProgramBuilder,
        WarpAssignment, WarpOp,
    };

    fn kernel_with(core: u32, build: impl FnOnce(&mut ProgramBuilder)) -> Kernel {
        let mut b = ProgramBuilder::new();
        build(&mut b);
        Kernel::new(
            KernelInfo::new("test", 0, DataType::Fp16),
            vec![WarpAssignment::new(core, 0, Arc::new(b.build()))],
        )
    }

    /// A one-cluster machine running `kernel` on cluster 0.
    fn machine_with(config: GpuConfig, kernel: &Kernel) -> Machine {
        let clusters = config.clusters.max(1);
        Machine {
            backend: MemoryBackend::new(config.global_memory(), clusters),
            fabric: DsmFabric::new(config.dsm, clusters),
            clusters: vec![Cluster::new(config, kernel, 0)],
        }
    }

    /// Runs the naive loop until cluster 0 finishes or `limit` cycles pass;
    /// returns the cycle reached.
    fn run(machine: &mut Machine, limit: u64) -> u64 {
        for cycle in 0..limit {
            if machine.clusters[0].finished() {
                return cycle;
            }
            machine.tick(Cycle::new(cycle));
        }
        limit
    }

    #[test]
    fn simple_kernel_runs_to_completion() {
        let kernel = kernel_with(0, |b| {
            b.op_n(
                16,
                WarpOp::Alu {
                    rf_reads: 2,
                    rf_writes: 1,
                },
            );
        });
        let mut machine = machine_with(GpuConfig::virgo(), &kernel);
        let cycles = run(&mut machine, 10_000);
        let cluster = &machine.clusters[0];
        assert!(cycles < 10_000);
        assert_eq!(cluster.core_stats().instrs_issued, 16);
    }

    #[test]
    fn shared_and_global_accesses_reach_the_memories() {
        let access = LaneAccess::contiguous_words(AddrExpr::fixed(0), 8);
        let kernel = kernel_with(0, |b| {
            b.op(WarpOp::LoadGlobal { access });
            b.op(WarpOp::StoreShared { access });
            b.op(WarpOp::WaitLoads);
        });
        let mut machine = machine_with(GpuConfig::ampere_style(), &kernel);
        run(&mut machine, 100_000);
        let cluster = &machine.clusters[0];
        assert!(cluster.devices().gmem.stats().l1_accesses > 0);
        assert!(cluster.devices().smem.stats().words_written > 0);
        assert!(cluster.devices().coalescer_ops() > 0);
        assert!(machine.backend.cluster_stats(0).l2_accesses > 0);
    }

    #[test]
    fn dma_command_completes_and_fence_releases() {
        let cmd = MmioCommand::DmaCopy(DmaCopyCmd::new(
            MemLoc::global(0u64),
            MemLoc::shared(0u64),
            4096,
        ));
        let kernel = kernel_with(0, |b| {
            b.op(WarpOp::MmioWrite {
                device: DeviceId::DMA0,
                cmd,
            });
            b.op(WarpOp::FenceAsync { max_outstanding: 0 });
        });
        let mut machine = machine_with(GpuConfig::virgo(), &kernel);
        let cycles = run(&mut machine, 1_000_000);
        let cluster = &machine.clusters[0];
        assert!(cycles < 1_000_000, "kernel must finish");
        assert!(cycles > 200, "DMA of 4 KiB cannot be instantaneous");
        let stats = cluster.devices().stats();
        assert_eq!(stats.async_ops_launched, 1);
        assert_eq!(stats.async_ops_completed, 1);
        assert_eq!(cluster.devices().async_outstanding(), 0);
        let dram = machine.backend.dram_stats();
        assert_eq!(dram.reads + dram.writes, 1);
    }

    #[test]
    fn matrix_compute_command_runs_on_gemmini() {
        let cmd = MmioCommand::MatrixCompute(virgo_isa::MatrixComputeCmd {
            a: AddrExpr::fixed(0),
            b: AddrExpr::fixed(64 * 1024),
            acc_addr: 0,
            m: 64,
            n: 64,
            k: 64,
            accumulate: false,
            dtype: DataType::Fp16,
        });
        let kernel = kernel_with(0, |b| {
            b.op(WarpOp::MmioWrite {
                device: DeviceId::MATRIX0,
                cmd,
            });
            b.op(WarpOp::FenceAsync { max_outstanding: 0 });
        });
        let mut machine = machine_with(GpuConfig::virgo(), &kernel);
        let cycles = run(&mut machine, 1_000_000);
        let cluster = &machine.clusters[0];
        assert!(cycles < 1_000_000);
        let gemmini = &cluster.devices().gemmini_units[0];
        assert_eq!(gemmini.stats().commands, 1);
        assert_eq!(gemmini.stats().macs, 64 * 64 * 64);
        // The fence made the core wait for the unit: runtime at least the
        // ideal compute time of 64³/256 = 1024 cycles.
        assert!(cycles >= 1024, "finished too early: {cycles}");
    }

    #[test]
    fn hmma_steps_drive_the_tightly_coupled_unit() {
        let kernel = kernel_with(0, |b| {
            b.op_n(
                8,
                WarpOp::HmmaStep {
                    macs: 64,
                    rf_reads: 4,
                    rf_writes: 2,
                },
            );
        });
        let mut machine = machine_with(GpuConfig::volta_style(), &kernel);
        run(&mut machine, 100_000);
        let cluster = &machine.clusters[0];
        let unit = &cluster.devices().tightly_units[0];
        assert_eq!(unit.stats().steps, 8);
        assert_eq!(unit.stats().macs, 8 * 64);
    }

    #[test]
    fn wgmma_ops_drive_the_decoupled_unit() {
        let op = virgo_isa::WgmmaOp {
            a: AddrExpr::fixed(0),
            b: AddrExpr::fixed(0x8000),
            m: 16,
            n: 16,
            k: 32,
            dtype: DataType::Fp16,
        };
        let kernel = kernel_with(0, |b| {
            b.op(WarpOp::WgmmaInit(op));
            b.op(WarpOp::WgmmaWait);
        });
        let mut machine = machine_with(GpuConfig::hopper_style(), &kernel);
        let cycles = run(&mut machine, 100_000);
        let cluster = &machine.clusters[0];
        let unit = &cluster.devices().decoupled_units[0];
        assert_eq!(unit.stats().ops, 1);
        assert!(cycles >= 128, "wgmma wait must cover the compute time");
    }

    #[test]
    fn barrier_synchronizes_warps_across_cores() {
        let program = {
            let mut b = ProgramBuilder::new();
            b.op(WarpOp::Barrier { id: 0 });
            b.op(WarpOp::Alu {
                rf_reads: 1,
                rf_writes: 1,
            });
            Arc::new(b.build())
        };
        let kernel = Kernel::new(
            KernelInfo::new("barrier", 0, DataType::Fp16),
            vec![
                WarpAssignment::new(0, 0, Arc::clone(&program)),
                WarpAssignment::new(1, 0, Arc::clone(&program)),
            ],
        );
        let mut machine = machine_with(GpuConfig::virgo(), &kernel);
        let cycles = run(&mut machine, 10_000);
        let cluster = &machine.clusters[0];
        assert!(cycles < 10_000);
        assert_eq!(cluster.devices().synchronizer.release_events(), 1);
        assert_eq!(cluster.core_stats().barrier_arrivals, 2);
    }

    #[test]
    fn cluster_only_loads_its_own_warps() {
        let program = Arc::new({
            let mut b = ProgramBuilder::new();
            b.op(WarpOp::Nop);
            b.build()
        });
        let kernel = Kernel::new(
            KernelInfo::new("split", 0, DataType::Fp16),
            vec![
                WarpAssignment::on_cluster(0, 0, 0, Arc::clone(&program)),
                WarpAssignment::on_cluster(1, 0, 0, Arc::clone(&program)),
                WarpAssignment::on_cluster(1, 1, 0, Arc::clone(&program)),
            ],
        );
        let c0 = Cluster::new(GpuConfig::virgo().with_clusters(2), &kernel, 0);
        let c1 = Cluster::new(GpuConfig::virgo().with_clusters(2), &kernel, 1);
        let warps = |c: &Cluster| c.cores().iter().map(SimtCore::warp_count).sum::<usize>();
        assert_eq!(warps(&c0), 1);
        assert_eq!(warps(&c1), 2);
        // Barrier participation is scoped to the cluster's own warps.
        assert_eq!(c0.devices().synchronizer.participants(), 1);
        assert_eq!(c1.devices().synchronizer.participants(), 2);
    }

    #[test]
    fn unfinished_warps_report_block_state() {
        // A lone warp at a two-participant barrier deadlocks.
        let program = {
            let mut b = ProgramBuilder::new();
            b.op(WarpOp::Barrier { id: 3 });
            Arc::new(b.build())
        };
        let kernel = Kernel::new(
            KernelInfo::new("stuck", 0, DataType::Fp16),
            vec![
                WarpAssignment::new(0, 0, Arc::clone(&program)),
                WarpAssignment::new(0, 1, Arc::new(ProgramBuilder::new().build())),
            ],
        );
        let mut machine = machine_with(GpuConfig::virgo(), &kernel);
        run(&mut machine, 100);
        let cluster = &machine.clusters[0];
        let stuck = cluster.unfinished_warps();
        assert_eq!(stuck.len(), 1);
        assert_eq!(stuck[0].cluster, 0);
        assert_eq!(stuck[0].core, 0);
        assert!(matches!(
            stuck[0].snapshot.block,
            Some(virgo_simt::BlockReason::Barrier { id: 3, .. })
        ));
    }

    #[test]
    #[should_panic(expected = "assigns warp to core")]
    fn kernel_targeting_missing_core_panics() {
        let kernel = kernel_with(12, |b| {
            b.op(WarpOp::Nop);
        });
        let _ = Cluster::new(GpuConfig::hopper_style(), &kernel, 0);
    }
}
