//! The MMIO-programmed cluster DMA engine (Section 3.2.4).
//!
//! The Ampere-style and Hopper-style baselines, as well as Virgo, include a
//! cluster-level DMA engine that moves tiles directly between global memory
//! and shared memory, bypassing the core's register file. In Virgo the same
//! engine can also drain the matrix unit's accumulator memory to global
//! memory. The engine executes one transfer at a time from a FIFO of
//! programmed transfers; completion is reported back to the cluster so that
//! `virgo_fence` can track outstanding asynchronous operations.

use virgo_isa::{decode_remote_smem, MemRegion};
use virgo_sim::{BoundedQueue, Cycle, NextActivity};

use crate::accmem::AccumulatorMemory;
use crate::backend::MemoryBackend;
use crate::dsm::DsmFabric;
use crate::global::GlobalMemory;
use crate::smem::SharedMemory;

impl virgo_sim::StableHash for DmaConfig {
    fn stable_hash(&self, h: &mut virgo_sim::StableHasher) {
        h.write_u64(self.beat_bytes);
        h.write_u64(self.queue_depth as u64);
    }
}

/// Configuration of the DMA engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmaConfig {
    /// Bytes moved per cycle once a transfer is streaming.
    pub beat_bytes: u64,
    /// Depth of the transfer queue.
    pub queue_depth: usize,
}

impl Default for DmaConfig {
    fn default() -> Self {
        DmaConfig {
            beat_bytes: 32,
            queue_depth: 8,
        }
    }
}

/// One programmed DMA transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmaTransfer {
    /// Source memory region.
    pub src_region: MemRegion,
    /// Source byte address.
    pub src_addr: u64,
    /// Destination memory region.
    pub dst_region: MemRegion,
    /// Destination byte address.
    pub dst_addr: u64,
    /// Transfer length in bytes.
    pub bytes: u64,
    /// Caller-assigned tag, reported back on completion (used by the cluster
    /// asynchronous-operation tracker behind `virgo_fence`).
    pub tag: u64,
}

/// Event counters for the DMA engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DmaStats {
    /// Transfers completed.
    pub transfers: u64,
    /// Total bytes moved.
    pub bytes_moved: u64,
    /// Beats (of `beat_bytes`) moved.
    pub beats: u64,
    /// Cycles the engine spent with an active transfer.
    pub busy_cycles: u64,
}
virgo_sim::counters!(DmaStats {
    transfers,
    bytes_moved,
    beats,
    busy_cycles
});

/// The cluster DMA engine.
///
/// Dependencies (global memory, shared memory, accumulator memory) are passed
/// at [`DmaEngine::tick`] time, so the engine itself holds no shared
/// references.
#[derive(Debug, Clone)]
pub struct DmaEngine {
    config: DmaConfig,
    queue: BoundedQueue<DmaTransfer>,
    /// The in-flight transfer and its completion cycle.
    active: Option<(DmaTransfer, Cycle)>,
    stats: DmaStats,
}

impl DmaEngine {
    /// Creates an idle DMA engine.
    pub fn new(config: DmaConfig) -> Self {
        DmaEngine {
            queue: BoundedQueue::new(config.queue_depth),
            config,
            active: None,
            stats: DmaStats::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &DmaConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> DmaStats {
        self.stats
    }

    /// Programs a transfer.
    ///
    /// # Errors
    ///
    /// Returns the transfer back when the queue is full (the issuing warp
    /// must retry, modelling MMIO back-pressure).
    pub fn submit(&mut self, transfer: DmaTransfer) -> Result<(), DmaTransfer> {
        self.queue.push(transfer)
    }

    /// Number of transfers queued or in flight.
    pub fn pending(&self) -> usize {
        self.queue.len() + usize::from(self.active.is_some())
    }

    /// True when no transfer is queued or active.
    pub fn is_idle(&self) -> bool {
        self.pending() == 0
    }

    /// Advances the engine by one cycle; returns the transfers that completed
    /// this cycle. Global-memory endpoints stream through the cluster's
    /// `global` front-end into the shared `backend`; shared-memory endpoints
    /// addressed through the remote DSM window traverse the `fabric` to the
    /// peer cluster's scratchpad instead of the local banks.
    pub fn tick(
        &mut self,
        now: Cycle,
        global: &mut GlobalMemory,
        backend: &mut MemoryBackend,
        smem: &mut SharedMemory,
        accmem: Option<&mut AccumulatorMemory>,
        fabric: &mut DsmFabric,
    ) -> Vec<DmaTransfer> {
        let mut completed = Vec::new();

        if let Some((transfer, done)) = self.active {
            self.stats.busy_cycles += 1;
            if now >= done {
                self.stats.transfers += 1;
                self.stats.bytes_moved += transfer.bytes;
                self.stats.beats += transfer.bytes.div_ceil(self.config.beat_bytes);
                completed.push(transfer);
                self.active = None;
            }
        }

        if self.active.is_none() {
            if let Some(transfer) = self.queue.pop() {
                let done = self.schedule(now, &transfer, global, backend, smem, accmem, fabric);
                self.active = Some((transfer, done));
            }
        }

        completed
    }

    /// Bulk-accounts `cycles` skipped ticks during which the engine is known
    /// to keep streaming its active transfer.
    ///
    /// The naive loop increments `busy_cycles` once per tick while a transfer
    /// is active; when the fast-forward driver skips a quiescent window it
    /// calls this instead so the statistics stay bit-identical. The caller
    /// guarantees (via [`NextActivity`]) that the window ends no later than
    /// the active transfer's completion cycle.
    pub fn fast_forward(&mut self, cycles: u64) {
        if self.active.is_some() {
            self.stats.busy_cycles += cycles;
        }
    }

    /// Computes when a transfer started at `now` completes, reserving the
    /// memory resources it uses.
    // One parameter per memory the engine can touch; bundling them into a
    // context struct would just move the argument list one call up.
    #[allow(clippy::too_many_arguments)]
    fn schedule(
        &mut self,
        now: Cycle,
        transfer: &DmaTransfer,
        global: &mut GlobalMemory,
        backend: &mut MemoryBackend,
        smem: &mut SharedMemory,
        mut accmem: Option<&mut AccumulatorMemory>,
        fabric: &mut DsmFabric,
    ) -> Cycle {
        let stream_cycles = transfer.bytes.div_ceil(self.config.beat_bytes).max(1);
        let mut done = now.plus(stream_cycles);

        for (region, addr, write) in [
            (transfer.src_region, transfer.src_addr, false),
            (transfer.dst_region, transfer.dst_addr, true),
        ] {
            let endpoint_done = match region {
                MemRegion::Global => global.dma_access(now, addr, transfer.bytes, write, backend),
                // A shared endpoint in the remote DSM window traverses the
                // inter-cluster fabric to the peer's scratchpad port (the
                // fabric models the remote bank occupancy as part of its
                // link streaming time); a local one streams through this
                // cluster's wide port.
                MemRegion::Shared => match decode_remote_smem(addr) {
                    Some((peer, _offset)) => {
                        fabric.transfer(now, global.cluster(), peer, transfer.bytes)
                    }
                    None => {
                        // Stream through the wide port in 64-byte chunks.
                        let mut t = now;
                        let mut offset = 0;
                        while offset < transfer.bytes {
                            let chunk = (transfer.bytes - offset).min(64);
                            t = smem.access_wide(t, addr + offset, chunk, write).done;
                            offset += chunk;
                        }
                        t
                    }
                },
                MemRegion::Accumulator => match accmem.as_deref_mut() {
                    Some(acc) => acc.access(now, addr, transfer.bytes, write),
                    None => now,
                },
            };
            done = done.max(endpoint_done);
        }
        done
    }
}

impl NextActivity for DmaEngine {
    /// The engine next acts when its in-flight transfer completes, or
    /// immediately if a queued transfer is waiting to start. Ticks before the
    /// active transfer's completion only increment `busy_cycles`, which
    /// [`DmaEngine::fast_forward`] replays in bulk.
    fn next_activity(&self, now: Cycle) -> Option<Cycle> {
        match &self.active {
            Some((_, done)) => Some((*done).max(now)),
            None if !self.queue.is_empty() => Some(now),
            None => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsm::DsmConfig;
    use crate::global::GlobalMemoryConfig;
    use crate::smem::SmemConfig;

    fn setup() -> (
        DmaEngine,
        GlobalMemory,
        MemoryBackend,
        SharedMemory,
        AccumulatorMemory,
        DsmFabric,
    ) {
        let config = GlobalMemoryConfig::default_soc(4);
        (
            DmaEngine::new(DmaConfig::default()),
            GlobalMemory::new(config),
            MemoryBackend::new(config, 1),
            SharedMemory::new(SmemConfig::virgo_cluster()),
            AccumulatorMemory::default_virgo(),
            DsmFabric::new(DsmConfig::enabled_default(), 2),
        )
    }

    fn run_until_complete(
        dma: &mut DmaEngine,
        global: &mut GlobalMemory,
        backend: &mut MemoryBackend,
        smem: &mut SharedMemory,
        acc: &mut AccumulatorMemory,
        fabric: &mut DsmFabric,
        limit: u64,
    ) -> (Vec<DmaTransfer>, u64) {
        let mut all = Vec::new();
        for cycle in 0..limit {
            let done = dma.tick(Cycle::new(cycle), global, backend, smem, Some(acc), fabric);
            all.extend(done);
            if dma.is_idle() && !all.is_empty() {
                return (all, cycle);
            }
        }
        (all, limit)
    }

    fn transfer(src: MemRegion, dst: MemRegion, bytes: u64, tag: u64) -> DmaTransfer {
        DmaTransfer {
            src_region: src,
            src_addr: 0,
            dst_region: dst,
            dst_addr: 0,
            bytes,
            tag,
        }
    }

    #[test]
    fn global_to_shared_transfer_completes() {
        let (mut dma, mut g, mut be, mut s, mut a, mut f) = setup();
        dma.submit(transfer(MemRegion::Global, MemRegion::Shared, 4096, 7))
            .unwrap();
        let (done, cycle) =
            run_until_complete(&mut dma, &mut g, &mut be, &mut s, &mut a, &mut f, 10_000);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].tag, 7);
        // 4096 bytes at 16 B/cycle DRAM bandwidth needs at least 256 cycles.
        assert!(cycle >= 256, "completed unrealistically fast: {cycle}");
        assert_eq!(dma.stats().transfers, 1);
        assert_eq!(dma.stats().bytes_moved, 4096);
        assert!(s.stats().bytes_written >= 4096);
    }

    #[test]
    fn accumulator_to_global_transfer_touches_accumulator() {
        let (mut dma, mut g, mut be, mut s, mut a, mut f) = setup();
        dma.submit(transfer(MemRegion::Accumulator, MemRegion::Global, 2048, 1))
            .unwrap();
        let (done, _) =
            run_until_complete(&mut dma, &mut g, &mut be, &mut s, &mut a, &mut f, 10_000);
        assert_eq!(done.len(), 1);
        assert_eq!(a.stats().words_read, 512);
        assert!(be.stats().dma_bytes >= 2048);
    }

    #[test]
    fn transfers_execute_in_fifo_order() {
        let (mut dma, mut g, mut be, mut s, mut a, mut f) = setup();
        dma.submit(transfer(MemRegion::Global, MemRegion::Shared, 256, 1))
            .unwrap();
        dma.submit(transfer(MemRegion::Global, MemRegion::Shared, 256, 2))
            .unwrap();
        let mut order = Vec::new();
        for cycle in 0..10_000 {
            for t in dma.tick(
                Cycle::new(cycle),
                &mut g,
                &mut be,
                &mut s,
                Some(&mut a),
                &mut f,
            ) {
                order.push(t.tag);
            }
            if dma.is_idle() {
                break;
            }
        }
        assert_eq!(order, vec![1, 2]);
    }

    #[test]
    fn remote_window_destination_routes_over_the_fabric() {
        let (mut dma, mut g, mut be, mut s, mut a, mut f) = setup();
        // Push a 4 KiB tile from the local accumulator into cluster 1's
        // scratchpad: the shared-memory leg must traverse the DSM fabric,
        // not the local banks, and must not touch the DRAM back-end.
        dma.submit(DmaTransfer {
            src_region: MemRegion::Accumulator,
            src_addr: 0,
            dst_region: MemRegion::Shared,
            dst_addr: virgo_isa::remote_smem_addr(1, 0x4000),
            bytes: 4096,
            tag: 3,
        })
        .unwrap();
        let (done, _) =
            run_until_complete(&mut dma, &mut g, &mut be, &mut s, &mut a, &mut f, 10_000);
        assert_eq!(done.len(), 1);
        assert_eq!(f.stats().transfers, 1);
        assert_eq!(f.stats().bytes, 4096);
        assert_eq!(f.cluster_stats(0).per_link[1].bytes, 4096);
        assert_eq!(s.stats().wide_accesses, 0, "local banks bypassed");
        assert_eq!(be.stats().dma_bytes, 0, "no DRAM round trip");
        assert_eq!(a.stats().words_read, 1024, "accumulator side still local");
    }

    #[test]
    fn queue_exerts_backpressure() {
        let mut dma = DmaEngine::new(DmaConfig {
            beat_bytes: 32,
            queue_depth: 1,
        });
        assert!(dma
            .submit(transfer(MemRegion::Global, MemRegion::Shared, 64, 1))
            .is_ok());
        assert!(dma
            .submit(transfer(MemRegion::Global, MemRegion::Shared, 64, 2))
            .is_err());
        assert_eq!(dma.pending(), 1);
    }

    #[test]
    fn idle_engine_reports_idle() {
        let (mut dma, mut g, mut be, mut s, mut a, mut f) = setup();
        assert!(dma.is_idle());
        let done = dma.tick(Cycle::new(0), &mut g, &mut be, &mut s, Some(&mut a), &mut f);
        assert!(done.is_empty());
        assert_eq!(dma.stats().busy_cycles, 0);
    }
}
