//! The machine-wide memory back-end: the L2 cache and the multi-channel DRAM
//! subsystem shared by every cluster.
//!
//! The global-memory hierarchy is split in two. Each cluster owns a private
//! front-end of per-core L1 caches ([`GlobalMemory`](crate::GlobalMemory));
//! all front-ends feed this single back-end, where the shared L2 and the
//! address-interleaved DRAM channels arbitrate between clusters. Each request
//! that misses the L2 is routed to the channel that owns its address
//! (`(addr / interleave_bytes) % channels`); requests from different clusters
//! that collide on one channel serialize exactly like requests from one
//! cluster do, and the back-end attributes the resulting queueing delay to
//! the requesting cluster — with a per-channel breakdown — so multi-cluster
//! runs can report DRAM-contention stalls per cluster and per channel.

use virgo_sim::fault::FaultPlan;
use virgo_sim::{Cycle, NextActivity};

use crate::cache::Cache;
use crate::dram::{DramFaultStats, DramStats, MultiChannelDram};
use crate::global::GlobalMemoryConfig;

/// Aggregated statistics for the shared back-end.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryBackendStats {
    /// L2 accesses (from L1 misses and DMA traffic).
    pub l2_accesses: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// Bytes moved by DMA transfers through the L2.
    pub dma_bytes: u64,
}
virgo_sim::counters!(MemoryBackendStats {
    l2_accesses,
    l2_misses,
    dma_bytes
});

/// One cluster's contention counters on a single DRAM channel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelContentionStats {
    /// DRAM transfers this cluster issued to this channel.
    pub requests: u64,
    /// Exposed queueing cycles this cluster's requests suffered on this
    /// channel (see [`ClusterContentionStats::dram_stall_cycles`]).
    pub stall_cycles: u64,
}
virgo_sim::counters!(ChannelContentionStats {
    requests,
    stall_cycles
});

/// Per-cluster contention counters kept by the shared back-end.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClusterContentionStats {
    /// L2 accesses issued by this cluster (demand misses and DMA chunks).
    pub l2_accesses: u64,
    /// L2 misses among this cluster's accesses. Every machine-wide miss is
    /// charged to exactly one cluster, so these sum to
    /// [`MemoryBackendStats::l2_misses`] — the invariant per-job attribution
    /// rests on.
    pub l2_misses: u64,
    /// Bytes this cluster moved by DMA through the L2 (requested bytes,
    /// hit or miss). Sums to [`MemoryBackendStats::dma_bytes`].
    pub dma_bytes: u64,
    /// DRAM transfers issued by this cluster, summed over channels.
    pub dram_requests: u64,
    /// Bytes this cluster moved over the DRAM channels (the requested bytes
    /// that missed the L2, before burst rounding).
    pub dram_bytes: u64,
    /// Wall-clock cycles this cluster's DRAM transfers lost to channel
    /// contention — the contention metric of the cluster-scaling study.
    ///
    /// Two rules keep this an *actual delay*, not a bus-occupancy count:
    ///
    /// * only the **exposed** part of a queue wait counts — the fixed DRAM
    ///   latency overlaps with queueing, so a request charges
    ///   `max(0, busy_until - (present_time + latency))`, exactly the
    ///   cycles by which its completion slips versus an idle channel, and
    /// * each *logical* transfer contributes its **critical-path** wait — a
    ///   DMA split into parallel per-channel sub-transfers adds the max of
    ///   their exposed waits (they queue concurrently), while a line access
    ///   adds its single channel's wait,
    ///
    /// so the metric stays comparable across channel counts. With a single
    /// cluster this is pure self-queueing; extra clusters add cross-cluster
    /// interference on top.
    pub dram_stall_cycles: u64,
    /// Per-channel breakdown, in channel order (always `channels` entries).
    /// `requests` sums to `dram_requests`; `stall_cycles` counts each
    /// channel's own exposed queueing, so its sum is `>= dram_stall_cycles`
    /// when split DMA sub-transfers wait concurrently (equal at one
    /// channel).
    pub per_channel: Vec<ChannelContentionStats>,
}
virgo_sim::counters!(ClusterContentionStats {
    l2_accesses,
    l2_misses,
    dma_bytes,
    dram_requests,
    dram_bytes,
    dram_stall_cycles,
    per_channel,
});

impl ClusterContentionStats {
    /// An empty counter set sized for `channels` DRAM channels.
    pub fn for_channels(channels: u32) -> Self {
        ClusterContentionStats {
            per_channel: vec![ChannelContentionStats::default(); channels as usize],
            ..Default::default()
        }
    }
}

/// Everything the shared back-end has counted, captured at one instant: the
/// aggregate stats, the DRAM interface and fault counters (total and
/// per-channel) and the per-cluster contention slices. A job-residency
/// session captures one at admission and subtracts it from the one at
/// retirement ([`Counters::since`](virgo_sim::Counters::since)) to
/// attribute the window's traffic to the job.
#[derive(Debug, Clone, PartialEq)]
pub struct BackendAttribution {
    /// Aggregate L2/DMA counters.
    pub stats: MemoryBackendStats,
    /// DRAM interface counters, summed over channels.
    pub dram: DramStats,
    /// Per-channel DRAM interface counters, in channel order.
    pub dram_channels: Vec<DramStats>,
    /// Degraded-mode DRAM counters.
    pub dram_fault: DramFaultStats,
    /// Per-cluster contention counters, in cluster order.
    pub per_cluster: Vec<ClusterContentionStats>,
}
virgo_sim::counters!(BackendAttribution {
    stats,
    dram,
    dram_channels,
    dram_fault,
    per_cluster,
});

impl BackendAttribution {
    /// Total DRAM queueing delay across clusters within this window.
    pub fn total_dram_stall_cycles(&self) -> u64 {
        self.per_cluster.iter().map(|c| c.dram_stall_cycles).sum()
    }
}

/// The shared L2 + multi-channel DRAM back-end, bandwidth-arbitrated between
/// clusters.
///
/// # Example
///
/// ```
/// use virgo_mem::{GlobalMemoryConfig, MemoryBackend};
/// use virgo_sim::Cycle;
///
/// let mut backend = MemoryBackend::new(GlobalMemoryConfig::default_soc(8), 2);
/// let cold = backend.line_access(Cycle::new(0), 0, 0x1000, 32, false);
/// // The same line from the other cluster hits in the shared L2.
/// let warm = backend.line_access(cold, 1, 0x1000, 32, false);
/// assert!(warm - cold < cold, "shared L2 hit must be much faster than DRAM");
/// ```
#[derive(Debug, Clone)]
pub struct MemoryBackend {
    config: GlobalMemoryConfig,
    l2: Cache,
    dram: MultiChannelDram,
    stats: MemoryBackendStats,
    per_cluster: Vec<ClusterContentionStats>,
    /// Scratch buffer reused by [`MemoryBackend::dma_access`] to bin one
    /// transfer's missed bytes per channel without allocating per call.
    dma_split: Vec<u64>,
}

impl MemoryBackend {
    /// Creates the back-end with a cold L2, sized for `clusters` clusters of
    /// contention accounting.
    ///
    /// # Panics
    ///
    /// Panics if `clusters` is zero, or if the DRAM interleave granularity
    /// is not a multiple of the L2 line size (the back-end routes whole
    /// lines, so a finer interleave would silently charge part of every
    /// line to the wrong channel).
    pub fn new(config: GlobalMemoryConfig, clusters: u32) -> Self {
        assert!(clusters > 0, "the back-end serves at least one cluster");
        assert!(
            config
                .dram
                .interleave_bytes
                .is_multiple_of(u64::from(config.l2.line_bytes)),
            "DRAM interleave granularity ({} B) must be a multiple of the L2 line size ({} B)",
            config.dram.interleave_bytes,
            config.l2.line_bytes,
        );
        let dram = MultiChannelDram::new(config.dram);
        let channels = dram.channel_count();
        MemoryBackend {
            l2: Cache::new(config.l2),
            dma_split: vec![0; channels as usize],
            dram,
            config,
            stats: MemoryBackendStats::default(),
            per_cluster: vec![ClusterContentionStats::for_channels(channels); clusters as usize],
        }
    }

    /// The configuration.
    pub fn config(&self) -> &GlobalMemoryConfig {
        &self.config
    }

    /// Aggregated back-end statistics.
    pub fn stats(&self) -> MemoryBackendStats {
        self.stats
    }

    /// DRAM interface statistics, summed over channels.
    pub fn dram_stats(&self) -> DramStats {
        self.dram.stats()
    }

    /// Per-channel DRAM interface statistics, in channel order.
    pub fn dram_channel_stats(&self) -> Vec<DramStats> {
        self.dram.per_channel_stats()
    }

    /// Installs the DRAM channel fault windows of `plan` on the back-end's
    /// DRAM subsystem (see [`MultiChannelDram::apply_faults`]).
    pub fn apply_faults(&mut self, plan: &FaultPlan) {
        self.dram.apply_faults(plan);
    }

    /// Degraded-mode DRAM counters (all zero without DRAM faults).
    pub fn dram_fault_stats(&self) -> DramFaultStats {
        self.dram.fault_stats()
    }

    /// Number of DRAM channels behind the L2.
    pub fn dram_channels(&self) -> u32 {
        self.dram.channel_count()
    }

    /// Contention counters for one cluster.
    ///
    /// # Panics
    ///
    /// Panics if `cluster` is out of range.
    pub fn cluster_stats(&self, cluster: u32) -> ClusterContentionStats {
        self.per_cluster[cluster as usize].clone()
    }

    /// Contention counters for every cluster, in cluster order.
    pub fn per_cluster_stats(&self) -> &[ClusterContentionStats] {
        &self.per_cluster
    }

    /// Total DRAM queueing delay across clusters — the machine-wide
    /// contention metric.
    pub fn total_dram_stall_cycles(&self) -> u64 {
        self.per_cluster.iter().map(|c| c.dram_stall_cycles).sum()
    }

    /// L2 hit rate.
    pub fn l2_hit_rate(&self) -> f64 {
        self.l2.stats().hit_rate()
    }

    /// Captures every counter the back-end keeps, for windowed per-job
    /// attribution (see [`BackendAttribution`]).
    pub fn attribution(&self) -> BackendAttribution {
        BackendAttribution {
            stats: self.stats,
            dram: self.dram.stats(),
            dram_channels: self.dram.per_channel_stats(),
            dram_fault: self.dram.fault_stats(),
            per_cluster: self.per_cluster.clone(),
        }
    }

    /// Serves one line-granular request from `cluster` that missed its L1,
    /// presented to the L2 at `at`; returns the completion cycle. An L2 miss
    /// is routed to the DRAM channel that owns the line's address.
    pub fn line_access(
        &mut self,
        at: Cycle,
        cluster: u32,
        line_addr: u64,
        bytes: u64,
        write: bool,
    ) -> Cycle {
        self.stats.l2_accesses += 1;
        self.per_cluster[cluster as usize].l2_accesses += 1;
        let l2_latency = self.l2.latency();
        if self.l2.access(line_addr).is_hit() {
            return at.plus(l2_latency);
        }
        self.stats.l2_misses += 1;
        self.per_cluster[cluster as usize].l2_misses += 1;
        let present = at.plus(l2_latency);
        let channel = self.dram.route(present, line_addr);
        let (done, stall) = self.dram_access(present, cluster, channel, bytes, write);
        self.per_cluster[cluster as usize].dram_stall_cycles += stall;
        done
    }

    /// Serves a bulk DMA transfer from `cluster` that bypasses the L1 caches
    /// and streams through the L2 in line-sized chunks, returning the
    /// completion cycle. Lines that miss the L2 are binned by the DRAM
    /// channel that owns them; the per-channel sub-transfers proceed in
    /// parallel and the transfer completes when the slowest channel does.
    pub fn dma_access(
        &mut self,
        now: Cycle,
        cluster: u32,
        addr: u64,
        bytes: u64,
        write: bool,
    ) -> Cycle {
        if bytes == 0 {
            return now;
        }
        self.stats.dma_bytes += bytes;
        self.per_cluster[cluster as usize].dma_bytes += bytes;
        let line = u64::from(self.config.l2.line_bytes);
        let first = addr / line;
        let last = (addr + bytes - 1) / line;
        let end = addr + bytes;
        // The L2 streams the transfer at four lines per cycle; short
        // transfers still pay at least one streaming cycle. Computed up
        // front because `l2_time` is when sub-transfers reach the channels,
        // which is the routing point for fault windows.
        let lines = last - first + 1;
        let l2_time = now.plus(self.l2.latency() + lines.div_ceil(4));
        self.dma_split.iter_mut().for_each(|b| *b = 0);
        for l in first..=last {
            self.stats.l2_accesses += 1;
            self.per_cluster[cluster as usize].l2_accesses += 1;
            if !self.l2.access(l * line).is_hit() {
                self.stats.l2_misses += 1;
                self.per_cluster[cluster as usize].l2_misses += 1;
                // Only the requested bytes that fall inside this line are
                // moved on a miss: partial head/tail lines count their
                // overlap with the transfer, not the whole line (the DRAM
                // model re-applies burst rounding to what is actually sent).
                let span = end.min((l + 1) * line) - addr.max(l * line);
                let channel = self.dram.route(l2_time, l * line);
                self.dma_split[channel as usize] += span;
            }
        }
        let mut done = l2_time;
        // The sub-transfers queue on their channels *concurrently*, so the
        // DMA's contention cost is the slowest channel's wait, not the sum.
        let mut critical_path_stall = 0u64;
        for channel in 0..self.dram.channel_count() {
            let missed = self.dma_split[channel as usize];
            if missed > 0 {
                let (sub_done, stall) = self.dram_access(l2_time, cluster, channel, missed, write);
                done = done.max(sub_done);
                critical_path_stall = critical_path_stall.max(stall);
            }
        }
        self.per_cluster[cluster as usize].dram_stall_cycles += critical_path_stall;
        done
    }

    /// Issues one DRAM sub-transfer on `channel` on behalf of `cluster`,
    /// recording its request/byte counts and per-channel exposed queueing
    /// delay; returns the completion cycle and the delay so the caller can
    /// charge the logical transfer's critical-path wait to the cluster
    /// aggregate.
    fn dram_access(
        &mut self,
        at: Cycle,
        cluster: u32,
        channel: u32,
        bytes: u64,
        write: bool,
    ) -> (Cycle, u64) {
        // Only the queueing the fixed access latency does not hide is a real
        // stall: the request's completion slips by exactly these cycles
        // relative to an idle channel (`DramModel::access` overlaps latency
        // with the queue).
        let stall = self
            .dram
            .busy_until(channel)
            .saturating_sub(at.plus(self.config.dram.latency))
            .get();
        let stats = &mut self.per_cluster[cluster as usize];
        stats.dram_requests += 1;
        stats.dram_bytes += bytes;
        let per_channel = &mut stats.per_channel[channel as usize];
        per_channel.requests += 1;
        per_channel.stall_cycles += stall;
        (self.dram.access_on(channel, at, bytes, write), stall)
    }
}

impl NextActivity for MemoryBackend {
    /// The L2 and the DRAM channels behind it are purely reactive and
    /// contribute no self-driven events.
    fn next_activity(&self, _now: Cycle) -> Option<Cycle> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;
    use crate::dram::DramConfig;

    fn backend(clusters: u32) -> MemoryBackend {
        MemoryBackend::new(GlobalMemoryConfig::default_soc(2), clusters)
    }

    fn backend_with_channels(clusters: u32, channels: u32) -> MemoryBackend {
        let mut config = GlobalMemoryConfig::default_soc(2);
        config.dram = config.dram.with_channels(channels);
        MemoryBackend::new(config, clusters)
    }

    #[test]
    fn l2_is_shared_across_clusters() {
        let mut b = backend(2);
        let cold = b.line_access(Cycle::new(0), 0, 0, 32, false);
        assert!(cold.get() > 100, "cold miss reaches DRAM");
        let warm = b.line_access(Cycle::new(1000), 1, 0, 32, false);
        assert_eq!(warm, Cycle::new(1000 + 12));
        assert_eq!(b.stats().l2_accesses, 2);
        assert_eq!(b.stats().l2_misses, 1);
        assert_eq!(b.cluster_stats(0).l2_accesses, 1);
        assert_eq!(b.cluster_stats(1).l2_accesses, 1);
    }

    #[test]
    fn concurrent_clusters_contend_for_dram() {
        let mut b = backend(2);
        // Two cold 8 KiB DMA transfers to distinct regions presented at the
        // same cycle: long enough that the bus occupancy dominates the fixed
        // latency, so the second cluster's transfer visibly queues behind
        // the first on the single channel.
        let first = b.dma_access(Cycle::new(0), 0, 0, 8192, false);
        let second = b.dma_access(Cycle::new(0), 1, 1 << 20, 8192, false);
        assert!(second > first);
        assert_eq!(b.cluster_stats(0).dram_stall_cycles, 0);
        assert!(b.cluster_stats(1).dram_stall_cycles > 0);
        assert_eq!(
            b.total_dram_stall_cycles(),
            b.cluster_stats(1).dram_stall_cycles
        );
        // The per-channel breakdown sums to the aggregate.
        let stats = b.cluster_stats(1);
        assert_eq!(stats.per_channel.len(), 1);
        assert_eq!(stats.per_channel[0].requests, stats.dram_requests);
        assert_eq!(stats.per_channel[0].stall_cycles, stats.dram_stall_cycles);
    }

    #[test]
    fn interleaved_channels_split_contention() {
        // Same scenario as above, but with 2 channels the first cluster's
        // 32 KiB burst stripes over both channels and drains twice as fast,
        // so the second cluster (arriving while it is still in flight) sees
        // a shorter backlog and finishes sooner.
        let mut single = backend(2);
        let mut dual = backend_with_channels(2, 2);
        let single_done = {
            single.dma_access(Cycle::new(0), 0, 0, 32 * 1024, false);
            single.dma_access(Cycle::new(200), 1, 1 << 20, 8192, false)
        };
        let dual_done = {
            dual.dma_access(Cycle::new(0), 0, 0, 32 * 1024, false);
            dual.dma_access(Cycle::new(200), 1, 1 << 20, 8192, false)
        };
        assert!(
            dual_done < single_done,
            "two channels must beat one: {dual_done:?} vs {single_done:?}"
        );
        assert!(
            dual.cluster_stats(1).dram_stall_cycles < single.cluster_stats(1).dram_stall_cycles,
            "queueing must shrink with more channels"
        );
        // Both channels saw traffic, the request breakdown sums to the
        // total, and the aggregate stall is the critical-path wait — never
        // more than the per-channel waits added together.
        let stats = dual.cluster_stats(0);
        assert_eq!(stats.per_channel.len(), 2);
        assert!(stats.per_channel.iter().all(|c| c.requests > 0));
        assert_eq!(
            stats.per_channel.iter().map(|c| c.requests).sum::<u64>(),
            stats.dram_requests
        );
        let queued = dual.cluster_stats(1);
        assert!(
            queued.dram_stall_cycles
                <= queued
                    .per_channel
                    .iter()
                    .map(|c| c.stall_cycles)
                    .sum::<u64>(),
            "aggregate stall is the max over concurrent sub-transfers"
        );
        // Burst-aligned transfers move identical bytes across the split
        // (see `straddling_partial_lines_round_per_channel` for the
        // unaligned edge).
        assert_eq!(dual.dram_stats().bytes, single.dram_stats().bytes);
        assert_eq!(dual.dram_stats().bursts, single.dram_stats().bursts);
        assert_eq!(dual.dram_channel_stats().len(), 2);
    }

    #[test]
    fn line_accesses_route_by_address() {
        let mut b = backend_with_channels(1, 4);
        // Interleave is 256 bytes: lines 0 and 256 land on channels 0 and 1.
        b.line_access(Cycle::new(0), 0, 0, 32, false);
        b.line_access(Cycle::new(0), 0, 256, 32, false);
        let per_channel = b.dram_channel_stats();
        assert_eq!(per_channel[0].reads, 1);
        assert_eq!(per_channel[1].reads, 1);
        assert_eq!(per_channel[2].reads + per_channel[3].reads, 0);
    }

    #[test]
    fn dma_access_streams_through_l2() {
        let mut b = backend(1);
        let done = b.dma_access(Cycle::new(0), 0, 0, 1024, false);
        assert!(done.get() > 100);
        assert_eq!(b.stats().dma_bytes, 1024);
        assert_eq!(b.cluster_stats(0).dram_requests, 1);
        // A later DMA of the same region hits in L2 and avoids DRAM.
        let warm = b.dma_access(done, 0, 0, 1024, false);
        assert!(warm - done < Cycle::new(50));
    }

    /// Regression test: a cold DMA that covers partial head/tail lines only
    /// charges the *requested* bytes to DRAM, not whole lines — the
    /// `dram_bytes` doc ("before burst rounding") now holds.
    #[test]
    fn unaligned_dma_counts_requested_bytes_only() {
        let mut b = backend(1);
        // 32 requested bytes straddling two 32-byte lines (16 in each).
        let done = b.dma_access(Cycle::new(0), 0, 16, 32, false);
        assert!(done.get() > 100, "cold miss reaches DRAM");
        assert_eq!(b.cluster_stats(0).dram_bytes, 32, "clamped to the span");
        assert_eq!(b.stats().l2_misses, 2, "both lines miss");
        // The DRAM interface still rounds what it sends to bursts.
        assert_eq!(b.dram_stats().bytes, 32);
        assert_eq!(b.dram_stats().bursts, 1);
    }

    /// Regression test: transfers under four lines still pay one L2
    /// streaming cycle (the old integer division truncated it to zero).
    #[test]
    fn short_dma_pays_one_streaming_cycle() {
        let mut b = backend(1);
        // Warm the line so the second access is pure L2 time.
        b.dma_access(Cycle::new(0), 0, 0, 32, false);
        let start = Cycle::new(1000);
        let warm = b.dma_access(start, 0, 0, 32, false);
        // L2 latency (12) plus ceil(1/4) = 1 streaming cycle.
        assert_eq!(warm, Cycle::new(1000 + 12 + 1));
    }

    /// A non-default burst size flows end to end through the back-end: the
    /// channel counts bursts in `burst_bytes` units.
    #[test]
    fn non_default_burst_bytes_flow_through_backend() {
        let mut config = GlobalMemoryConfig {
            l1: CacheConfig::l1_16k(),
            l2: CacheConfig::l2_512k(),
            dram: DramConfig {
                burst_bytes: 64,
                ..DramConfig::default_soc()
            },
            cores: 2,
        };
        config.dram.channels = 2;
        let mut b = MemoryBackend::new(config, 1);
        // A 96-byte cold DMA: three 32-byte lines, striped 96 bytes onto
        // channel 0 (interleave 256 covers all three lines).
        b.dma_access(Cycle::new(0), 0, 0, 96, false);
        let stats = b.dram_stats();
        assert_eq!(stats.bytes, 128, "96 bytes round up to two 64-byte bursts");
        assert_eq!(stats.bursts, 2);
        let per_channel = b.dram_channel_stats();
        assert_eq!(per_channel[0].bursts, 2);
        assert_eq!(per_channel[1].bursts, 0);
        // A cold line access on the other channel's block.
        b.line_access(Cycle::new(0), 0, 256, 32, false);
        assert_eq!(b.dram_channel_stats()[1].bursts, 1, "one 64-byte burst");
        assert_eq!(b.dram_stats().bytes, 128 + 64);
    }

    /// A cold transfer whose missed lines straddle an interleave boundary
    /// fills lines on *both* channels, so each channel pays its own burst
    /// rounding: the requested bytes (`dram_bytes`, pre-rounding) are always
    /// conserved across channel counts, but the rounded interface traffic
    /// can gain a burst per extra channel touched — each channel's bus
    /// really does move its own line.
    #[test]
    fn straddling_partial_lines_round_per_channel() {
        let mut single = backend(1);
        let mut dual = backend_with_channels(1, 2);
        // Two requested bytes: addr 255 (line 7, channel 0) and addr 256
        // (line 8, channel 1 at 256-byte interleave).
        single.dma_access(Cycle::new(0), 0, 255, 2, false);
        dual.dma_access(Cycle::new(0), 0, 255, 2, false);
        assert_eq!(single.cluster_stats(0).dram_bytes, 2);
        assert_eq!(
            dual.cluster_stats(0).dram_bytes,
            2,
            "requested bytes conserved"
        );
        assert_eq!(single.dram_stats().bursts, 1, "one coalesced burst");
        assert_eq!(dual.dram_stats().bursts, 2, "one burst per touched channel");
    }

    #[test]
    fn zero_byte_dma_is_a_noop() {
        let mut b = backend(1);
        assert_eq!(b.dma_access(Cycle::new(7), 0, 0, 0, false), Cycle::new(7));
        assert_eq!(b.stats().dma_bytes, 0);
    }

    #[test]
    #[should_panic(expected = "at least one cluster")]
    fn zero_clusters_rejected() {
        let _ = MemoryBackend::new(GlobalMemoryConfig::default_soc(2), 0);
    }

    #[test]
    #[should_panic(expected = "multiple of the L2 line size")]
    fn sub_line_interleave_rejected() {
        // A 16-byte interleave under 32-byte L2 lines would silently route
        // half of every line to the wrong channel; fail fast instead.
        let mut config = GlobalMemoryConfig::default_soc(2);
        config.dram.interleave_bytes = 16;
        let _ = MemoryBackend::new(config, 1);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn out_of_range_cluster_panics() {
        let mut b = backend(1);
        let _ = b.line_access(Cycle::new(0), 3, 0, 32, false);
    }

    #[test]
    fn dead_channel_traffic_lands_on_survivors() {
        use virgo_sim::fault::FaultKind;
        let mut b = backend_with_channels(1, 4);
        let plan = FaultPlan::seeded(3).with_event(
            FaultKind::DramChannelDown { channel: 1 },
            0,
            1_000_000,
        );
        b.apply_faults(&plan);
        // Line 256 homes on channel 1, which is down for the whole run.
        b.line_access(Cycle::new(0), 0, 256, 32, false);
        let per_channel = b.dram_channel_stats();
        assert_eq!(per_channel[1].reads, 0, "dead channel serves nothing");
        assert_eq!(b.dram_stats().reads, 1, "the access still completes");
        assert_eq!(b.dram_fault_stats().restriped_accesses, 1);
        // A cold DMA spanning all four channels also avoids channel 1.
        b.dma_access(Cycle::new(0), 0, 4096, 4096, false);
        assert_eq!(b.dram_channel_stats()[1].reads, 0);
        assert!(b.dram_fault_stats().restriped_accesses > 1);
    }
}
