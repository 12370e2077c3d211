//! A bandwidth- and latency-limited DRAM model: one channel, and the
//! address-interleaved multi-channel subsystem built from it.

use virgo_sim::fault::{FaultKind, FaultPlan, PERMANENT};
use virgo_sim::{Cycle, StableHash, StableHasher};

/// Configuration of the DRAM interface.
///
/// `channels` and `interleave_bytes` describe the *subsystem* built by
/// [`MultiChannelDram`]: physical addresses are striped across channels at
/// `interleave_bytes` granularity (`channel = (addr / interleave_bytes) %
/// channels`), and every channel owns a full `bytes_per_cycle` bus, so
/// aggregate bandwidth scales with the channel count. A single
/// [`DramModel`] ignores both fields — it *is* one channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramConfig {
    /// Fixed access latency in cycles (row activation, controller queueing).
    pub latency: u64,
    /// Sustained bandwidth in bytes per SoC cycle, per channel.
    pub bytes_per_cycle: u64,
    /// Burst granularity in bytes; every transfer is rounded up to bursts.
    pub burst_bytes: u64,
    /// Number of independent channels the subsystem stripes addresses over.
    pub channels: u32,
    /// Address-interleave granularity in bytes: consecutive
    /// `interleave_bytes`-sized blocks map to consecutive channels.
    pub interleave_bytes: u64,
}

impl DramConfig {
    /// A DDR-class interface matched to the 400 MHz SoC: a single channel of
    /// 32 bytes/cycle (≈ 12.8 GB/s) with 100-cycle latency, interleaved at
    /// 256-byte granularity when scaled to more channels.
    pub fn default_soc() -> Self {
        DramConfig {
            latency: 100,
            bytes_per_cycle: 32,
            burst_bytes: 32,
            channels: 1,
            interleave_bytes: 256,
        }
    }

    /// The same interface scaled to `channels` address-interleaved channels.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is zero.
    #[must_use]
    pub fn with_channels(mut self, channels: u32) -> Self {
        assert!(channels > 0, "a DRAM subsystem needs at least one channel");
        self.channels = channels;
        self
    }

    /// Bursts a transfer of `bytes` occupies on a channel's bus: every
    /// transfer is rounded up to whole bursts, and moves at least one.
    pub fn bursts(&self, bytes: u64) -> u64 {
        bytes.div_ceil(self.burst_bytes).max(1)
    }
}

impl StableHash for DramConfig {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_u64(self.latency);
        h.write_u64(self.bytes_per_cycle);
        h.write_u64(self.burst_bytes);
        h.write_u64(u64::from(self.channels));
        h.write_u64(self.interleave_bytes);
    }
}

/// DRAM interface counters: one requester's traffic on one channel
/// ([`crate::ChannelContentionStats::dram`], where the back-end counts each
/// transfer), or a sum of such slices.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Number of read requests served.
    pub reads: u64,
    /// Number of write requests served.
    pub writes: u64,
    /// Total bytes transferred (after rounding to bursts).
    pub bytes: u64,
    /// Total bursts transferred, each `burst_bytes` wide (32 bytes at the
    /// default SoC configuration).
    pub bursts: u64,
}
virgo_sim::counters!(DramStats {
    reads,
    writes,
    bytes,
    bursts
});

/// The DRAM model: a single channel with fixed latency and finite bandwidth.
///
/// Requests occupy the channel's data bus back-to-back; a request issued
/// while the bus is busy is serialized behind the earlier ones, but its fixed
/// access latency (row activation, controller pipeline) overlaps with the
/// queueing delay instead of being paid again on top of it. The model keeps
/// only timing: the [`crate::MemoryBackend`] counts each transfer, once, in
/// the requester's per-channel slice.
///
/// # Example
///
/// ```
/// use virgo_mem::{DramConfig, DramModel};
/// use virgo_sim::Cycle;
///
/// let mut dram = DramModel::new(DramConfig::default_soc());
/// let done = dram.access(Cycle::new(0), 256);
/// // 256 bytes at 32 B/cycle occupies 8 cycles after the 100-cycle latency.
/// assert_eq!(done, Cycle::new(108));
/// ```
#[derive(Debug, Clone)]
pub struct DramModel {
    config: DramConfig,
    /// Cycle at which the channel becomes free.
    busy_until: Cycle,
}

impl DramModel {
    /// Creates an idle DRAM channel.
    ///
    /// # Panics
    ///
    /// Panics if the configured bandwidth or burst size is zero.
    pub fn new(config: DramConfig) -> Self {
        assert!(config.bytes_per_cycle > 0, "bandwidth must be non-zero");
        assert!(config.burst_bytes > 0, "burst size must be non-zero");
        DramModel {
            config,
            busy_until: Cycle::ZERO,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// Cycle at which the channel next becomes free.
    pub fn busy_until(&self) -> Cycle {
        self.busy_until
    }

    /// Performs a transfer of `bytes` starting no earlier than `now`,
    /// returning the completion cycle.
    pub fn access(&mut self, now: Cycle, bytes: u64) -> Cycle {
        self.access_scaled(now, bytes, 1)
    }

    /// Like [`DramModel::access`], with the fixed access latency multiplied
    /// by `latency_multiplier` (a throttled channel during a fault window;
    /// `1` is the healthy path and changes nothing).
    pub fn access_scaled(&mut self, now: Cycle, bytes: u64, latency_multiplier: u64) -> Cycle {
        let rounded = self.config.bursts(bytes) * self.config.burst_bytes;
        let transfer_cycles = rounded.div_ceil(self.config.bytes_per_cycle).max(1);
        let latency = self.config.latency * latency_multiplier.max(1);

        // Data transfer starts when the bus is free; the fixed latency runs
        // concurrently with the queueing delay, so completion is the later of
        // "bus slot ends" and "latency plus transfer from request time".
        let start = now.max(self.busy_until);
        self.busy_until = start.plus(transfer_cycles);
        start.max(now.plus(latency)).plus(transfer_cycles)
    }
}

/// One DRAM channel fault window, resolved against the subsystem.
#[derive(Debug, Clone, Copy)]
struct ChannelFaultState {
    channel: u32,
    from: u64,
    until: u64,
    /// `None` for a full outage; `Some(m)` multiplies the access latency.
    latency_multiplier: Option<u32>,
    /// Whether the first post-window access was already accounted as the
    /// recovery point (pre-set for permanent windows, which never recover).
    recovered: bool,
}

impl ChannelFaultState {
    fn active_at(&self, cycle: u64) -> bool {
        self.from <= cycle && cycle < self.until
    }
}

/// The address-interleaved multi-channel DRAM subsystem.
///
/// `channels` independent [`DramModel`] channels sit behind one physical
/// address space; block `addr / interleave_bytes` belongs to channel
/// `(addr / interleave_bytes) % channels`. Each channel has its own data bus,
/// so requests to distinct channels proceed in parallel and aggregate
/// bandwidth scales with the channel count, while requests that collide on
/// one channel still serialize exactly like the single-channel model.
///
/// With `channels = 1` every address routes to channel 0 and the subsystem
/// is bit-identical to a bare [`DramModel`] (pinned by the property tests in
/// the workspace's `tests/integration_dram.rs`).
///
/// # Example
///
/// ```
/// use virgo_mem::{DramConfig, MultiChannelDram};
/// use virgo_sim::Cycle;
///
/// let mut dram = MultiChannelDram::new(DramConfig::default_soc().with_channels(2));
/// // Blocks 0 and 1 (256-byte interleave) land on different channels, so
/// // two same-cycle transfers both complete without queueing.
/// let a = dram.access(Cycle::new(0), 0, 256);
/// let b = dram.access(Cycle::new(0), 256, 256);
/// assert_eq!(a, b);
/// ```
#[derive(Debug, Clone)]
pub struct MultiChannelDram {
    config: DramConfig,
    channels: Vec<DramModel>,
    /// DRAM channel fault windows; empty on a healthy machine, in which case
    /// routing takes the original zero-cost path.
    faults: Vec<ChannelFaultState>,
}

impl MultiChannelDram {
    /// Creates the subsystem with every channel idle.
    ///
    /// # Panics
    ///
    /// Panics if the channel count, interleave granularity, bandwidth or
    /// burst size is zero.
    pub fn new(config: DramConfig) -> Self {
        assert!(config.channels > 0, "at least one DRAM channel");
        assert!(
            config.interleave_bytes > 0,
            "interleave granularity must be non-zero"
        );
        let channels = (0..config.channels)
            .map(|_| DramModel::new(config))
            .collect();
        MultiChannelDram {
            config,
            channels,
            faults: Vec::new(),
        }
    }

    /// Installs the DRAM channel fault windows of `plan`. An empty plan (or
    /// one without DRAM events) leaves the subsystem on its zero-cost path.
    ///
    /// # Panics
    ///
    /// Panics if an event names a channel the subsystem does not have.
    pub fn apply_faults(&mut self, plan: &FaultPlan) {
        for event in &plan.events {
            let (channel, latency_multiplier) = match event.kind {
                FaultKind::DramChannelDown { channel } => (channel, None),
                FaultKind::DramChannelThrottle {
                    channel,
                    latency_multiplier,
                } => (channel, Some(latency_multiplier)),
                _ => continue,
            };
            assert!(
                channel < self.config.channels,
                "fault on DRAM channel {channel} but the subsystem has {} channels",
                self.config.channels
            );
            self.faults.push(ChannelFaultState {
                channel,
                from: event.from,
                until: event.until,
                latency_multiplier,
                recovered: event.until == PERMANENT,
            });
        }
    }

    /// The configuration.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// Number of channels.
    pub fn channel_count(&self) -> u32 {
        self.config.channels
    }

    /// The channel index serving physical address `addr`.
    pub fn channel_for(&self, addr: u64) -> u32 {
        ((addr / self.config.interleave_bytes) % u64::from(self.config.channels)) as u32
    }

    /// Cycle at which `channel` next becomes free.
    ///
    /// # Panics
    ///
    /// Panics if `channel` is out of range.
    pub fn busy_until(&self, channel: u32) -> Cycle {
        self.channels[channel as usize].busy_until()
    }

    /// The channel that will actually serve address `addr` at cycle `now`,
    /// and whether the access was re-striped off its home channel: the
    /// interleave-mapped home channel on a healthy machine, or a
    /// deterministic re-striping onto the surviving channels while the home
    /// channel's outage window is active. The subsystem counts nothing; the
    /// caller charges a re-striped access to whoever issued it.
    ///
    /// Re-striping spreads displaced blocks across the survivors by the same
    /// interleave arithmetic (`alive[(addr / interleave) % alive.len()]`), so
    /// the degraded subsystem keeps its bandwidth-scaling shape. If *every*
    /// channel is down, requests fall back to the home channel (the outage
    /// then just costs queueing, mirroring the DSM fabric's parked-transfer
    /// behavior rather than deadlocking the machine).
    pub fn route(&self, now: Cycle, addr: u64) -> (u32, bool) {
        let preferred = self.channel_for(addr);
        if self.faults.is_empty() {
            return (preferred, false);
        }
        let t = now.get();
        let down = |faults: &[ChannelFaultState], ch: u32| {
            faults
                .iter()
                .any(|f| f.channel == ch && f.latency_multiplier.is_none() && f.active_at(t))
        };
        if !down(&self.faults, preferred) {
            return (preferred, false);
        }
        let alive: Vec<u32> = (0..self.config.channels)
            .filter(|&c| !down(&self.faults, c))
            .collect();
        if alive.is_empty() {
            return (preferred, false);
        }
        let block = addr / self.config.interleave_bytes;
        (alive[(block % alive.len() as u64) as usize], true)
    }

    /// Performs a transfer of `bytes` on the channel that owns `addr`,
    /// starting no earlier than `now`; returns the completion cycle.
    pub fn access(&mut self, now: Cycle, addr: u64, bytes: u64) -> Cycle {
        let (channel, _) = self.route(now, addr);
        self.access_on(channel, now, bytes).0
    }

    /// Performs a transfer of `bytes` on an explicit channel (used by callers
    /// that already routed, e.g. to split a DMA transfer into per-channel
    /// sub-transfers); returns the completion cycle and the recovery
    /// latency this access closed — the cycles since a finite fault window
    /// on the channel ended, when this is the channel's first service after
    /// it (0 otherwise).
    ///
    /// # Panics
    ///
    /// Panics if `channel` is out of range.
    pub fn access_on(&mut self, channel: u32, now: Cycle, bytes: u64) -> (Cycle, u64) {
        if self.faults.is_empty() {
            return (self.channels[channel as usize].access(now, bytes), 0);
        }
        let t = now.get();
        let mut multiplier = 1u64;
        let mut recovery = 0u64;
        for f in self.faults.iter_mut().filter(|f| f.channel == channel) {
            if let (true, Some(m)) = (f.active_at(t), f.latency_multiplier) {
                multiplier = multiplier.max(u64::from(m));
            }
            // First access served after a finite window closes marks the
            // channel's recovery point.
            if !f.recovered && t >= f.until {
                f.recovered = true;
                recovery += t - f.until;
            }
        }
        let done = self.channels[channel as usize].access_scaled(now, bytes, multiplier);
        (done, recovery)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> DramConfig {
        DramConfig {
            latency: 10,
            bytes_per_cycle: 8,
            burst_bytes: 32,
            channels: 1,
            interleave_bytes: 256,
        }
    }

    fn dram() -> DramModel {
        DramModel::new(config())
    }

    #[test]
    fn single_access_latency_plus_transfer() {
        let mut d = dram();
        let done = d.access(Cycle::new(0), 32);
        assert_eq!(done, Cycle::new(10 + 4));
        assert_eq!(d.busy_until(), Cycle::new(4));
    }

    #[test]
    fn small_access_rounds_to_burst() {
        assert_eq!(config().bursts(4), 1);
        assert_eq!(
            config().bursts(0),
            1,
            "an empty transfer still moves a burst"
        );
        let mut d = dram();
        // 4 bytes occupy a whole 32-byte burst: 4 cycles at 8 B/cycle.
        d.access(Cycle::new(0), 4);
        assert_eq!(d.busy_until(), Cycle::new(4));
    }

    #[test]
    fn back_to_back_accesses_serialize_on_the_bus() {
        let mut d = dram();
        let first = d.access(Cycle::new(0), 64);
        let second = d.access(Cycle::new(0), 64);
        assert_eq!(first, Cycle::new(10 + 8));
        // The second transfer's data moves over bus cycles 8..16, but its
        // fixed latency (10) overlapped with the 8-cycle queueing delay, so
        // it completes at max(8, 10) + 8 = 18, not 8 + 10 + 8 = 26.
        assert_eq!(second, Cycle::new(18));
        assert!(d.busy_until() == Cycle::new(16));
    }

    /// Regression test for the latency/queueing double-charge: two requests
    /// issued the same cycle used to each pay the full fixed latency *after*
    /// queueing; now latency overlaps the queue, so the queued request is
    /// delayed only by the bus occupancy it actually waited for.
    #[test]
    fn queued_request_overlaps_latency_with_queueing() {
        let mut d = dram();
        // 32-byte transfers: 4 bus cycles each, 10-cycle latency.
        let first = d.access(Cycle::new(0), 32);
        let second = d.access(Cycle::new(0), 32);
        assert_eq!(first, Cycle::new(14), "idle channel: latency + transfer");
        // Queued behind 4 bus cycles, but the 10-cycle latency covers that
        // wait entirely: completion stays latency + transfer = 14 instead of
        // the old serial 4 + 10 + 4 = 18.
        assert_eq!(second, Cycle::new(14));
        let third = d.access(Cycle::new(0), 32);
        // Bus free at 8; latency floor (10) still dominates: max(8,10)+4.
        assert_eq!(third, Cycle::new(14));
        let fourth = d.access(Cycle::new(0), 32);
        // Deep in the queue the bus wait finally dominates: starts at 12,
        // completes at 12 + 4 = 16 (> the latency floor of 14).
        assert_eq!(fourth, Cycle::new(16));
    }

    #[test]
    fn idle_gap_resets_queueing() {
        let mut d = dram();
        d.access(Cycle::new(0), 32);
        let done = d.access(Cycle::new(1000), 32);
        assert_eq!(done, Cycle::new(1000 + 10 + 4));
    }

    #[test]
    fn bandwidth_limits_throughput() {
        let mut d = dram();
        let mut last = Cycle::ZERO;
        for _ in 0..100 {
            last = d.access(Cycle::ZERO, 32);
        }
        // 100 bursts × 4 cycles each = 400 cycles of bus occupancy.
        assert!(last.get() >= 400);
    }

    #[test]
    #[should_panic(expected = "bandwidth")]
    fn zero_bandwidth_rejected() {
        let _ = DramModel::new(DramConfig {
            bytes_per_cycle: 0,
            ..config()
        });
    }

    #[test]
    #[should_panic(expected = "at least one DRAM channel")]
    fn zero_channels_rejected() {
        let _ = MultiChannelDram::new(DramConfig {
            channels: 0,
            ..config()
        });
    }

    #[test]
    #[should_panic(expected = "interleave")]
    fn zero_interleave_rejected() {
        let _ = MultiChannelDram::new(DramConfig {
            interleave_bytes: 0,
            ..config()
        });
    }

    #[test]
    fn addresses_stripe_round_robin_across_channels() {
        let d = MultiChannelDram::new(config().with_channels(4));
        assert_eq!(d.channel_for(0), 0);
        assert_eq!(d.channel_for(255), 0);
        assert_eq!(d.channel_for(256), 1);
        assert_eq!(d.channel_for(512), 2);
        assert_eq!(d.channel_for(768), 3);
        assert_eq!(d.channel_for(1024), 0);
    }

    #[test]
    fn distinct_channels_do_not_queue() {
        let mut d = MultiChannelDram::new(config().with_channels(2));
        // 256-byte transfers occupy a bus for 32 cycles — longer than the
        // 10-cycle latency, so queueing is visible in completion times.
        let a = d.access(Cycle::new(0), 0, 256);
        let b = d.access(Cycle::new(0), 256, 256);
        assert_eq!(a, b, "parallel channels serve same-cycle requests");
        // A third request colliding with channel 0 queues behind `a`'s bus.
        let c = d.access(Cycle::new(0), 512, 256);
        assert!(c > a);
    }

    #[test]
    fn empty_fault_plan_changes_nothing() {
        let plan = FaultPlan::default();
        let mut faulty = MultiChannelDram::new(config().with_channels(4));
        faulty.apply_faults(&plan);
        let mut clean = MultiChannelDram::new(config().with_channels(4));
        for i in 0..16u64 {
            let now = Cycle::new(i * 3);
            assert_eq!(faulty.route(now, i * 256), clean.route(now, i * 256));
            assert_eq!(
                faulty.access(now, i * 256, 64),
                clean.access(now, i * 256, 64)
            );
        }
    }

    #[test]
    fn dead_channel_restripes_onto_survivors() {
        let mut plan = FaultPlan::seeded(7);
        plan = plan.with_event(FaultKind::DramChannelDown { channel: 1 }, 0, 1_000);
        let mut d = MultiChannelDram::new(config().with_channels(4));
        d.apply_faults(&plan);
        // Address 256 homes on channel 1 (down); block 1 re-stripes onto
        // alive[1 % 3] = channel 2.
        assert_eq!(d.route(Cycle::new(10), 256), (2, true));
        // A healthy home channel routes normally.
        assert_eq!(d.route(Cycle::new(10), 512), (2, false));
        // Outside the window the home channel serves again.
        assert_eq!(d.route(Cycle::new(1_000), 256), (1, false));
    }

    #[test]
    fn restriping_spreads_displaced_blocks_across_survivors() {
        let mut plan = FaultPlan::seeded(7);
        plan = plan.with_event(FaultKind::DramChannelDown { channel: 0 }, 0, PERMANENT);
        let mut d = MultiChannelDram::new(config().with_channels(4));
        d.apply_faults(&plan);
        // Blocks 0, 4, 8 all home on channel 0; displaced, they stripe over
        // the three survivors instead of piling onto one.
        let a = d.route(Cycle::new(0), 0);
        let b = d.route(Cycle::new(0), 4 * 256);
        let c = d.route(Cycle::new(0), 8 * 256);
        assert_eq!(vec![a, b, c], vec![(1, true), (2, true), (3, true)]);
    }

    #[test]
    fn all_channels_down_falls_back_to_home_channel() {
        let mut plan = FaultPlan::seeded(7);
        for ch in 0..2 {
            plan = plan.with_event(FaultKind::DramChannelDown { channel: ch }, 0, 100);
        }
        let mut d = MultiChannelDram::new(config().with_channels(2));
        d.apply_faults(&plan);
        assert_eq!(d.route(Cycle::new(5), 256), (1, false));
    }

    #[test]
    fn throttled_channel_multiplies_latency() {
        let mut plan = FaultPlan::seeded(7);
        plan = plan.with_event(
            FaultKind::DramChannelThrottle {
                channel: 0,
                latency_multiplier: 3,
            },
            0,
            500,
        );
        let mut d = MultiChannelDram::new(config().with_channels(1));
        d.apply_faults(&plan);
        // Inside the window: 3×10 latency + 4-cycle transfer.
        assert_eq!(d.access(Cycle::new(0), 0, 32), Cycle::new(34));
        // Outside the window the latency is healthy again.
        assert_eq!(d.access(Cycle::new(600), 0, 32), Cycle::new(614));
    }

    #[test]
    fn recovery_latency_counts_first_access_after_the_window() {
        let mut plan = FaultPlan::seeded(7);
        plan = plan.with_event(FaultKind::DramChannelDown { channel: 0 }, 10, 100);
        let mut d = MultiChannelDram::new(config().with_channels(2));
        d.apply_faults(&plan);
        let mut serve = |now: u64| {
            let (channel, restriped) = d.route(Cycle::new(now), 0);
            (
                channel,
                restriped,
                d.access_on(channel, Cycle::new(now), 32).1,
            )
        };
        assert_eq!(serve(50), (1, true, 0), "re-striped away");
        assert_eq!(serve(130), (0, false, 30), "first post-window service");
        assert_eq!(serve(200), (0, false, 0), "counted once only");
    }

    #[test]
    #[should_panic(expected = "fault on DRAM channel 5")]
    fn fault_on_unknown_channel_is_rejected() {
        let plan =
            FaultPlan::seeded(1).with_event(FaultKind::DramChannelDown { channel: 5 }, 0, 10);
        let mut d = MultiChannelDram::new(config().with_channels(2));
        d.apply_faults(&plan);
    }

    /// A non-32-byte burst configuration counts bursts in `burst_bytes`
    /// units, not hard-coded 32-byte units, and the bus time follows the
    /// rounded size.
    #[test]
    fn burst_counting_follows_configured_burst_bytes() {
        let config = DramConfig {
            burst_bytes: 64,
            ..config()
        };
        assert_eq!(config.bursts(96), 2, "96 bytes is two 64-byte bursts");
        let mut d = DramModel::new(config);
        d.access(Cycle::new(0), 96);
        // Rounded to 128 bytes: 16 cycles at 8 B/cycle.
        assert_eq!(d.busy_until(), Cycle::new(16));
    }
}
