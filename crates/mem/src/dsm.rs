//! The inter-cluster distributed-shared-memory (DSM) fabric.
//!
//! Clusters normally interact only through contention on the shared L2/DRAM
//! back-end: a producer cluster's results reach a consumer by a full DRAM
//! round trip. Hopper-style thread-block clusters show that an intra-GPU
//! interconnect with direct SMEM-to-SMEM transfers skips that round trip
//! entirely. This module models that interconnect:
//!
//! * every cluster exposes one **DSM port** (its ingress link) through which
//!   all remote traffic targeting its scratchpad is serialized at
//!   [`DsmConfig::link_bandwidth`] bytes per cycle,
//! * a transfer from cluster `a` to cluster `b` pays a per-hop latency of
//!   [`DsmConfig::remote_latency`] cycles — one hop on an all-to-all
//!   crossbar, the ring distance on a [`DsmTopology::Ring`] — overlapped
//!   with any queueing on `b`'s port (mirroring how the DRAM model overlaps
//!   its fixed latency with channel queueing), and
//! * the fabric keeps the same two-level contention accounting the DRAM
//!   back-end uses: per-requester aggregates plus a per-link breakdown
//!   (mirroring `ChannelContentionStats`), so reports can attribute link
//!   queueing to the cluster that suffered it.
//!
//! The fabric is **disabled by default** ([`DsmConfig::default`]): a
//! disabled fabric refuses traffic, and — crucially for the repo's
//! bit-identity invariant — its mere presence in the machine perturbs no
//! counter of a kernel that never issues remote accesses.

use virgo_sim::fault::{FaultKind, FaultPlan, PERMANENT};
use virgo_sim::{Counters, Cycle, NextActivity, StableHash, StableHasher};

/// Bytes per link flit; hop-traversal energy is charged per flit per hop.
pub const DSM_FLIT_BYTES: u64 = 32;

/// How the clusters' DSM ports are wired together.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DsmTopology {
    /// A full crossbar: every pair of clusters is one hop apart.
    #[default]
    AllToAll,
    /// A bidirectional ring: the hop count is the shorter ring distance.
    Ring,
}

impl DsmTopology {
    /// Display name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            DsmTopology::AllToAll => "all-to-all",
            DsmTopology::Ring => "ring",
        }
    }
}

impl std::fmt::Display for DsmTopology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl StableHash for DsmTopology {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_u64(match self {
            DsmTopology::AllToAll => 0,
            DsmTopology::Ring => 1,
        });
    }
}

/// Configuration of the inter-cluster DSM fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DsmConfig {
    /// Whether the fabric accepts traffic at all. Disabled (the default)
    /// keeps the machine bit-identical to the pre-DSM model.
    pub enabled: bool,
    /// Latency of one link hop in cycles (wire + router traversal).
    pub remote_latency: u64,
    /// Bytes one DSM port moves per cycle.
    pub link_bandwidth: u64,
    /// How the ports are wired together.
    pub topology: DsmTopology,
}

impl Default for DsmConfig {
    /// The fabric parameters of [`DsmConfig::enabled_default`], but with the
    /// fabric switched off.
    fn default() -> Self {
        DsmConfig {
            enabled: false,
            ..Self::enabled_default()
        }
    }
}

impl DsmConfig {
    /// An enabled fabric with Hopper-class parameters: a 32-cycle hop over
    /// an all-to-all crossbar, 64 bytes per cycle per cluster port.
    pub fn enabled_default() -> Self {
        DsmConfig {
            enabled: true,
            remote_latency: 32,
            link_bandwidth: 64,
            topology: DsmTopology::AllToAll,
        }
    }

    /// The same parameters on a ring interconnect.
    pub fn enabled_ring() -> Self {
        DsmConfig {
            topology: DsmTopology::Ring,
            ..Self::enabled_default()
        }
    }
}

impl StableHash for DsmConfig {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.enabled.stable_hash(h);
        h.write_u64(self.remote_latency);
        h.write_u64(self.link_bandwidth);
        self.topology.stable_hash(h);
    }
}

/// One requester cluster's traffic over a single DSM ingress link, mirroring
/// the per-channel DRAM breakdown (`ChannelContentionStats`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DsmLinkStats {
    /// Remote transfers this cluster pushed through this link.
    pub requests: u64,
    /// Bytes this cluster moved over this link.
    pub bytes: u64,
    /// Exposed queueing cycles this cluster's transfers suffered on this
    /// link (the part of the port backlog the hop latency did not hide).
    pub stall_cycles: u64,
}
virgo_sim::counters!(DsmLinkStats {
    requests,
    bytes,
    stall_cycles
});

/// Per-requester-cluster DSM counters kept by the fabric.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClusterDsmStats {
    /// Remote transfers this cluster issued, summed over links.
    pub requests: u64,
    /// Bytes this cluster moved over the fabric.
    pub bytes: u64,
    /// Exposed link-queueing cycles this cluster's transfers suffered,
    /// summed over links (each transfer occupies exactly one ingress link,
    /// so unlike a split DMA there is no concurrent-sub-transfer max).
    pub stall_cycles: u64,
    /// Flit-hop traversals this cluster's transfers performed
    /// (`hops × ceil(bytes / DSM_FLIT_BYTES)` per transfer) — the energy
    /// model's link-traversal event count.
    pub hop_flits: u64,
    /// Per-ingress-link breakdown, in link (= destination cluster) order.
    pub per_link: Vec<DsmLinkStats>,
}
virgo_sim::counters!(ClusterDsmStats {
    requests,
    bytes,
    stall_cycles,
    hop_flits,
    per_link,
});

impl ClusterDsmStats {
    /// An empty counter set sized for a `links`-port fabric.
    pub fn for_links(links: u32) -> Self {
        ClusterDsmStats {
            per_link: vec![DsmLinkStats::default(); links as usize],
            ..Default::default()
        }
    }
}

/// Degraded-mode counters the fabric keeps while a fault plan is applied
/// (all zero — and untouched — on a healthy fabric).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DsmFaultStats {
    /// Transfers that detoured the long way around the ring because a dead
    /// segment blocked their short path.
    pub rerouted_transfers: u64,
    /// Cycles transfers spent parked waiting for a dead link with no
    /// alternate route (crossbar port outages, or a fully severed ring).
    pub blocked_cycles: u64,
    /// Summed first-use recovery latency: cycles from each finite outage's
    /// end to the first transfer that crossed the recovered link.
    pub recovery_cycles: u64,
}
virgo_sim::counters!(DsmFaultStats {
    rerouted_transfers,
    blocked_cycles,
    recovery_cycles,
});

/// One scheduled link fault, resolved against this fabric's geometry.
#[derive(Debug, Clone, Copy)]
struct LinkFaultState {
    /// Ring segment (`link` → `link + 1 mod N`) or crossbar ingress port.
    link: u32,
    from: u64,
    until: u64,
    /// `Some(divisor)` for a slow link, `None` for a dead one.
    slow_divisor: Option<u32>,
    /// Whether the post-outage first use has been accounted (pre-set for
    /// permanent faults, which never recover).
    recovered: bool,
}

impl LinkFaultState {
    fn active_at(&self, cycle: u64) -> bool {
        self.from <= cycle && cycle < self.until
    }

    fn until_clamped(&self) -> u64 {
        self.until.min(virgo_sim::fault::FAR_FUTURE)
    }
}

/// What the router decided for one transfer on a faulted fabric.
struct RouteChoice {
    hops: u64,
    /// Worst bandwidth divisor among the crossed links (1 = full speed).
    divisor: u64,
    /// Earliest start cycle imposed by a dead, un-routable link (0 = none).
    release: u64,
    /// Ring segments the transfer crosses (empty on the crossbar and on
    /// loopback transfers).
    segments: Vec<u32>,
    rerouted: bool,
}

/// A transfer accepted but not yet delivered.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    done: Cycle,
    from: u32,
    to: u32,
}

/// Machine-wide fabric aggregates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DsmFabricStats {
    /// Remote transfers carried by the fabric.
    pub transfers: u64,
    /// Bytes moved cluster-to-cluster.
    pub bytes: u64,
    /// Flit-hop traversals (the per-hop link energy event count).
    pub hop_flits: u64,
    /// Exposed link-queueing cycles, summed over requesters.
    pub stall_cycles: u64,
}
virgo_sim::counters!(DsmFabricStats {
    transfers,
    bytes,
    hop_flits,
    stall_cycles,
});

/// Everything the fabric has counted, captured at one instant — the
/// fabric-side counterpart of [`crate::BackendAttribution`], captured at job
/// admission and diffed at retirement ([`Counters::since`]) for per-job
/// attribution.
#[derive(Debug, Clone, PartialEq)]
pub struct FabricAttribution {
    /// Machine-wide fabric aggregates.
    pub stats: DsmFabricStats,
    /// Per-requester-cluster counters, in cluster order.
    pub per_cluster: Vec<ClusterDsmStats>,
    /// Degraded-mode counters.
    pub fault: DsmFaultStats,
}
virgo_sim::counters!(FabricAttribution {
    stats,
    per_cluster,
    fault
});

/// The inter-cluster DSM fabric: one ingress port per cluster, arbitrated
/// like the DRAM channels, with per-requester contention accounting.
///
/// # Example
///
/// ```
/// use virgo_mem::{DsmConfig, DsmFabric};
/// use virgo_sim::Cycle;
///
/// let mut fabric = DsmFabric::new(DsmConfig::enabled_default(), 4);
/// // Cluster 1 pushes a 4 KiB tile into cluster 0's scratchpad.
/// let done = fabric.transfer(Cycle::new(0), 1, 0, 4096);
/// assert!(done.get() >= 32 + 4096 / 64, "hop latency plus streaming time");
/// assert_eq!(fabric.stats().bytes, 4096);
/// assert_eq!(fabric.cluster_stats(1).per_link[0].bytes, 4096);
/// ```
#[derive(Debug, Clone)]
pub struct DsmFabric {
    config: DsmConfig,
    clusters: u32,
    /// Per-ingress-link cycle at which the port is next free.
    link_busy_until: Vec<Cycle>,
    per_cluster: Vec<ClusterDsmStats>,
    stats: DsmFabricStats,
    /// Transfers still in flight, drained by [`DsmFabric::tick`]; their
    /// delivery cycles expose the fabric's event horizon to the
    /// fast-forward driver.
    in_flight: Vec<InFlight>,
    /// Transfers fully delivered (drained from `in_flight`).
    delivered: u64,
    /// Scheduled link faults (empty — the zero-cost path — by default).
    faults: Vec<LinkFaultState>,
    fault_stats: DsmFaultStats,
}

impl DsmFabric {
    /// Creates an idle fabric with one port per cluster.
    ///
    /// # Panics
    ///
    /// Panics if `clusters` is zero, or if an *enabled* configuration has a
    /// zero link bandwidth.
    pub fn new(config: DsmConfig, clusters: u32) -> Self {
        assert!(clusters > 0, "the fabric links at least one cluster");
        assert!(
            !config.enabled || config.link_bandwidth > 0,
            "an enabled DSM fabric needs non-zero link bandwidth"
        );
        DsmFabric {
            config,
            clusters,
            link_busy_until: vec![Cycle::ZERO; clusters as usize],
            per_cluster: vec![ClusterDsmStats::for_links(clusters); clusters as usize],
            stats: DsmFabricStats::default(),
            in_flight: Vec::new(),
            delivered: 0,
            faults: Vec::new(),
            fault_stats: DsmFaultStats::default(),
        }
    }

    /// Installs the DSM link faults scheduled in `plan`. A plan without DSM
    /// events leaves the fabric on its zero-cost healthy path.
    ///
    /// # Panics
    ///
    /// Panics if a fault names a link outside the fabric.
    pub fn apply_faults(&mut self, plan: &FaultPlan) {
        for event in &plan.events {
            let (link, slow_divisor) = match event.kind {
                FaultKind::DsmLinkDown { link } => (link, None),
                FaultKind::DsmLinkSlow {
                    link,
                    bandwidth_divisor,
                } => (link, Some(bandwidth_divisor)),
                _ => continue,
            };
            assert!(
                link < self.clusters,
                "DSM fault on link {link} outside the {}-link fabric",
                self.clusters
            );
            self.faults.push(LinkFaultState {
                link,
                from: event.from,
                until: event.until,
                slow_divisor,
                recovered: event.until == PERMANENT,
            });
        }
    }

    /// The degraded-mode counters (all zero on a healthy fabric).
    pub fn fault_stats(&self) -> DsmFaultStats {
        self.fault_stats
    }

    /// The configuration.
    pub fn config(&self) -> &DsmConfig {
        &self.config
    }

    /// True when the fabric accepts remote traffic.
    pub fn enabled(&self) -> bool {
        self.config.enabled
    }

    /// Number of cluster ports (= links) the fabric connects.
    pub fn links(&self) -> u32 {
        self.clusters
    }

    /// Machine-wide aggregates.
    pub fn stats(&self) -> DsmFabricStats {
        self.stats
    }

    /// Counters for one requester cluster.
    ///
    /// # Panics
    ///
    /// Panics if `cluster` is out of range.
    pub fn cluster_stats(&self, cluster: u32) -> ClusterDsmStats {
        self.per_cluster[cluster as usize].clone()
    }

    /// Counters for every requester cluster, in cluster order.
    pub fn per_cluster_stats(&self) -> &[ClusterDsmStats] {
        &self.per_cluster
    }

    /// Captures every counter the fabric keeps, for windowed per-job
    /// attribution (see [`FabricAttribution`]).
    pub fn attribution(&self) -> FabricAttribution {
        FabricAttribution {
            stats: self.stats,
            per_cluster: self.per_cluster.clone(),
            fault: self.fault_stats,
        }
    }

    /// Machine-wide per-link traffic, summed over requesters, in link order.
    pub fn per_link_stats(&self) -> Vec<DsmLinkStats> {
        let mut links = Vec::new();
        for requester in &self.per_cluster {
            links.merge(&requester.per_link);
        }
        links
    }

    /// Traffic arriving at `cluster`'s ingress port, summed over requesters
    /// — the per-owner attribution of [`DsmFabric::per_link_stats`]. A
    /// reduction schedule whose ingress bytes concentrate on one cluster is
    /// serialized on that port no matter how many links the fabric has.
    ///
    /// # Panics
    ///
    /// Panics if `cluster` is out of range.
    pub fn ingress_stats(&self, cluster: u32) -> DsmLinkStats {
        assert!(
            cluster < self.clusters,
            "cluster {cluster} outside the {}-link fabric",
            self.clusters
        );
        let mut total = DsmLinkStats::default();
        for requester in &self.per_cluster {
            total.merge(&requester.per_link[cluster as usize]);
        }
        total
    }

    /// Transfers accepted but not yet delivered.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Transfers fully delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Hop count between two clusters under the configured topology (at
    /// least one — a loopback transfer still traverses the port).
    pub fn hops(&self, from: u32, to: u32) -> u64 {
        let distance = match self.config.topology {
            DsmTopology::AllToAll => 1,
            DsmTopology::Ring => {
                let n = u64::from(self.clusters);
                let d = u64::from(from.abs_diff(to)) % n;
                d.min(n - d)
            }
        };
        distance.max(1)
    }

    /// Resolves one transfer's route against the active link faults at
    /// cycle `t`, charging the reroute counter and the first-use recovery
    /// latency of any crossed link whose outage has ended.
    ///
    /// On the ring the transfer prefers the shorter direction and detours
    /// the long way only when a dead segment blocks the short path and the
    /// long one is clear; if both directions are severed it parks until the
    /// short path's last blocking outage clears. On the crossbar there is no
    /// alternate route, so a dead ingress port always parks the transfer.
    fn fault_route(&mut self, t: u64, from: u32, to: u32) -> RouteChoice {
        let mut route = match self.config.topology {
            DsmTopology::AllToAll => {
                let mut divisor = 1u64;
                let mut release = 0u64;
                for f in &self.faults {
                    if f.link != to || !f.active_at(t) {
                        continue;
                    }
                    match f.slow_divisor {
                        Some(d) => divisor = divisor.max(u64::from(d)),
                        None => release = release.max(f.until_clamped()),
                    }
                }
                RouteChoice {
                    hops: 1,
                    divisor,
                    release,
                    segments: vec![to],
                    rerouted: false,
                }
            }
            DsmTopology::Ring => {
                let n = self.clusters;
                let d_cw = (to + n - from) % n;
                if d_cw == 0 {
                    // Loopback stays inside the cluster's own port and
                    // crosses no inter-cluster segment.
                    return RouteChoice {
                        hops: 1,
                        divisor: 1,
                        release: 0,
                        segments: Vec::new(),
                        rerouted: false,
                    };
                }
                let cw: Vec<u32> = (0..d_cw).map(|i| (from + i) % n).collect();
                let ccw: Vec<u32> = (0..(n - d_cw)).map(|i| (to + i) % n).collect();
                let eval = |segments: &[u32]| {
                    let mut blocked = false;
                    let mut divisor = 1u64;
                    let mut clear_at = 0u64;
                    for f in &self.faults {
                        if !segments.contains(&f.link) || !f.active_at(t) {
                            continue;
                        }
                        match f.slow_divisor {
                            Some(d) => divisor = divisor.max(u64::from(d)),
                            None => {
                                blocked = true;
                                clear_at = clear_at.max(f.until_clamped());
                            }
                        }
                    }
                    (blocked, divisor, clear_at)
                };
                let cw_state = eval(&cw);
                let ccw_state = eval(&ccw);
                let (short, short_state, long, long_state) = if cw.len() <= ccw.len() {
                    (cw, cw_state, ccw, ccw_state)
                } else {
                    (ccw, ccw_state, cw, cw_state)
                };
                if short_state.0 && !long_state.0 {
                    RouteChoice {
                        hops: long.len() as u64,
                        divisor: long_state.1,
                        release: 0,
                        segments: long,
                        rerouted: true,
                    }
                } else {
                    RouteChoice {
                        hops: (short.len() as u64).max(1),
                        divisor: short_state.1,
                        release: if short_state.0 { short_state.2 } else { 0 },
                        segments: short,
                        rerouted: false,
                    }
                }
            }
        };
        if route.rerouted {
            self.fault_stats.rerouted_transfers += 1;
        }
        // First use after a finite outage: charge the recovery latency of
        // every crossed link whose window has ended.
        let mut recovered = 0u64;
        for f in &mut self.faults {
            if !f.recovered && t >= f.until && route.segments.contains(&f.link) {
                recovered += t - f.until;
                f.recovered = true;
            }
        }
        self.fault_stats.recovery_cycles += recovered;
        route.divisor = route.divisor.max(1);
        route
    }

    /// Carries `bytes` from `from`'s scratchpad to `to`'s, presented at
    /// `now`; returns the delivery cycle.
    ///
    /// The transfer pays `hops × remote_latency` of wire/router traversal
    /// overlapped with any backlog on `to`'s ingress port, then streams at
    /// the link bandwidth; only the backlog the latency does not hide is
    /// charged as an exposed stall (the same rule the DRAM channels use, so
    /// the two contention metrics are comparable).
    ///
    /// # Panics
    ///
    /// Panics if the fabric is disabled (a kernel issued remote traffic on a
    /// machine without DSM — a kernel-generation bug, never a data-dependent
    /// condition), or if either cluster is out of range.
    pub fn transfer(&mut self, now: Cycle, from: u32, to: u32, bytes: u64) -> Cycle {
        assert!(
            self.config.enabled,
            "kernel issued inter-cluster DSM traffic but the DSM fabric is disabled \
             (enable GpuConfig::dsm or use the DRAM-path kernel variant)"
        );
        assert!(
            from < self.clusters && to < self.clusters,
            "DSM transfer {from} -> {to} outside the {}-cluster fabric",
            self.clusters
        );
        if bytes == 0 {
            return now;
        }
        let (hops, divisor, release) = if self.faults.is_empty() {
            (self.hops(from, to), 1, 0)
        } else {
            let route = self.fault_route(now.get(), from, to);
            (route.hops, route.divisor, route.release)
        };
        let latency = hops * self.config.remote_latency;
        let occupy = bytes.div_ceil(self.config.link_bandwidth).max(1) * divisor;
        // A dead link with no alternate route parks the transfer until the
        // outage clears; the park time then also shows up as exposed stall.
        let busy = self.link_busy_until[to as usize].max(Cycle::new(release));
        self.fault_stats.blocked_cycles += release.saturating_sub(now.get());
        // Exposed queueing: the port backlog beyond what the hop latency
        // hides — exactly the cycles by which delivery slips versus an idle
        // link.
        let stall = busy.get().saturating_sub(now.plus(latency).get());
        let start = now.max(busy);
        self.link_busy_until[to as usize] = start.plus(occupy);
        let done = start.max(now.plus(latency)).plus(occupy);

        let flits = bytes.div_ceil(DSM_FLIT_BYTES).max(1);
        let requester = &mut self.per_cluster[from as usize];
        requester.requests += 1;
        requester.bytes += bytes;
        requester.stall_cycles += stall;
        requester.hop_flits += hops * flits;
        let link = &mut requester.per_link[to as usize];
        link.requests += 1;
        link.bytes += bytes;
        link.stall_cycles += stall;

        self.stats.transfers += 1;
        self.stats.bytes += bytes;
        self.stats.hop_flits += hops * flits;
        self.stats.stall_cycles += stall;
        self.in_flight.push(InFlight { done, from, to });
        done
    }

    /// Serves one warp's SIMT-level remote load/store (issued through the
    /// remote address window): the same link path as a bulk transfer, sized
    /// to the warp's lane footprint.
    pub fn remote_simt_access(&mut self, now: Cycle, from: u32, to: u32, bytes: u64) -> Cycle {
        self.transfer(now, from, to, bytes)
    }

    /// Retires transfers whose delivery cycle has been reached. Called once
    /// per simulated cycle by the driver (and once at each fast-forward
    /// target, which the horizon below makes sufficient: nothing retires
    /// strictly inside a skipped window).
    pub fn tick(&mut self, now: Cycle) {
        if self.in_flight.is_empty() {
            return;
        }
        let before = self.in_flight.len();
        self.in_flight.retain(|t| t.done > now);
        self.delivered += (before - self.in_flight.len()) as u64;
    }

    /// True when no in-flight transfer starts or ends at a cluster in
    /// `ids`: other clusters' traffic does not count.
    pub fn quiescent_on(&self, ids: &[u32]) -> bool {
        !self
            .in_flight
            .iter()
            .any(|t| ids.contains(&t.from) || ids.contains(&t.to))
    }
}

impl NextActivity for DsmFabric {
    /// The fabric next acts when its earliest in-flight transfer delivers;
    /// an idle fabric contributes no self-driven events.
    fn next_activity(&self, now: Cycle) -> Option<Cycle> {
        self.in_flight
            .iter()
            .map(|t| t.done)
            .min()
            .map(|t| t.max(now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fabric(clusters: u32) -> DsmFabric {
        DsmFabric::new(DsmConfig::enabled_default(), clusters)
    }

    #[test]
    fn disabled_is_the_default() {
        let config = DsmConfig::default();
        assert!(!config.enabled);
        // The parameters still describe the enabled preset, so flipping the
        // switch is the only delta between the A/B machines.
        assert_eq!(
            DsmConfig {
                enabled: true,
                ..config
            },
            DsmConfig::enabled_default()
        );
    }

    #[test]
    fn transfer_pays_latency_and_streaming_time() {
        let mut f = fabric(2);
        let done = f.transfer(Cycle::new(0), 1, 0, 4096);
        // 32-cycle hop + 4096/64 = 64 streaming cycles.
        assert_eq!(done, Cycle::new(32 + 64));
        assert_eq!(f.stats().transfers, 1);
        assert_eq!(f.stats().bytes, 4096);
        assert_eq!(f.stats().hop_flits, 4096 / DSM_FLIT_BYTES);
        assert_eq!(f.cluster_stats(1).per_link[0].bytes, 4096);
        assert_eq!(f.cluster_stats(1).per_link[1].bytes, 0);
    }

    #[test]
    fn back_to_back_transfers_queue_on_the_ingress_link() {
        let mut f = fabric(4);
        let first = f.transfer(Cycle::new(0), 1, 0, 4096);
        // A second producer targeting the same port queues behind the first;
        // the hop latency hides part of the wait, the rest is exposed.
        let second = f.transfer(Cycle::new(0), 2, 0, 4096);
        assert!(second > first);
        assert_eq!(f.cluster_stats(1).stall_cycles, 0);
        let queued = f.cluster_stats(2);
        assert_eq!(queued.stall_cycles, 64 - 32, "backlog minus hidden latency");
        assert_eq!(queued.per_link[0].stall_cycles, queued.stall_cycles);
        // A transfer to a *different* port proceeds unqueued.
        let elsewhere = f.transfer(Cycle::new(0), 1, 3, 4096);
        assert_eq!(elsewhere, first);
    }

    #[test]
    fn ring_topology_pays_distance_hops() {
        let f = DsmFabric::new(DsmConfig::enabled_ring(), 8);
        assert_eq!(f.hops(0, 1), 1);
        assert_eq!(f.hops(0, 4), 4);
        assert_eq!(f.hops(0, 7), 1, "the ring wraps");
        assert_eq!(f.hops(3, 3), 1, "loopback still crosses the port");
        let all = fabric(8);
        assert_eq!(all.hops(0, 7), 1, "crossbar is single-hop");
    }

    #[test]
    fn tick_drains_in_flight_transfers() {
        let mut f = fabric(2);
        let done = f.transfer(Cycle::new(0), 0, 1, 128);
        assert_eq!(f.in_flight(), 1);
        assert_eq!(f.next_activity(Cycle::new(0)), Some(done));
        f.tick(done - Cycle::new(1));
        assert_eq!(f.in_flight(), 1, "not delivered yet");
        f.tick(done);
        assert_eq!(f.in_flight(), 0);
        assert_eq!(f.delivered(), 1);
        assert_eq!(f.in_flight(), 0);
        assert_eq!(f.next_activity(done), None);
    }

    #[test]
    fn per_link_totals_conserve_bytes() {
        let mut f = fabric(4);
        let mut submitted = 0u64;
        for (from, to, bytes) in [(0u32, 1u32, 100u64), (1, 0, 200), (2, 1, 300), (3, 3, 400)] {
            f.transfer(Cycle::new(0), from, to, bytes);
            submitted += bytes;
        }
        assert_eq!(f.stats().bytes, submitted);
        let per_link: u64 = f.per_link_stats().iter().map(|l| l.bytes).sum();
        assert_eq!(per_link, submitted);
        let per_cluster: u64 = f.per_cluster_stats().iter().map(|c| c.bytes).sum();
        assert_eq!(per_cluster, submitted);
    }

    #[test]
    fn ingress_stats_attribute_traffic_to_the_destination() {
        let mut f = fabric(4);
        // Two requesters target port 0, one targets port 2.
        f.transfer(Cycle::new(0), 1, 0, 100);
        f.transfer(Cycle::new(0), 3, 0, 200);
        f.transfer(Cycle::new(0), 1, 2, 400);
        let port0 = f.ingress_stats(0);
        assert_eq!(port0.requests, 2);
        assert_eq!(port0.bytes, 300);
        assert_eq!(f.ingress_stats(1), DsmLinkStats::default());
        assert_eq!(f.ingress_stats(2).bytes, 400);
        // The per-owner view is the transpose of per_link_stats: index c of
        // the machine-wide per-link vector is exactly ingress_stats(c).
        for (c, link) in f.per_link_stats().iter().enumerate() {
            assert_eq!(*link, f.ingress_stats(c as u32));
        }
    }

    #[test]
    fn zero_byte_transfer_is_a_noop() {
        let mut f = fabric(2);
        assert_eq!(f.transfer(Cycle::new(9), 0, 1, 0), Cycle::new(9));
        assert_eq!(f.stats().transfers, 0);
        assert_eq!(f.in_flight(), 0);
    }

    #[test]
    #[should_panic(expected = "DSM fabric is disabled")]
    fn disabled_fabric_refuses_traffic() {
        let mut f = DsmFabric::new(DsmConfig::default(), 2);
        let _ = f.transfer(Cycle::new(0), 0, 1, 64);
    }

    #[test]
    #[should_panic(expected = "outside the")]
    fn out_of_range_cluster_panics() {
        let mut f = fabric(2);
        let _ = f.transfer(Cycle::new(0), 0, 5, 64);
    }

    #[test]
    fn empty_fault_plan_changes_nothing() {
        let mut healthy = fabric(4);
        let mut faulted = fabric(4);
        faulted.apply_faults(&FaultPlan::default());
        for (from, to, bytes) in [(1u32, 0u32, 4096u64), (2, 0, 4096), (1, 3, 512)] {
            assert_eq!(
                healthy.transfer(Cycle::new(0), from, to, bytes),
                faulted.transfer(Cycle::new(0), from, to, bytes),
            );
        }
        assert_eq!(healthy.stats(), faulted.stats());
        assert_eq!(faulted.fault_stats(), DsmFaultStats::default());
    }

    #[test]
    fn dead_ring_segment_reroutes_the_long_way() {
        let plan =
            FaultPlan::seeded(0).with_event(FaultKind::DsmLinkDown { link: 1 }, 0, PERMANENT);
        let mut f = DsmFabric::new(DsmConfig::enabled_ring(), 8);
        f.apply_faults(&plan);
        // 1 -> 2 normally crosses exactly segment 1; with it dead the
        // transfer takes the 7-hop detour the other way around.
        let done = f.transfer(Cycle::new(0), 1, 2, 64);
        assert_eq!(done, Cycle::new(7 * 32 + 1));
        assert_eq!(f.fault_stats().rerouted_transfers, 1);
        assert_eq!(f.fault_stats().blocked_cycles, 0);
        // The extra hops are charged as extra flit traversals (energy).
        assert_eq!(f.stats().hop_flits, 7 * 2);
        // A path not crossing segment 1 is untouched.
        let clear = f.transfer(Cycle::new(0), 2, 3, 64);
        assert_eq!(clear, Cycle::new(32 + 1));
        assert_eq!(f.fault_stats().rerouted_transfers, 1);
    }

    #[test]
    fn ring_reroute_respects_the_fault_window() {
        let plan = FaultPlan::seeded(0).with_event(FaultKind::DsmLinkDown { link: 1 }, 100, 200);
        let mut f = DsmFabric::new(DsmConfig::enabled_ring(), 8);
        f.apply_faults(&plan);
        // Before the window: the short path is healthy.
        assert_eq!(f.transfer(Cycle::new(0), 1, 2, 64), Cycle::new(32 + 1));
        // Inside the window: detour.
        let rerouted = f.transfer(Cycle::new(150), 1, 2, 64);
        assert_eq!(rerouted, Cycle::new(150 + 7 * 32 + 1));
        // After the window: healthy again, and the first use charges the
        // recovery latency (250 - 200 cycles).
        assert_eq!(f.transfer(Cycle::new(250), 1, 2, 64), Cycle::new(250 + 33));
        assert_eq!(f.fault_stats().rerouted_transfers, 1);
        assert_eq!(f.fault_stats().recovery_cycles, 50);
    }

    #[test]
    fn dead_crossbar_port_parks_until_recovery() {
        let plan = FaultPlan::seeded(0).with_event(FaultKind::DsmLinkDown { link: 0 }, 0, 1_000);
        let mut f = fabric(4);
        f.apply_faults(&plan);
        // The crossbar has no detour: the transfer waits out the outage.
        let done = f.transfer(Cycle::new(100), 1, 0, 64);
        assert_eq!(done, Cycle::new(1_000 + 1), "parked to the window end");
        assert_eq!(f.fault_stats().blocked_cycles, 900);
        // Ports other than 0 are unaffected.
        assert_eq!(f.transfer(Cycle::new(100), 1, 2, 64), Cycle::new(100 + 33));
    }

    #[test]
    fn slow_link_divides_bandwidth() {
        let plan = FaultPlan::seeded(0).with_event(
            FaultKind::DsmLinkSlow {
                link: 0,
                bandwidth_divisor: 4,
            },
            0,
            PERMANENT,
        );
        let mut f = fabric(2);
        f.apply_faults(&plan);
        // 4096 bytes at 64 B/cyc = 64 streaming cycles, 4x under the fault.
        let done = f.transfer(Cycle::new(0), 1, 0, 4096);
        assert_eq!(done, Cycle::new(32 + 4 * 64));
        assert_eq!(f.fault_stats().rerouted_transfers, 0);
    }

    #[test]
    fn fully_severed_ring_parks_on_the_short_path() {
        // Both directions between 0 and 1 are cut: segment 0 (0->1) and the
        // rest of the ring via segment 1 (1->2, i.e. the detour for 0->1
        // traffic in a 3-ring goes 0->2->1 over segments... the complement).
        let plan = FaultPlan::seeded(0)
            .with_event(FaultKind::DsmLinkDown { link: 0 }, 0, 500)
            .with_event(FaultKind::DsmLinkDown { link: 1 }, 0, 400)
            .with_event(FaultKind::DsmLinkDown { link: 2 }, 0, 400);
        let mut f = DsmFabric::new(DsmConfig::enabled_ring(), 3);
        f.apply_faults(&plan);
        let done = f.transfer(Cycle::new(10), 0, 1, 64);
        // Short path = segment 0, blocked until 500; both detour segments
        // are dead too, so the transfer parks until its own path clears.
        // The hop latency overlaps the park (the same rule that overlaps it
        // with port backlog), so delivery is release + streaming.
        assert_eq!(done, Cycle::new(500 + 1));
        assert!(f.fault_stats().blocked_cycles >= 490);
        assert_eq!(f.fault_stats().rerouted_transfers, 0);
    }

    #[test]
    #[should_panic(expected = "outside the")]
    fn fault_on_unknown_link_is_rejected() {
        let plan =
            FaultPlan::seeded(0).with_event(FaultKind::DsmLinkDown { link: 9 }, 0, PERMANENT);
        let mut f = fabric(2);
        f.apply_faults(&plan);
    }
}
