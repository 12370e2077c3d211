//! Deterministic, cycle-windowed fault-injection plans.
//!
//! A [`FaultPlan`] is a *schedule* of fault events, each active over a
//! half-open cycle window `[from, until)`: DSM links dying or slowing down,
//! DRAM channels dropping out or being throttled, scratchpad ECC bit flips,
//! and clusters held in reset past cycle zero. The plan is carried on the
//! machine configuration (off by default) and digested into the simulation
//! key, so cached reports of faulted and healthy machines can never alias.
//!
//! Two properties are load-bearing and pinned by tests:
//!
//! * **Determinism** — every stochastic choice (ECC event spacing) is drawn
//!   from a [`SplitMix64`] stream seeded from the plan, and every fault
//!   decision is made at the cycle a component *services a request*, never
//!   from wall clock or iteration order. The same plan therefore produces the
//!   same `FaultStats` and the same report, bit for bit, in both driver
//!   modes (naive and fast-forward).
//! * **Zero-cost when unused** — an empty plan installs no state in any
//!   component and perturbs no counter: a machine with `FaultPlan::default()`
//!   is bit-identical to one built before this module existed.

use crate::rng::SplitMix64;
use crate::stablehash::{StableHash, StableHasher};

/// Sentinel `until` value for a fault that never recovers.
pub const PERMANENT: u64 = u64::MAX;

/// Fault windows are clamped to this horizon before any cycle arithmetic so
/// that `PERMANENT` windows never overflow [`crate::Cycle`] additions. A
/// quarter of the `u64` range is still ~10^12 years of simulated time at any
/// realistic clock.
pub const FAR_FUTURE: u64 = u64::MAX / 4;

/// What breaks (and how) during a fault window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A DSM link is dead. On the ring topology `link` names the segment
    /// between clusters `link` and `link + 1 (mod N)` and traffic reroutes
    /// the other way around the ring; on the crossbar it names cluster
    /// `link`'s ingress port and transfers stall until the window closes.
    DsmLinkDown {
        /// Ring segment (or crossbar ingress port) index.
        link: u32,
    },
    /// A DSM link runs degraded: transfers crossing it occupy the link for
    /// `bandwidth_divisor`× as long.
    DsmLinkSlow {
        /// Ring segment (or crossbar ingress port) index.
        link: u32,
        /// Bandwidth reduction factor (≥ 1; 1 is a no-op).
        bandwidth_divisor: u32,
    },
    /// A DRAM channel is out: traffic striped onto it is deterministically
    /// re-striped across the surviving channels.
    DramChannelDown {
        /// Channel index.
        channel: u32,
    },
    /// A DRAM channel answers slowly: its access latency is multiplied.
    DramChannelThrottle {
        /// Channel index.
        channel: u32,
        /// Latency multiplication factor (≥ 1; 1 is a no-op).
        latency_multiplier: u32,
    },
    /// Correctable single-bit ECC upsets in a cluster's scratchpad: each
    /// in-window access may take a flip, detected *and* corrected in place
    /// for a small scrub penalty.
    EccSingleBit {
        /// Cluster whose scratchpad is affected.
        cluster: u32,
        /// Mean number of in-window accesses between upsets (≥ 1).
        mean_access_gap: u64,
    },
    /// Uncorrectable double-bit ECC upsets: detected but not correctable,
    /// modelled as a detect-and-refetch penalty on the access.
    EccDoubleBit {
        /// Cluster whose scratchpad is affected.
        cluster: u32,
        /// Mean number of in-window accesses between upsets (≥ 1).
        mean_access_gap: u64,
    },
    /// The cluster is held in reset while the window is active and begins
    /// fetching only once it closes (a late-start / delayed power-up fault).
    LateClusterStart {
        /// Cluster held back.
        cluster: u32,
    },
}

impl FaultKind {
    /// The cluster this fault is scoped to, when it is cluster-scoped
    /// (machine-level faults — DSM links, DRAM channels — return `None`).
    pub fn cluster(&self) -> Option<u32> {
        match *self {
            FaultKind::EccSingleBit { cluster, .. }
            | FaultKind::EccDoubleBit { cluster, .. }
            | FaultKind::LateClusterStart { cluster } => Some(cluster),
            _ => None,
        }
    }
}

impl StableHash for FaultKind {
    fn stable_hash(&self, h: &mut StableHasher) {
        match *self {
            FaultKind::DsmLinkDown { link } => {
                h.write_u64(0);
                h.write_u64(u64::from(link));
            }
            FaultKind::DsmLinkSlow {
                link,
                bandwidth_divisor,
            } => {
                h.write_u64(1);
                h.write_u64(u64::from(link));
                h.write_u64(u64::from(bandwidth_divisor));
            }
            FaultKind::DramChannelDown { channel } => {
                h.write_u64(2);
                h.write_u64(u64::from(channel));
            }
            FaultKind::DramChannelThrottle {
                channel,
                latency_multiplier,
            } => {
                h.write_u64(3);
                h.write_u64(u64::from(channel));
                h.write_u64(u64::from(latency_multiplier));
            }
            FaultKind::EccSingleBit {
                cluster,
                mean_access_gap,
            } => {
                h.write_u64(4);
                h.write_u64(u64::from(cluster));
                h.write_u64(mean_access_gap);
            }
            FaultKind::EccDoubleBit {
                cluster,
                mean_access_gap,
            } => {
                h.write_u64(5);
                h.write_u64(u64::from(cluster));
                h.write_u64(mean_access_gap);
            }
            FaultKind::LateClusterStart { cluster } => {
                h.write_u64(6);
                h.write_u64(u64::from(cluster));
            }
        }
    }
}

/// One scheduled fault: a [`FaultKind`] active over `[from, until)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// What breaks.
    pub kind: FaultKind,
    /// First cycle the fault is active.
    pub from: u64,
    /// First cycle the fault is *no longer* active ([`PERMANENT`] = never).
    pub until: u64,
}

impl FaultEvent {
    /// True while the fault window covers `cycle`.
    pub fn active_at(&self, cycle: u64) -> bool {
        self.from <= cycle && cycle < self.until
    }

    /// The window end clamped to [`FAR_FUTURE`], safe for cycle arithmetic.
    pub fn until_clamped(&self) -> u64 {
        self.until.min(FAR_FUTURE)
    }
}

impl StableHash for FaultEvent {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.kind.stable_hash(h);
        h.write_u64(self.from);
        h.write_u64(self.until);
    }
}

/// A schedule of fault events plus the seed for every stochastic draw.
///
/// # Example
///
/// ```
/// use virgo_sim::fault::{FaultKind, FaultPlan, PERMANENT};
///
/// let plan = FaultPlan::seeded(7)
///     .with_event(FaultKind::DsmLinkDown { link: 2 }, 10_000, PERMANENT)
///     .with_event(
///         FaultKind::EccSingleBit { cluster: 0, mean_access_gap: 512 },
///         0,
///         50_000,
///     );
/// assert!(!plan.is_empty());
/// assert_eq!(plan.windows_activated_by(20_000), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed for the SplitMix64 streams behind ECC event spacing.
    pub seed: u64,
    /// The scheduled events, in declaration order.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan drawing from `seed` (events are added with
    /// [`FaultPlan::with_event`]).
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            events: Vec::new(),
        }
    }

    /// Adds one fault active over `[from, until)` (builder style).
    ///
    /// # Panics
    ///
    /// Panics if the window is empty or a rate/divisor parameter is zero.
    pub fn with_event(mut self, kind: FaultKind, from: u64, until: u64) -> Self {
        assert!(from < until, "fault window [{from}, {until}) is empty");
        match kind {
            FaultKind::DsmLinkSlow {
                bandwidth_divisor, ..
            } => assert!(bandwidth_divisor >= 1, "bandwidth divisor must be >= 1"),
            FaultKind::DramChannelThrottle {
                latency_multiplier, ..
            } => assert!(latency_multiplier >= 1, "latency multiplier must be >= 1"),
            FaultKind::EccSingleBit {
                mean_access_gap, ..
            }
            | FaultKind::EccDoubleBit {
                mean_access_gap, ..
            } => assert!(mean_access_gap >= 1, "ECC mean access gap must be >= 1"),
            _ => {}
        }
        self.events.push(FaultEvent { kind, from, until });
        self
    }

    /// True when no faults are scheduled (the zero-cost default).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled windows whose `from` lies at or before `end`
    /// (i.e. that activated during a run of `end` cycles).
    pub fn windows_activated_by(&self, end: u64) -> u64 {
        self.events.iter().filter(|e| e.from <= end).count() as u64
    }

    /// Like [`FaultPlan::windows_activated_by`], restricted to the events
    /// scoped to `cluster`.
    pub fn cluster_windows_activated_by(&self, cluster: u32, end: u64) -> u64 {
        self.events
            .iter()
            .filter(|e| e.kind.cluster() == Some(cluster) && e.from <= end)
            .count() as u64
    }

    /// Number of cycles in `[0, end]` covered by at least one fault window
    /// (the machine's degraded-mode residency), as the length of the union
    /// of all windows intersected with the run.
    pub fn degraded_cycles(&self, end: u64) -> u64 {
        union_length(self.events.iter(), end)
    }

    /// Like [`FaultPlan::degraded_cycles`], restricted to the events scoped
    /// to `cluster`.
    pub fn cluster_degraded_cycles(&self, cluster: u32, end: u64) -> u64 {
        union_length(
            self.events
                .iter()
                .filter(|e| e.kind.cluster() == Some(cluster)),
            end,
        )
    }

    /// Number of fault windows active at `cycle` (folded into the watchdog's
    /// timeout diagnosis).
    pub fn active_at(&self, cycle: u64) -> u64 {
        self.events.iter().filter(|e| e.active_at(cycle)).count() as u64
    }

    /// First cycle at which `cluster` may run: the latest window end among
    /// its [`FaultKind::LateClusterStart`] events (zero when none apply),
    /// clamped to [`FAR_FUTURE`].
    pub fn cluster_start(&self, cluster: u32) -> u64 {
        self.events
            .iter()
            .filter(
                |e| matches!(e.kind, FaultKind::LateClusterStart { cluster: c } if c == cluster),
            )
            .map(|e| e.until_clamped())
            .max()
            .unwrap_or(0)
    }

    /// Builds the scratchpad ECC injector for `cluster`, or `None` when the
    /// plan schedules no ECC events there (the zero-cost path).
    pub fn ecc_injector(&self, cluster: u32) -> Option<EccInjector> {
        let windows: Vec<EccWindow> = self
            .events
            .iter()
            .filter_map(|e| match e.kind {
                FaultKind::EccSingleBit {
                    cluster: c,
                    mean_access_gap,
                } if c == cluster => Some((e, mean_access_gap, false)),
                FaultKind::EccDoubleBit {
                    cluster: c,
                    mean_access_gap,
                } if c == cluster => Some((e, mean_access_gap, true)),
                _ => None,
            })
            .enumerate()
            .map(|(i, (e, mean_gap, double))| {
                // Each window owns an independent SplitMix64 stream so that
                // adding a window never perturbs another window's draws.
                let mut rng = SplitMix64::new(
                    self.seed ^ (u64::from(cluster) << 32) ^ (i as u64).wrapping_mul(0x9E37),
                );
                let countdown = next_gap(&mut rng, mean_gap);
                EccWindow {
                    from: e.from,
                    until: e.until,
                    mean_gap,
                    double,
                    rng,
                    countdown,
                }
            })
            .collect();
        if windows.is_empty() {
            None
        } else {
            Some(EccInjector {
                windows,
                stats: EccStats::default(),
            })
        }
    }
}

impl StableHash for FaultPlan {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_u64(self.seed);
        h.write_u64(self.events.len() as u64);
        for event in &self.events {
            event.stable_hash(h);
        }
    }
}

/// Length of `[0, end]` covered by the union of the events' windows.
fn union_length<'a>(events: impl Iterator<Item = &'a FaultEvent>, end: u64) -> u64 {
    let mut spans: Vec<(u64, u64)> = events
        .filter(|e| e.from <= end)
        .map(|e| (e.from, e.until.min(end.saturating_add(1))))
        .filter(|(from, until)| from < until)
        .collect();
    spans.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = 0u64;
    for (from, until) in spans {
        let from = from.max(cursor);
        if until > from {
            covered += until - from;
            cursor = until;
        }
    }
    covered
}

/// Extra cycles an access pays when a single-bit upset is corrected in
/// place (an ECC scrub on the read path).
pub const ECC_CORRECT_PENALTY: u64 = 2;

/// Extra cycles an access pays when a double-bit upset is detected: the
/// word cannot be corrected and is refetched from its clean source.
pub const ECC_DETECT_PENALTY: u64 = 24;

/// Scratchpad ECC event counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EccStats {
    /// Bit upsets injected into accesses.
    pub injected: u64,
    /// Upsets detected by the SECDED code (all of them, in this model).
    pub detected: u64,
    /// The detected subset that was correctable (single-bit).
    pub corrected: u64,
}
crate::counters!(EccStats {
    injected,
    detected,
    corrected
});

#[derive(Debug, Clone)]
struct EccWindow {
    from: u64,
    until: u64,
    mean_gap: u64,
    double: bool,
    rng: SplitMix64,
    countdown: u64,
}

/// The per-scratchpad ECC state machine: counts accesses inside each
/// scheduled window and injects an upset whenever a window's SplitMix64-drawn
/// countdown reaches zero.
///
/// Spacing is counted in *serviced accesses*, not cycles, so the injection
/// points — and therefore every downstream counter — are identical across
/// driver modes.
#[derive(Debug, Clone)]
pub struct EccInjector {
    windows: Vec<EccWindow>,
    stats: EccStats,
}

impl EccInjector {
    /// Observes one scratchpad access at `cycle` and returns the extra
    /// latency the access pays for ECC events (zero almost always).
    pub fn observe(&mut self, cycle: u64) -> u64 {
        let mut penalty = 0u64;
        for window in &mut self.windows {
            if cycle < window.from || cycle >= window.until {
                continue;
            }
            window.countdown -= 1;
            if window.countdown == 0 {
                window.countdown = next_gap(&mut window.rng, window.mean_gap);
                self.stats.injected += 1;
                self.stats.detected += 1;
                if window.double {
                    penalty += ECC_DETECT_PENALTY;
                } else {
                    self.stats.corrected += 1;
                    penalty += ECC_CORRECT_PENALTY;
                }
            }
        }
        penalty
    }

    /// The accumulated event counters.
    pub fn stats(&self) -> EccStats {
        self.stats
    }
}

/// Draws the number of accesses until the next upset: uniform in
/// `1..=2·mean - 1`, so the expectation is `mean` and the gap is never zero.
fn next_gap(rng: &mut SplitMix64, mean: u64) -> u64 {
    1 + rng.next_below(2 * mean - 1)
}

/// Machine-level fault and degraded-mode counters, reported in `SimReport`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Faults injected: scheduled windows that activated plus ECC upsets.
    pub injected: u64,
    /// ECC upsets detected.
    pub detected: u64,
    /// ECC upsets corrected (the single-bit subset of `detected`).
    pub corrected: u64,
    /// Cycles of the run spent with at least one fault window active.
    pub degraded_cycles: u64,
    /// DSM transfers that took the long way around a dead ring segment.
    pub dsm_rerouted_transfers: u64,
    /// Cycles DSM transfers spent parked waiting for a dead crossbar port
    /// to recover.
    pub dsm_blocked_cycles: u64,
    /// DRAM accesses re-striped off a dead channel onto a survivor.
    pub dram_restriped_accesses: u64,
    /// Summed first-use recovery latency: cycles from each window's end to
    /// the first request serviced by the recovered resource.
    pub recovery_cycles: u64,
}
crate::counters!(FaultStats {
    injected,
    detected,
    corrected,
    degraded_cycles,
    dsm_rerouted_transfers,
    dsm_blocked_cycles,
    dram_restriped_accesses,
    recovery_cycles,
});

/// Per-cluster slice of the fault counters (the cluster-scoped events:
/// scratchpad ECC and late starts).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterFaultStats {
    /// Cluster-scoped windows that activated plus ECC upsets injected here.
    pub injected: u64,
    /// ECC upsets detected in this cluster's scratchpad.
    pub detected: u64,
    /// ECC upsets corrected in this cluster's scratchpad.
    pub corrected: u64,
    /// Cycles with a cluster-scoped fault window active.
    pub degraded_cycles: u64,
}
crate::counters!(ClusterFaultStats {
    injected,
    detected,
    corrected,
    degraded_cycles,
});

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> FaultPlan {
        FaultPlan::seeded(42)
            .with_event(FaultKind::DsmLinkDown { link: 1 }, 100, 200)
            .with_event(
                FaultKind::EccSingleBit {
                    cluster: 0,
                    mean_access_gap: 4,
                },
                150,
                400,
            )
            .with_event(FaultKind::LateClusterStart { cluster: 1 }, 0, 50)
    }

    #[test]
    fn default_plan_is_empty_and_cheap() {
        let plan = FaultPlan::default();
        assert!(plan.is_empty());
        assert_eq!(plan.windows_activated_by(u64::MAX), 0);
        assert_eq!(plan.degraded_cycles(1_000_000), 0);
        assert_eq!(plan.cluster_start(0), 0);
        assert!(plan.ecc_injector(0).is_none());
    }

    #[test]
    fn window_activation_and_union_accounting() {
        let plan = plan();
        assert_eq!(plan.windows_activated_by(0), 1); // the late start
        assert_eq!(plan.windows_activated_by(100), 2);
        assert_eq!(plan.windows_activated_by(150), 3);
        // [0,50) ∪ [100,200) ∪ [150,400) = 50 + 300 cycles.
        assert_eq!(plan.degraded_cycles(1_000), 350);
        // Truncated at end=175: [0,50) ∪ [100,176) = 126.
        assert_eq!(plan.degraded_cycles(175), 126);
        assert_eq!(plan.cluster_degraded_cycles(0, 1_000), 250);
        assert_eq!(plan.cluster_degraded_cycles(1, 1_000), 50);
        assert_eq!(plan.active_at(120), 1);
        assert_eq!(plan.active_at(160), 2);
        assert_eq!(plan.active_at(500), 0);
    }

    #[test]
    fn overlapping_windows_are_not_double_counted() {
        let plan = FaultPlan::seeded(1)
            .with_event(FaultKind::DsmLinkDown { link: 0 }, 10, 100)
            .with_event(FaultKind::DramChannelDown { channel: 0 }, 50, 120);
        assert_eq!(plan.degraded_cycles(1_000), 110);
    }

    #[test]
    fn cluster_start_takes_the_latest_hold() {
        let plan = FaultPlan::seeded(1)
            .with_event(FaultKind::LateClusterStart { cluster: 2 }, 0, 500)
            .with_event(FaultKind::LateClusterStart { cluster: 2 }, 0, 900);
        assert_eq!(plan.cluster_start(2), 900);
        assert_eq!(plan.cluster_start(0), 0);
        let forever = FaultPlan::seeded(1).with_event(
            FaultKind::LateClusterStart { cluster: 0 },
            0,
            PERMANENT,
        );
        assert_eq!(forever.cluster_start(0), FAR_FUTURE);
    }

    #[test]
    fn ecc_injector_is_deterministic_and_windowed() {
        let plan = plan();
        let mut a = plan.ecc_injector(0).expect("cluster 0 has ECC events");
        let mut b = plan.ecc_injector(0).expect("cluster 0 has ECC events");
        let mut penalties = Vec::new();
        for access in 0..1_000u64 {
            let cycle = access; // one access per cycle
            let pa = a.observe(cycle);
            let pb = b.observe(cycle);
            assert_eq!(pa, pb, "same seed must inject at the same accesses");
            penalties.push(pa);
        }
        assert_eq!(a.stats(), b.stats());
        // All events fall inside the [150, 400) window.
        assert!(penalties[..150].iter().all(|&p| p == 0));
        assert!(penalties[400..].iter().all(|&p| p == 0));
        assert!(
            a.stats().injected > 0,
            "a gap of ~4 must fire in 250 accesses"
        );
        assert_eq!(a.stats().corrected, a.stats().injected);
        assert_eq!(a.stats().detected, a.stats().injected);
    }

    #[test]
    fn double_bit_events_detect_without_correcting() {
        let plan = FaultPlan::seeded(9).with_event(
            FaultKind::EccDoubleBit {
                cluster: 3,
                mean_access_gap: 2,
            },
            0,
            PERMANENT,
        );
        let mut ecc = plan.ecc_injector(3).unwrap();
        let mut total_penalty = 0;
        for access in 0..100u64 {
            total_penalty += ecc.observe(access);
        }
        assert!(ecc.stats().detected > 0);
        assert_eq!(ecc.stats().corrected, 0);
        assert_eq!(
            total_penalty,
            ecc.stats().detected * ECC_DETECT_PENALTY,
            "every double-bit event pays the refetch penalty"
        );
        assert!(plan.ecc_injector(0).is_none(), "other clusters are clean");
    }

    #[test]
    fn stable_hash_distinguishes_plans() {
        let digest = |p: &FaultPlan| {
            let mut h = StableHasher::new();
            p.stable_hash(&mut h);
            h.finish128()
        };
        let base = plan();
        assert_eq!(digest(&base), digest(&plan()));
        let reseeded = FaultPlan { seed: 43, ..plan() };
        assert_ne!(digest(&base), digest(&reseeded));
        let shifted = FaultPlan::seeded(42)
            .with_event(FaultKind::DsmLinkDown { link: 1 }, 101, 200)
            .with_event(
                FaultKind::EccSingleBit {
                    cluster: 0,
                    mean_access_gap: 4,
                },
                150,
                400,
            )
            .with_event(FaultKind::LateClusterStart { cluster: 1 }, 0, 50);
        assert_ne!(digest(&base), digest(&shifted));
        assert_ne!(digest(&FaultPlan::default()), digest(&base));
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_window_is_rejected() {
        let _ = FaultPlan::seeded(0).with_event(FaultKind::DsmLinkDown { link: 0 }, 10, 10);
    }

    #[test]
    #[should_panic(expected = "mean access gap")]
    fn zero_ecc_gap_is_rejected() {
        let _ = FaultPlan::seeded(0).with_event(
            FaultKind::EccSingleBit {
                cluster: 0,
                mean_access_gap: 0,
            },
            0,
            10,
        );
    }
}
