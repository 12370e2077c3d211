//! The event-horizon contract behind the simulator's cycle-skipping
//! fast-forward engine.
//!
//! The simulator is cycle stepped: the driver calls `tick` on every timed
//! component once per cycle. Most of those ticks do nothing — warps are
//! blocked on fixed-latency DRAM, DMA or matrix-unit operations, and the only
//! per-cycle effect is stall/idle accounting. Each component with
//! self-driven activity therefore has an inherent
//! `next_activity(&self, now: Cycle) -> Option<Cycle>` method reporting the
//! earliest cycle `>= now` at which its externally visible state can change,
//! so the driver can jump over the quiescent region in one step
//! (bulk-incrementing the per-cycle counters) instead of ticking through it.
//! The components that have one are the DMA engine, the Gemmini unit, the
//! operand-decoupled and tightly-coupled tensor units, the DSM fabric and,
//! folding those, the SIMT core and a cluster's device block. Nothing calls
//! the method generically, so there is no trait.
//!
//! # Soundness contract
//!
//! For the fast-forward to stay **bit-identical** to the naive one-cycle loop,
//! every `next_activity` must obey two rules:
//!
//! 1. **No early activity.** If `next_activity(now)` returns `Some(t)`, then
//!    ticking the component at any cycle `c` with `now <= c < t` must have no
//!    effect beyond time-uniform per-cycle accounting (counters that increment
//!    by exactly one every cycle regardless of the cycle number, e.g. a DMA
//!    engine's `busy_cycles`). Those counters are replayed in bulk by the
//!    component's `fast_forward` hook.
//! 2. **Conservatism is fine; optimism is not.** Returning `Some(now)` (or any
//!    cycle earlier than the true next event) merely costs performance — the
//!    driver falls back to ticking. Returning a cycle *later* than the true
//!    next event would skip real work and is a correctness bug.
//!
//! A stale milestone clamps to `now` (`busy_until.max(now)`): a horizon in
//! the past means "act immediately", never a time-travel request.
//!
//! # The three return shapes
//!
//! Under the event scheduler (`virgo::scheduler`, one calendar entry per
//! component) the three possible answers mean precisely:
//!
//! * **`Some(now)`** — "tick me again right away": the component has work on
//!   the very next dispatch. Always sound, never skips anything, but a
//!   component that answers `Some(now)` on every busy cycle pins the horizon
//!   and degrades the event-driven loop back to naive stepping (the failure
//!   mode the batched Gemmini streaming removed). Use it only when the next
//!   event genuinely is immediate — e.g. an idle unit with a queued command
//!   to latch.
//! * **`Some(t)` with `t > now`** — "park me until `t`": the scheduler will
//!   not touch the component before `t`, and the skipped window is
//!   bulk-replayed through `fast_forward`. This is the shape that makes
//!   dense kernels cheap: one event per milestone (a block boundary, a
//!   transfer completion) instead of one per cycle.
//! * **`None`** — "never on my own again": the component is drained and only
//!   external submission can revive it. The scheduler clears its calendar
//!   entry; whoever submits new work is responsible for re-scheduling it
//!   (in this codebase the cluster wakes its devices when a core's MMIO
//!   write lands — the submitter's tick outcome carries the wake, not the
//!   drained component).
//!
//! # Reactive components
//!
//! Shared-memory banks, caches, the L2/DRAM back-end and accumulator SRAMs
//! have no self-driven activity at all — their state only changes when an
//! active component issues a request — so they have no `next_activity`.
//! Holding *deferred* work does not by itself require a horizon: whoever
//! drains that work must be scheduled by the component that produced it (the
//! shared memory's stream-read queue is covered by the cluster device
//! block's horizon; see `ClusterDevices::next_activity` in `virgo`).

use crate::cycle::Cycle;

/// Combines two optional event times, keeping the earlier one.
///
/// The identity element is `None` ("no self-driven activity"), so aggregates
/// can fold component results with this function.
///
/// # Example
///
/// ```
/// use virgo_sim::{earliest, Cycle};
///
/// let a = Some(Cycle::new(10));
/// let b = Some(Cycle::new(7));
/// assert_eq!(earliest(a, b), Some(Cycle::new(7)));
/// assert_eq!(earliest(a, None), a);
/// assert_eq!(earliest(None, None), None);
/// ```
#[must_use]
pub fn earliest(a: Option<Cycle>, b: Option<Cycle>) -> Option<Cycle> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, None) => x,
        (None, y) => y,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn earliest_prefers_the_smaller_event() {
        assert_eq!(
            earliest(Some(Cycle::new(5)), Some(Cycle::new(3))),
            Some(Cycle::new(3))
        );
        assert_eq!(earliest(None, Some(Cycle::new(3))), Some(Cycle::new(3)));
        assert_eq!(earliest(Some(Cycle::new(5)), None), Some(Cycle::new(5)));
        assert_eq!(earliest(None, None), None);
    }
}
