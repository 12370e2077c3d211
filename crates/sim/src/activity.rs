//! The [`NextActivity`] trait behind the simulator's cycle-skipping
//! fast-forward engine.
//!
//! The simulator is cycle stepped: the driver calls `tick` on every timed
//! component once per cycle. Most of those ticks do nothing — warps are
//! blocked on fixed-latency DRAM, DMA or matrix-unit operations, and the only
//! per-cycle effect is stall/idle accounting. [`NextActivity`] lets each
//! component report the earliest *future* cycle at which its externally
//! visible state can change, so the driver can jump over the quiescent region
//! in one step (bulk-incrementing the per-cycle counters) instead of ticking
//! through it.
//!
//! # Soundness contract
//!
//! For the fast-forward to stay **bit-identical** to the naive one-cycle loop,
//! an implementation must obey two rules:
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
//! Purely reactive components (shared-memory banks, caches, the L2/DRAM
//! back-end, accumulator SRAMs) have no self-driven activity at all — their
//! state only changes when an active component issues a request — so they
//! implement this trait by returning `None` unconditionally and ignore `now`.
//! Audit note for such impls: holding *deferred* work does not by itself
//! require a horizon. The shared memory's pending stream-read queue is
//! future-dated work, but every pending read was scheduled by a matrix unit
//! whose own horizon is at or before that block's end, so the producer — not
//! the passive scratchpad — keeps the draining tick scheduled.
//!
//! ```
//! use virgo_sim::{Cycle, NextActivity};
//!
//! /// A toy engine: busy until a fixed cycle, then drained.
//! struct Engine { busy_until: Option<Cycle> }
//!
//! impl NextActivity for Engine {
//!     fn next_activity(&self, now: Cycle) -> Option<Cycle> {
//!         // Clamp to `now`: a milestone in the past means "act immediately",
//!         // never a time-travel request.
//!         self.busy_until.map(|t| t.max(now))
//!     }
//! }
//!
//! let running = Engine { busy_until: Some(Cycle::new(100)) };
//! // Park until the milestone...
//! assert_eq!(running.next_activity(Cycle::new(40)), Some(Cycle::new(100)));
//! // ...a stale milestone degrades to `Some(now)`, not to the past...
//! assert_eq!(running.next_activity(Cycle::new(120)), Some(Cycle::new(120)));
//! // ...and a drained engine leaves the calendar.
//! let drained = Engine { busy_until: None };
//! assert_eq!(drained.next_activity(Cycle::new(40)), None);
//! ```
//!
//! A purely reactive component ignores `now` entirely:
//!
//! ```
//! use virgo_sim::{Cycle, NextActivity};
//!
//! struct Sram;
//! impl NextActivity for Sram {
//!     fn next_activity(&self, _now: Cycle) -> Option<Cycle> {
//!         None // request-driven only: requesters schedule the events
//!     }
//! }
//! assert_eq!(Sram.next_activity(Cycle::ZERO), None);
//! ```

use crate::cycle::Cycle;

/// A timed component that can report the next cycle at which it has work to
/// do. See the [module documentation](self) for the soundness contract.
pub trait NextActivity {
    /// The earliest cycle `>= now` at which ticking this component can change
    /// its externally visible state, or `None` if the component is drained
    /// and will never act again without new work being submitted.
    fn next_activity(&self, now: Cycle) -> Option<Cycle>;
}

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

    struct FixedEvent(Option<Cycle>);

    impl NextActivity for FixedEvent {
        fn next_activity(&self, _now: Cycle) -> Option<Cycle> {
            self.0
        }
    }

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

    #[test]
    fn earliest_folds_over_components() {
        let components = [
            FixedEvent(None),
            FixedEvent(Some(Cycle::new(40))),
            FixedEvent(Some(Cycle::new(12))),
        ];
        let next = components
            .iter()
            .fold(None, |acc, c| earliest(acc, c.next_activity(Cycle::ZERO)));
        assert_eq!(next, Some(Cycle::new(12)));
    }
}
