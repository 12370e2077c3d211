//! A deterministic event queue for the event-driven simulation driver.
//!
//! The fast-forward engine's first generation re-polled every component's
//! [`crate::NextActivity`] horizon once per cycle and jumped only when the
//! *global* minimum was in the future — cost proportional to cycles ×
//! components. [`EventQueue`] inverts that: each component registers the
//! cycle of its next event once, the driver pops the earliest `(cycle,
//! component)` pair, and components whose horizon has not changed are never
//! re-queried. Simulation cost then scales with *events*, not cycles.
//!
//! # Determinism
//!
//! Entries are ordered by `(cycle, component-id)`. The driver processes all
//! components due at a cycle in ascending id order — ids are assigned in the
//! naive loop's tick order, so event-driven execution visits components in
//! exactly the reference sequence and stays bit-identical.
//!
//! # Duplicate and conservative wakes
//!
//! Scheduling the same component twice, or earlier than its true next event,
//! is always safe: ticking a component on a cycle where it has nothing to do
//! is precisely what the naive loop does every cycle. The queue deduplicates
//! the common case (an entry at or before the requested cycle is already
//! pending) to keep the heap small, but correctness never depends on it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::cycle::Cycle;

/// No pending entry for a component (sentinel in the dedup table).
const NONE_PENDING: u64 = u64::MAX;

/// A deterministic binary-heap event queue keyed on `(cycle, component-id)`.
///
/// # Example
///
/// ```
/// use virgo_sim::sched::EventQueue;
/// use virgo_sim::Cycle;
///
/// let mut q = EventQueue::new(3);
/// q.schedule(2, Cycle::new(10));
/// q.schedule(0, Cycle::new(10));
/// q.schedule(1, Cycle::new(4));
/// assert_eq!(q.next_cycle(), Some(4));
///
/// let mut due = vec![false; 3];
/// q.pop_due(4, &mut due);
/// assert_eq!(due, vec![false, true, false]);
///
/// // Both remaining components are due at cycle 10, in id order.
/// due.fill(false);
/// q.pop_due(q.next_cycle().unwrap(), &mut due);
/// assert_eq!(due, vec![true, false, true]);
/// assert!(q.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue {
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    /// Earliest pending entry per component, [`NONE_PENDING`] when none.
    pending: Vec<u64>,
}

impl EventQueue {
    /// Creates an empty queue for `components` component ids.
    pub fn new(components: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            pending: vec![NONE_PENDING; components],
        }
    }

    /// Registers component `id`'s next event at cycle `at`. A pending entry
    /// at or before `at` already covers it; a *later* pending entry is not
    /// removed (the extra pop is a harmless spurious tick), but the earlier
    /// one is recorded so the event is never missed.
    pub fn schedule(&mut self, id: u32, at: Cycle) {
        let at = at.get();
        if self.pending[id as usize] <= at {
            return;
        }
        self.pending[id as usize] = at;
        self.heap.push(Reverse((at, id)));
    }

    /// The earliest scheduled cycle, or `None` when the queue is drained.
    pub fn next_cycle(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse((cycle, _))| *cycle)
    }

    /// Pops every entry scheduled for exactly `cycle` and marks its
    /// component in `due`. Duplicate entries collapse onto the same flag.
    ///
    /// # Panics
    ///
    /// Panics if `due` is shorter than the component count.
    pub fn pop_due(&mut self, cycle: u64, due: &mut [bool]) {
        while let Some(Reverse((at, id))) = self.heap.peek().copied() {
            if at != cycle {
                debug_assert!(at > cycle, "events must be processed in order");
                break;
            }
            self.heap.pop();
            due[id as usize] = true;
            if self.pending[id as usize] <= at {
                self.pending[id as usize] = NONE_PENDING;
            }
        }
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Number of pending entries (duplicates included).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Drops every pending entry.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.pending.fill(NONE_PENDING);
    }

    /// Drops every pending entry of the components `drop` selects (say, the
    /// components of a job leaving the machine), so they are never
    /// dispatched again until rescheduled.
    pub fn cancel(&mut self, mut drop: impl FnMut(u32) -> bool) {
        self.heap.retain(|Reverse((_, id))| !drop(*id));
        for (id, pending) in self.pending.iter_mut().enumerate() {
            if drop(id as u32) {
                *pending = NONE_PENDING;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_cycle_then_id_order() {
        let mut q = EventQueue::new(4);
        q.schedule(3, Cycle::new(7));
        q.schedule(1, Cycle::new(7));
        q.schedule(2, Cycle::new(5));
        assert_eq!(q.next_cycle(), Some(5));
        let mut due = vec![false; 4];
        q.pop_due(5, &mut due);
        assert_eq!(due, vec![false, false, true, false]);
        due.fill(false);
        assert_eq!(q.next_cycle(), Some(7));
        q.pop_due(7, &mut due);
        assert_eq!(due, vec![false, true, false, true]);
        assert!(q.is_empty());
    }

    #[test]
    fn duplicate_schedules_dedupe() {
        let mut q = EventQueue::new(1);
        q.schedule(0, Cycle::new(3));
        q.schedule(0, Cycle::new(3));
        q.schedule(0, Cycle::new(9));
        assert_eq!(q.len(), 1, "covered schedules must not grow the heap");
    }

    #[test]
    fn earlier_reschedule_is_never_lost() {
        let mut q = EventQueue::new(2);
        q.schedule(0, Cycle::new(10));
        q.schedule(0, Cycle::new(4)); // supersedes: must fire at 4
        assert_eq!(q.next_cycle(), Some(4));
        let mut due = vec![false; 2];
        q.pop_due(4, &mut due);
        assert!(due[0]);
        // The stale entry at 10 survives as a spurious (harmless) wake.
        assert_eq!(q.next_cycle(), Some(10));
    }

    #[test]
    fn cancel_drops_only_selected_components() {
        let mut q = EventQueue::new(3);
        q.schedule(0, Cycle::new(5));
        q.schedule(1, Cycle::new(3));
        q.schedule(2, Cycle::new(3));
        q.cancel(|id| id == 1);
        let mut due = vec![false; 3];
        q.pop_due(3, &mut due);
        assert_eq!(due, vec![false, false, true]);
        q.schedule(1, Cycle::new(4));
        assert_eq!(
            q.next_cycle(),
            Some(4),
            "a cancelled component can be rescheduled"
        );
    }

    #[test]
    fn clear_resets_dedup_state() {
        let mut q = EventQueue::new(1);
        q.schedule(0, Cycle::new(3));
        q.clear();
        assert!(q.is_empty());
        q.schedule(0, Cycle::new(3));
        assert_eq!(q.len(), 1, "clear must forget the old pending entry");
    }
}
