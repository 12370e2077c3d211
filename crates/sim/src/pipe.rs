//! Bounded queues used to model hardware buffers.
//!
//! [`BoundedQueue`] is a FIFO with finite capacity; it models decoupling
//! queues, load/store queues and operand buffers, providing back-pressure.

use std::collections::VecDeque;

/// A FIFO queue with a hard capacity, used to model hardware buffers that
/// exert back-pressure when full.
///
/// # Example
///
/// ```
/// use virgo_sim::BoundedQueue;
///
/// let mut q = BoundedQueue::new(2);
/// assert!(q.push(1).is_ok());
/// assert!(q.push(2).is_ok());
/// assert_eq!(q.push(3), Err(3));
/// assert_eq!(q.pop(), Some(1));
/// assert!(q.has_space());
/// ```
#[derive(Debug, Clone)]
pub struct BoundedQueue<T> {
    capacity: usize,
    entries: VecDeque<T>,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue with the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be non-zero");
        BoundedQueue {
            capacity,
            entries: VecDeque::with_capacity(capacity),
        }
    }

    /// Maximum number of entries the queue can hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the queue holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True when at least one more entry can be pushed.
    pub fn has_space(&self) -> bool {
        self.entries.len() < self.capacity
    }

    /// Attempts to enqueue an item.
    ///
    /// # Errors
    ///
    /// Returns `Err(item)` (giving the item back to the caller) when the queue
    /// is full, modelling back-pressure.
    pub fn push(&mut self, item: T) -> Result<(), T> {
        if self.has_space() {
            self.entries.push_back(item);
            Ok(())
        } else {
            Err(item)
        }
    }

    /// Dequeues the oldest item, if any.
    pub fn pop(&mut self) -> Option<T> {
        self.entries.pop_front()
    }

    /// Returns a reference to the oldest item, if any.
    pub fn front(&self) -> Option<&T> {
        self.entries.front()
    }

    /// Iterates over queued items from oldest to newest.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_queue_backpressure() {
        let mut q = BoundedQueue::new(1);
        assert_eq!(q.capacity(), 1);
        assert!(q.push(10).is_ok());
        assert!(!q.has_space());
        assert_eq!(q.push(11), Err(11));
        assert_eq!(q.front(), Some(&10));
        assert_eq!(q.pop(), Some(10));
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn bounded_queue_iterates_fifo_order() {
        let mut q = BoundedQueue::new(4);
        for i in 0..4 {
            q.push(i).unwrap();
        }
        let items: Vec<_> = q.iter().copied().collect();
        assert_eq!(items, vec![0, 1, 2, 3]);
        assert_eq!(q.len(), 4);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn bounded_queue_zero_capacity_rejected() {
        let _ = BoundedQueue::<u8>::new(0);
    }
}
