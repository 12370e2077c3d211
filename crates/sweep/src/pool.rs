//! The sharded worker pool the sweep engine executes on.
//!
//! The previous generation of the bench harness (`run_parallel`) spawned one
//! scoped thread per design point — fine for four designs, hopeless for a
//! full `design × shape × clusters × mode` grid on a many-core host. The
//! [`SweepPool`] instead shards an arbitrary work list across a *bounded*
//! set of workers (`min(num_cpus, pool_size)`), each stealing the next item
//! from a shared injector deque as it finishes its current one, so long and
//! short simulations interleave without head-of-line blocking.
//!
//! Results are **streamed in completion order** (via the callback of
//! [`SweepPool::map_streaming`]) and **collected in submission order** — the
//! returned `Vec` always lines up index-for-index with the input, no matter
//! which worker finished first. That ordering is a documented guarantee, not
//! an accident of collection, and is pinned by regression tests.
//!
//! # Self-healing
//!
//! Long sweep campaigns should not lose a thousand finished points to one
//! panicking job. [`SweepPool::try_map`] isolates each job behind
//! `catch_unwind`, retries a panicking item up to [`SweepPool::MAX_ATTEMPTS`]
//! times with a bounded backoff (transient failures — OOM-killed
//! allocations, poisoned one-shot state — often pass on retry), and
//! quarantines items that still fail as structured [`SweepError`]s in the
//! result vector, preserving submission order for everything else. The
//! plain `map*` methods keep their original contract: a panicking job
//! propagates and the sweep dies loudly.

use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::panic::AssertUnwindSafe;
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::Duration;

/// One completed item, handed to the streaming callback as soon as the
/// worker that ran it sends it back — i.e. in *completion* order.
#[derive(Debug)]
pub struct Completion<'a, R> {
    /// Index of the item in the submitted work list.
    pub index: usize,
    /// How many items have completed so far (including this one).
    pub completed: usize,
    /// Total number of submitted items.
    pub total: usize,
    /// The item's result (owned results are returned by `map*` at the end).
    pub result: &'a R,
}

/// One quarantined sweep item: the job panicked on every attempt. The index
/// points back into the submitted work list, so the caller can requeue or
/// report the exact item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepError {
    /// Index of the item in the submitted work list.
    pub index: usize,
    /// Number of attempts made (always [`SweepPool::MAX_ATTEMPTS`]).
    pub attempts: u32,
    /// The panic payload of the final attempt, when it was a string.
    pub message: String,
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "sweep item {} quarantined after {} attempt(s): {}",
            self.index, self.attempts, self.message
        )
    }
}

impl std::error::Error for SweepError {}

/// Renders a panic payload for [`SweepError::message`].
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A bounded, work-stealing worker pool for embarrassingly-parallel sweeps.
///
/// # Example
///
/// ```
/// use virgo_sweep::SweepPool;
///
/// let pool = SweepPool::new(4);
/// let out = pool.map(vec![3u64, 1, 2], |x| x * 10);
/// assert_eq!(out, vec![30, 10, 20]); // submission order, always
/// ```
#[derive(Debug, Clone)]
pub struct SweepPool {
    workers: usize,
}

impl SweepPool {
    /// Attempts per item in [`SweepPool::try_map`] before quarantining it.
    pub const MAX_ATTEMPTS: u32 = 3;

    /// Base backoff between retry attempts; attempt `n` waits `n` times this
    /// (bounded: at most `MAX_ATTEMPTS - 1` sleeps totalling a few tens of
    /// milliseconds, never an unbounded exponential).
    pub const RETRY_BACKOFF: Duration = Duration::from_millis(10);

    /// Creates a pool of `min(num_cpus, pool_size)` workers (at least one).
    /// Oversubscribing a host beyond its core count only adds scheduling
    /// noise to deterministic CPU-bound simulations, so the host parallelism
    /// is a hard cap.
    pub fn new(pool_size: usize) -> Self {
        SweepPool {
            workers: pool_size.clamp(1, host_parallelism()),
        }
    }

    /// Creates a pool with one worker per available CPU.
    pub fn with_host_parallelism() -> Self {
        Self::new(host_parallelism())
    }

    /// Number of workers the pool will actually use.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `job` over every item and returns the results in submission
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panics (the panic is propagated).
    pub fn map<T, R, F>(&self, items: Vec<T>, job: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        self.map_streaming(items, job, |_| {})
    }

    /// Runs `job` over every item, invoking `each` on the submitting thread
    /// for every completion (in completion order), and returns the results
    /// in submission order.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panics (the panic is propagated).
    pub fn map_streaming<T, R, F>(
        &self,
        items: Vec<T>,
        job: F,
        mut each: impl FnMut(Completion<'_, R>),
    ) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        let total = items.len();
        if total == 0 {
            return Vec::new();
        }
        let injector: Mutex<VecDeque<(usize, T)>> =
            Mutex::new(items.into_iter().enumerate().collect());
        let workers = self.workers.min(total);
        let (tx, rx) = mpsc::channel::<(usize, R)>();
        let mut results: Vec<Option<R>> = (0..total).map(|_| None).collect();

        std::thread::scope(|scope| {
            for _ in 0..workers {
                let tx = tx.clone();
                let injector = &injector;
                let job = &job;
                scope.spawn(move || {
                    loop {
                        // Steal the next item; drop the lock before running
                        // the (potentially long) job.
                        let next = injector.lock().expect("injector lock").pop_front();
                        let Some((index, item)) = next else { break };
                        let result = job(item);
                        if tx.send((index, result)).is_err() {
                            break;
                        }
                    }
                });
            }
            // The workers hold the only other senders; drop ours so `rx`
            // disconnects exactly when every worker has exited.
            drop(tx);
            let mut completed = 0usize;
            // If a worker panics its sender is dropped mid-stream; recv then
            // disconnects early and the scope join below propagates the
            // worker's panic rather than ours.
            while let Ok((index, result)) = rx.recv() {
                completed += 1;
                each(Completion {
                    index,
                    completed,
                    total,
                    result: &result,
                });
                results[index] = Some(result);
                if completed == total {
                    break;
                }
            }
        });

        results
            .into_iter()
            .map(|r| r.expect("worker thread panicked"))
            .collect()
    }

    /// Fault-isolated [`SweepPool::map`]: a panicking job is retried up to
    /// [`SweepPool::MAX_ATTEMPTS`] times with a bounded backoff, and an item
    /// that panics on every attempt comes back as `Err(SweepError)` in its
    /// submission-order slot instead of killing the whole sweep. Items need
    /// `Clone` so a failed attempt can be re-run.
    pub fn try_map<T, R, F>(&self, items: Vec<T>, job: F) -> Vec<Result<R, SweepError>>
    where
        T: Clone + Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        self.map(
            items.into_iter().enumerate().collect(),
            |(index, item): (usize, T)| {
                let mut message = String::new();
                for attempt in 1..=Self::MAX_ATTEMPTS {
                    // The closure only borrows `job` and a clone of the item,
                    // so a panic cannot leave broken state behind for the
                    // next attempt to observe.
                    let arg = item.clone();
                    match std::panic::catch_unwind(AssertUnwindSafe(|| job(arg))) {
                        Ok(result) => return Ok(result),
                        Err(payload) => {
                            message = panic_message(payload.as_ref());
                            if attempt < Self::MAX_ATTEMPTS {
                                std::thread::sleep(Self::RETRY_BACKOFF * attempt);
                            }
                        }
                    }
                }
                Err(SweepError {
                    index,
                    attempts: Self::MAX_ATTEMPTS,
                    message,
                })
            },
        )
    }
}

impl Default for SweepPool {
    fn default() -> Self {
        Self::with_host_parallelism()
    }
}

/// Number of CPUs the host exposes (1 if unknown).
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn pool_size_is_clamped() {
        assert_eq!(SweepPool::new(0).workers(), 1);
        assert!(SweepPool::new(64).workers() <= host_parallelism());
        assert!(SweepPool::with_host_parallelism().workers() >= 1);
    }

    #[test]
    fn results_preserve_submission_order_not_just_values() {
        // Items deliberately finish out of submission order: item 0 is the
        // slowest, so a completion-ordered collection would reverse the
        // list. The old `run_parallel` test only checked *values*; this pins
        // the order semantics.
        let pool = SweepPool::new(4);
        let out = pool.map(vec![30u64, 20, 10, 0], |delay| {
            std::thread::sleep(std::time::Duration::from_millis(delay));
            delay
        });
        assert_eq!(out, vec![30, 20, 10, 0]);
    }

    #[test]
    fn streaming_reports_every_completion_once() {
        let pool = SweepPool::new(2);
        let mut seen = Vec::new();
        let out = pool.map_streaming(
            (0..16u64).collect(),
            |x| x * x,
            |c| seen.push((c.index, *c.result, c.completed, c.total)),
        );
        assert_eq!(out, (0..16u64).map(|x| x * x).collect::<Vec<_>>());
        assert_eq!(seen.len(), 16);
        // Every index appears exactly once, `completed` counts 1..=16.
        let mut indices: Vec<usize> = seen.iter().map(|s| s.0).collect();
        indices.sort_unstable();
        assert_eq!(indices, (0..16).collect::<Vec<_>>());
        assert_eq!(seen.last().unwrap().2, 16);
        assert!(seen.iter().all(|s| s.3 == 16));
        assert!(seen.iter().all(|s| s.1 == (s.0 as u64).pow(2)));
    }

    #[test]
    fn empty_input_returns_empty() {
        let pool = SweepPool::new(4);
        let out: Vec<u64> = pool.map(Vec::<u64>::new(), |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn all_items_run_exactly_once() {
        static COUNT: AtomicUsize = AtomicUsize::new(0);
        let pool = SweepPool::new(3);
        let n = 100;
        let out = pool.map((0..n).collect::<Vec<usize>>(), |x| {
            COUNT.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(out.len(), n);
        assert_eq!(COUNT.load(Ordering::Relaxed), n);
    }

    #[test]
    fn worker_panic_propagates() {
        let pool = SweepPool::new(2);
        let result = std::panic::catch_unwind(|| {
            pool.map(vec![1u64, 2, 3], |x| {
                if x == 2 {
                    panic!("boom");
                }
                x
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn try_map_quarantines_persistent_panics_in_order() {
        let pool = SweepPool::new(2);
        let out = pool.try_map(vec![1u64, 2, 3, 4], |x| {
            if x % 2 == 0 {
                panic!("even item {x}");
            }
            x * 10
        });
        assert_eq!(out.len(), 4);
        assert_eq!(out[0], Ok(10));
        assert_eq!(out[2], Ok(30));
        for (slot, x) in [(1usize, 2u64), (3, 4)] {
            let err = out[slot].as_ref().unwrap_err();
            assert_eq!(err.index, slot);
            assert_eq!(err.attempts, SweepPool::MAX_ATTEMPTS);
            assert_eq!(err.message, format!("even item {x}"));
            assert!(err.to_string().contains("quarantined"), "{err}");
        }
    }

    #[test]
    fn try_map_retries_transient_failures_to_success() {
        // Item 7 panics on its first two attempts and succeeds on the third;
        // the sweep self-heals without surfacing an error.
        static ATTEMPTS: AtomicUsize = AtomicUsize::new(0);
        let pool = SweepPool::new(2);
        let out = pool.try_map(vec![1u64, 7, 3], |x| {
            if x == 7 && ATTEMPTS.fetch_add(1, Ordering::SeqCst) < 2 {
                panic!("transient");
            }
            x
        });
        assert_eq!(out, vec![Ok(1), Ok(7), Ok(3)]);
        assert_eq!(ATTEMPTS.load(Ordering::SeqCst), 3);
    }
}
