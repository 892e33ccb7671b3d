//! Deterministic parallelism primitives for the MLComp hot paths.
//!
//! The two expensive stages of the pipeline — data extraction (compiling
//! and profiling hundreds of program variants, Fig. 2 box ① of the paper)
//! and Algorithm 1's model search (fitting up to 21 × 9 model/preprocessor
//! pipelines) — are embarrassingly parallel *per work item*, but the
//! reproduction promises **bit-identical results regardless of thread
//! count**. This crate provides the two pieces that make that promise
//! cheap to keep:
//!
//! * [`WorkerPool`] — a [`std::thread::scope`]-based fork/join pool whose
//!   [`WorkerPool::map`] returns results in *input order*, no matter which
//!   worker ran which item or in what order items finished. A panic in an
//!   item reaches the caller; callers that must survive one (extraction)
//!   catch it inside their closure.
//! * [`seed`] — stateless seed-derivation helpers so each work item owns an
//!   independent RNG stream derived from `(base_seed, item identity)`
//!   rather than a position in a shared sequential stream.
//!
//! No external dependencies and no unsafe code; work distribution uses an
//! atomic cursor and per-worker result buffers that are merged and sorted
//! by item index after the scope joins.

use mlcomp_trace as trace;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

pub mod seed;

/// A fork/join worker pool with deterministic, input-ordered results.
///
/// The pool is *scoped*: every call to [`WorkerPool::map`] spawns its
/// workers inside [`std::thread::scope`], so borrowed data may be captured
/// freely and all threads are joined before the call returns. Work is
/// distributed dynamically through an atomic cursor (good load balance when
/// item costs vary, as they do across program variants), and each result is
/// tagged with its item index so the output `Vec` is always in input order.
///
/// A `num_threads` of 0 or 1 runs items inline on the calling thread with
/// no pool overhead — handy for debugging and for the determinism tests
/// that compare thread counts.
///
/// # Examples
///
/// ```
/// use mlcomp_parallel::WorkerPool;
///
/// let pool = WorkerPool::new(4);
/// let squares = pool.map(&[1u64, 2, 3, 4, 5], |_idx, &x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16, 25]);
///
/// // Results are identical whatever the thread count:
/// assert_eq!(squares, WorkerPool::new(1).map(&[1u64, 2, 3, 4, 5], |_i, &x| x * x));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerPool {
    num_threads: usize,
}

impl WorkerPool {
    /// Creates a pool that will use `num_threads` worker threads.
    ///
    /// `0` means "pick for me": the host's available parallelism.
    pub fn new(num_threads: usize) -> Self {
        let num_threads = if num_threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            num_threads
        };
        Self { num_threads }
    }

    /// The number of worker threads [`WorkerPool::map`] will spawn.
    pub fn num_threads(&self) -> usize {
        self.num_threads
    }

    /// Applies `f` to every item, in parallel, returning results in input
    /// order.
    ///
    /// `f` receives the item's index alongside the item so callers can
    /// derive per-item state (e.g. an RNG seed) from a stable identity
    /// rather than from execution order. Panics in `f` propagate to the
    /// caller once all workers have joined.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        if self.num_threads <= 1 || items.len() <= 1 {
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        let workers = self.num_threads.min(items.len());
        let cursor = AtomicUsize::new(0);
        let tracing = trace::enabled();
        let mut tagged: Vec<(usize, R)> = Vec::with_capacity(items.len());
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let cursor = &cursor;
                    let f = &f;
                    scope.spawn(move || {
                        let mut span = trace::span("pool.worker");
                        let mut busy_ns = 0u64;
                        let mut local = Vec::new();
                        loop {
                            let idx = cursor.fetch_add(1, Ordering::Relaxed);
                            let Some(item) = items.get(idx) else { break };
                            let started = tracing.then(Instant::now);
                            local.push((idx, f(idx, item)));
                            if let Some(started) = started {
                                busy_ns += started.elapsed().as_nanos() as u64;
                            }
                        }
                        if span.is_recording() {
                            span.field("worker", w);
                            span.field("items", local.len());
                            span.field("busy_ns", busy_ns);
                        }
                        local
                    })
                })
                .collect();
            for handle in handles {
                match handle.join() {
                    Ok(local) => tagged.extend(local),
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
        });
        tagged.sort_by_key(|&(idx, _)| idx);
        tagged.into_iter().map(|(_, r)| r).collect()
    }

    /// Runs `a` and `b` side by side and returns both results: `b` on a
    /// thread of its own, `a` on the calling thread. With `num_threads`
    /// of 1 (or 0 resolving to 1) both run inline, `a` first. Each closure
    /// runs once either way, so results do not depend on the thread count
    /// as long as the two share no state. A panic in either reaches the
    /// caller after both have finished.
    ///
    /// # Examples
    ///
    /// ```
    /// use mlcomp_parallel::WorkerPool;
    ///
    /// let (sum, max) = WorkerPool::new(2).join(|| 1 + 2, || 3.max(4));
    /// assert_eq!((sum, max), (3, 4));
    /// assert_eq!(WorkerPool::new(1).join(|| 1 + 2, || 3.max(4)), (3, 4));
    /// ```
    pub fn join<A, B, RA, RB>(&self, a: A, b: B) -> (RA, RB)
    where
        A: FnOnce() -> RA,
        B: FnOnce() -> RB + Send,
        RB: Send,
    {
        if self.num_threads <= 1 {
            let ra = a();
            return (ra, b());
        }
        std::thread::scope(|scope| {
            let handle = scope.spawn(b);
            let ra = catch_unwind(AssertUnwindSafe(a));
            let rb = handle.join();
            match (ra, rb) {
                (Ok(ra), Ok(rb)) => (ra, rb),
                (Err(payload), _) | (_, Err(payload)) => std::panic::resume_unwind(payload),
            }
        })
    }
}

/// Extracts a human-readable reason from a caught panic payload.
///
/// Re-exported from `mlcomp-faults` for the pass sandbox and extraction,
/// so failure and quarantine reports print the actual `panic!` message
/// instead of `Box<dyn Any>`.
pub fn panic_reason(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "panic with non-string payload".to_string()
    }
}

impl Default for WorkerPool {
    /// A pool sized to the host's available parallelism.
    fn default() -> Self {
        Self::new(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_input_order() {
        let items: Vec<u64> = (0..257).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for threads in [1, 2, 4, 8] {
            let pool = WorkerPool::new(threads);
            assert_eq!(
                pool.map(&items, |_, &x| x * 3 + 1),
                expect,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn map_passes_stable_indices() {
        let items = vec!["a", "b", "c", "d", "e", "f", "g", "h"];
        let idxs = WorkerPool::new(4).map(&items, |i, _| i);
        assert_eq!(idxs, (0..items.len()).collect::<Vec<_>>());
    }

    #[test]
    fn map_handles_empty_and_single() {
        let pool = WorkerPool::new(8);
        assert_eq!(pool.map(&[] as &[u8], |_, &x| x), Vec::<u8>::new());
        assert_eq!(pool.map(&[7u8], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn map_propagates_panics_from_f() {
        let items: Vec<u32> = (0..16).collect();
        for threads in [1, 4] {
            let caught = catch_unwind(|| {
                WorkerPool::new(threads).map(&items, |i, &x| {
                    assert!(i != 9, "item 9 dies");
                    x
                })
            })
            .expect_err("the panic must reach the caller");
            assert!(
                panic_reason(caught.as_ref()).contains("item 9 dies"),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn zero_threads_resolves_to_host_parallelism() {
        assert!(WorkerPool::new(0).num_threads() >= 1);
    }

    #[test]
    fn join_runs_both_closures_at_every_thread_count() {
        for threads in [1, 2, 4] {
            let items: Vec<u64> = (0..100).collect();
            let (sum, squares) = WorkerPool::new(threads).join(
                || items.iter().sum::<u64>(),
                || items.iter().map(|x| x * x).sum::<u64>(),
            );
            assert_eq!((sum, squares), (4950, 328_350), "threads={threads}");
        }
    }

    #[test]
    fn join_propagates_a_panic_from_either_side() {
        for threads in [1, 2] {
            let pool = WorkerPool::new(threads);
            let caught = catch_unwind(|| pool.join(|| panic!("left dies"), || 1))
                .expect_err("the panic must reach the caller");
            assert!(panic_reason(caught.as_ref()).contains("left dies"));
            let caught = catch_unwind(|| pool.join(|| 1, || panic!("right dies")))
                .expect_err("the panic must reach the caller");
            assert!(panic_reason(caught.as_ref()).contains("right dies"));
        }
    }
}
