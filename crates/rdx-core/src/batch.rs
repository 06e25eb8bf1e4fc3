//! Parallel batch profiling over a bounded worker pool.
//!
//! Every RDX profile is an independent, deterministic function of its
//! `(config, stream)` pair, which makes sweeps — registry × period ×
//! policy grids — embarrassingly parallel. [`profile_batch`] fans a
//! task list out over at most `jobs` worker threads and returns the
//! profiles **in task order**, so parallel output is byte-identical to
//! a sequential run no matter how the scheduler interleaves workers.
//!
//! Tasks carry a *stream factory* rather than a stream so that nothing
//! is materialized until a worker picks the task up; combined with the
//! profiler's own streaming consumption, peak memory stays at
//! `O(jobs)` live streams.
//!
//! A panicking task can never silently shrink or reorder the result:
//! workers catch each task's unwind, the collector re-raises the
//! panic of the **lowest-indexed** failed task on the caller's thread
//! with its original payload, and no partial `Vec` escapes.

use crate::config::RdxConfig;
use crate::report::RdxProfile;
use crate::runner::RdxRunner;
use dispatch::TaskPanic;
use rdx_trace::{AccessStream, Chunked};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The steppable core of the batch dispatch loop: claim task indices
/// from a shared cursor, reassemble `(index, result)` pairs into task
/// order.
///
/// [`profile_batch`] drives these from real worker threads; the
/// deterministic simulator (`rdx-sim`) drives the same types from
/// virtual workers under a seeded schedule, so the claim/collect
/// semantics — every index claimed exactly once, the lowest-indexed
/// panic wins — are pinned by replayable tests instead of whatever
/// interleaving the OS happened to produce.
pub mod dispatch {
    use std::any::Any;
    use std::panic::resume_unwind;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A caught panic payload as it crosses the collector queue.
    pub type TaskPanic = Box<dyn Any + Send + 'static>;

    /// Lock-free claim cursor: hands each of `total` task indices to
    /// exactly one caller, in cursor order.
    #[derive(Debug)]
    pub struct Claims {
        cursor: AtomicUsize,
        total: usize,
    }

    impl Claims {
        /// A cursor over task indices `0..total`.
        #[must_use]
        pub fn new(total: usize) -> Self {
            Claims {
                cursor: AtomicUsize::new(0),
                total,
            }
        }

        /// Claims the next unclaimed index; `None` once exhausted.
        pub fn next(&self) -> Option<usize> {
            let i = self.cursor.fetch_add(1, Ordering::Relaxed);
            (i < self.total).then_some(i)
        }

        /// The total number of task indices.
        #[must_use]
        pub fn total(&self) -> usize {
            self.total
        }
    }

    /// Reassembles out-of-order `(index, result)` pairs into task
    /// order, returning the values. A worker stops claiming after its
    /// own task fails, so scanning in index order meets the
    /// lowest-indexed panic before any never-claimed hole.
    ///
    /// # Panics
    ///
    /// Re-raises the lowest-indexed `Err` payload via
    /// [`resume_unwind`]; panics if an index below the first failure
    /// was never reported (a dispatch-protocol violation).
    pub fn collect_in_order<T>(
        total: usize,
        results: impl IntoIterator<Item = (usize, Result<T, TaskPanic>)>,
    ) -> Vec<T> {
        let mut slots: Vec<Option<Result<T, TaskPanic>>> = (0..total).map(|_| None).collect();
        for (i, result) in results {
            slots[i] = Some(result);
        }
        let mut out = Vec::with_capacity(total);
        for slot in slots {
            match slot.expect("every task before the first panic was claimed") {
                Ok(value) => out.push(value),
                Err(payload) => resume_unwind(payload),
            }
        }
        out
    }
}

/// A unit of batch work: a profiler configuration plus the factory that
/// builds its input stream on the worker thread.
pub struct BatchTask<F> {
    /// Profiler configuration for this task.
    pub config: RdxConfig,
    /// Builds the access stream (invoked once, on the worker).
    pub make_stream: F,
}

/// The machine's available parallelism (≥ 1): the default `jobs` value.
#[must_use]
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn run_task<S: AccessStream, F: FnOnce() -> S>(config: RdxConfig, make_stream: F) -> RdxProfile {
    // Batch throughput is the point of this module, so hand the machine
    // chunks: generator streams get buffered into bounded slices for the
    // bulk-scan fast path, materialized traces pass through zero-copy.
    // Chunking never changes the access sequence, so profiles stay
    // bit-identical to an unwrapped run (asserted by the tests below).
    RdxRunner::new(config).profile(Chunked::new(make_stream()))
}

/// Profiles every task on a pool of at most `jobs` threads, returning
/// profiles in task order (deterministic regardless of scheduling).
///
/// `jobs` is clamped to `[1, tasks.len()]`; `jobs == 1` degenerates to
/// an in-place sequential loop with no thread overhead.
///
/// # Panics
///
/// If a task panics (in its stream factory or in the profiler), the
/// panic is re-raised here with the original payload — the first one
/// in *task order* when several tasks fail. Workers that already
/// completed other tasks are joined first, so no thread leaks.
#[must_use]
pub fn profile_batch<S, F>(tasks: Vec<BatchTask<F>>, jobs: usize) -> Vec<RdxProfile>
where
    S: AccessStream,
    F: FnOnce() -> S + Send,
{
    run_batch(
        tasks
            .into_iter()
            .map(|t| move || run_task(t.config, t.make_stream))
            .collect(),
        jobs,
    )
}

/// The pool behind [`profile_batch`]: runs each closure once on at
/// most `jobs` threads and returns the results in task order, with the
/// same clamping and panic contract.
pub(crate) fn run_batch<T, F>(tasks: Vec<F>, jobs: usize) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let run = |task: F| {
        let _task_span = rdx_metrics::span("task");
        rdx_metrics::counter("rdx.batch.tasks").incr();
        task()
    };
    let task_count = tasks.len();
    if task_count == 0 {
        return Vec::new();
    }
    let jobs = jobs.clamp(1, task_count);
    let _batch_span = rdx_metrics::span("rdx.batch");
    if jobs == 1 {
        return tasks.into_iter().map(run).collect();
    }

    // Each slot is taken exactly once: the atomic cursor hands every
    // index to exactly one worker, so the per-slot lock is uncontended.
    let slots: Vec<parking_lot::Mutex<Option<F>>> = tasks
        .into_iter()
        .map(|t| parking_lot::Mutex::new(Some(t)))
        .collect();
    let claims = dispatch::Claims::new(task_count);
    // Bounded at one in-flight result per worker: the collector drains
    // concurrently on the caller's thread, so a full queue stalls a
    // worker briefly but can never deadlock — and backpressure
    // discipline holds here like everywhere else in the workspace.
    let (tx, rx) = crossbeam::channel::bounded::<(usize, Result<T, TaskPanic>)>(jobs);

    let results: Vec<Option<Result<T, TaskPanic>>> = crossbeam::scope(|scope| {
        for _ in 0..jobs {
            let tx = tx.clone();
            let slots = &slots;
            let claims = &claims;
            scope.spawn(move |_| {
                let _worker_span = rdx_metrics::span("rdx.batch.worker");
                while let Some(i) = claims.next() {
                    rdx_metrics::record_value("rdx.batch.queue_depth", (claims.total() - i) as u64);
                    let task = slots[i].lock().take().expect("task taken exactly once");
                    let result = catch_unwind(AssertUnwindSafe(|| run(task)));
                    let failed = result.is_err();
                    tx.send((i, result)).expect("result collector alive");
                    if failed {
                        // This worker's state is fine (the unwind was
                        // caught), but stop claiming new work: the batch
                        // is already doomed to re-raise.
                        break;
                    }
                }
            });
        }
        drop(tx);
        let mut results: Vec<Option<Result<T, TaskPanic>>> =
            (0..task_count).map(|_| None).collect();
        for (i, result) in rx {
            results[i] = Some(result);
        }
        results
    })
    .expect("batch workers never unwind (panics are caught per task)");

    // Re-raising the lowest-indexed panic must happen outside the
    // scope (the scope catches closure unwinds to match crossbeam's
    // contract, which would swallow the payload).
    dispatch::collect_in_order(
        task_count,
        results.into_iter().enumerate().map(|(i, slot)| {
            // A missing slot is the protocol violation
            // `collect_in_order` documents.
            (
                i,
                slot.expect("every task before the first panic was claimed"),
            )
        }),
    )
}

impl RdxRunner {
    /// Profiles many streams under this runner's configuration on at
    /// most `jobs` threads; results are in input order.
    ///
    /// See [`profile_batch`] for the execution model, including how
    /// panicking tasks are surfaced.
    #[must_use]
    pub fn profile_batch<S, F>(&self, streams: Vec<F>, jobs: usize) -> Vec<RdxProfile>
    where
        S: AccessStream,
        F: FnOnce() -> S + Send,
    {
        profile_batch(
            streams
                .into_iter()
                .map(|make_stream| BatchTask {
                    config: *self.config(),
                    make_stream,
                })
                .collect(),
            jobs,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdx_workloads::{by_name, DynStream, Params};

    fn workload_params(k: u64) -> Params {
        Params::default()
            .with_accesses(20_000)
            .with_elements(500 + 100 * k)
    }

    fn make_stream(name: &'static str, k: u64) -> impl FnOnce() -> DynStream + Send {
        move || {
            by_name(name)
                .expect("registry workload")
                .stream(&workload_params(k))
        }
    }

    #[test]
    fn empty_batch() {
        let out = profile_batch::<DynStream, fn() -> DynStream>(Vec::new(), 8);
        assert!(out.is_empty());
    }

    #[test]
    fn parallel_equals_sequential_in_order() {
        let tasks = || {
            (0..12u64)
                .map(|k| BatchTask {
                    config: RdxConfig::default().with_period(512 + 64 * k),
                    make_stream: make_stream("zipf", k),
                })
                .collect::<Vec<_>>()
        };
        let seq = profile_batch(tasks(), 1);
        let par = profile_batch(tasks(), 4);
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.rd, b.rd);
            assert_eq!(a.rt, b.rt);
            assert_eq!(a.samples, b.samples);
            assert_eq!(a.m_estimate, b.m_estimate);
        }
    }

    #[test]
    fn oversubscribed_jobs_are_clamped() {
        let runner = RdxRunner::new(RdxConfig::default().with_period(256));
        let streams: Vec<_> = (0..3u64).map(|k| make_stream("stream_triad", k)).collect();
        let out = runner.profile_batch(streams, 64);
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(|p| p.accesses == 20_000));
    }

    #[test]
    fn runner_batch_matches_individual_profiles() {
        let runner = RdxRunner::new(RdxConfig::default().with_period(1024));
        let individual: Vec<_> = (0..4u64)
            .map(|k| runner.profile(make_stream("zipf", k)()))
            .collect();
        let streams: Vec<_> = (0..4u64).map(|k| make_stream("zipf", k)).collect();
        let batched = runner.profile_batch(streams, 4);
        for (a, b) in individual.iter().zip(&batched) {
            assert_eq!(a.rd, b.rd);
            assert_eq!(a.traps, b.traps);
        }
    }

    /// Builds a batch whose task at `poison` panics in its stream
    /// factory with a recognizable payload.
    fn poisoned_tasks(
        n: u64,
        poison: u64,
    ) -> Vec<BatchTask<Box<dyn FnOnce() -> DynStream + Send>>> {
        (0..n)
            .map(|k| {
                let make: Box<dyn FnOnce() -> DynStream + Send> = if k == poison {
                    Box::new(move || panic!("injected failure in task {k}"))
                } else {
                    Box::new(make_stream("zipf", k))
                };
                BatchTask {
                    config: RdxConfig::default().with_period(512),
                    make_stream: make,
                }
            })
            .collect()
    }

    #[test]
    fn worker_panic_is_propagated_with_payload() {
        for jobs in [1, 3] {
            let result = catch_unwind(AssertUnwindSafe(|| {
                profile_batch(poisoned_tasks(6, 2), jobs)
            }));
            let payload = result.expect_err("panicking task must fail the batch loudly");
            let msg = payload
                .downcast_ref::<String>()
                .expect("panic! with format args carries a String");
            assert_eq!(msg, "injected failure in task 2", "jobs={jobs}");
        }
    }

    #[test]
    fn first_panic_in_task_order_wins() {
        // Both task 1 and task 4 panic; whichever thread finishes first,
        // the caller must always see task 1's payload.
        for _ in 0..8 {
            let mut tasks = poisoned_tasks(6, 1);
            let poison4 = poisoned_tasks(6, 4).remove(4);
            tasks[4] = poison4;
            let payload = catch_unwind(AssertUnwindSafe(|| profile_batch(tasks, 4)))
                .expect_err("batch with two poisoned tasks must fail");
            let msg = payload.downcast_ref::<String>().expect("String payload");
            assert_eq!(msg, "injected failure in task 1");
        }
    }

    #[test]
    fn completed_prefix_stays_ordered_when_later_task_panics() {
        // The batch fails loudly, and an identical batch without the
        // poisoned tail yields the same ordered prefix as sequential —
        // the failure mode is "panic", never "fewer/misordered rows".
        let full = catch_unwind(AssertUnwindSafe(|| profile_batch(poisoned_tasks(5, 4), 2)));
        assert!(full.is_err());
        let prefix_tasks = || poisoned_tasks(5, 4).into_iter().take(4).collect::<Vec<_>>();
        let par = profile_batch(prefix_tasks(), 2);
        let seq = profile_batch(prefix_tasks(), 1);
        assert_eq!(par.len(), 4);
        for (a, b) in par.iter().zip(&seq) {
            assert_eq!(a.rd, b.rd);
            assert_eq!(a.samples, b.samples);
        }
    }
}
