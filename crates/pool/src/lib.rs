#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! The one place this repo starts a second thread (std threads only;
//! crates.io is unreachable, so no crossbeam or rayon).
//!
//! [`run_stream`] / [`ordered_map`] / [`ordered_map_unwrap`] are a *scoped*
//! parallel-for: threads are spawned per call inside `std::thread::scope`,
//! so the closure may borrow from the caller's stack. Tasks are coarse —
//! one simulation, one figure cell — so the microseconds of thread spawn
//! are noise, and scheduling is one shared cursor: the workers pull the
//! next `(index, item)` from a mutex-guarded enumerated iterator, which is
//! greedy list scheduling (a free worker takes the next task, so nothing
//! queues behind a long one).
//!
//! Results stream back over an `mpsc` channel to the *caller's* thread,
//! keyed by task index, so the consumer never needs a lock and the
//! completion order is free to be nondeterministic — determinism is the
//! consumer's job (sort by index before any arithmetic).
//!
//! Panic isolation: each task runs under `catch_unwind`, outside the
//! cursor's lock; a panicking task yields `Err(payload)` for its index and
//! every other task still runs.
//!
//! [`WorkerPool`] is a benchmark-gated residue: a *persistent* pool of
//! parked workers fed `'static` boxed closures over a shared channel. Its
//! one user, the engine's parallel candidate pre-pass, was deleted
//! (`DESIGN.md` §13); only the repo benchmark's round-trip probe still
//! constructs one, and the type goes when that probe does. A panicking job
//! fails only its own batch, and the worker survives to serve later ones.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};

/// Render a panic payload as a printable string.
fn payload_to_string(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run one task under `catch_unwind`, converting a panic into `Err`.
fn run_guarded<T, R>(
    f: &(impl Fn(usize, T) -> R + Sync),
    index: usize,
    item: T,
) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(|| f(index, item))).map_err(payload_to_string)
}

/// Fan `items` out over `jobs` worker threads — `0` = one per
/// `std::thread::available_parallelism()`, 1 if the platform cannot say — and
/// stream `(index, result)` pairs into `sink` **on the calling thread**, in
/// completion order (i.e. nondeterministic for more than one worker). A
/// task that panics is delivered as `Err(panic payload)` and does not
/// disturb the other tasks or later calls.
///
/// One worker runs everything inline on the calling thread in index order
/// — same closure, same guarded execution, zero threads — which is the
/// fleet's `--jobs 1` sequential reference path.
pub fn run_stream<T, R, F, S>(items: Vec<T>, jobs: usize, f: &F, mut sink: S)
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
    S: FnMut(usize, Result<R, String>),
{
    // The one place `0` is resolved, because the one place threads start.
    let workers = match jobs {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
    .min(items.len());
    if workers <= 1 {
        for (i, item) in items.into_iter().enumerate() {
            let r = run_guarded(f, i, item);
            sink(i, r);
        }
        return;
    }
    let cursor = Mutex::new(items.into_iter().enumerate());
    let (tx, rx) = mpsc::channel::<(usize, Result<R, String>)>();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let cursor = &cursor;
            scope.spawn(move || loop {
                // The guard is a temporary of this statement: the lock is
                // released before the task runs, so a panicking task cannot
                // poison it.
                let next = cursor.lock().expect("no task runs under the lock").next();
                let Some((i, item)) = next else { break };
                if tx.send((i, run_guarded(f, i, item))).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        while let Ok((i, r)) = rx.recv() {
            sink(i, r);
        }
    });
}

/// As [`run_stream`], but collect results back into input order. The output
/// always has one entry per input; panicked tasks appear as `Err`.
pub fn ordered_map<T, R, F>(items: Vec<T>, jobs: usize, f: F) -> Vec<Result<R, String>>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    let mut slots: Vec<Option<Result<R, String>>> = (0..n).map(|_| None).collect();
    run_stream(items, jobs, &f, |i, r| {
        debug_assert!(slots[i].is_none(), "index delivered twice");
        slots[i] = Some(r);
    });
    slots
        .into_iter()
        .map(|s| s.expect("every index delivered"))
        .collect()
}

/// As [`ordered_map`], re-raising the first (lowest-index) task panic on
/// the calling thread — the drop-in replacement for a plain parallel map
/// where a panic should still fail the program.
pub fn ordered_map_unwrap<T, R, F>(items: Vec<T>, jobs: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    ordered_map(items, jobs, f)
        .into_iter()
        .map(|r| r.unwrap_or_else(|e| panic!("worker task panicked: {e}")))
        .collect()
}

// ---------------------------------------------------------------------
// Persistent worker pool
// ---------------------------------------------------------------------

/// One unit of work for a [`WorkerPool`] worker, or the shutdown signal.
enum Job {
    Run(Box<dyn FnOnce() + Send + 'static>),
    Exit,
}

/// A persistent pool of parked worker threads fed over one shared channel.
///
/// Unlike the scoped [`run_stream`], workers outlive any single batch: the
/// pool is built once (e.g. per simulator) and each [`WorkerPool::submit`]
/// costs only channel sends — no thread spawn, no `thread::scope` barrier
/// setup. The price is that jobs must be `'static`: borrowed data cannot
/// cross into a worker, so callers hand shared state over via `Arc` clones
/// and reclaim it with `Arc::try_unwrap` once the batch has been collected
/// (every worker drops its clone before reporting its result).
///
/// Dropping the pool shuts it down: each worker receives an `Exit` job and
/// is joined, so no thread outlives the pool handle.
pub struct WorkerPool {
    tx: mpsc::Sender<Job>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.handles.len())
            .finish()
    }
}

/// An in-flight batch of [`WorkerPool`] jobs; [`Batch::collect`] blocks
/// until every job has reported and returns results in submission order.
#[must_use = "a batch does nothing until collected"]
pub struct Batch<R> {
    rx: mpsc::Receiver<(usize, Result<R, String>)>,
    n: usize,
}

impl<R> Batch<R> {
    /// Wait for every job in the batch and return their results in
    /// submission order.
    ///
    /// # Panics
    ///
    /// Re-raises the first (lowest-index) job panic as a panic on the
    /// calling thread. The workers themselves survive.
    pub fn collect(self) -> Vec<R> {
        let mut slots: Vec<Option<Result<R, String>>> = (0..self.n).map(|_| None).collect();
        for _ in 0..self.n {
            let (i, r) = self.rx.recv().expect("worker delivers every job");
            debug_assert!(slots[i].is_none(), "job index delivered twice");
            slots[i] = Some(r);
        }
        slots
            .into_iter()
            .map(|s| match s.expect("every job delivered") {
                Ok(r) => r,
                Err(e) => panic!("pool job panicked: {e}"),
            })
            .collect()
    }
}

impl WorkerPool {
    /// Spawn `workers` parked threads (at least one).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let (tx, rx) = mpsc::channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let handles = (0..workers)
            .map(|_| {
                let rx = Arc::clone(&rx);
                std::thread::spawn(move || loop {
                    // Hold the receiver lock only for the blocking recv —
                    // never across job execution — so a panicking job can
                    // not poison the channel for its siblings.
                    let job = rx.lock().expect("pool receiver").recv();
                    match job {
                        Ok(Job::Run(f)) => {
                            // Guarded: the worker must survive a panicking
                            // job to serve later batches. The missing
                            // result is reported through the job's own
                            // result channel (see `submit`).
                            let _ = catch_unwind(AssertUnwindSafe(f));
                        }
                        Ok(Job::Exit) | Err(_) => break,
                    }
                })
            })
            .collect();
        WorkerPool { tx, handles }
    }

    /// The number of worker threads.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Enqueue a batch of jobs and return a [`Batch`] handle; the calling
    /// thread is free to do its own share of the work before collecting.
    /// Results come back in submission order regardless of which worker
    /// ran which job.
    pub fn submit<R, F>(&self, jobs: Vec<F>) -> Batch<R>
    where
        R: Send + 'static,
        F: FnOnce() -> R + Send + 'static,
    {
        let n = jobs.len();
        let (rtx, rrx) = mpsc::channel::<(usize, Result<R, String>)>();
        for (i, job) in jobs.into_iter().enumerate() {
            let rtx = rtx.clone();
            let wrapped = Box::new(move || {
                let r = catch_unwind(AssertUnwindSafe(job)).map_err(payload_to_string);
                let _ = rtx.send((i, r));
            });
            self.tx
                .send(Job::Run(wrapped))
                .expect("pool workers outlive the handle");
        }
        Batch { rx: rrx, n }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        for _ in &self.handles {
            let _ = self.tx.send(Job::Exit);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_map_preserves_order_any_job_count() {
        let items: Vec<u64> = (0..53).collect();
        for jobs in [0, 1, 2, 4, 8] {
            let out = ordered_map_unwrap(items.clone(), jobs, |_, x| x * 3);
            assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn every_index_is_delivered_exactly_once() {
        // 0 = one worker per core; 8 > 3 covers more workers than items.
        for jobs in [0, 1, 2, 8] {
            for n in [0usize, 3, 40] {
                let mut seen = vec![0u32; n];
                run_stream((0..n).collect(), jobs, &|_, x: usize| x, |i, r| {
                    assert_eq!(r.unwrap(), i);
                    seen[i] += 1;
                });
                assert!(seen.iter().all(|&c| c == 1), "jobs {jobs}, {n} items");
            }
        }
    }

    #[test]
    fn a_long_first_task_does_not_hold_the_short_ones() {
        // Task 0 finishes only once the sink has seen the other fifteen, so
        // they cannot be queued behind it: the second worker has to pull
        // them all off the cursor. (A scheduler that parked any of them
        // behind task 0 fails the order check once the timeout lets go.)
        let (release, gate) = mpsc::channel::<()>();
        let gate = Mutex::new(gate);
        let mut order = Vec::new();
        run_stream(
            (0..16).collect::<Vec<u64>>(),
            2,
            &|_, x| {
                if x == 0 {
                    let _ = gate
                        .lock()
                        .expect("only task 0 takes the gate")
                        .recv_timeout(std::time::Duration::from_secs(10));
                }
                x
            },
            |i, r| {
                assert_eq!(r.unwrap(), i as u64);
                order.push(i);
                if order.len() == 15 {
                    let _ = release.send(());
                }
            },
        );
        assert_eq!(order.len(), 16);
        assert_eq!(order.last(), Some(&0), "{order:?}");
    }

    #[test]
    fn panicking_task_is_isolated() {
        // The panicking task sits between slow ones; its `Err` is delivered,
        // every later index still runs, and the next call works (nothing
        // the workers share was poisoned).
        for jobs in [1, 2, 8] {
            let out = ordered_map((0..24u64).collect(), jobs, |_, x| {
                if x % 5 == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
                if x == 11 {
                    panic!("task {x} exploded");
                }
                x * 2
            });
            for (i, r) in out.iter().enumerate() {
                match i {
                    11 => assert_eq!(r.as_ref().unwrap_err(), "task 11 exploded"),
                    _ => assert_eq!(*r.as_ref().unwrap(), i as u64 * 2, "jobs {jobs}"),
                }
            }
            let again = ordered_map_unwrap((0..24u64).collect(), jobs, |_, x| x + 1);
            assert_eq!(again, (1..=24).collect::<Vec<u64>>());
        }
    }

    #[test]
    fn worker_pool_returns_results_in_submission_order() {
        let pool = WorkerPool::new(3);
        for round in 0..20u64 {
            let jobs: Vec<_> = (0..17u64).map(|i| move || i * 10 + round).collect();
            let out = pool.submit(jobs).collect();
            assert_eq!(out, (0..17u64).map(|i| i * 10 + round).collect::<Vec<_>>());
        }
    }

    #[test]
    fn worker_pool_arc_handoff_round_trips() {
        // The engine's per-cycle pattern: hand shared state to the workers
        // via Arc clones, collect, then reclaim unique ownership.
        let pool = WorkerPool::new(2);
        let data = Arc::new(vec![1u64, 2, 3, 4, 5, 6, 7, 8]);
        let jobs: Vec<_> = (0..4usize)
            .map(|s| {
                let data = Arc::clone(&data);
                move || data[s * 2] + data[s * 2 + 1]
            })
            .collect();
        let sums = pool.submit(jobs).collect();
        assert_eq!(sums, vec![3, 7, 11, 15]);
        let data = Arc::try_unwrap(data).expect("workers released their clones");
        assert_eq!(data.len(), 8);
    }

    #[test]
    fn worker_pool_survives_a_panicking_job() {
        let pool = WorkerPool::new(2);
        let jobs: Vec<Box<dyn FnOnce() -> u32 + Send>> = vec![
            Box::new(|| 1),
            Box::new(|| panic!("job exploded")),
            Box::new(|| 3),
        ];
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| pool.submit(jobs).collect()));
        assert!(result.is_err(), "panicking job must fail the batch");
        // The workers survived and serve the next batch.
        let out = pool.submit((0..8u32).map(|i| move || i + 1).collect::<Vec<_>>());
        assert_eq!(out.collect(), (1..=8).collect::<Vec<_>>());
    }

    #[test]
    fn worker_pool_empty_batch_is_fine() {
        let pool = WorkerPool::new(1);
        let out: Vec<u8> = pool.submit(Vec::<fn() -> u8>::new()).collect();
        assert!(out.is_empty());
    }
}
