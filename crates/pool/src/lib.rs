#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Shared thread pools (std threads only; crates.io is unreachable, so no
//! crossbeam or rayon). Two shapes, two lifecycles:
//!
//! * [`run_stream`] / [`ordered_map`] / [`ordered_map_unwrap`] — a *scoped*
//!   work-stealing parallel-for. Threads are spawned per call inside
//!   `std::thread::scope`, so the closure may borrow from the caller's
//!   stack. Right for coarse tasks (one simulation, one BFS row batch)
//!   where the microseconds of thread spawn are noise. Lifted verbatim
//!   from the fleet, which remains its heaviest user.
//! * [`WorkerPool`] — a *persistent* pool of parked workers fed over a
//!   shared channel. Jobs are `'static` boxed closures; results come back
//!   keyed by submission index. Right for fine-grained fan-out where
//!   spawning threads every call would dominate the work. Its one user,
//!   the engine's parallel candidate pre-pass, was deleted (`DESIGN.md`
//!   §13); only the repo benchmark's round-trip probe still constructs
//!   one, and the type goes when that probe does. Shared data crosses
//!   into jobs via `Arc` handoff — the caller temporarily parts with
//!   ownership and reclaims it with `Arc::try_unwrap` after the batch
//!   completes.
//!
//! Work-stealing architecture of the scoped pool: all tasks start in a
//! global FIFO *injector*; each worker owns a local deque it refills from
//! the injector in small batches and works through front-to-back; a worker
//! whose local deque and the injector are both empty *steals* one task from
//! the back of a victim's deque (scanning victims in deterministic
//! round-robin order from its own slot). Tasks never re-enter a queue once
//! claimed, so an all-empty scan is a correct termination condition.
//!
//! Results stream back over an `mpsc` channel to the *caller's* thread,
//! keyed by task index, so the consumer never needs a lock and the
//! completion order is free to be nondeterministic — determinism is the
//! consumer's job (sort by index before any arithmetic).
//!
//! Panic isolation: each scoped task runs under `catch_unwind`; a panicking
//! task yields `Err(payload)` for its index and the pool keeps running.
//! [`WorkerPool`] jobs are also guarded — a panicking job poisons only its
//! own batch (the collecting caller panics with the payload), and the
//! worker thread survives to serve later batches.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};

/// How many tasks a worker moves from the injector to its local deque per
/// refill. Small enough that stealing stays effective on skewed workloads.
const REFILL_BATCH: usize = 4;

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

/// The shared queues: one injector plus one deque per worker.
struct Queues<T> {
    injector: Mutex<VecDeque<(usize, T)>>,
    locals: Vec<Mutex<VecDeque<(usize, T)>>>,
}

impl<T> Queues<T> {
    /// Claim the next task for worker `w`: local front, else injector batch
    /// refill, else steal one from a victim's back. `None` = nothing left
    /// anywhere, worker may exit.
    fn claim(&self, w: usize) -> Option<(usize, T)> {
        if let Some(t) = self.locals[w].lock().expect("local deque").pop_front() {
            return Some(t);
        }
        {
            let mut inj = self.injector.lock().expect("injector");
            if let Some(first) = inj.pop_front() {
                let mut local = self.locals[w].lock().expect("local deque");
                for _ in 1..REFILL_BATCH {
                    match inj.pop_front() {
                        Some(t) => local.push_back(t),
                        None => break,
                    }
                }
                return Some(first);
            }
        }
        let n = self.locals.len();
        for off in 1..n {
            let victim = (w + off) % n;
            if let Some(t) = self.locals[victim].lock().expect("victim deque").pop_back() {
                return Some(t);
            }
        }
        None
    }
}

/// Fan `items` out over `jobs` worker threads and stream `(index, result)`
/// pairs into `sink` **on the calling thread**, in completion order (i.e.
/// nondeterministic for `jobs > 1`). A task that panics is delivered as
/// `Err(panic payload)` and does not disturb the other tasks or the pool.
///
/// `jobs <= 1` runs everything inline on the calling thread in index order
/// — same closure, same guarded execution, zero threads — which is the
/// fleet's `--jobs 1` sequential reference path.
pub fn run_stream<T, R, F, S>(items: Vec<T>, jobs: usize, f: &F, mut sink: S)
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
    S: FnMut(usize, Result<R, String>),
{
    let n = items.len();
    let jobs = jobs.max(1).min(n.max(1));
    if jobs == 1 {
        for (i, item) in items.into_iter().enumerate() {
            let r = run_guarded(f, i, item);
            sink(i, r);
        }
        return;
    }
    let queues = Queues {
        injector: Mutex::new(items.into_iter().enumerate().collect()),
        locals: (0..jobs).map(|_| Mutex::new(VecDeque::new())).collect(),
    };
    let (tx, rx) = mpsc::channel::<(usize, Result<R, String>)>();
    std::thread::scope(|scope| {
        for w in 0..jobs {
            let tx = tx.clone();
            let queues = &queues;
            scope.spawn(move || {
                while let Some((i, item)) = queues.claim(w) {
                    let r = run_guarded(f, i, item);
                    if tx.send((i, r)).is_err() {
                        break;
                    }
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
        for jobs in [1, 2, 4, 8] {
            let out = ordered_map_unwrap(items.clone(), jobs, |_, x| x * 3);
            assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn panicking_task_is_isolated() {
        for jobs in [1, 4] {
            let out = ordered_map((0..10).collect::<Vec<u32>>(), jobs, |_, x| {
                if x == 3 {
                    panic!("task {x} exploded");
                }
                x + 1
            });
            assert_eq!(out.len(), 10);
            for (i, r) in out.iter().enumerate() {
                if i == 3 {
                    assert_eq!(r.as_ref().unwrap_err(), "task 3 exploded");
                } else {
                    assert_eq!(*r.as_ref().unwrap(), i as u32 + 1);
                }
            }
        }
    }

    #[test]
    fn stream_delivers_every_index_exactly_once() {
        let mut seen = [0u32; 40];
        run_stream((0..40).collect::<Vec<usize>>(), 4, &|_, x| x, |i, r| {
            assert_eq!(r.unwrap(), i);
            seen[i] += 1;
        });
        assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    fn empty_input_is_fine() {
        let out = ordered_map(Vec::<u8>::new(), 8, |_, x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn skewed_workloads_get_stolen() {
        // One long task first; with 2 workers the remaining tasks must not
        // all wait behind it. We can't assert timing, but we can assert the
        // pool completes with a task distribution that required stealing
        // (the long task plus all short ones finish).
        let out = ordered_map_unwrap((0..16).collect::<Vec<u64>>(), 2, |_, x| {
            if x == 0 {
                std::thread::sleep(std::time::Duration::from_millis(30));
            }
            x
        });
        assert_eq!(out.len(), 16);
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
