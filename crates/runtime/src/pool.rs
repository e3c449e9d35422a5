//! The persistent worker pool.
//!
//! # Architecture
//!
//! * **Lazy one-time spawn** — the pool is constructed empty; the first
//!   parallel job spawns its OS worker threads, and no later call ever spawns
//!   again ([`PoolStats::threads_spawned`] pins this down in tests).
//! * **One claim counter per job** — `run_indexed` pushes one job onto the
//!   pool's list of open jobs. Every participant claims the job's next index
//!   with one `fetch_add` on its `next` counter until none is left, so the
//!   index space is never split, queued or moved between threads.
//! * **The caller helps only its own job** — the submitting thread claims
//!   indices of its job alone, takes the job off the list once nothing is
//!   left to claim, and blocks until the indices still in flight on workers
//!   finish. A nested `run_indexed` (a chunk body that dispatches to the same
//!   pool) therefore never runs another job's chunk inside its own.
//! * **One lock** — the open-job list and the shutdown flag share one mutex.
//!   Submitting, parking and waking all decide under it, so a worker that
//!   finds no claimable index under the lock and waits on the condvar cannot
//!   miss a later submission's notify.
//!
//! # Determinism
//!
//! The pool never decides *what* the chunks are — callers fix the chunk
//! decomposition as a function of input length alone and give every chunk its
//! own output slot. The pool only decides *where and when* each chunk runs,
//! so results are bit-identical across worker counts and claim orders. (See
//! `sidco_tensor::parallel` for the full argument.)

use crate::stats::{PoolStats, StatCells};
use crate::sync::atomic::{AtomicUsize, Ordering};
use crate::sync::{thread, Arc, Condvar, Mutex};
use crate::Runtime;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

/// Shared state of one `run_indexed` call.
struct Job {
    /// The caller's chunk body with its lifetime erased. Safety: an index is
    /// claimed at most once, a claimed index's body call finishes before its
    /// `remaining` decrement, and `run_indexed` blocks until `remaining == 0`
    /// — so the reference is never used after the borrow it was created from
    /// ends. A failed claim never touches the body.
    body: &'static (dyn Fn(usize) + Sync),
    /// The job's index space is `0..tasks`.
    tasks: usize,
    /// The next index to claim; a claim at or past `tasks` finds nothing.
    next: AtomicUsize,
    /// Indices not yet executed; the job is complete at zero.
    remaining: AtomicUsize,
    /// Completion flag + condvar the submitting caller blocks on.
    done: Mutex<bool>,
    done_cv: Condvar,
    /// First panic payload raised by a chunk body, re-raised by the caller.
    panic: Mutex<Option<Box<dyn std::any::Any + Send + 'static>>>,
}

impl Job {
    /// Whether an index is left to claim.
    fn claimable(&self) -> bool {
        // Relaxed: a stale read only sends a worker to a job with nothing
        // left (its claim fails) or past one a later lock scan finds again;
        // exactly-once rests on the `fetch_add` in `run`, not on this load.
        self.next.load(Ordering::Relaxed) < self.tasks
    }

    /// Claims and runs indices until none is left to claim.
    fn run(&self, stats: &StatCells, by_worker: bool) {
        loop {
            // Relaxed: the atomicity of `fetch_add` alone hands every index
            // to exactly one claimant; the chunk's writes are published by
            // the AcqRel `remaining` decrement below, not by the claim.
            let index = self.next.fetch_add(1, Ordering::Relaxed);
            if index >= self.tasks {
                return;
            }
            let outcome = {
                // Spans the chunk body on the executing thread's track.
                let _chunk_span = trace_sink().real_span("chunk");
                catch_unwind(AssertUnwindSafe(|| (self.body)(index)))
            };
            StatCells::bump(&stats.chunks);
            if by_worker {
                StatCells::bump(&stats.worker_chunks);
            }
            if let Err(payload) = outcome {
                let mut slot = self.panic.lock().expect("panic lock poisoned");
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
            // AcqRel: the release publishes this chunk's writes to whoever
            // takes the completion edge; the acquire makes the last
            // decrementer see them all.
            if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                *self.done.lock().expect("job lock poisoned") = true;
                self.done_cv.notify_all();
            }
        }
    }
}

/// What the pool's one lock guards.
struct Open {
    /// Submitted jobs whose caller has not yet taken them off, oldest first.
    jobs: Vec<Arc<Job>>,
    /// Set by `Drop`: a worker with nothing to claim exits instead of parking.
    shutdown: bool,
}

/// State shared by the workers and the submitting callers.
struct PoolShared {
    /// The open jobs and the shutdown flag. Every park, wake and submit
    /// decision is made under this lock.
    open: Mutex<Open>,
    wake: Condvar,
    stats: StatCells,
}

/// The persistent worker pool.
///
/// Cheap to create; worker threads are spawned lazily by the first parallel
/// job and reused for every job thereafter. Dropping the pool asks the
/// workers to exit at their next wake-up (the process-global pools returned
/// by [`crate::handle`] are never dropped).
pub struct WorkerPool {
    threads: usize,
    shared: OnceLock<Arc<PoolShared>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads)
            .field("spawned", &self.is_spawned())
            .finish()
    }
}

impl WorkerPool {
    /// A pool of `threads` workers, spawned on its first parallel job.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn new(threads: usize) -> Self {
        assert!(threads >= 1, "a pool needs at least one worker");
        Self {
            threads,
            shared: OnceLock::new(),
        }
    }

    /// Whether the worker threads have been spawned yet.
    pub fn is_spawned(&self) -> bool {
        self.shared.get().is_some()
    }

    /// A snapshot of the pool's lifetime counters (all zero before the lazy
    /// spawn).
    ///
    /// The snapshot is taken under the pool's lock — the same lock every
    /// park/unpark transition holds — so it is internally consistent:
    /// `parks - unparks == currently_parked` holds in every snapshot, even
    /// while workers are going to sleep or waking up concurrently.
    pub fn stats(&self) -> PoolStats {
        match self.shared.get() {
            Some(shared) => {
                let _guard = shared.open.lock().expect("pool lock poisoned");
                shared.stats.snapshot()
            }
            None => PoolStats::default(),
        }
    }

    /// Spawns the workers exactly once and returns the shared state.
    fn shared(&self) -> &Arc<PoolShared> {
        self.shared.get_or_init(|| {
            let shared = Arc::new(PoolShared {
                open: Mutex::new(Open {
                    jobs: Vec::new(),
                    shutdown: false,
                }),
                wake: Condvar::new(),
                stats: StatCells::new(),
            });
            for id in 0..self.threads {
                let shared = Arc::clone(&shared);
                StatCells::bump(&shared.stats.threads_spawned);
                thread::Builder::new()
                    .name(format!("sidco-pool-{id}"))
                    .spawn(move || worker_loop(&shared))
                    // INVARIANT: spawn only fails on OS resource exhaustion;
                    // a pool that cannot start its workers cannot run at all.
                    .expect("failed to spawn pool worker");
            }
            shared
        })
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        if let Some(shared) = self.shared.get() {
            shared.open.lock().expect("pool lock poisoned").shutdown = true;
            shared.wake.notify_all();
        }
    }
}

impl Runtime for WorkerPool {
    fn parallelism(&self) -> usize {
        self.threads
    }

    fn register_trace_tracks(&self) {
        let sink = trace_sink();
        if sink.enabled() && self.threads > 1 {
            for id in 0..self.threads {
                let _ = sink.track(&format!("sidco-pool-{id}"), sidco_trace::Lane::Real);
            }
        }
    }

    fn run_indexed(&self, tasks: usize, body: &(dyn Fn(usize) + Sync)) {
        if tasks == 0 {
            return;
        }
        if tasks == 1 || self.threads <= 1 {
            crate::run_sequential_to_completion(tasks, body);
            return;
        }
        let shared = self.shared();
        StatCells::bump(&shared.stats.jobs);
        // Spans the whole dispatch→completion window on the caller's track.
        let _job_span = trace_sink().real_span("pool/job");
        // SAFETY: the erased reference is only dereferenced by a successful
        // claim of this job, every claimed index is run before `remaining`
        // is decremented for it, and this function blocks until
        // `remaining == 0` — so no use can outlive the `body` borrow.
        #[allow(unsafe_code)]
        let body_static: &'static (dyn Fn(usize) + Sync) = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(body)
        };
        let job = Arc::new(Job {
            body: body_static,
            tasks,
            next: AtomicUsize::new(0),
            remaining: AtomicUsize::new(tasks),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
            panic: Mutex::new(None),
        });
        {
            let mut open = shared.open.lock().expect("pool lock poisoned");
            open.jobs.push(Arc::clone(&job));
            shared.wake.notify_all();
        }

        // Help with this job only, then take it off the list: nothing is left
        // to claim, so no worker needs to find it again.
        job.run(&shared.stats, false);
        {
            let mut open = shared.open.lock().expect("pool lock poisoned");
            if let Some(at) = open.jobs.iter().position(|other| Arc::ptr_eq(other, &job)) {
                open.jobs.remove(at);
            }
        }
        // Wait for the indices still in flight on workers.
        let mut done = job.done.lock().expect("job lock poisoned");
        while !*done {
            done = job.done_cv.wait(done).expect("job lock poisoned");
        }
        drop(done);
        let payload = job.panic.lock().expect("panic lock poisoned").take();
        if let Some(payload) = payload {
            std::panic::resume_unwind(payload);
        }
    }

    fn stats(&self) -> Option<PoolStats> {
        Some(self.stats())
    }
}

/// The recording sink for pool lifecycle events. One relaxed atomic load when
/// tracing is disabled; events land on the calling thread's own track
/// (workers are named `sidco-pool-{id}`, so each gets a distinct track).
#[cfg(not(sidco_loom))]
fn trace_sink() -> sidco_trace::TraceSink {
    sidco_trace::global_sink()
}

/// Under the loom model the baton-serialized "threads" must not touch the
/// process-wide trace registry (a real mutex), so tracing is compiled out.
#[cfg(sidco_loom)]
fn trace_sink() -> sidco_trace::TraceSink {
    sidco_trace::TraceSink::noop()
}

/// Record an instantaneous lifecycle event (park, unpark) on the calling
/// thread's real-time track.
fn trace_instant(name: &'static str) {
    let sink = trace_sink();
    if sink.enabled() {
        let track = sink.thread_track();
        sink.instant(track, name, sink.real_now());
    }
}

/// The worker main loop: claim from the newest open job with an index left,
/// or park. Newest first, so a nested job's inner indices — which the
/// outer chunk that submitted them waits on — are drained before more outer
/// chunks start.
fn worker_loop(shared: &PoolShared) {
    let mut open = shared.open.lock().expect("pool lock poisoned");
    loop {
        let claimable = open.jobs.iter().rev().find(|job| job.claimable()).cloned();
        if let Some(job) = claimable {
            drop(open);
            job.run(&shared.stats, true);
            open = shared.open.lock().expect("pool lock poisoned");
        } else if open.shutdown {
            return;
        } else {
            // Park accounting transitions under the pool lock (held here and
            // re-acquired by the condvar wait), paired with the
            // `currently_parked` gauge so lock-consistent snapshots always
            // balance: parks - unparks == currently_parked.
            StatCells::bump(&shared.stats.parks);
            shared
                .stats
                .currently_parked
                .fetch_add(1, Ordering::Relaxed);
            trace_instant("park");
            open = shared.wake.wait(open).expect("pool lock poisoned");
            trace_instant("unpark");
            // Relaxed: gauge updated under the pool lock; readers also hold
            // it (see `WorkerPool::stats`).
            shared
                .stats
                .currently_parked
                .fetch_sub(1, Ordering::Relaxed);
            StatCells::bump(&shared.stats.unparks);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::sync::atomic::AtomicU64;
    use std::thread::ThreadId;

    #[test]
    fn pool_runs_every_index_exactly_once() {
        let pool = WorkerPool::new(4);
        for n in [1usize, 2, 3, 7, 64, 500] {
            let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
            pool.run_indexed(n, &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            for (i, hit) in hits.iter().enumerate() {
                assert_eq!(hit.load(Ordering::Relaxed), 1, "index {i} of {n}");
            }
        }
    }

    #[test]
    fn pool_spawns_lazily_and_exactly_once() {
        let pool = WorkerPool::new(3);
        assert!(!pool.is_spawned());
        assert_eq!(pool.stats().threads_spawned, 0);
        // A single task runs inline and must not spawn anything.
        pool.run_indexed(1, &|_| {});
        assert!(!pool.is_spawned());
        for _ in 0..5 {
            pool.run_indexed(32, &|_| {});
        }
        let stats = pool.stats();
        assert!(pool.is_spawned());
        assert_eq!(stats.threads_spawned, 3);
        assert_eq!(stats.jobs, 5);
        assert_eq!(stats.chunks_executed, 5 * 32);
        assert!(stats.worker_chunks <= stats.chunks_executed);
        assert_eq!(stats.steals(), stats.worker_chunks);
    }

    #[test]
    fn nested_jobs_on_the_same_pool_run_every_pair_exactly_once() {
        // A pool job whose body dispatches its own job to the same pool: the
        // trainer does this when a per-worker job compresses on a pooled
        // engine. The inner caller helps from inside a worker, so nesting
        // must neither deadlock nor lose or repeat a chunk.
        const OUTER: usize = 8;
        const INNER: usize = 64;
        for threads in [2usize, 4] {
            let pool = WorkerPool::new(threads);
            let hits: Vec<AtomicU64> = (0..OUTER * INNER).map(|_| AtomicU64::new(0)).collect();
            let before = pool.stats();
            pool.run_indexed(OUTER, &|outer| {
                pool.run_indexed(INNER, &|inner| {
                    hits[outer * INNER + inner].fetch_add(1, Ordering::Relaxed);
                });
            });
            for (pair, hit) in hits.iter().enumerate() {
                assert_eq!(
                    hit.load(Ordering::Relaxed),
                    1,
                    "pair ({}, {}) at {threads} workers",
                    pair / INNER,
                    pair % INNER
                );
            }
            let delta = pool.stats().since(&before);
            assert_eq!(delta.chunks_executed, (OUTER + OUTER * INNER) as u64);
            assert_eq!(delta.jobs, (1 + OUTER) as u64);
        }
    }

    #[test]
    fn nested_fan_outs_never_run_an_outer_chunk_inside_another() {
        // A thread inside an outer chunk waits for its inner job; if it
        // helped with any queued chunk, it could start a second outer chunk
        // on its own stack, and so on, one inside another.
        const OUTER: usize = 16;
        const INNER: usize = 8;
        thread_local! {
            static OUTER_DEPTH: Cell<usize> = const { Cell::new(0) };
        }
        let pool = WorkerPool::new(2);
        let deepest = AtomicU64::new(0);
        for _ in 0..20 {
            pool.run_indexed(OUTER, &|_| {
                let depth = OUTER_DEPTH.with(|d| {
                    d.set(d.get() + 1);
                    d.get()
                });
                deepest.fetch_max(depth as u64, Ordering::Relaxed);
                pool.run_indexed(INNER, &|inner| {
                    std::hint::black_box(inner);
                });
                OUTER_DEPTH.with(|d| d.set(d.get() - 1));
            });
        }
        assert_eq!(deepest.load(Ordering::Relaxed), 1, "outer chunks nested");
    }

    #[test]
    fn no_caller_thread_runs_another_callers_chunk() {
        const CALLERS: usize = 4;
        const JOBS: usize = 20;
        const CHUNKS: usize = 32;
        let pool = WorkerPool::new(3);
        // Every caller submits its next job at the same moment.
        let start = std::sync::Barrier::new(CALLERS);
        // (caller, thread that ran the chunk) for every chunk of every job.
        let ran = std::sync::Mutex::new(Vec::<(usize, ThreadId)>::new());
        let callers: Vec<ThreadId> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..CALLERS)
                .map(|caller| {
                    let (pool, start, ran) = (&pool, &start, &ran);
                    s.spawn(move || {
                        for _ in 0..JOBS {
                            start.wait();
                            pool.run_indexed(CHUNKS, &|_| {
                                // A little work per chunk keeps the callers'
                                // jobs open together.
                                (0..2000u64).for_each(|k| {
                                    std::hint::black_box(k);
                                });
                                let me = std::thread::current().id();
                                ran.lock().expect("probe lock poisoned").push((caller, me));
                            });
                        }
                    })
                })
                .collect();
            handles.iter().map(|h| h.thread().id()).collect()
        });
        let ran = ran.into_inner().expect("probe lock poisoned");
        assert_eq!(ran.len(), CALLERS * JOBS * CHUNKS);
        for (caller, on) in ran {
            if let Some(other) = callers.iter().position(|id| *id == on) {
                assert_eq!(
                    other, caller,
                    "caller {other} ran a chunk of caller {caller}"
                );
            }
        }
    }

    #[test]
    fn pool_results_are_written_to_caller_slots() {
        let pool = WorkerPool::new(2);
        let slots: Vec<Mutex<Option<u64>>> = (0..200).map(|_| Mutex::new(None)).collect();
        pool.run_indexed(200, &|i| {
            *slots[i].lock().expect("slot lock poisoned") = Some((i as u64) * 3);
        });
        for (i, slot) in slots.iter().enumerate() {
            assert_eq!(
                slot.lock().expect("slot lock poisoned").unwrap(),
                (i as u64) * 3
            );
        }
    }

    #[test]
    fn concurrent_jobs_from_many_callers_all_complete() {
        let pool = WorkerPool::new(3);
        let total = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..10 {
                        pool.run_indexed(50, &|_| {
                            total.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 4 * 10 * 50);
    }

    #[test]
    fn panics_in_chunk_bodies_propagate_to_the_caller() {
        let pool = WorkerPool::new(2);
        let hits: Vec<AtomicU64> = (0..64).map(|_| AtomicU64::new(0)).collect();
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run_indexed(64, &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
                assert!(i != 17, "chunk 17 exploded");
            });
        }));
        assert!(result.is_err(), "the chunk panic must reach the caller");
        for (i, hit) in hits.iter().enumerate() {
            assert_eq!(hit.load(Ordering::Relaxed), 1, "index {i}");
        }
        // The pool survives and keeps executing later jobs.
        let count = AtomicU64::new(0);
        pool.run_indexed(64, &|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn nested_panics_reach_the_outer_caller_after_every_index_ran() {
        const OUTER: usize = 6;
        const INNER: usize = 5;
        let pool = WorkerPool::new(2);
        let hits: Vec<AtomicU64> = (0..OUTER * INNER).map(|_| AtomicU64::new(0)).collect();
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run_indexed(OUTER, &|outer| {
                pool.run_indexed(INNER, &|inner| {
                    hits[outer * INNER + inner].fetch_add(1, Ordering::Relaxed);
                    assert!((outer, inner) != (3, 2), "inner chunk (3, 2) exploded");
                });
            });
        }));
        assert!(
            result.is_err(),
            "the inner panic must reach the outer caller"
        );
        for (pair, hit) in hits.iter().enumerate() {
            assert_eq!(hit.load(Ordering::Relaxed), 1, "pair {pair}");
        }
    }

    #[test]
    fn callers_take_their_jobs_off_the_open_list() {
        // A job left on the list after its call returned would be scanned by
        // every worker that looks for work, for the rest of the process.
        let pool = WorkerPool::new(2);
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    for _ in 0..10 {
                        pool.run_indexed(4, &|_| pool.run_indexed(3, &|_| {}));
                    }
                });
            }
        });
        let shared = pool.shared.get().expect("the pool spawned");
        assert!(shared
            .open
            .lock()
            .expect("pool lock poisoned")
            .jobs
            .is_empty());
    }

    #[test]
    fn park_accounting_balances_in_every_snapshot() {
        let pool = WorkerPool::new(4);
        for _ in 0..20 {
            pool.run_indexed(64, &|_| {});
            let stats = pool.stats();
            assert_eq!(
                stats.parks - stats.unparks,
                stats.currently_parked,
                "lock-consistent snapshots must balance parks against wakes"
            );
        }
        // Let the workers drain and park; the balance must keep holding as
        // they transition to sleep.
        for _ in 0..50 {
            let stats = pool.stats();
            assert_eq!(stats.parks - stats.unparks, stats.currently_parked);
            if stats.currently_parked == 4 {
                break;
            }
            std::thread::yield_now();
        }
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_rejected() {
        WorkerPool::new(0);
    }
}
