//! The persistent work-stealing pool.
//!
//! # Architecture
//!
//! * **Lazy one-time spawn** — the pool is constructed empty; the first
//!   parallel job spawns its OS worker threads, and no later call ever spawns
//!   again ([`PoolStats::threads_spawned`] pins this down in tests).
//! * **Chase–Lev deques** — each worker owns a [`crossbeam::deque::Worker`]
//!   it pushes split-off subranges onto (owner-LIFO, thief-FIFO); every other
//!   worker holds a [`crossbeam::deque::Stealer`] onto it.
//! * **One injector** — a job's chunk index space is submitted to a single
//!   shared [`Injector`], pre-split into one contiguous piece per worker so
//!   every worker can start without stealing. Workers look for work in the
//!   order own deque → injector → the other workers' deques; a helping
//!   caller, which has no deque, starts at the injector.
//! * **Parked idle workers** — out-of-work workers sleep on a condvar after
//!   re-checking every queue under the sleep lock (no lost wakeups);
//!   submission and task splitting wake them.
//!
//! # Determinism
//!
//! The pool never decides *what* the chunks are — callers fix the chunk
//! decomposition as a function of input length alone and give every chunk its
//! own output slot. The pool only decides *where and when* each chunk runs,
//! so results are bit-identical across worker counts and steal orders. (See
//! `sidco_tensor::parallel` for the full argument.)

use crate::stats::{PoolStats, StatCells};
use crate::sync::atomic::{fence, AtomicUsize, Ordering};
use crate::sync::{thread, Arc, Condvar, Mutex};
use crate::Runtime;
use crossbeam::deque::{Injector, Stealer, Worker};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

/// A unit of pool work: a contiguous range of chunk indices of one job.
struct Task {
    job: Arc<JobShared>,
    start: usize,
    end: usize,
}

/// Shared state of one `run_indexed` call.
struct JobShared {
    /// The caller's chunk body with its lifetime erased. Safety: `run_indexed`
    /// blocks until `remaining == 0`, and every task dereferences the body
    /// *before* decrementing `remaining`, so the reference is never used after
    /// the borrow it was created from ends.
    body: &'static (dyn Fn(usize) + Sync),
    /// Chunks not yet executed; the job is complete at zero.
    remaining: AtomicUsize,
    /// Completion flag + condvar the submitting caller blocks on.
    done: Mutex<bool>,
    done_cv: Condvar,
    /// First panic payload raised by a chunk body, re-raised by the caller.
    panic: Mutex<Option<Box<dyn std::any::Any + Send + 'static>>>,
}

/// State shared by the workers, the stealers and the submitting callers.
struct PoolShared {
    /// The submission queue every job's pieces (and every split-off range of
    /// a helping caller) enter through.
    injector: Injector<Task>,
    /// One stealer per worker deque.
    stealers: Vec<Stealer<Task>>,
    /// Sleep lock: guards the shutdown flag and serialises the park/wake
    /// protocol (workers re-check all queues under this lock before waiting,
    /// so a wake posted after a push can never be lost).
    sleep: Mutex<bool>,
    wake: Condvar,
    /// Number of workers currently blocked in `wake.wait` (wake hint).
    sleepers: AtomicUsize,
    stats: StatCells,
}

/// Who is executing: a pool worker (with its own deque) or a helping caller.
enum Executor<'a> {
    Worker { id: usize, deque: &'a Worker<Task> },
    Caller,
}

/// The persistent work-stealing runtime.
///
/// Cheap to create; worker threads are spawned lazily by the first parallel
/// job and reused for every job thereafter. Dropping the pool asks the
/// workers to exit at their next wake-up (the process-global pools returned
/// by [`crate::handle`] are never dropped).
pub struct WorkStealing {
    threads: usize,
    shared: OnceLock<Arc<PoolShared>>,
}

impl std::fmt::Debug for WorkStealing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkStealing")
            .field("threads", &self.threads)
            .field("spawned", &self.is_spawned())
            .finish()
    }
}

impl WorkStealing {
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
    /// The snapshot is taken under the sleep lock — the same lock every
    /// park/unpark transition holds — so it is internally consistent:
    /// `parks - unparks == currently_parked` holds in every snapshot, even
    /// while workers are going to sleep or waking up concurrently.
    pub fn stats(&self) -> PoolStats {
        match self.shared.get() {
            Some(shared) => {
                let _guard = shared.sleep.lock().expect("sleep lock poisoned");
                shared.stats.snapshot()
            }
            None => PoolStats::default(),
        }
    }

    /// Spawns the workers exactly once and returns the shared state.
    fn shared(&self) -> &Arc<PoolShared> {
        self.shared.get_or_init(|| {
            let deques: Vec<Worker<Task>> = (0..self.threads).map(|_| Worker::new_lifo()).collect();
            let stealers = deques.iter().map(Worker::stealer).collect();
            let shared = Arc::new(PoolShared {
                injector: Injector::new(),
                stealers,
                sleep: Mutex::new(false),
                wake: Condvar::new(),
                sleepers: AtomicUsize::new(0),
                stats: StatCells::new(),
            });
            for (id, deque) in deques.into_iter().enumerate() {
                let shared = Arc::clone(&shared);
                StatCells::bump(&shared.stats.threads_spawned);
                thread::Builder::new()
                    .name(format!("sidco-pool-{id}"))
                    .spawn(move || worker_loop(&shared, id, &deque))
                    // INVARIANT: spawn only fails on OS resource exhaustion;
                    // a pool that cannot start its workers cannot run at all.
                    .expect("failed to spawn pool worker");
            }
            shared
        })
    }
}

impl Drop for WorkStealing {
    fn drop(&mut self) {
        if let Some(shared) = self.shared.get() {
            *shared.sleep.lock().expect("sleep lock poisoned") = true;
            shared.wake.notify_all();
        }
    }
}

impl Runtime for WorkStealing {
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
        // SAFETY: the erased reference is only dereferenced by tasks of this
        // job, every task dereferences it before decrementing `remaining`,
        // and this function blocks until `remaining == 0` — so no use can
        // outlive the `body` borrow.
        let body_static: &'static (dyn Fn(usize) + Sync) = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(body)
        };
        let job = Arc::new(JobShared {
            body: body_static,
            remaining: AtomicUsize::new(tasks),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
            panic: Mutex::new(None),
        });

        // Submit the chunk range to the injector, pre-split into one
        // contiguous piece per worker so every worker can start without
        // stealing; stealing rebalances from there.
        let per = tasks.div_ceil(self.threads.min(tasks));
        for start in (0..tasks).step_by(per) {
            shared.injector.push(Task {
                job: Arc::clone(&job),
                start,
                end: (start + per).min(tasks),
            });
        }
        // Wake every parked worker (under the sleep lock, after the pushes,
        // so the park-side re-check cannot miss the new work).
        {
            let _guard = shared.sleep.lock().expect("sleep lock poisoned");
            shared.wake.notify_all();
        }

        // Help until the job completes: the caller steals like a worker
        // (without a deque of its own), then blocks on the completion condvar
        // once the queues run dry — remaining chunks are in flight on workers.
        loop {
            if *job.done.lock().expect("job lock poisoned") {
                break;
            }
            match find_task(shared, &Executor::Caller) {
                Some(task) => execute(shared, &Executor::Caller, task),
                None => {
                    let mut done = job.done.lock().expect("job lock poisoned");
                    while !*done {
                        done = job.done_cv.wait(done).expect("job lock poisoned");
                    }
                    break;
                }
            }
        }
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

/// Record an instantaneous lifecycle event (steal, park, unpark) on the
/// calling thread's real-time track.
fn trace_instant(name: &'static str) {
    let sink = trace_sink();
    if sink.enabled() {
        let track = sink.thread_track();
        sink.instant(track, name, sink.real_now());
    }
}

/// The worker main loop: find a task or park.
fn worker_loop(shared: &Arc<PoolShared>, id: usize, deque: &Worker<Task>) {
    let me = Executor::Worker { id, deque };
    loop {
        match find_task(shared, &me) {
            Some(task) => execute(shared, &me, task),
            None => {
                let mut shutdown = shared.sleep.lock().expect("sleep lock poisoned");
                if *shutdown {
                    return;
                }
                // Eventcount protocol: register as a sleeper *before* the
                // queue re-check. An exposer pushes, fences, then reads
                // `sleepers`; reading 0 there means our registration had not
                // happened yet, which orders our re-check after its push —
                // so we see the work here. Reading >0 makes it take the
                // sleep lock and notify, which covers the waiting branch.
                shared.sleepers.fetch_add(1, Ordering::SeqCst);
                fence(Ordering::SeqCst);
                if has_work(shared) {
                    shared.sleepers.fetch_sub(1, Ordering::SeqCst);
                    continue;
                }
                // Park accounting transitions under the sleep lock (held
                // here and re-acquired by the condvar wait), paired with the
                // `currently_parked` gauge so lock-consistent snapshots
                // always balance: parks - unparks == currently_parked.
                StatCells::bump(&shared.stats.parks);
                shared
                    .stats
                    .currently_parked
                    .fetch_add(1, Ordering::Relaxed);
                trace_instant("park");
                shutdown = shared.wake.wait(shutdown).expect("sleep lock poisoned");
                trace_instant("unpark");
                // SeqCst: pairs with the SeqCst fence + sleepers load on the
                // submit side, closing the park/submit race (eventcount).
                shared.sleepers.fetch_sub(1, Ordering::SeqCst);
                // Relaxed: gauge updated under the sleep lock; readers also
                // hold it (see `WorkStealing::stats`).
                shared
                    .stats
                    .currently_parked
                    .fetch_sub(1, Ordering::Relaxed);
                StatCells::bump(&shared.stats.unparks);
                if *shutdown {
                    return;
                }
            }
        }
    }
}

/// Any queue non-empty?
fn has_work(shared: &PoolShared) -> bool {
    !shared.injector.is_empty() || shared.stealers.iter().any(|s| !s.is_empty())
}

/// Looks for a task: a worker tries its own deque, then the injector, then
/// the other workers' deques in worker order; a helping caller skips the
/// first step.
fn find_task(shared: &PoolShared, who: &Executor<'_>) -> Option<Task> {
    let id = match who {
        Executor::Worker { id, deque } => {
            if let Some(task) = deque.pop() {
                StatCells::bump(&shared.stats.local_pops);
                return Some(task);
            }
            Some(*id)
        }
        Executor::Caller => None,
    };
    if let Some(task) = shared.injector.steal().success() {
        StatCells::bump(&shared.stats.injector_pops);
        return Some(task);
    }
    for (victim, stealer) in shared.stealers.iter().enumerate() {
        if Some(victim) == id {
            continue;
        }
        if let Some(task) = stealer.steal().success() {
            trace_instant("steal");
            StatCells::bump(&shared.stats.sibling_steals);
            return Some(task);
        }
    }
    None
}

/// Executes a range task: split off the back half (repeatedly) for thieves,
/// run the front chunk, then loop back to the owner's deque.
fn execute(shared: &PoolShared, who: &Executor<'_>, task: Task) {
    let Task {
        job,
        start,
        mut end,
    } = task;
    while end - start > 1 {
        let mid = start + (end - start) / 2;
        expose(
            shared,
            who,
            Task {
                job: Arc::clone(&job),
                start: mid,
                end,
            },
        );
        end = mid;
    }
    let index = start;
    let outcome = {
        // Spans the chunk body on the executing thread's track.
        let _chunk_span = trace_sink().real_span("chunk");
        catch_unwind(AssertUnwindSafe(|| (job.body)(index)))
    };
    StatCells::bump(&shared.stats.chunks);
    if let Err(payload) = outcome {
        let mut slot = job.panic.lock().expect("panic lock poisoned");
        if slot.is_none() {
            *slot = Some(payload);
        }
    }
    // AcqRel: the release publishes this task's writes to whoever takes the
    // completion edge; the acquire makes the last decrementer see them all.
    if job.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
        *job.done.lock().expect("job lock poisoned") = true;
        job.done_cv.notify_all();
    }
}

/// Makes a split-off task stealable: workers push onto their own deque (the
/// Chase–Lev fast path), a helping caller onto the injector. Wakes a sleeper
/// if any.
fn expose(shared: &PoolShared, who: &Executor<'_>, task: Task) {
    match who {
        Executor::Worker { deque, .. } => deque.push(task),
        Executor::Caller => shared.injector.push(task),
    }
    // Eventcount fast path: parkers register in `sleepers` *before* their
    // locked queue re-check (see `worker_loop`), so an unlocked SeqCst read
    // of 0 here proves no parker could miss the push above — any later
    // registrant re-checks the queues after its registration, which the
    // SeqCst fence pair orders after our push. Only when a sleeper might be
    // waiting do we take the (pool-global) sleep lock to notify; this keeps
    // the per-split hot path lock-free while the pool is busy.
    fence(Ordering::SeqCst);
    if shared.sleepers.load(Ordering::SeqCst) > 0 {
        let _guard = shared.sleep.lock().expect("sleep lock poisoned");
        shared.wake.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn pool_runs_every_index_exactly_once() {
        let pool = WorkStealing::new(4);
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
        let pool = WorkStealing::new(3);
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
            let pool = WorkStealing::new(threads);
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
    fn pool_results_are_written_to_caller_slots() {
        let pool = WorkStealing::new(2);
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
        let pool = Arc::new(WorkStealing::new(3));
        let total = Arc::new(AtomicU64::new(0));
        crossbeam::thread::scope(|s| {
            for _ in 0..4 {
                let pool = Arc::clone(&pool);
                let total = Arc::clone(&total);
                s.spawn(move |_| {
                    for _ in 0..10 {
                        pool.run_indexed(50, &|_| {
                            total.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(total.load(Ordering::Relaxed), 4 * 10 * 50);
    }

    #[test]
    fn panics_in_chunk_bodies_propagate_to_the_caller() {
        let pool = WorkStealing::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run_indexed(64, &|i| {
                assert!(i != 17, "chunk 17 exploded");
            });
        }));
        assert!(result.is_err(), "the chunk panic must reach the caller");
        // The pool survives and keeps executing later jobs.
        let count = AtomicU64::new(0);
        pool.run_indexed(64, &|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn park_accounting_balances_in_every_snapshot() {
        let pool = WorkStealing::new(4);
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
        WorkStealing::new(0);
    }
}
