//! Model-checked concurrency properties of the worker pool.
//!
//! Compiled only under `RUSTFLAGS="--cfg sidco_loom"`, which reroutes every
//! mutex, condvar, atomic and thread spawn in `sidco-runtime` through the
//! vendored `loom` checker (see `crates/runtime/src/sync.rs`). Each `model`
//! closure then runs under a deterministic scheduler that enumerates thread
//! interleavings — bounded exhaustive DFS with a preemption bound, plus
//! seeded random walks when the space is too deep
//! (`SIDCO_LOOM_MAX_BRANCHES` caps the budget; see the README's Verification
//! section).
//!
//! What a *pass* means here: under every explored schedule the closure ran to
//! completion with all assertions holding and **no deadlock** — a parked
//! worker that nobody wakes leaves the model with only blocked threads, which
//! the checker reports as a failed execution. Lost-wakeup freedom is
//! therefore checked implicitly by every test that parks workers, and
//! `checker_catches_a_seeded_lost_wakeup` proves the detector actually fires
//! by re-introducing the bug the pool's park loop is built to prevent.
//!
//! A pool-level repro of the detector firing, reproducible by hand: delete
//! the `shared.wake.notify_all()` from `impl Drop for WorkerPool` in pool.rs
//! and rerun this suite — `pool_shutdown_quiesces_workers_parked_
//! between_jobs` fails with `deadlock: … blocked on condvar wait …`: a
//! worker parked under the pool lock never sees the shutdown flag. (Deleting
//! the `notify_all` after a submission's push is *not* caught by the
//! completion tests, and that is correct: the caller claims every index of
//! its own job that no worker claims, so job liveness never depends on a
//! worker waking — the submit-side notify buys parallelism, and only the
//! shutdown path truly depends on a notify.)
//!
//! Run with:
//!
//! ```text
//! RUSTFLAGS="--cfg sidco_loom" cargo test -p sidco-runtime --test loom_pool
//! ```

#![cfg(sidco_loom)]

use loom::sync::atomic::{AtomicUsize, Ordering};
use loom::sync::{Arc, Condvar, Mutex};
use sidco_runtime::pool::WorkerPool;
use sidco_runtime::Runtime;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Exploration limits for the pool models. The full pool has a deep schedule
/// space (every lock and condvar step is a schedule point), so by default
/// these suites run a few hundred DFS executions plus random walks — enough
/// to cover the interesting park/wake races within seconds. CI and soak runs
/// raise the budget through `SIDCO_LOOM_MAX_BRANCHES` without touching the
/// tests.
fn bounded() -> loom::Builder {
    let mut b = loom::Builder::from_env();
    if std::env::var(loom::MAX_BRANCHES_ENV).is_err() {
        b.max_branches = 400;
    }
    if std::env::var(loom::RANDOM_WALKS_ENV).is_err() {
        b.random_walks = 48;
    }
    b
}

/// A two-worker pool — the smallest configuration that exercises parking,
/// waking, concurrent claims and a helping caller.
fn small_pool() -> WorkerPool {
    WorkerPool::new(2)
}

#[test]
fn pool_completes_every_job_without_lost_wakeups() {
    bounded().check(|| {
        let pool = small_pool();
        let hits = Arc::new(AtomicUsize::new(0));
        let hits_in_body = Arc::clone(&hits);
        pool.run_indexed(2, &move |_i| {
            hits_in_body.fetch_add(1, Ordering::SeqCst);
        });
        // `run_indexed` returned: the completion condvar handshake worked
        // under this schedule. Every chunk must have run exactly once.
        assert_eq!(hits.load(Ordering::SeqCst), 2, "every chunk runs once");
        // Dropping the pool must wake any parked worker and quiesce; a
        // missed shutdown wakeup leaves blocked threads behind, which the
        // checker reports as a deadlock.
        drop(pool);
    });
}

#[test]
fn pool_shutdown_quiesces_workers_parked_between_jobs() {
    bounded().check(|| {
        let pool = small_pool();
        // Two back-to-back jobs: workers can park after the first job drains
        // and must be woken by the second submission (the unpark path), then
        // park again before shutdown.
        pool.run_indexed(2, &|_| {});
        pool.run_indexed(2, &|_| {});
        drop(pool);
    });
}

#[test]
fn pool_panic_reaches_exactly_the_caller() {
    bounded().check(|| {
        let pool = small_pool();
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run_indexed(2, &|i| {
                assert!(i != 1, "chunk 1 exploded");
            });
        }));
        // The chunk panic must surface from `run_indexed` — in every
        // schedule, wherever the failing chunk executed (worker or helping
        // caller) — and must not kill the worker that ran it.
        assert!(result.is_err(), "the chunk panic reaches the caller");
        let hits = Arc::new(AtomicUsize::new(0));
        let hits_in_body = Arc::clone(&hits);
        pool.run_indexed(2, &move |_| {
            hits_in_body.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 2, "the pool survives a panic");
        drop(pool);
    });
}

#[test]
fn park_ledger_balances_under_every_schedule() {
    bounded().check(|| {
        let pool = Arc::new(small_pool());
        let observer_pool = Arc::clone(&pool);
        // An observer snapshots the stats *while* workers are parking and
        // waking. Snapshots are taken under the pool lock, so the ledger
        // invariant must hold in every one, at every point of every
        // schedule.
        let observer = loom::thread::spawn(move || {
            for _ in 0..2 {
                let stats = observer_pool.stats();
                assert_eq!(
                    stats.parks - stats.unparks,
                    stats.currently_parked,
                    "parks - unparks == currently_parked in every snapshot"
                );
            }
        });
        pool.run_indexed(2, &|_| {});
        observer.join().expect("observer joins");
        let stats = pool.stats();
        assert_eq!(stats.parks - stats.unparks, stats.currently_parked);
        drop(pool);
    });
}

#[test]
fn claims_never_run_an_index_twice_or_lose_one() {
    use std::sync::atomic::{AtomicU64, AtomicUsize as Hits, Ordering::Relaxed};
    // Two workers and the caller race on one 3-index job's claim counter.
    // The claims are `Relaxed`, so they become schedule points only when the
    // checker interleaves through relaxed operations. Small enough to check
    // *exhaustively*: every index runs exactly once under every schedule.
    // The hit counters are plain `std` atomics, so they add no schedule
    // points of their own.
    static WITH_WORKER_CLAIMS: AtomicU64 = AtomicU64::new(0);
    let report = loom::Builder::from_env()
        .relaxed_schedule_points(true)
        .check(|| {
            let pool = small_pool();
            let hits: Vec<Hits> = (0..3).map(|_| Hits::new(0)).collect();
            pool.run_indexed(3, &|i| {
                hits[i].fetch_add(1, Relaxed);
            });
            let hits: Vec<usize> = hits.iter().map(|h| h.load(Relaxed)).collect();
            assert_eq!(hits, vec![1, 1, 1], "each index runs exactly once");
            if pool.stats().worker_chunks > 0 {
                WITH_WORKER_CLAIMS.fetch_add(1, Relaxed);
            }
            drop(pool);
        });
    assert!(
        report.complete,
        "the claim model must be exhausted, got {report:?}"
    );
    assert!(
        WITH_WORKER_CLAIMS.load(Relaxed) > 0,
        "some schedule must let a worker claim an index"
    );
}

#[test]
fn checker_catches_a_seeded_lost_wakeup() {
    // The regression demo required by the verification story: re-introduce
    // the bug the pool's park loop exists to prevent — checking for work
    // *before* taking the lock the producer notifies under, and parking
    // without re-checking under it (the pool's workers instead look for a
    // claimable job and wait on the condvar under one hold of the pool lock,
    // the lock a submission pushes and notifies under; see `worker_loop` in
    // pool.rs). The checker
    // must find the schedule where the producer's notify lands between the
    // consumer's unlocked emptiness check and its wait, and report the
    // parked-forever consumer as a deadlock.
    let result = catch_unwind(|| {
        bounded().check(|| {
            let queue = Arc::new(Mutex::new(Vec::<u32>::new()));
            let sleep = Arc::new((Mutex::new(()), Condvar::new()));
            let (q, s) = (Arc::clone(&queue), Arc::clone(&sleep));
            let consumer = loom::thread::spawn(move || loop {
                if let Some(task) = q.lock().expect("queue poisoned").pop() {
                    break task;
                }
                // BUG under test: the queue emptiness decision above was made
                // outside the sleep lock and is not re-checked under it.
                let (lock, cv) = &*s;
                let guard = lock.lock().expect("sleep lock poisoned");
                drop(cv.wait(guard).expect("sleep lock poisoned"));
            });
            queue.lock().expect("queue poisoned").push(7);
            {
                let (lock, cv) = &*sleep;
                let _guard = lock.lock().expect("sleep lock poisoned");
                cv.notify_one();
            }
            assert_eq!(consumer.join().expect("consumer joins"), 7);
        });
    });
    let message = match result {
        Ok(report) => panic!("the seeded lost wakeup went undetected: {report:?}"),
        Err(payload) => payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "<non-string panic payload>".to_string()),
    };
    assert!(
        message.contains("deadlock"),
        "the checker must report the lost wakeup as a deadlock, got: {message}"
    );
    assert!(
        message.contains("condvar wait"),
        "the blocked consumer must show up parked on the condvar: {message}"
    );
}
