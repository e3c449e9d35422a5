//! Regression test: `PoolStats` snapshots taken *concurrently* with worker
//! activity are consistent — every monotone counter moves forward between
//! consecutive snapshots, so `PoolStats::since` never has to saturate a
//! "negative" delta away (a saturating zero would silently hide a counter
//! read racing backwards).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use sidco_runtime::{PoolStats, Runtime, WorkerPool};

/// Monotone counters of a snapshot, in a fixed order (the
/// `currently_parked` gauge is excluded: it legitimately goes both ways).
fn monotone(stats: &PoolStats) -> [(&'static str, u64); 6] {
    [
        ("threads_spawned", stats.threads_spawned),
        ("jobs", stats.jobs),
        ("chunks_executed", stats.chunks_executed),
        ("worker_chunks", stats.worker_chunks),
        ("parks", stats.parks),
        ("unparks", stats.unparks),
    ]
}

#[test]
fn concurrent_snapshots_never_need_a_saturated_delta() {
    let pool = Arc::new(WorkerPool::new(4));
    let stop = Arc::new(AtomicBool::new(false));

    let worker = {
        let pool = Arc::clone(&pool);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                pool.run_indexed(64, &|i| {
                    std::hint::black_box(i);
                });
            }
        })
    };

    let mut prev = pool.stats();
    for _ in 0..500 {
        let next = pool.stats();
        for ((name, a), (_, b)) in monotone(&prev).into_iter().zip(monotone(&next)) {
            assert!(
                b >= a,
                "counter `{name}` went backwards across concurrent snapshots: {a} -> {b}"
            );
        }
        // The delta `since` computes must therefore be the exact difference,
        // never a saturation artifact.
        let delta = next.since(&prev);
        assert_eq!(delta.jobs, next.jobs - prev.jobs);
        assert_eq!(
            delta.chunks_executed,
            next.chunks_executed - prev.chunks_executed
        );
        assert_eq!(delta.parks, next.parks - prev.parks);
        // Snapshots are taken under the pool lock, so the park ledger
        // balances even mid-transition.
        assert_eq!(next.parks - next.unparks, next.currently_parked);
        prev = next;
    }

    stop.store(true, Ordering::Relaxed);
    worker.join().expect("worker thread panicked");
}
