//! # sidco-runtime — the execution substrate under the compression engine
//!
//! SIDCo's estimator math made threshold selection cheap; what is left of the
//! compression budget is *runtime* overhead — and the engine used to pay it
//! on every call by spawning scoped threads. This crate factors that
//! substrate out:
//!
//! * [`Runtime`] — the executor abstraction: run `n` index-addressed chunk
//!   tasks, each exactly once. Callers own the chunk decomposition and the
//!   output slots, so *any* correct `Runtime` yields bit-identical results.
//! * [`WorkerPool`] — the one multi-threaded executor: a persistent pool
//!   with lazy one-time spawn, one job per `run_indexed` call whose indices
//!   the workers and the caller claim from a shared counter, parked idle
//!   workers, and observable [`PoolStats`].
//!
//! Callers obtain process-wide shared instances from [`handle`]: a pool per
//! worker budget, and a stateless inline runtime (no counters) for a budget
//! of one thread. The data-parallel trainer in
//! `sidco-dist` dispatches on the same instances: each phase of an iteration
//! is one [`run_indexed`](Runtime::run_indexed) fan-out, and its return is
//! the phase's only join. The crate has no other synchronisation primitive.
//!
//! # Determinism contract
//!
//! A `Runtime` executes every index in `0..tasks` exactly once, on some
//! thread, in some order, and returns only after all of them ran. It never
//! chooses chunk boundaries and never merges results — callers do both as a
//! pure function of input length. Consequently outputs are **bit-identical
//! across runtimes, worker counts, and claim orders**; the only observable
//! differences are wall-clock time and [`PoolStats`].

#![warn(missing_docs)]
// `deny`, not `forbid`: lending a borrowed chunk body to persistent workers
// has no safe form, so that one statement in `run_indexed` is `allow`ed.
#![deny(unsafe_code)]

pub mod pool;
pub mod stats;
pub(crate) mod sync;

pub use pool::WorkerPool;
pub use stats::PoolStats;

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// An executor for index-addressed chunk tasks.
///
/// Implementations must run `body(i)` exactly once for every `i in 0..tasks`
/// and return only after every call finished (a panic in any body must
/// propagate to the caller, after all other bodies completed or panicked).
/// `body` receives the chunk *index*; callers translate indices to data
/// ranges and write results into per-index slots, which is what makes every
/// implementation produce identical bits.
pub trait Runtime: std::fmt::Debug + Send + Sync {
    /// The configured worker budget (1 means sequential).
    fn parallelism(&self) -> usize;

    /// Runs `body(0..tasks)`, each index exactly once, blocking to completion.
    fn run_indexed(&self, tasks: usize, body: &(dyn Fn(usize) + Sync));

    /// Pool counters, for runtimes that keep them (`None` for the stateless
    /// inline runtime).
    fn stats(&self) -> Option<PoolStats> {
        None
    }

    /// Pre-registers this runtime's worker tracks with the active trace
    /// session, so every worker appears in the exported timeline even when a
    /// fast run completes before some workers get scheduled (their lifecycle
    /// events would otherwise land after the session closed). No-op when
    /// tracing is disabled or for runtimes without persistent workers.
    fn register_trace_tracks(&self) {}
}

/// Runs `body(0..tasks)` inline, continuing past panics so every index
/// executes exactly once; the first panic is re-raised after the loop. The
/// inline runtime and the pool's sequential fast path both use this, so the
/// [`Runtime`] contract holds there too.
pub(crate) fn run_sequential_to_completion(tasks: usize, body: &(dyn Fn(usize) + Sync)) {
    let mut first_panic = None;
    for index in 0..tasks {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(index)));
        if let Err(payload) = outcome {
            first_panic.get_or_insert(payload);
        }
    }
    if let Some(payload) = first_panic {
        std::panic::resume_unwind(payload);
    }
}

/// The runtime [`handle`] returns for a one-thread budget: every index runs
/// on the calling thread, with no state, no counters and no trace tracks.
#[derive(Debug)]
struct Inline;

impl Runtime for Inline {
    fn parallelism(&self) -> usize {
        1
    }

    fn run_indexed(&self, tasks: usize, body: &(dyn Fn(usize) + Sync)) {
        run_sequential_to_completion(tasks, body);
    }
}

/// The executor family [`handle`] draws from. The persistent worker pool is
/// the only one, so the value selects nothing; it stays in the signatures of
/// [`handle`] and of the engine and trainer `with_runtime` builders that
/// existing callers name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RuntimeKind {
    /// The persistent worker pool ([`WorkerPool`]).
    #[default]
    Pool,
}

/// Returns the process-wide shared runtime for a budget of `threads` workers.
/// `threads == 1` returns the stateless inline runtime: there is nothing for
/// a pool to do. Larger budgets return a [`WorkerPool`], created on first
/// request and kept for the process, so every caller asking for the same
/// budget shares one pool — and its workers are spawned exactly once, on its
/// first parallel job. Concurrent callers' jobs share the workers, but each
/// caller runs chunks of its own job only. `kind` selects nothing (see
/// [`RuntimeKind`]).
///
/// # Panics
///
/// Panics if `threads` is zero.
pub fn handle(kind: RuntimeKind, threads: usize) -> &'static dyn Runtime {
    let RuntimeKind::Pool = kind;
    assert!(threads >= 1, "a runtime needs at least one thread");
    if threads == 1 {
        return &Inline;
    }
    static REGISTRY: OnceLock<Mutex<HashMap<usize, &'static WorkerPool>>> = OnceLock::new();
    let registry = REGISTRY.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = registry.lock().expect("runtime registry poisoned");
    *map.entry(threads)
        .or_insert_with(|| Box::leak(Box::new(WorkerPool::new(threads))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn inline_runs_every_index_exactly_once() {
        let runtime = handle(RuntimeKind::Pool, 1);
        assert_eq!(runtime.parallelism(), 1);
        assert!(runtime.stats().is_none());
        for n in [0usize, 1, 2, 7, 100] {
            let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
            runtime.run_indexed(n, &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn handle_rejects_zero_threads() {
        handle(RuntimeKind::Pool, 0);
    }

    #[test]
    fn inline_panics_propagate_after_every_index_ran() {
        // The contract the pool also honours: a panicking body must not
        // prevent the later indices from executing.
        let hits: Vec<AtomicU64> = (0..40).map(|_| AtomicU64::new(0)).collect();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            handle(RuntimeKind::Pool, 1).run_indexed(40, &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
                assert!(i != 3, "index 3 exploded");
            });
        }));
        assert!(result.is_err(), "the panic must reach the caller");
        for (i, hit) in hits.iter().enumerate() {
            assert_eq!(hit.load(Ordering::Relaxed), 1, "index {i}");
        }
    }

    #[test]
    fn handle_registry_shares_instances() {
        assert_eq!(RuntimeKind::default(), RuntimeKind::Pool);
        let a = handle(RuntimeKind::Pool, 2) as *const dyn Runtime;
        let b = handle(RuntimeKind::Pool, 2) as *const dyn Runtime;
        assert!(std::ptr::addr_eq(a, b), "same threads must share");
        let pool = handle(RuntimeKind::Pool, 3);
        assert_eq!(pool.parallelism(), 3);
        assert!(pool.stats().is_some());
    }

    #[test]
    fn pool_handle_executes_and_reports_stats() {
        let pool = handle(RuntimeKind::Pool, 2);
        let count = AtomicU64::new(0);
        pool.run_indexed(40, &|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 40);
        let stats = pool.stats().expect("pool keeps stats");
        assert_eq!(stats.threads_spawned, 2);
        assert!(stats.chunks_executed >= 40);
    }
}
