//! Observable counters of the worker pool, for the bench harness and the
//! lifecycle tests (spawn-once, chunks run off the caller, park/unpark churn).

use crate::sync::atomic::{AtomicU64, Ordering};

/// Internal atomic counter cells. One instance lives inside the pool's shared
/// state; every counter is monotone and updated with relaxed ordering (the
/// counters observe the pool, they never synchronise it).
#[derive(Debug)]
pub(crate) struct StatCells {
    pub(crate) threads_spawned: AtomicU64,
    pub(crate) jobs: AtomicU64,
    pub(crate) chunks: AtomicU64,
    pub(crate) worker_chunks: AtomicU64,
    pub(crate) parks: AtomicU64,
    pub(crate) unparks: AtomicU64,
    /// Gauge (not monotone): workers currently blocked in the condvar wait.
    /// Every transition happens under the pool's lock, paired with the
    /// matching `parks`/`unparks` bump, so a snapshot taken under that lock
    /// satisfies `parks - unparks == currently_parked` exactly.
    pub(crate) currently_parked: AtomicU64,
}

impl StatCells {
    pub(crate) fn new() -> Self {
        Self {
            threads_spawned: AtomicU64::new(0),
            jobs: AtomicU64::new(0),
            chunks: AtomicU64::new(0),
            worker_chunks: AtomicU64::new(0),
            parks: AtomicU64::new(0),
            unparks: AtomicU64::new(0),
            currently_parked: AtomicU64::new(0),
        }
    }

    pub(crate) fn bump(counter: &AtomicU64) {
        // Relaxed: pure observation — no reader infers anything about *other*
        // memory from a counter value, so no ordering is needed.
        counter.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> PoolStats {
        // Relaxed: cross-counter consistency comes from the pool's lock
        // (held by the caller, see `WorkerPool::stats`), not from the
        // loads themselves.
        let read = |cell: &AtomicU64| cell.load(Ordering::Relaxed);
        PoolStats {
            threads_spawned: read(&self.threads_spawned),
            jobs: read(&self.jobs),
            chunks_executed: read(&self.chunks),
            worker_chunks: read(&self.worker_chunks),
            parks: read(&self.parks),
            unparks: read(&self.unparks),
            currently_parked: read(&self.currently_parked),
        }
    }
}

/// A point-in-time snapshot of a pool's lifetime counters.
///
/// All counters are cumulative since the pool was created; diff two snapshots
/// to measure one workload. `threads_spawned` is the load-bearing lifecycle
/// counter: it equals the pool's worker count after the first parallel job and
/// **never grows again** — repeated `compress` calls reuse the same OS
/// threads, which is the pool's whole reason to exist.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// OS worker threads spawned over the pool's lifetime (equals the worker
    /// count after lazy initialisation; constant afterwards).
    pub threads_spawned: u64,
    /// Parallel jobs submitted via `run_indexed`.
    pub jobs: u64,
    /// Chunk tasks executed across all jobs (by workers and helping callers).
    pub chunks_executed: u64,
    /// Chunk tasks executed by pool workers rather than by the submitting
    /// caller.
    pub worker_chunks: u64,
    /// Times a worker went to sleep for lack of work.
    pub parks: u64,
    /// Times a sleeping worker was woken by new work.
    pub unparks: u64,
    /// Workers blocked in the condvar wait at snapshot time — the gauge that
    /// balances the two monotone counters: every snapshot satisfies
    /// `parks - unparks == currently_parked` exactly, because park/unpark
    /// transitions and the snapshot itself all happen under the pool's lock. (Historical snapshots read the counters without the lock and
    /// reported an unexplained "drift" of exactly the sleeping workers.)
    pub currently_parked: u64,
}

impl PoolStats {
    /// Work that left the submitting thread: the chunks pool workers ran
    /// ([`worker_chunks`](Self::worker_chunks)).
    pub fn steals(&self) -> u64 {
        self.worker_chunks
    }

    /// Feed this snapshot into a trace metrics sink as gauges named
    /// `{prefix}.{counter}`. Gauges rather than counters because a snapshot
    /// is already cumulative — re-recording overwrites with the latest
    /// reading instead of double-counting. No-op when the sink is disabled.
    pub fn record_metrics(&self, sink: &sidco_trace::TraceSink, prefix: &str) {
        if !sink.enabled() {
            return;
        }
        let pairs: [(&str, u64); 6] = [
            ("threads_spawned", self.threads_spawned),
            ("jobs", self.jobs),
            ("chunks_executed", self.chunks_executed),
            ("worker_chunks", self.worker_chunks),
            ("parks", self.parks),
            ("unparks", self.unparks),
        ];
        for (name, v) in pairs {
            sink.gauge_set(&format!("{prefix}.{name}"), v as f64);
        }
    }

    /// The counter deltas accumulated since `baseline` — the snapshot-diff
    /// idiom (`let before = pool.stats(); work(); pool.stats().since(&before)`)
    /// as a method, so callers measure one workload instead of the pool's
    /// lifetime. Monotone counters subtract saturating (a `baseline` from a
    /// *different* pool yields zeros rather than wrapping); the
    /// `currently_parked` gauge is a point-in-time reading with no meaningful
    /// delta, so it is carried over as-is and the
    /// `parks - unparks == currently_parked` ledger identity holds only for
    /// full snapshots, not diffs.
    #[must_use]
    pub fn since(&self, baseline: &PoolStats) -> PoolStats {
        PoolStats {
            threads_spawned: self
                .threads_spawned
                .saturating_sub(baseline.threads_spawned),
            jobs: self.jobs.saturating_sub(baseline.jobs),
            chunks_executed: self
                .chunks_executed
                .saturating_sub(baseline.chunks_executed),
            worker_chunks: self.worker_chunks.saturating_sub(baseline.worker_chunks),
            parks: self.parks.saturating_sub(baseline.parks),
            unparks: self.unparks.saturating_sub(baseline.unparks),
            currently_parked: self.currently_parked,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_cells() {
        let cells = StatCells::new();
        StatCells::bump(&cells.jobs);
        StatCells::bump(&cells.chunks);
        StatCells::bump(&cells.chunks);
        StatCells::bump(&cells.worker_chunks);
        StatCells::bump(&cells.parks);
        StatCells::bump(&cells.currently_parked);
        let stats = cells.snapshot();
        assert_eq!(stats.parks - stats.unparks, stats.currently_parked);
        assert_eq!(stats.jobs, 1);
        assert_eq!(stats.chunks_executed, 2);
        assert_eq!(stats.steals(), 1);
        assert_eq!(stats.worker_chunks, 1);
    }

    #[test]
    fn since_diffs_monotone_counters_and_carries_gauges() {
        let cells = StatCells::new();
        StatCells::bump(&cells.jobs);
        StatCells::bump(&cells.chunks);
        StatCells::bump(&cells.currently_parked);
        let before = cells.snapshot();
        StatCells::bump(&cells.jobs);
        StatCells::bump(&cells.chunks);
        StatCells::bump(&cells.chunks);
        let delta = cells.snapshot().since(&before);
        assert_eq!(delta.jobs, 1);
        assert_eq!(delta.chunks_executed, 2);
        // The gauge carries the current reading rather than a delta.
        assert_eq!(delta.currently_parked, 1);
        // A baseline from a larger/unrelated pool saturates instead of
        // wrapping.
        let foreign = PoolStats {
            jobs: 100,
            ..PoolStats::default()
        };
        let sat = cells.snapshot().since(&foreign);
        assert_eq!(sat.jobs, 0);
    }
}
