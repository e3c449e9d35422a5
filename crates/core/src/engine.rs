//! The parallel compression engine: an executor-backed front end that shards a
//! gradient into deterministic fixed-size chunks and runs every stage of the
//! fit → threshold → select pipeline concurrently on a
//! [`Runtime`].
//!
//! Every compressor in this crate routes its hot loops through a
//! [`CompressionEngine`] — moments for the statistical fits, threshold
//! counts/selections, and exact Top-k via chunked partial selection.
//! [`encode_varint`](CompressionEngine::encode_varint) materialises the
//! delta-varint wire payload for integrations that send one; it runs the
//! serial encoder, and no compressor calls it (the simulator only *accounts*
//! bytes). Callers opt in to parallelism by constructing a compressor
//! with [`CompressionEngine::new`]`(threads)`; the default engine is
//! sequential unless the `SIDCO_THREADS` environment variable requests more
//! workers.
//!
//! # Runtime
//!
//! The engine itself holds no threads — it dispatches to the process-wide
//! [`Runtime`] that [`sidco_runtime::handle`] returns for its thread budget:
//! the **persistent work-stealing pool**, which spawns its OS
//! workers once (on the first parallel call) and reuses them for every
//! subsequent `compress`, or the inline runtime for a one-thread engine.
//! Engines with the same thread count share one executor. Pool behaviour is
//! observable via [`pool_stats`](CompressionEngine::pool_stats).
//!
//! # Determinism
//!
//! The chunk decomposition is fixed by [`chunk_size`](CompressionEngine::chunk_size)
//! alone — never by the thread count or steal order — and per-chunk partials
//! are merged in chunk order, so **every compressor produces bit-identical
//! [`SparseGradient`]s regardless of the configured thread count** (see
//! `sidco_tensor::parallel` for the underlying contract). Changing the chunk
//! size *may* change low-order floating-point bits of fitted thresholds,
//! which is why it defaults to a single fixed constant everywhere.

use sidco_runtime::Runtime;
pub use sidco_runtime::{PoolStats, RuntimeKind};
use sidco_stats::moments::{AbsMoments, MomentNeeds, SignedMoments};
use sidco_stats::pot::StageMoments;
use sidco_tensor::encoding::{delta_varint_encode, EncodedGradient};
use sidco_tensor::parallel::{
    abs_moments_on, count_above_threshold_on, exceedance_moments_on, select_above_threshold_on,
    signed_moments_on, top_k_on, SurvivorLists, DEFAULT_CHUNK_SIZE,
};
use sidco_tensor::SparseGradient;
use std::sync::Mutex;

/// Environment variable consulted by [`CompressionEngine::from_env`] (and thus
/// by every compressor constructed without an explicit engine). Set it to the
/// desired worker count, e.g. `SIDCO_THREADS=4`, to exercise the parallel path
/// without touching call sites.
pub const THREADS_ENV_VAR: &str = "SIDCO_THREADS";

/// The process-wide memo behind [`CompressionEngine::from_env`]: the
/// `SIDCO_THREADS` read is once-per-process *by design* (the executors it
/// sizes are process-wide), and tests clear it to re-read the environment.
static ENV_THREADS: Mutex<Option<usize>> = Mutex::new(None);

fn env_threads() -> usize {
    *ENV_THREADS
        .lock()
        .expect("SIDCO_THREADS cache poisoned")
        .get_or_insert_with(|| parse_env_threads(std::env::var(THREADS_ENV_VAR).ok().as_deref()))
}

/// Parses a `SIDCO_THREADS` value; `None`, non-numeric, and zero values all
/// select the sequential default. Pure — the cache-free core of
/// [`env_threads`].
fn parse_env_threads(value: Option<&str>) -> usize {
    value
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&t| t >= 1)
        .unwrap_or(1)
}

/// A sharded, runtime-backed front end for the compression pipeline.
///
/// Cheap to copy (a few machine words); compressors store one by value. The
/// threads themselves live in process-wide shared executors (see the module
/// docs), resolved once at engine construction.
///
/// # Example
///
/// ```
/// use sidco_core::engine::CompressionEngine;
/// use sidco_core::prelude::*;
///
/// let grad: Vec<f32> = (1..=200_000)
///     .map(|j| if j % 2 == 0 { 1.0 } else { -1.0 } * (j as f32).powf(-0.8))
///     .collect();
/// let mut serial = SidcoCompressor::new(SidcoConfig::exponential())
///     .with_engine(CompressionEngine::new(1));
/// let mut parallel = SidcoCompressor::new(SidcoConfig::exponential())
///     .with_engine(CompressionEngine::new(4));
/// // Bit-identical output, independent of the thread count.
/// assert_eq!(
///     serial.compress(&grad, 0.01).sparse,
///     parallel.compress(&grad, 0.01).sparse
/// );
/// ```
#[derive(Debug, Clone, Copy)]
pub struct CompressionEngine {
    threads: usize,
    chunk_size: usize,
    /// The resolved process-wide executor, cached at construction so the hot
    /// primitives never touch the runtime registry (and its lock).
    executor: &'static dyn Runtime,
}

// Identity is the configuration pair; the cached executor is derived state
// (one shared instance per thread count), so it never disagrees.
impl PartialEq for CompressionEngine {
    fn eq(&self, other: &Self) -> bool {
        (self.threads, self.chunk_size) == (other.threads, other.chunk_size)
    }
}

impl Eq for CompressionEngine {}

impl std::hash::Hash for CompressionEngine {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        (self.threads, self.chunk_size).hash(state);
    }
}

impl CompressionEngine {
    /// An engine running on up to `threads` worker threads: the shared
    /// work-stealing pool of that size, or the inline runtime at one thread.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn new(threads: usize) -> Self {
        assert!(threads >= 1, "an engine needs at least one thread");
        Self {
            threads,
            chunk_size: DEFAULT_CHUNK_SIZE,
            executor: sidco_runtime::handle(RuntimeKind::Pool, threads),
        }
    }

    /// The single-threaded engine (still chunked, so its results are identical
    /// to every multi-threaded configuration).
    pub fn sequential() -> Self {
        Self::new(1)
    }

    /// The engine configured by the `SIDCO_THREADS` environment variable
    /// (sequential when unset, unparsable, or zero). The variable is read
    /// **once per process**: mutating the environment after the first read
    /// changes nothing (the shared executors are already sized), so tests
    /// needing a specific configuration inject it via
    /// [`CompressionEngine::new`] instead.
    pub fn from_env() -> Self {
        Self::new(env_threads())
    }

    /// Overrides the shard size. Determinism across *thread counts* is kept for
    /// any chunk size; determinism across *configurations* requires using the
    /// same chunk size, so leave the default unless you are benchmarking.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_size` is zero.
    pub fn with_chunk_size(mut self, chunk_size: usize) -> Self {
        assert!(chunk_size > 0, "chunk_size must be positive");
        self.chunk_size = chunk_size;
        self
    }

    /// Returns the engine unchanged: the pool is the only executor family,
    /// so [`RuntimeKind`] selects nothing. Kept for callers that name the
    /// runtime explicitly.
    #[must_use]
    pub fn with_runtime(self, runtime: RuntimeKind) -> Self {
        let RuntimeKind::Pool = runtime;
        self
    }

    /// The configured worker-thread budget.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The fixed shard size chunking is based on.
    pub fn chunk_size(&self) -> usize {
        self.chunk_size
    }

    /// The process-wide executor behind this engine, for callers that
    /// dispatch their *own* jobs onto the same threads the engine uses (the
    /// trainer fans per-worker bucket compressions out this way, so trainer
    /// jobs and engine chunks share one pool instead of fighting over cores).
    pub fn shared_runtime(&self) -> &'static dyn Runtime {
        self.executor
    }

    /// Counters of the shared work-stealing pool behind this engine (`None`
    /// for single-threaded engines, which dispatch inline and keep no state).
    /// The pool's `threads_spawned` equals [`threads`](Self::threads) after
    /// the first parallel call and never grows — repeated `compress` calls
    /// reuse the same OS workers.
    pub fn pool_stats(&self) -> Option<PoolStats> {
        self.executor.stats()
    }

    /// Every absolute-value moment of `grad` (parallel fitting statistics).
    /// The multi-stage estimate of [`SidcoCompressor`](crate::SidcoCompressor)
    /// asks for only the fields its update reads.
    pub fn abs_moments(&self, grad: &[f32]) -> AbsMoments {
        self.moments(grad, MomentNeeds::ALL)
    }

    /// Every shifted peaks-over-threshold moment of the exceedance set
    /// (`|g| >= threshold`), from a scan of the whole gradient.
    pub fn pot_moments(&self, grad: &[f32], threshold: f64) -> AbsMoments {
        let _stage = sidco_trace::global_sink().real_span("engine/pot_moments");
        exceedance_moments_on(
            grad,
            threshold,
            MomentNeeds::ALL,
            self.chunk_size,
            self.executor,
        )
    }

    /// The absolute-value moments of `grad` that `needs` asks for.
    fn moments(&self, grad: &[f32], needs: MomentNeeds) -> AbsMoments {
        let _stage = sidco_trace::global_sink().real_span("engine/abs_moments");
        abs_moments_on(grad, needs, self.chunk_size, self.executor)
    }

    /// Signed-value moments of `grad` (the Gaussian-fit input).
    pub fn signed_moments(&self, grad: &[f32]) -> SignedMoments {
        let _stage = sidco_trace::global_sink().real_span("engine/signed_moments");
        signed_moments_on(grad, self.chunk_size, self.executor)
    }

    /// Counts elements with `|g| >= threshold`.
    pub fn count_above(&self, grad: &[f32], threshold: f64) -> usize {
        let _stage = sidco_trace::global_sink().real_span("engine/count_above");
        count_above_threshold_on(grad, threshold, self.chunk_size, self.executor)
    }

    /// The `C_η` selection operator: all elements with `|g| >= threshold`, with
    /// per-chunk buffers merged in index order (never re-sorted).
    pub fn select_above(&self, grad: &[f32], threshold: f64) -> SparseGradient {
        let _stage = sidco_trace::global_sink().real_span("engine/select_above");
        select_above_threshold_on(grad, threshold, self.chunk_size, self.executor)
    }

    /// Exact Top-k via chunked partial selection (each shard nominates its own
    /// top candidates with quickselect; one final selection picks the global
    /// winners).
    pub fn top_k(&self, grad: &[f32], k: usize) -> SparseGradient {
        let _stage = sidco_trace::global_sink().real_span("engine/top_k");
        top_k_on(grad, k, self.chunk_size, self.executor)
    }

    /// Encodes a sparse gradient into the delta-varint wire format.
    /// Identical to [`sidco_tensor::encoding::delta_varint_encode`], timed
    /// under the `engine/encode_varint` span.
    pub fn encode_varint(&self, sparse: &SparseGradient) -> EncodedGradient {
        let _stage = sidco_trace::global_sink().real_span("engine/encode_varint");
        delta_varint_encode(sparse)
    }
}

impl Default for CompressionEngine {
    /// [`CompressionEngine::from_env`].
    fn default() -> Self {
        Self::from_env()
    }
}

/// The multi-stage estimate's [`StageMoments`] backend on an engine: the
/// mean pass and the first exceedance pass scan the gradient, the first
/// exceedance pass also keeps its survivors in `lists`, and every later
/// stage narrows those lists instead of scanning again. The final `C_η`
/// ([`select`](Self::select)) filters the last lists, or scans the gradient
/// when the estimate had one stage.
///
/// Every stage keeps the bits of a scan of the whole gradient on the same
/// engine (see [`SurvivorLists`]), so thresholds and selections are the
/// rescanning estimate's.
pub(crate) struct SurvivorStages<'a> {
    engine: &'a CompressionEngine,
    lists: &'a mut SurvivorLists,
}

impl<'a> SurvivorStages<'a> {
    pub(crate) fn new(engine: &'a CompressionEngine, lists: &'a mut SurvivorLists) -> Self {
        Self { engine, lists }
    }

    /// All elements with `|g| >= threshold`; `threshold` is at least the
    /// last stage threshold the estimate asked for.
    pub(crate) fn select(&self, grad: &[f32], threshold: f64) -> SparseGradient {
        if !self.lists.is_filled() {
            return self.engine.select_above(grad, threshold);
        }
        let _stage = sidco_trace::global_sink().real_span("engine/select_above");
        self.lists.select_on(threshold, self.engine.executor)
    }
}

impl StageMoments for SurvivorStages<'_> {
    fn full_moments(&mut self, grad: &[f32], needs: MomentNeeds) -> AbsMoments {
        self.lists.clear();
        self.engine.moments(grad, needs)
    }

    fn exceedance_moments(
        &mut self,
        grad: &[f32],
        threshold: f64,
        needs: MomentNeeds,
    ) -> AbsMoments {
        let _stage = sidco_trace::global_sink().real_span("engine/pot_moments");
        let engine = self.engine;
        if self.lists.is_filled() {
            self.lists.narrow_on(threshold, needs, engine.executor)
        } else {
            self.lists
                .fill_on(grad, threshold, needs, engine.chunk_size, engine.executor)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use sidco_tensor::threshold::{count_above_threshold, select_above_threshold};

    fn random_gradient(n: usize, seed: u64) -> Vec<f32> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
    }

    #[test]
    fn construction_and_accessors() {
        let engine = CompressionEngine::new(4).with_chunk_size(1 << 10);
        assert_eq!(engine.threads(), 4);
        assert_eq!(engine.chunk_size(), 1 << 10);
        assert_eq!(CompressionEngine::sequential().threads(), 1);
        // The default engine follows the environment (sequential in tests
        // unless the CI job sets SIDCO_THREADS).
        let _ = CompressionEngine::default();
        // The runtime kind selects nothing: the engine and its executor are
        // unchanged.
        let named = engine.with_runtime(RuntimeKind::Pool);
        assert_eq!(named, engine);
        assert!(std::ptr::addr_eq(
            named.shared_runtime(),
            engine.shared_runtime()
        ));
        assert_eq!(engine.shared_runtime().name(), "pool");
        assert_eq!(
            CompressionEngine::sequential().shared_runtime().name(),
            "inline"
        );
    }

    #[test]
    fn env_thread_parsing_and_cache_semantics() {
        // The pure parser covers every degenerate spelling without touching
        // the process environment.
        assert_eq!(parse_env_threads(None), 1);
        assert_eq!(parse_env_threads(Some("")), 1);
        assert_eq!(parse_env_threads(Some("0")), 1);
        assert_eq!(parse_env_threads(Some("-3")), 1);
        assert_eq!(parse_env_threads(Some("four")), 1);
        assert_eq!(parse_env_threads(Some(" 4 ")), 4);
        // The cached read is sticky (the whole point of the explicit cache):
        // two consecutive reads agree no matter what happens to the
        // environment in between, and a test-only reset re-reads it. The
        // re-read still agrees here because nothing mutated the environment —
        // tests inject configurations via constructors instead.
        let first = env_threads();
        assert_eq!(env_threads(), first);
        *ENV_THREADS.lock().unwrap() = None;
        assert_eq!(env_threads(), first);
        assert_eq!(CompressionEngine::from_env().threads(), first);
    }

    #[test]
    fn pool_engine_reports_stats_and_inline_does_not() {
        let pool = CompressionEngine::new(2);
        let grad = random_gradient(300_000, 23);
        let _ = pool.abs_moments(&grad);
        let stats = pool.pool_stats().expect("pool engines keep stats");
        assert_eq!(stats.threads_spawned, 2);
        assert!(stats.chunks_executed > 0);
        let inline = CompressionEngine::sequential();
        let _ = inline.abs_moments(&grad);
        assert!(inline.pool_stats().is_none());
    }

    #[test]
    fn encode_varint_equals_delta_varint_encode() {
        use sidco_tensor::encoding::delta_varint_encode;
        for (d, threshold) in [(10_000usize, 0.95), (400_000, 0.7)] {
            let grad = random_gradient(d, 33);
            let sparse = select_above_threshold(&grad, threshold);
            let reference = delta_varint_encode(&sparse);
            for threads in [1usize, 2, 4] {
                assert_eq!(
                    CompressionEngine::new(threads).encode_varint(&sparse),
                    reference,
                    "d={d} threads={threads}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        CompressionEngine::new(0);
    }

    #[test]
    fn primitives_are_bit_identical_across_thread_counts() {
        let grad = random_gradient(150_000, 11);
        let reference = CompressionEngine::new(1).with_chunk_size(1 << 12);
        for threads in [2, 3, 7] {
            let engine = CompressionEngine::new(threads).with_chunk_size(1 << 12);
            assert_eq!(engine.abs_moments(&grad), reference.abs_moments(&grad));
            assert_eq!(
                engine.pot_moments(&grad, 0.5),
                reference.pot_moments(&grad, 0.5)
            );
            assert_eq!(
                engine.signed_moments(&grad),
                reference.signed_moments(&grad)
            );
            assert_eq!(
                engine.select_above(&grad, 0.3),
                reference.select_above(&grad, 0.3)
            );
            assert_eq!(engine.top_k(&grad, 1_234), reference.top_k(&grad, 1_234));
            assert_eq!(
                engine.count_above(&grad, 0.3),
                reference.count_above(&grad, 0.3)
            );
        }
    }

    #[test]
    fn selection_and_count_match_sequential_operators() {
        let grad = random_gradient(100_000, 12);
        let engine = CompressionEngine::new(4);
        assert_eq!(
            engine.count_above(&grad, 0.25),
            count_above_threshold(&grad, 0.25)
        );
        assert_eq!(
            engine.select_above(&grad, 0.25),
            select_above_threshold(&grad, 0.25)
        );
    }
}
