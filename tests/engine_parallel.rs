//! Integration tests of the sharded parallel [`CompressionEngine`] and the
//! runtime substrate beneath it:
//!
//! * every compressor must produce **bit-identical** `SparseGradient`s at
//!   `threads = 1, 2, 7` — the inline runtime against the pool
//!   (property-based, multi-chunk decompositions);
//! * every parallel primitive (`*_on`, including both sharded encoders) must
//!   be bit-identical on the inline runtime, the scoped-thread reference
//!   executor (`oracle::ScopedOracle`) and a private 4-worker `WorkStealing`
//!   pool;
//! * the reference executor itself honours the `Runtime` contract;
//! * the pool must spawn its OS workers exactly once per engine lifetime —
//!   repeated `compress` calls reuse them (asserted via pool stats);
//! * the parallel delta-varint encoder must be byte-identical to the serial
//!   encoder at 1/2/7 workers;
//! * overlapped (bucketed, pipelined) trainer runs must converge identically
//!   to serial runs and only differ in simulated time.
//!
//! Env-cache audit: `SIDCO_THREADS` is read once per process (behind
//! `CompressionEngine::from_env`), so a test mutating it after first touch
//! would silently test the wrong configuration. No test in this binary
//! mutates the environment — every test that cares about a thread count
//! injects it through `CompressionEngine::new(..)` (constructor injection),
//! which keeps the suite order-independent; the CI matrix sets the variable
//! before the process starts.

mod oracle;

use oracle::topk::top_k_full_sort;
use oracle::ScopedOracle;
use proptest::prelude::*;
use sidco::core::engine::{CompressionEngine, RuntimeKind};
use sidco::prelude::*;
use sidco::runtime::{handle, WorkStealing};
use sidco::stats::moments::MomentNeeds;
use sidco::tensor::encoding::{delta_varint_encode, delta_varint_encode_on, raw_encode_on};
use sidco::tensor::parallel::{
    abs_moments_on, count_above_threshold_on, exceedance_moments_on, map_chunks_on,
    select_above_threshold_on, signed_moments_on, top_k_on,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Strategy: a gradient long enough to span several 64-element chunks, with
/// mixed magnitudes (including exact zeros and near-ties).
fn gradient_strategy() -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(
        prop_oneof![
            4 => -1.0f32..1.0,
            1 => -0.001f32..0.001,
            1 => Just(0.25f32),
            1 => Just(0.0f32),
        ],
        96..700,
    )
}

/// One instance of every engine-routed compressor, sharing `engine`.
fn engine_compressors(engine: CompressionEngine) -> Vec<Box<dyn Compressor>> {
    vec![
        Box::new(SidcoCompressor::new(SidcoConfig::exponential()).with_engine(engine)),
        Box::new(SidcoCompressor::new(SidcoConfig::gamma_pareto()).with_engine(engine)),
        Box::new(SidcoCompressor::new(SidcoConfig::generalized_pareto()).with_engine(engine)),
        Box::new(DgcCompressor::new().with_engine(engine)),
        Box::new(RedSyncCompressor::new().with_engine(engine)),
        Box::new(GaussianKSgdCompressor::new().with_engine(engine)),
        Box::new(TopKCompressor::new().with_engine(engine)),
    ]
}

/// Compresses `grad` with every compressor at the given thread count (chunk
/// size pinned small so even short test gradients span many chunks).
fn compress_all(threads: usize, grad: &[f32], delta: f64) -> Vec<(String, SparseGradient)> {
    engine_compressors(CompressionEngine::new(threads).with_chunk_size(64))
        .into_iter()
        .map(|mut c| {
            let result = c.compress(grad, delta);
            (c.name().to_string(), result.sparse)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_compressor_is_bit_identical_across_thread_counts(
        grad in gradient_strategy(),
        delta in prop_oneof![
            6 => 0.005f64..0.5,
            1 => Just(0.0f64),
            1 => Just(f64::NAN),
            1 => Just(1.0f64),
            1 => Just(1.5f64),
        ],
    ) {
        // All 7 engine-routed compressors (Random-k draws indices without
        // the engine), the inline runtime (1 thread) against the pool (2 and
        // 7): the runtime decides only where chunks execute, never what they
        // contain. The `Just` ratios drive the δ policy's empty selection
        // (0, NaN) and keep-everything `select_above(grad, 0.0)` (1, 1.5).
        let reference = compress_all(1, &grad, delta);
        for threads in [2usize, 7] {
            let other = compress_all(threads, &grad, delta);
            for ((name, a), (_, b)) in reference.iter().zip(&other) {
                prop_assert!(
                    a == b,
                    "{name} differs between 1 and {threads} threads"
                );
            }
        }
    }

    #[test]
    fn parallel_delta_varint_is_byte_identical_at_every_worker_count(
        grad in gradient_strategy(),
        threshold in 0.0f64..0.4,
    ) {
        let sparse = sidco::tensor::threshold::select_above_threshold(&grad, threshold);
        let reference = delta_varint_encode(&sparse);
        for workers in [1usize, 2, 7] {
            // 17-pair shards split the gap stream mid-run on these inputs.
            let parallel =
                delta_varint_encode_on(&sparse, 17, handle(RuntimeKind::Pool, workers));
            prop_assert!(
                parallel.payload() == reference.payload(),
                "varint stream differs at {workers} workers"
            );
        }
    }

    #[test]
    fn every_primitive_is_bit_identical_on_every_runtime(
        grad in gradient_strategy(),
        chunk in prop_oneof![Just(7usize), Just(64), Just(97)],
        threshold in 0.0f64..0.6,
        k in 0usize..800,
    ) {
        let runtimes = reference_runtimes();
        let run = |runtime: &dyn Runtime| {
            let sparse = select_above_threshold_on(&grad, threshold, chunk, runtime);
            (
                // `{:?}` prints every f64 as its shortest round-trip form, so
                // equal strings mean equal bits (and -0.0 stays distinct).
                format!(
                    "{:?}",
                    (
                        map_chunks_on(&grad, chunk, runtime, |c, part| (c, part.len())),
                        abs_moments_on(&grad, MomentNeeds::ALL, chunk, runtime),
                        exceedance_moments_on(&grad, threshold, MomentNeeds::ALL, chunk, runtime),
                        signed_moments_on(&grad, chunk, runtime),
                        count_above_threshold_on(&grad, threshold, chunk, runtime),
                    )
                ),
                top_k_on(&grad, k, chunk, runtime),
                raw_encode_on(&sparse, 17, runtime).payload().to_vec(),
                delta_varint_encode_on(&sparse, 17, runtime).payload().to_vec(),
                sparse,
            )
        };
        let reference = run(runtimes[0]);
        for runtime in &runtimes[1..] {
            prop_assert!(
                run(*runtime) == reference,
                "{runtime:?} differs from the inline runtime"
            );
        }
        // Chunked quickselect keeps the full-sort oracle's selection.
        prop_assert_eq!(reference.1.indices().to_vec(), top_k_full_sort(&grad, k));
    }

    #[test]
    fn engine_selection_matches_sequential_operator(
        grad in gradient_strategy(),
        threshold in 0.0f64..0.6,
    ) {
        let engine = CompressionEngine::new(5).with_chunk_size(64);
        let parallel = engine.select_above(&grad, threshold);
        let sequential = sidco::tensor::threshold::select_above_threshold(&grad, threshold);
        prop_assert_eq!(parallel, sequential);
        prop_assert_eq!(
            engine.count_above(&grad, threshold),
            sidco::tensor::threshold::count_above_threshold(&grad, threshold)
        );
    }
}

/// The runtimes every primitive must agree on: the inline runtime first (the
/// reference), the scoped-thread oracle at 2 and 7 threads, and a private
/// 4-worker pool — a worker count neither oracle uses, so its pre-split and
/// steal order differ from both.
fn reference_runtimes() -> [&'static dyn Runtime; 4] {
    static ORACLE_2: ScopedOracle = ScopedOracle { threads: 2 };
    static ORACLE_7: ScopedOracle = ScopedOracle { threads: 7 };
    static POOL: OnceLock<WorkStealing> = OnceLock::new();
    let pool = POOL.get_or_init(|| WorkStealing::new(4));
    [handle(RuntimeKind::Pool, 1), &ORACLE_2, &ORACLE_7, pool]
}

#[test]
fn scoped_oracle_runs_every_index_exactly_once() {
    for threads in [1usize, 2, 3, 8] {
        let runtime = ScopedOracle { threads };
        assert_eq!(runtime.parallelism(), threads);
        for n in [0usize, 1, 2, 7, 100] {
            let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
            runtime.run_indexed(n, &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
    }
    assert!(ScopedOracle { threads: 2 }.stats().is_none());
}

#[test]
fn scoped_oracle_panics_propagate_after_every_index_ran() {
    // The contract every runtime honours: a panicking body must not prevent
    // the other indices of its worker's block from executing.
    for threads in [1usize, 3] {
        let runtime = ScopedOracle { threads };
        let hits: Vec<AtomicU64> = (0..40).map(|_| AtomicU64::new(0)).collect();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            runtime.run_indexed(40, &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
                assert!(i != 3, "index 3 exploded");
            });
        }));
        assert!(result.is_err(), "the panic must reach the caller");
        for (i, hit) in hits.iter().enumerate() {
            assert_eq!(hit.load(Ordering::Relaxed), 1, "index {i} at {threads}");
        }
    }
}

/// The pool-lifecycle acceptance test: the engine's pool spawns its OS
/// workers exactly once (lazily, on the first parallel call) and every later
/// `compress` call reuses them — no per-call thread spawn.
#[test]
fn repeated_compress_calls_never_spawn_new_os_threads() {
    // The 5-thread pool may be shared with other tests in this binary, but
    // the assertions below are robust to that: `threads_spawned` is exactly
    // the worker count no matter who triggered the lazy spawn, and the
    // job/chunk counters only ever grow.
    let engine = CompressionEngine::new(5);
    let grad: Vec<f32> = (1..=400_000)
        .map(|j| if j % 2 == 0 { 1.0 } else { -1.0 } * (j as f32).powf(-0.6))
        .collect();
    let mut compressor = SidcoCompressor::new(SidcoConfig::exponential()).with_engine(engine);

    compressor.compress(&grad, 0.01);
    let after_first = engine.pool_stats().expect("pool engine keeps stats");
    assert_eq!(
        after_first.threads_spawned, 5,
        "the first parallel call spawns the full complement"
    );
    assert!(after_first.jobs > 0 && after_first.chunks_executed > 0);

    for _ in 0..8 {
        compressor.compress(&grad, 0.01);
    }
    let after_many = engine.pool_stats().expect("pool engine keeps stats");
    assert_eq!(
        after_many.threads_spawned, 5,
        "repeated compress calls must reuse the same OS threads"
    );
    assert!(
        after_many.jobs > after_first.jobs,
        "later calls must have dispatched to the same pool"
    );
    // The lifecycle counters stay coherent: everything popped or stolen was
    // executed, and parked workers were woken at least as often as new work
    // arrived while they slept. Snapshots are taken under the pool's sleep
    // lock, so the park/unpark ledger balances exactly against the gauge of
    // workers asleep at snapshot time — no drift.
    assert!(after_many.chunks_executed > after_first.chunks_executed);
    for stats in [&after_first, &after_many] {
        assert_eq!(
            stats.parks - stats.unparks,
            stats.currently_parked,
            "park ledger must balance: {} parks, {} unparks, {} asleep",
            stats.parks,
            stats.unparks,
            stats.currently_parked
        );
    }
    // A second engine value with the same configuration shares the pool
    // (engines are plain values; executors are process-wide).
    let alias = CompressionEngine::new(5).with_runtime(RuntimeKind::Pool);
    assert_eq!(alias, engine);
    assert_eq!(alias.pool_stats().expect("shared pool").threads_spawned, 5);
}

#[test]
fn adaptive_sidco_state_stays_identical_across_threads_over_iterations() {
    // The stage-count controller feeds back achieved ratios; if any iteration
    // diverged between thread counts the states (and outputs) would fork.
    let grad: Vec<f32> = (1..=40_000)
        .map(|j| if j % 2 == 0 { 1.0 } else { -1.0 } * (j as f32).powf(-0.7))
        .collect();
    let mut serial =
        SidcoCompressor::new(SidcoConfig::exponential()).with_engine(CompressionEngine::new(1));
    let mut parallel =
        SidcoCompressor::new(SidcoConfig::exponential()).with_engine(CompressionEngine::new(7));
    for _ in 0..12 {
        let a = serial.compress(&grad, 0.003);
        let b = parallel.compress(&grad, 0.003);
        assert_eq!(a.sparse, b.sparse);
        assert_eq!(a.threshold, b.threshold);
        assert_eq!(a.stages_used, b.stages_used);
    }
    assert_eq!(serial.current_stages(), parallel.current_stages());
}

fn trainer_report(buckets: usize, overlap: bool, iterations: u64) -> sidco::dist::TrainingReport {
    let model: Arc<dyn sidco::models::DifferentiableModel> =
        Arc::new(sidco::models::regression::LinearRegression::new(
            sidco::models::dataset::RegressionDataset::generate(128, 96, 0.01, 5),
        ));
    let config = TrainerConfig {
        iterations,
        batch_per_worker: 16,
        schedule: LrSchedule::constant(0.1),
        buckets,
        overlap,
        ..TrainerConfig::default()
    };
    let mut trainer = ModelTrainer::new(model, ClusterConfig::small_test(), config, || {
        Box::new(SidcoCompressor::new(SidcoConfig::exponential()))
    });
    trainer.run(0.05)
}

#[test]
fn overlapped_trainer_converges_identically_to_serial() {
    let serial = trainer_report(6, false, 60);
    let overlapped = trainer_report(6, true, 60);

    let losses =
        |r: &sidco::dist::TrainingReport| r.samples().iter().map(|s| s.loss).collect::<Vec<f64>>();
    assert_eq!(losses(&serial), losses(&overlapped));
    assert_eq!(serial.final_evaluation(), overlapped.final_evaluation());
    assert_eq!(
        serial.estimation_quality().mean_normalized_ratio,
        overlapped.estimation_quality().mean_normalized_ratio
    );

    // Pipelining strictly reduces the simulated overhead with several buckets.
    assert!(
        overlapped.total_time() < serial.total_time(),
        "overlapped {} should undercut serial {}",
        overlapped.total_time(),
        serial.total_time()
    );
    let accounting = overlapped.schedule().expect("compressed run");
    assert_eq!(accounting.buckets(), 6);
    assert!(accounting.charged_overhead() < accounting.serial_overhead());
    assert!(accounting.speedup_vs_serial() > 1.0);
}

/// Cross-validation of the engine-aware device cost model
/// (`DeviceProfile::compression_time_with_workers`, through
/// `engine_speedup`) against the *measured* multi-thread behaviour of the
/// real `CompressionEngine` on the pool on this host.
///
/// Wall-clock assertions are kept deliberately loose (CI machines vary, and
/// single-core hosts measure no speed-up at all): the test checks the
/// *shape* — the model is monotone with diminishing returns, the measured
/// speed-up never meaningfully exceeds the model's ideal sharding prediction,
/// and on any host the measured curve stays within a generous envelope of 1×
/// to the modelled ceiling.
#[test]
fn modeled_engine_speedup_bounds_the_measured_speedup() {
    use sidco::core::compressor::CompressorKind;
    use sidco::dist::device::DeviceProfile;
    use std::time::Instant;

    const DIM: usize = 1 << 22;
    const DELTA: f64 = 0.01;
    let grad: Vec<f32> = {
        let mut generator = SyntheticGradientGenerator::new(DIM, GradientProfile::LaplaceLike, 3);
        generator.gradient(0).into_vec()
    };
    let cpu = DeviceProfile::cpu();
    let kind = CompressorKind::Sidco(sidco::stats::fit::SidKind::Exponential);

    let measure = |threads: usize| -> f64 {
        let mut compressor = SidcoCompressor::new(SidcoConfig::exponential())
            .with_engine(CompressionEngine::new(threads));
        compressor.compress(&grad, DELTA); // warm up (allocation, stages, pool spawn)
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let start = Instant::now();
            compressor.compress(&grad, DELTA);
            best = best.min(start.elapsed().as_secs_f64());
        }
        best
    };

    let serial = measure(1);
    for threads in [2usize, 4] {
        let measured_speedup = serial / measure(threads);
        let modeled_speedup = cpu.engine_speedup(kind, DIM, DELTA, 2, threads);
        // The model shards per-element work perfectly, so it is an upper
        // envelope for the measured ratio (3× slack for timer noise, cache
        // effects and loaded CI runners).
        assert!(
            measured_speedup <= modeled_speedup * 3.0,
            "measured {measured_speedup:.2}x exceeds even thrice the modeled \
             ideal {modeled_speedup:.2}x at {threads} threads"
        );
        // And no configuration should make compression dramatically slower.
        assert!(
            measured_speedup > 0.2,
            "{threads} threads slowed compression {measured_speedup:.2}x"
        );
        // The model itself predicts a real speed-up for this linear-pass
        // scheme, bounded by the thread count.
        assert!(modeled_speedup > 1.0 && modeled_speedup <= threads as f64);
    }
}
