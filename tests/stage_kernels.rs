//! Property suite of the SIDCo stage kernels.
//!
//! A moment pass asked for a subset of the [`AbsMoments`] fields (a
//! [`MomentNeeds`]) must return every requested field with the exact bits of
//! the all-fields pass, after the same chunk merge, and must report every
//! unrequested field as NaN (`positive_count` as 0). The suite drives the
//! passes through the rescanning [`StageMoments`] oracle (`oracle::Rescan`)
//! at 1 thread (inline) and at 2 and 7 threads (the pool), over hostile
//! gradients: NaN, ±Inf, subnormals, signed zeros, all-zero buffers, and
//! exact ties at an `f64` threshold that `f32` cannot represent. Lengths
//! cover the empty buffer, one element, both sides of the 1Ki compaction
//! block, and lengths that are not multiples of the chunk size. The
//! all-fields passes themselves are pinned to a plain filter-and-add oracle,
//! and the multi-stage thresholds built on the lean passes to the thresholds
//! built on the all-fields passes.
//!
//! The compressor's estimate keeps the stage-1 survivors and narrows them
//! instead of rescanning the gradient. Its thresholds, survivor counts and
//! selections must equal the rescanning oracle's bit for bit, for every SID,
//! 1 to 5 stages, δ at its edges and every chunk size, and reusing the
//! survivor buffer across calls must change nothing. The branch-free
//! selection kernel, over a gradient or over survivor lists, must
//! reproduce the `C_η` filter loop.
//!
//! Every stage update fits its SID with `fit_sid_from_moments`. The
//! multi-stage estimate built on those fits must equal, thresholds and
//! survivor counts bit for bit, the estimate driven by the closed-form
//! peaks-over-threshold updates of the paper (`oracle::pot_estimate`), for
//! every SID, 1 to 4 stages and δ in (1e-4, 0.2), over heavy-tailed and
//! degenerate gradients; and each stage update must equal the closed-form
//! one on moments at the fits' fallback edges.

mod oracle;

use oracle::{filter_select, pot_estimate, pot_stage_threshold, Rescan};
use proptest::prelude::*;
use sidco::core::engine::CompressionEngine;
use sidco::core::prelude::*;
use sidco::core::sidco::FIRST_STAGE_RATIO;
use sidco::models::synthetic::{GradientProfile, SyntheticGradientGenerator};
use sidco::stats::fit::SidKind;
use sidco::stats::moments::{AbsMoments, MomentNeeds};
use sidco::stats::pot::{
    multi_stage_threshold, multi_stage_threshold_with, stage_threshold, MultiStageEstimate,
    StageMoments,
};
use sidco::tensor::parallel::{exceedance_moments_on, select_above_threshold_on, SurvivorLists};
use sidco::tensor::threshold::select_above_threshold;
use sidco::tensor::SparseGradient;

/// An `f64` threshold that `f32` cannot represent: it rounds down to
/// [`TIE`], so gradient entries of magnitude `TIE` tie the threshold the
/// selection operator actually applies.
const UNREPRESENTABLE: f64 = 0.35;
const TIE: f32 = UNREPRESENTABLE as f32;

/// Every combination of the optional fields.
fn all_needs() -> impl Iterator<Item = MomentNeeds> {
    (0..8u8).map(|bits| MomentNeeds {
        variance: bits & 1 != 0,
        mean_ln: bits & 2 != 0,
        max: bits & 4 != 0,
    })
}

/// Thresholds covering the kernel's special cases: zero, an unrepresentable
/// tie, a subnormal, a negative value, NaN, infinity, and a finite `f64`
/// that overflows `f32`.
const THRESHOLDS: [f64; 8] = [
    0.0,
    UNREPRESENTABLE,
    0.05,
    1e-40,
    -0.5,
    f64::NAN,
    f64::INFINITY,
    1e300,
];

/// A hostile gradient element.
fn element() -> impl Strategy<Value = f32> {
    prop_oneof![
        6 => -1.0f32..1.0,
        1 => Just(TIE),
        1 => Just(-TIE),
        1 => Just(f32::from_bits(TIE.to_bits() - 1)),
        1 => Just(f32::NAN),
        1 => Just(f32::INFINITY),
        1 => Just(f32::NEG_INFINITY),
        1 => (1u32..0x0080_0000).prop_map(f32::from_bits),
        1 => Just(0.0f32),
        1 => Just(-0.0f32),
    ]
}

/// A hostile gradient whose length is either one of the block and chunk
/// edges or arbitrary.
fn gradient() -> impl Strategy<Value = Vec<f32>> {
    let len = prop_oneof![
        Just(0usize),
        Just(1usize),
        Just(1023usize),
        Just(1024usize),
        Just(1025usize),
        0usize..2600,
    ];
    (prop::collection::vec(element(), 2600), len).prop_map(|(mut grad, len)| {
        grad.truncate(len);
        grad
    })
}

/// Every engine the suite compares: 1 (inline), 2 and 7 threads (the pool),
/// with a chunk size that leaves a ragged last chunk on most lengths.
fn engines(chunk_size: usize) -> Vec<CompressionEngine> {
    [1usize, 2, 7]
        .into_iter()
        .map(|threads| CompressionEngine::new(threads).with_chunk_size(chunk_size))
        .collect()
}

/// `Err` naming the first field where `lean` breaks the needs contract
/// against the all-fields `full`.
fn check_needs(lean: &AbsMoments, full: &AbsMoments, needs: MomentNeeds) -> Result<(), String> {
    let same = |name: &str, a: f64, b: f64| {
        if a.to_bits() == b.to_bits() {
            Ok(())
        } else {
            Err(format!("{name}: {a:e} vs all-fields {b:e}"))
        }
    };
    let unrequested = |name: &str, a: f64| {
        if a.is_nan() {
            Ok(())
        } else {
            Err(format!("unrequested {name} is {a:e}, not NaN"))
        }
    };
    if lean.count != full.count {
        return Err(format!("count {} vs {}", lean.count, full.count));
    }
    same("mean", lean.mean, full.mean)?;
    if needs.variance {
        same("variance", lean.variance, full.variance)?;
    } else {
        unrequested("variance", lean.variance)?;
    }
    if needs.mean_ln {
        same("mean_ln", lean.mean_ln, full.mean_ln)?;
        if lean.positive_count != full.positive_count {
            return Err(format!(
                "positive_count {} vs {}",
                lean.positive_count, full.positive_count
            ));
        }
    } else {
        unrequested("mean_ln", lean.mean_ln)?;
        if lean.positive_count != 0 {
            return Err("unrequested positive_count is not 0".into());
        }
    }
    if needs.max {
        same("max", lean.max, full.max)
    } else {
        unrequested("max", lean.max)
    }
}

/// The filter-and-add loop the all-fields exceedance pass must reproduce bit
/// for bit: `|g| - t` over the finite `|g|` with `!(|g| < t)`, in index
/// order, with `t` the `f32`-rounded threshold. `None` is the full pass.
fn oracle(grad: &[f32], threshold: Option<f64>) -> AbsMoments {
    let t = threshold.map_or(0.0, |t| t as f32);
    let shift = t as f64;
    let (mut count, mut positive) = (0usize, 0usize);
    let (mut sum, mut sum_sq, mut sum_ln, mut max) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    for &g in grad {
        let a = g.abs();
        if !a.is_finite() || (threshold.is_some() && a < t) {
            continue;
        }
        let x = a as f64 - shift;
        count += 1;
        sum += x;
        sum_sq += x * x;
        if x > 0.0 {
            sum_ln += x.ln();
            positive += 1;
        }
        if x > max {
            max = x;
        }
    }
    if count == 0 {
        return AbsMoments::empty(MomentNeeds::ALL);
    }
    let n = count as f64;
    let mean = sum / n;
    AbsMoments {
        count,
        positive_count: positive,
        mean,
        variance: (sum_sq / n - mean * mean).max(0.0),
        mean_ln: if positive > 0 {
            sum_ln / positive as f64
        } else {
            0.0
        },
        max,
    }
}

/// Field-by-field bit equality of two all-fields results.
fn bit_equal(a: &AbsMoments, b: &AbsMoments) -> bool {
    a.count == b.count
        && a.positive_count == b.positive_count
        && [
            (a.mean, b.mean),
            (a.variance, b.variance),
            (a.mean_ln, b.mean_ln),
            (a.max, b.max),
        ]
        .iter()
        .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// A [`StageMoments`] backend that always runs the all-fields passes.
struct AllFields(CompressionEngine);

impl StageMoments for AllFields {
    fn full_moments(&mut self, grad: &[f32], _: MomentNeeds) -> AbsMoments {
        self.0.abs_moments(grad)
    }

    fn exceedance_moments(&mut self, grad: &[f32], threshold: f64, _: MomentNeeds) -> AbsMoments {
        self.0.pot_moments(grad, threshold)
    }
}

proptest! {
    #[test]
    fn needs_aware_kernels_match_the_all_fields_kernels_bit_for_bit(
        grad in gradient(),
        chunk_size in prop_oneof![Just(1000usize), Just(1024usize), 97usize..1500],
    ) {
        for engine in engines(chunk_size) {
            let mut rescan = Rescan(engine);
            let full = engine.abs_moments(&grad);
            for needs in all_needs() {
                let lean = rescan.full_moments(&grad, needs);
                if let Err(why) = check_needs(&lean, &full, needs) {
                    return Err(TestCaseError::fail(format!(
                        "full pass, {needs:?}, {} threads, len {}: {why}",
                        engine.threads(),
                        grad.len()
                    )));
                }
            }
            for threshold in THRESHOLDS {
                let full = engine.pot_moments(&grad, threshold);
                for needs in all_needs() {
                    let lean = rescan.exceedance_moments(&grad, threshold, needs);
                    if let Err(why) = check_needs(&lean, &full, needs) {
                        return Err(TestCaseError::fail(format!(
                            "exceedances over {threshold:e}, {needs:?}, {} threads, len {}: {why}",
                            engine.threads(),
                            grad.len()
                        )));
                    }
                }
            }
        }
    }

    #[test]
    fn all_fields_kernels_reproduce_the_filter_loop(grad in gradient()) {
        // One chunk, so the engine result is the kernel's own result.
        let engine = CompressionEngine::sequential().with_chunk_size(1 << 16);
        prop_assert!(
            bit_equal(&engine.abs_moments(&grad), &oracle(&grad, None)),
            "full pass differs from the filter loop"
        );
        prop_assert!(bit_equal(&AbsMoments::compute(&grad), &oracle(&grad, None)));
        for threshold in THRESHOLDS {
            prop_assert!(
                bit_equal(
                    &AbsMoments::compute_exceedances(&grad, threshold),
                    &oracle(&grad, Some(threshold))
                ),
                "exceedances over {threshold:e} differ from the filter loop"
            );
        }
    }

    #[test]
    fn stage_thresholds_from_lean_passes_equal_all_fields_thresholds(
        grad in gradient(),
        delta in 0.0005f64..0.3,
        stages in 1usize..5,
    ) {
        for engine in [
            CompressionEngine::new(1).with_chunk_size(97),
            CompressionEngine::new(2).with_chunk_size(1000),
            CompressionEngine::new(7).with_chunk_size(97),
        ] {
            for kind in SidKind::ALL {
                let lean =
                    multi_stage_threshold_with(&grad, kind, delta, 0.25, stages, &mut Rescan(engine));
                let full = multi_stage_threshold_with(
                    &grad,
                    kind,
                    delta,
                    0.25,
                    stages,
                    &mut AllFields(engine),
                );
                prop_assert_eq!(lean, full);
            }
        }
    }
}

#[test]
fn degenerate_buffers_follow_the_contract() {
    let buffers: [Vec<f32>; 4] = [
        Vec::new(),
        vec![0.0; 1025],
        vec![f32::NAN; 1024],
        vec![f32::NEG_INFINITY, -0.0, f32::INFINITY],
    ];
    for grad in &buffers {
        for engine in engines(1000) {
            let mut rescan = Rescan(engine);
            for needs in all_needs() {
                let lean = rescan.full_moments(grad, needs);
                check_needs(&lean, &engine.abs_moments(grad), needs).unwrap();
                assert_eq!(lean.mean, 0.0);
                let lean = rescan.exceedance_moments(grad, UNREPRESENTABLE, needs);
                check_needs(&lean, &engine.pot_moments(grad, UNREPRESENTABLE), needs).unwrap();
                assert_eq!(lean.count, 0);
            }
        }
    }
}

// ------------------------------------------------- survivor compaction

/// Target ratios for the compaction property: the interior, and the edges
/// of `(0, 1)` where the schedule collapses to one stage (δ ≥ δ₁ = 0.25),
/// sits one ulp under the collapse, or is clamped to the smallest normal.
fn delta() -> impl Strategy<Value = f64> {
    prop_oneof![
        4 => 0.0005f64..0.3,
        1 => Just(0.25f64),
        1 => Just(f64::from_bits(0.25f64.to_bits() - 1)),
        1 => Just(0.999_999f64),
        1 => Just(f64::MIN_POSITIVE),
        1 => Just(1e-320f64),
        1 => Just(1e-300f64),
    ]
}

/// A compressor fixed at `stages` stages (no adaptation within a test).
fn compressor(kind: SidKind, stages: usize, engine: CompressionEngine) -> SidcoCompressor {
    SidcoCompressor::new(SidcoConfig {
        initial_stages: stages,
        max_stages: stages,
        adaptation_period: 1_000_000,
        ..SidcoConfig::for_sid(kind)
    })
    .with_engine(engine)
}

/// `Err` naming the first difference between a compacted and a rescanned
/// estimate, thresholds compared by their bits.
fn same_estimate(
    compacted: &Option<MultiStageEstimate>,
    rescanned: &Option<MultiStageEstimate>,
) -> Result<(), String> {
    match (compacted, rescanned) {
        (None, None) => Ok(()),
        (Some(c), Some(r)) => {
            let bits = |e: &MultiStageEstimate| -> Vec<u64> {
                e.thresholds.iter().map(|t| t.to_bits()).collect()
            };
            if bits(c) != bits(r) {
                return Err(format!(
                    "thresholds {:?} vs {:?}",
                    c.thresholds, r.thresholds
                ));
            }
            if c.survivors != r.survivors || c.schedule != r.schedule {
                return Err(format!("{c:?} vs {r:?}"));
            }
            Ok(())
        }
        _ => Err(format!("{compacted:?} vs {rescanned:?}")),
    }
}

/// Index and value bits of a selection.
fn pairs(sparse: &SparseGradient) -> Vec<(u32, u32)> {
    sparse.iter().map(|(i, v)| (i, v.to_bits())).collect()
}

/// The filter-loop selection as [`pairs`].
fn filter_pairs(grad: &[f32], threshold: f64) -> Vec<(u32, u32)> {
    filter_select(grad, threshold)
        .into_iter()
        .map(|(i, v)| (i, v.to_bits()))
        .collect()
}

/// `Err` naming where a compacted compress and estimate of `grad` differ
/// from the rescanning oracle on the same engine: the estimate, the
/// selection, its threshold and the stage count.
fn check_compaction(
    compressor: &mut SidcoCompressor,
    grad: &[f32],
    delta: f64,
) -> Result<(), String> {
    let engine = compressor.engine();
    let config = *compressor.config();
    let stages = compressor.current_stages();
    let rescanned = multi_stage_threshold_with(
        grad,
        config.sid,
        delta.max(f64::MIN_POSITIVE),
        FIRST_STAGE_RATIO,
        stages,
        &mut Rescan(engine),
    )
    .ok();
    same_estimate(&compressor.estimate_threshold(grad, delta), &rescanned)
        .map_err(|why| format!("estimate: {why}"))?;
    let result = compressor.compress(grad, delta);
    let (threshold, expected) = match &rescanned {
        Some(est) => (
            est.final_threshold(),
            engine.select_above(grad, est.final_threshold()),
        ),
        None if grad.is_empty() => return Ok(()),
        None => (0.0, SparseGradient::empty(grad.len())),
    };
    if pairs(&result.sparse) != pairs(&expected) || result.sparse.dense_len() != grad.len() {
        return Err(format!(
            "selection of {} pairs vs {} rescanned",
            result.sparse.nnz(),
            expected.nnz()
        ));
    }
    if result.threshold.map(f64::to_bits) != Some(threshold.to_bits()) {
        return Err(format!("threshold {:?} vs {threshold}", result.threshold));
    }
    let used = rescanned.as_ref().map_or(stages, |e| e.thresholds.len());
    if result.stages_used != Some(used) {
        return Err(format!("stages_used {:?} vs {used}", result.stages_used));
    }
    Ok(())
}

proptest! {
    #[test]
    fn compacted_estimates_and_selections_equal_the_rescanning_oracle(
        grad in gradient(),
        chunk_size in prop_oneof![Just(97usize), Just(1000usize), Just(65536usize)],
        delta in delta(),
        stages in 1usize..=5,
    ) {
        for engine in engines(chunk_size) {
            for kind in SidKind::ALL {
                let mut c = compressor(kind, stages, engine);
                if let Err(why) = check_compaction(&mut c, &grad, delta) {
                    return Err(TestCaseError::fail(format!(
                        "{kind}, {stages} stages, δ {delta:e}, {} threads, chunk {chunk_size}, \
                         len {}: {why}",
                        engine.threads(),
                        grad.len()
                    )));
                }
            }
        }
    }

    #[test]
    fn a_reused_survivor_buffer_compresses_like_a_fresh_one(
        first in gradient(),
        second in gradient(),
        delta in 0.0005f64..0.2,
    ) {
        for engine in [
            CompressionEngine::new(1).with_chunk_size(97),
            CompressionEngine::new(2).with_chunk_size(1000),
        ] {
            let fresh = on_a_fresh_thread(SidKind::Exponential, engine, &second, delta);
            // The same compressor, and another one, after `first` on this
            // thread's buffer.
            let mut reused = compressor(SidKind::Exponential, 3, engine);
            reused.compress(&first, delta);
            let again = reused.compress(&second, delta);
            compressor(SidKind::Exponential, 3, engine).compress(&first, delta);
            let other = compressor(SidKind::Exponential, 3, engine).compress(&second, delta);
            for result in [&again, &other] {
                prop_assert_eq!(pairs(&result.sparse), pairs(&fresh.sparse));
                prop_assert_eq!(
                    result.threshold.map(f64::to_bits),
                    fresh.threshold.map(f64::to_bits)
                );
                prop_assert_eq!(result.stages_used, fresh.stages_used);
            }
        }
    }

    #[test]
    fn branch_free_selection_reproduces_the_filter_loop(
        grad in gradient(),
        chunk_size in prop_oneof![Just(97usize), Just(1000usize), Just(65536usize)],
    ) {
        for threshold in THRESHOLDS.into_iter().chain([-0.0, f64::NEG_INFINITY]) {
            let expected = filter_pairs(&grad, threshold);
            prop_assert_eq!(pairs(&select_above_threshold(&grad, threshold)), expected.clone());
            for engine in engines(chunk_size) {
                let runtime = engine.shared_runtime();
                let parallel = select_above_threshold_on(&grad, threshold, chunk_size, runtime);
                prop_assert!(
                    pairs(&parallel) == expected,
                    "{threshold:e}, {} threads",
                    engine.threads()
                );
            }
            // The contract's edges: +Inf is kept by every threshold that is
            // not NaN, NaN never, and indices ascend.
            let selected = select_above_threshold(&grad, threshold);
            let infinities = grad.iter().filter(|g| g.is_infinite()).count();
            let kept_infinities = selected.values().iter().filter(|v| v.is_infinite()).count();
            prop_assert_eq!(kept_infinities, if threshold.is_nan() { 0 } else { infinities });
            prop_assert!(selected.values().iter().all(|v| !v.is_nan()));
            prop_assert!(selected.indices().windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn survivor_lists_keep_the_bits_of_the_rescanning_passes(
        grad in gradient(),
        chunk_size in prop_oneof![Just(97usize), Just(1000usize), Just(65536usize)],
        first in 0usize..7,
    ) {
        // Every non-NaN threshold of the suite, ascending.
        let ladder = [-0.5, 0.0, 1e-40, 0.05, UNREPRESENTABLE, 1e300, f64::INFINITY];
        for engine in engines(chunk_size) {
            let runtime = engine.shared_runtime();
            for needs in [MomentNeeds::MEAN, MomentNeeds::MEAN.with_variance(), MomentNeeds::ALL] {
                let mut lists = SurvivorLists::new();
                for (step, &threshold) in ladder[first..].iter().enumerate() {
                    let listed = if step == 0 {
                        lists.fill_on(&grad, threshold, needs, chunk_size, runtime)
                    } else {
                        lists.narrow_on(threshold, needs, runtime)
                    };
                    let scanned =
                        exceedance_moments_on(&grad, threshold, needs, chunk_size, runtime);
                    prop_assert!(
                        bit_equal(&listed, &scanned),
                        "{threshold:e}, {needs:?}, {} threads: {listed:?} vs {scanned:?}",
                        engine.threads()
                    );
                    for &later in &ladder[first + step..] {
                        prop_assert!(
                            pairs(&lists.select_on(later, runtime)) == filter_pairs(&grad, later),
                            "select at {later:e} over lists at {threshold:e}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn reused_buffers_follow_shorter_longer_and_all_nan_gradients() {
    let long: Vec<f32> = (1..=5000)
        .map(|j| if j % 3 == 0 { -1.0 } else { 1.0 } * (j as f32).powf(-0.7))
        .collect();
    let short = long[..1200].to_vec();
    let nan = vec![f32::NAN; 2000];
    let mut orders: Vec<[&[f32]; 2]> = vec![[&long, &short], [&short, &long], [&long, &nan]];
    orders.push([&nan, &short]);
    for engine in engines(1000) {
        for kind in SidKind::ALL {
            for [first, second] in &orders {
                let mut reused = compressor(kind, 3, engine);
                reused.compress(first, 0.001);
                let again = reused.compress(second, 0.001);
                let fresh = on_a_fresh_thread(kind, engine, second, 0.001);
                assert_eq!(pairs(&again.sparse), pairs(&fresh.sparse), "{kind}");
                assert_eq!(again.sparse.dense_len(), second.len());
                assert_eq!(
                    again.threshold.map(f64::to_bits),
                    fresh.threshold.map(f64::to_bits)
                );
                assert_eq!(again.stages_used, fresh.stages_used);
                check_compaction(&mut reused, second, 0.001).unwrap();
            }
        }
    }
}

/// The first compress of `grad` by a new 3-stage compressor on a new
/// thread, whose survivor buffer nothing has used yet.
fn on_a_fresh_thread(
    kind: SidKind,
    engine: CompressionEngine,
    grad: &[f32],
    delta: f64,
) -> CompressionResult {
    std::thread::scope(|s| {
        s.spawn(|| compressor(kind, 3, engine).compress(grad, delta))
            .join()
            .expect("fresh-thread compress panicked")
    })
}

/// Release-size compaction: a 4Mi heavy-tailed gradient at the default
/// chunk size (64 chunks), 3 stages, every SID. Run with
/// `cargo test --release --test stage_kernels -- --include-ignored`.
#[test]
#[ignore = "release-size; run with --release -- --include-ignored"]
fn compaction_is_exact_at_release_size() {
    let grad = SyntheticGradientGenerator::new(1 << 22, GradientProfile::HeavyTail, 17).gradient(3);
    let grad = grad.as_slice();
    for threads in [1, 2, 7] {
        let engine = CompressionEngine::new(threads);
        for kind in SidKind::ALL {
            let mut c = compressor(kind, 3, engine);
            for delta in [0.001, 0.01] {
                check_compaction(&mut c, grad, delta)
                    .unwrap_or_else(|why| panic!("{kind}, δ {delta}, {threads} threads: {why}"));
            }
        }
    }
}

// ------------------------------------------- the closed-form PoT oracle

/// A signed heavy-tailed gradient: generalized-Pareto draws
/// `β (u^-ξ - 1) / ξ` with tail index ξ ∈ [0.05, 1.2) and scale β = 2^e,
/// e ∈ [-30, 4).
fn heavy_tailed() -> impl Strategy<Value = Vec<f32>> {
    (
        prop::collection::vec((1u32..=u32::MAX, 0u32..2), 1..3000),
        0.05f64..1.2,
        -30i32..4,
    )
        .prop_map(|(draws, tail, exponent)| {
            let scale = 2f64.powi(exponent);
            draws
                .into_iter()
                .map(|(u, sign)| {
                    let x = scale * ((f64::from(u) / 4_294_967_296.0).powf(-tail) - 1.0) / tail;
                    (if sign == 0 { x } else { -x }) as f32
                })
                .collect()
        })
}

/// A gradient for the PoT oracle: heavy-tailed, heavy-tailed with NaN and
/// ±Inf elements, constant magnitudes (normal or subnormal), a single
/// non-zero, or subnormals only.
fn pot_gradient() -> impl Strategy<Value = Vec<f32>> {
    let subnormal =
        (1u32..0x0080_0000, 0u32..2).prop_map(|(bits, sign)| f32::from_bits(bits | (sign << 31)));
    let non_finite = prop_oneof![Just(f32::NAN), Just(f32::INFINITY), Just(f32::NEG_INFINITY)];
    prop_oneof![
        4 => heavy_tailed(),
        2 => (heavy_tailed(), prop::collection::vec((0usize..3000, non_finite), 1..8)).prop_map(
            |(mut grad, hits)| {
                let len = grad.len();
                for (at, value) in hits {
                    grad[at % len] = value;
                }
                grad
            }
        ),
        1 => (
            prop::collection::vec(0u32..2, 1..2000),
            prop_oneof![1e-6f32..10.0, (1u32..0x0080_0000).prop_map(f32::from_bits)],
        )
            .prop_map(|(signs, c)| signs
                .into_iter()
                .map(|s| if s == 0 { c } else { -c })
                .collect()),
        1 => (1usize..2000, 0usize..2000, -10.0f32..10.0).prop_map(|(len, at, value)| {
            let mut grad = vec![0.0f32; len];
            grad[at % len] = value;
            grad
        }),
        1 => prop::collection::vec(subnormal, 1..2000),
    ]
}

/// Moments a pass can return, with the fields the fits branch on at their
/// edges: zero and subnormal means, variance zero, subnormal or NaN, and a
/// log-moment that makes Minka's `s = ln(mean) - mean_ln` positive, zero,
/// negative or NaN; or the empty moments.
fn edge_moments() -> impl Strategy<Value = AbsMoments> {
    let mean = prop_oneof![
        4 => 1e-6f64..10.0,
        1 => Just(0.0f64),
        1 => Just(f64::MIN_POSITIVE),
        1 => (1u64..1 << 52).prop_map(f64::from_bits),
    ];
    let variance = prop_oneof![
        3 => 0.0f64..100.0,
        1 => Just(0.0f64),
        1 => (1u64..1 << 52).prop_map(f64::from_bits),
        1 => Just(f64::NAN),
    ];
    // `mean_ln = ln(mean) + excess`, so `s = -excess` up to rounding.
    let excess = prop_oneof![
        3 => -8.0f64..0.0,
        1 => Just(0.0f64),
        1 => 0.0f64..4.0,
        1 => Just(f64::NAN),
    ];
    prop_oneof![
        8 => (1usize..100_000, mean, variance, excess).prop_map(
            |(count, mean, variance, excess)| AbsMoments {
                count,
                positive_count: count,
                mean,
                variance,
                mean_ln: mean.ln() + excess,
                max: f64::NAN,
            }
        ),
        1 => Just(AbsMoments::empty(MomentNeeds::ALL)),
    ]
}

proptest! {
    #[test]
    fn fit_based_estimates_equal_the_closed_form_pot_oracle_bit_for_bit(
        grad in pot_gradient(),
        delta in 0.0001f64..0.2,
        stages in 1usize..=4,
    ) {
        for kind in SidKind::ALL {
            let estimate = multi_stage_threshold(&grad, kind, delta, FIRST_STAGE_RATIO, stages)
                .ok()
                .map(|e| (e.thresholds, e.survivors));
            let oracle = pot_estimate(&grad, kind, delta, FIRST_STAGE_RATIO, stages);
            let bits = |e: &Option<(Vec<f64>, Vec<usize>)>| {
                e.as_ref().map(|(t, s)| {
                    (t.iter().map(|t| t.to_bits()).collect::<Vec<_>>(), s.clone())
                })
            };
            prop_assert!(
                bits(&estimate) == bits(&oracle),
                "{kind}, {stages} stages, δ {delta:e}, len {}: {estimate:?} vs oracle {oracle:?}",
                grad.len()
            );
        }
    }

    #[test]
    fn stage_updates_equal_the_closed_form_updates_at_the_fit_edges(
        moments in edge_moments(),
        prev in prop_oneof![Just(0.0f64), 0.0f64..5.0],
        stage_delta in 0.0001f64..0.999,
        stage_index in 0usize..4,
    ) {
        for kind in SidKind::ALL {
            let ours = stage_threshold(kind, stage_index, &moments, prev, stage_delta);
            let oracle = pot_stage_threshold(kind, stage_index, &moments, prev, stage_delta);
            // A NaN update is what the estimator's `max(prev)` turns into
            // `prev`; the fit-based update yields `prev` directly.
            let expected = if oracle.is_nan() { prev } else { oracle };
            prop_assert!(
                ours.to_bits() == expected.to_bits(),
                "{kind} stage {stage_index}, δ_m {stage_delta:e}, prev {prev:e}, {moments:?}: \
                 {ours:e} vs oracle {oracle:e}"
            );
        }
    }
}
