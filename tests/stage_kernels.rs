//! Property suite of the needs-aware SIDCo stage kernels.
//!
//! A moment pass asked for a subset of the [`AbsMoments`] fields (a
//! [`MomentNeeds`]) must return every requested field with the exact bits of
//! the all-fields pass, after the same chunk merge, and must report every
//! unrequested field as NaN (`positive_count` as 0). The suite drives the
//! passes through `CompressionEngine`'s [`StageMoments`] impl at 1 thread
//! (inline) and at 2 and 7 threads (the pool), over hostile gradients: NaN,
//! ±Inf, subnormals,
//! signed zeros, all-zero buffers, and exact ties at an `f64` threshold that
//! `f32` cannot represent. Lengths cover the empty buffer, one element, both
//! sides of the 1Ki compaction block, and lengths that are not multiples of
//! the chunk size. The all-fields passes themselves are pinned to a plain
//! filter-and-add oracle, and the multi-stage thresholds built on the lean
//! passes to the thresholds built on the all-fields passes.

use proptest::prelude::*;
use sidco::core::engine::CompressionEngine;
use sidco::stats::fit::SidKind;
use sidco::stats::moments::{AbsMoments, MomentNeeds};
use sidco::stats::pot::{multi_stage_threshold_with, StageMoments};

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
    fn full_moments(&self, grad: &[f32], _: MomentNeeds) -> AbsMoments {
        self.0.abs_moments(grad)
    }

    fn exceedance_moments(&self, grad: &[f32], threshold: f64, _: MomentNeeds) -> AbsMoments {
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
            let full = engine.abs_moments(&grad);
            for needs in all_needs() {
                let lean = engine.full_moments(&grad, needs);
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
                    let lean = engine.exceedance_moments(&grad, threshold, needs);
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
                let lean = multi_stage_threshold_with(&grad, kind, delta, 0.25, stages, &engine);
                let full =
                    multi_stage_threshold_with(&grad, kind, delta, 0.25, stages, &AllFields(engine));
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
            for needs in all_needs() {
                let lean = engine.full_moments(grad, needs);
                check_needs(&lean, &engine.abs_moments(grad), needs).unwrap();
                assert_eq!(lean.mean, 0.0);
                let lean = engine.exceedance_moments(grad, UNREPRESENTABLE, needs);
                check_needs(&lean, &engine.pot_moments(grad, UNREPRESENTABLE), needs).unwrap();
                assert_eq!(lean.count, 0);
            }
        }
    }
}
