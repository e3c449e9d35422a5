//! Property-based tests (proptest) on the core invariants of the compression stack.

use proptest::prelude::*;
use sidco::prelude::*;
use sidco_stats::fit::{exponential_threshold, fit_sid_from_moments, SidKind};
use sidco_stats::moments::AbsMoments;
use sidco_stats::pot::stage_schedule;
use sidco_tensor::encoding::{delta_varint_decode, EncodedGradient};
use sidco_tensor::threshold::{count_above_threshold, select_above_threshold};
use sidco_tensor::topk::top_k;

/// Strategy: a non-trivial gradient vector with mixed magnitudes.
fn gradient_strategy() -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(
        prop_oneof![
            3 => -1.0f32..1.0,
            1 => -0.001f32..0.001,
            1 => Just(0.0f32),
        ],
        32..600,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn topk_selects_exactly_k_largest(grad in gradient_strategy(), k_frac in 0.01f64..1.0) {
        let k = ((grad.len() as f64 * k_frac).ceil() as usize).min(grad.len()).max(1);
        let sparse = top_k(&grad, k);
        prop_assert_eq!(sparse.nnz(), k);
        // No dropped element is strictly larger than a kept element's magnitude.
        let kept_min = sparse.values().iter().map(|v| v.abs()).fold(f32::INFINITY, f32::min);
        let kept: std::collections::HashSet<u32> = sparse.indices().iter().copied().collect();
        for (i, &g) in grad.iter().enumerate() {
            if !kept.contains(&(i as u32)) {
                prop_assert!(g.abs() <= kept_min + 1e-12);
            }
        }
    }

    #[test]
    fn threshold_selection_is_monotone_in_threshold(grad in gradient_strategy(),
                                                    t1 in 0.0f64..1.0, t2 in 0.0f64..1.0) {
        let (lo, hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
        prop_assert!(count_above_threshold(&grad, lo) >= count_above_threshold(&grad, hi));
    }

    #[test]
    fn sparse_roundtrip_preserves_selected_values(grad in gradient_strategy(), t in 0.0f64..0.5) {
        let sparse = select_above_threshold(&grad, t);
        let dense = sparse.to_dense();
        for (i, &g) in grad.iter().enumerate() {
            if (g.abs() as f64) >= t {
                prop_assert_eq!(dense[i], g);
            } else {
                prop_assert_eq!(dense[i], 0.0);
            }
        }
        // Residual + selection reconstructs the original exactly.
        let original = GradientVector::from_vec(grad.clone());
        let mut recon = sparse.residual(&original);
        recon.add_assign(&dense);
        prop_assert_eq!(recon.as_slice(), original.as_slice());
    }

    #[test]
    fn estimated_thresholds_are_nonnegative_and_monotone_in_delta(grad in gradient_strategy()) {
        let deltas = [0.5, 0.1, 0.01, 0.001];
        let mut prev_e = 0.0f64;
        let mut prev_p = 0.0f64;
        for &delta in &deltas {
            let eta_e = exponential_threshold(&grad, delta);
            let gp = fit_sid_from_moments(&AbsMoments::compute(&grad), SidKind::GeneralizedPareto);
            let eta_p = gp.map_or(0.0, |fit| fit.threshold(delta));
            prop_assert!(eta_e >= 0.0 && eta_e.is_finite());
            prop_assert!(eta_p >= 0.0 && eta_p.is_finite());
            // Smaller delta (more aggressive) => larger threshold.
            prop_assert!(eta_e >= prev_e - 1e-12);
            prop_assert!(eta_p >= prev_p - 1e-12);
            prev_e = eta_e;
            prev_p = eta_p;
        }
    }

    #[test]
    fn stage_schedule_always_multiplies_to_target(delta in 1e-4f64..0.9, delta1 in 0.05f64..0.9,
                                                  stages in 1usize..6) {
        let schedule = stage_schedule(delta, delta1, stages);
        let product: f64 = schedule.iter().product();
        prop_assert!((product - delta).abs() < 1e-9);
        prop_assert!(schedule.iter().all(|&d| d > 0.0 && d < 1.0));
    }

    #[test]
    fn sidco_never_panics_and_respects_bounds(grad in gradient_strategy(),
                                              delta in 0.001f64..0.5) {
        let mut compressor = SidcoCompressor::new(SidcoConfig::exponential());
        let result = compressor.compress(&grad, delta);
        prop_assert!(result.sparse.nnz() <= grad.len());
        prop_assert_eq!(result.sparse.dense_len(), grad.len());
        if let Some(t) = result.threshold {
            prop_assert!(t >= 0.0 && t.is_finite());
        }
    }

    #[test]
    fn error_feedback_mass_conservation(grad in gradient_strategy(), delta in 0.01f64..0.9) {
        let dim = grad.len();
        let g = GradientVector::from_vec(grad);
        let mut feedback = ErrorFeedback::new(dim);
        let mut compressor = TopKCompressor::new();
        let corrected = feedback.corrected(&g);
        let result = feedback.compress_with(&mut compressor, &g, delta);
        // sent + memory == corrected gradient (exactly, coordinate-wise).
        let mut recon = result.sparse.to_dense();
        recon.add_assign(feedback.memory());
        for (a, b) in recon.as_slice().iter().zip(corrected.as_slice()) {
            prop_assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn every_compressor_respects_dense_len(grad in gradient_strategy(), delta in 0.01f64..0.5) {
        use sidco_core::compressor::CompressorKind;
        use sidco_dist::simulate::build_compressor;
        for kind in CompressorKind::EVALUATED {
            let mut c = build_compressor(kind, 7).unwrap();
            let result = c.compress(&grad, delta);
            prop_assert_eq!(result.sparse.dense_len(), grad.len());
            for &i in result.sparse.indices() {
                prop_assert!((i as usize) < grad.len());
            }
        }
    }
}

/// Appends `value` as an LEB128 varint, the way the encoder writes a header.
fn push_varint(out: &mut Vec<u8>, mut value: u32) {
    while value >= 0x80 {
        out.push((value as u8) | 0x80);
        value >>= 7;
    }
    out.push(value as u8);
}

/// Strategy: 0–64 arbitrary bytes.
fn wire_bytes_strategy() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u32..256, 0..65)
        .prop_map(|bytes| bytes.into_iter().map(|b| b as u8).collect())
}

/// Strategy: payloads the encoder never writes — arbitrary bytes, and
/// arbitrary bytes behind a forged element count of up to `u32::MAX`.
fn forged_payload_strategy() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        1 => wire_bytes_strategy(),
        1 => (
            prop_oneof![1 => 0u32..16, 1 => 0u32..=u32::MAX],
            wire_bytes_strategy(),
        )
            .prop_map(|(nnz, tail)| {
                let mut payload = Vec::with_capacity(5 + tail.len());
                push_varint(&mut payload, nnz);
                payload.extend(tail);
                payload
            }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    /// The decoder of wire bytes never panics or aborts on a forged payload,
    /// and whatever it accepts is a well-formed sparse gradient.
    #[test]
    fn varint_decoder_survives_forged_payloads(
        payload in forged_payload_strategy(),
        dense_len in prop_oneof![1 => 0usize..64, 1 => 0usize..=u32::MAX as usize],
    ) {
        let encoded = EncodedGradient::from_wire(payload, dense_len);
        if let Some(sparse) = delta_varint_decode(&encoded) {
            prop_assert_eq!(sparse.indices().len(), sparse.values().len());
            prop_assert_eq!(sparse.dense_len(), dense_len);
            for &i in sparse.indices() {
                prop_assert!((i as usize) < dense_len, "index {i} of {dense_len}");
            }
        }
    }
}
