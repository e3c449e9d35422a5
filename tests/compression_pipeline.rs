//! Integration tests spanning the stats → tensor → core crates: the full
//! compression pipeline on realistic synthetic gradients.

use sidco::prelude::*;
use sidco_core::compressor::CompressorKind;
use sidco_dist::simulate::build_compressor;

fn gradient(profile: GradientProfile, dim: usize, seed: u64) -> Vec<f32> {
    let mut generator = SyntheticGradientGenerator::new(dim, profile, seed);
    generator.gradient(1_000).into_vec()
}

#[test]
fn every_scheme_produces_valid_sparse_gradients() {
    let grad = gradient(GradientProfile::LaplaceLike, 200_000, 1);
    for kind in CompressorKind::EVALUATED {
        let mut compressor = build_compressor(kind, 0).unwrap();
        let result = compressor.compress(&grad, 0.01);
        let sparse = &result.sparse;
        assert_eq!(sparse.dense_len(), grad.len(), "{kind}");
        assert!(sparse.nnz() > 0, "{kind} selected nothing");
        assert!(sparse.nnz() <= grad.len(), "{kind}");
        // Every value corresponds to its original position.
        for (i, v) in sparse.iter() {
            assert_eq!(grad[i as usize], v, "{kind} corrupted a value");
        }
        // Indices are unique.
        let unique: std::collections::HashSet<_> = sparse.indices().iter().collect();
        assert_eq!(unique.len(), sparse.nnz(), "{kind} duplicated indices");
    }
}

#[test]
fn non_positive_or_nan_ratios_select_nothing_for_every_scheme() {
    // The δ policy every evaluated scheme shares: a ratio that is zero,
    // negative or NaN asks for nothing, so the result is an empty gradient
    // of the input's length — never a panic and never a forced element.
    let grad = gradient(GradientProfile::HeavyTail, 4096, 11);
    for kind in CompressorKind::EVALUATED {
        for delta in [f64::NAN, 0.0, -0.5, f64::NEG_INFINITY] {
            let mut compressor = build_compressor(kind, 0).unwrap();
            let sparse = compressor.compress(&grad, delta).sparse;
            assert_eq!(sparse.nnz(), 0, "{kind} δ={delta} selected something");
            assert_eq!(sparse.dense_len(), 4096, "{kind} δ={delta}");
        }
    }
}

#[test]
fn ratios_of_one_or_more_keep_every_element_for_every_scheme() {
    // The other end of the shared δ policy: a ratio of one or more asks for
    // the whole gradient, so every scheme keeps every element — an estimated
    // threshold (DGC's sample, RedSync's bisection) must not drop any.
    let grad = gradient(GradientProfile::HeavyTail, 4096, 11);
    for kind in CompressorKind::EVALUATED {
        for delta in [1.0, 2.0, f64::INFINITY] {
            let mut compressor = build_compressor(kind, 0).unwrap();
            let sparse = compressor.compress(&grad, delta).sparse;
            assert_eq!(
                sparse.nnz(),
                grad.len(),
                "{kind} δ={delta} dropped elements"
            );
            assert_eq!(sparse.dense_len(), grad.len(), "{kind} δ={delta}");
        }
    }
}

#[test]
fn sidco_tracks_target_across_profiles_and_ratios() {
    for profile in [
        GradientProfile::LaplaceLike,
        GradientProfile::SparseGamma,
        GradientProfile::HeavyTail,
    ] {
        let grad = gradient(profile, 400_000, 2);
        for &delta in &[0.1, 0.01, 0.001] {
            let mut compressor = SidcoCompressor::new(SidcoConfig::exponential());
            // Let the stage controller settle.
            let mut achieved = 0.0;
            for _ in 0..12 {
                achieved = compressor.compress(&grad, delta).achieved_ratio();
            }
            let rel = (achieved - delta).abs() / delta;
            assert!(
                rel < 0.75,
                "{profile} δ={delta}: achieved {achieved} (rel err {rel})"
            );
        }
    }
}

#[test]
fn sidco_estimation_is_much_better_than_gaussian_heuristics_at_aggressive_ratio() {
    let grad = gradient(GradientProfile::SparseGamma, 400_000, 3);
    let delta = 0.001;

    let mut sidco = SidcoCompressor::new(SidcoConfig::exponential());
    let mut gauss = GaussianKSgdCompressor::new();
    let mut sidco_achieved = 0.0;
    for _ in 0..12 {
        sidco_achieved = sidco.compress(&grad, delta).achieved_ratio();
    }
    let gauss_achieved = gauss.compress(&grad, delta).achieved_ratio();

    let sidco_err = (sidco_achieved - delta).abs() / delta;
    let gauss_err = (gauss_achieved - delta).abs() / delta;
    assert!(
        sidco_err < gauss_err,
        "SIDCo err {sidco_err} should beat GaussianKSGD err {gauss_err}"
    );
}

#[test]
fn compressed_aggregation_approximates_dense_mean() {
    // 8 workers, 10% ratio with error feedback: the aggregated sparse mean should be
    // dominated by the same coordinates as the dense mean.
    let workers = 8;
    let dim = 50_000;
    let mut generator = SyntheticGradientGenerator::new(dim, GradientProfile::LaplaceLike, 4);
    let mut dense_sum = GradientVector::zeros(dim);
    let mut sparse_sum = GradientVector::zeros(dim);
    for _ in 0..workers {
        let g = generator.gradient(100);
        dense_sum.add_assign(&g);
        let mut c = TopKCompressor::new();
        c.compress(g.as_slice(), 0.1)
            .sparse
            .add_into(&mut sparse_sum);
    }

    // The sparse sum only keeps ~10% of coordinates, but on those coordinates it
    // should be close to the dense sum scaled by how many workers selected them.
    // Check the relative energy captured is substantial (the ratio is the same
    // for the means, which divide both sums by the worker count).
    let captured: f64 = sparse_sum
        .as_slice()
        .iter()
        .map(|&x| (x as f64) * (x as f64))
        .sum();
    let total: f64 = dense_sum
        .as_slice()
        .iter()
        .map(|&x| (x as f64) * (x as f64))
        .sum();
    assert!(captured > 0.0 && captured <= total * 1.5);
}

#[test]
fn error_feedback_preserves_gradient_mass_over_iterations() {
    // Over many iterations with EC, everything that is generated is eventually either
    // sent or still in memory: sum(sent) + memory == sum(generated), per coordinate.
    let dim = 5_000;
    let mut generator = SyntheticGradientGenerator::new(dim, GradientProfile::LaplaceLike, 5);
    let mut feedback = ErrorFeedback::new(dim);
    let mut compressor = TopKCompressor::new();
    let mut sum_generated = GradientVector::zeros(dim);
    let mut sum_sent = GradientVector::zeros(dim);
    for i in 0..20 {
        let grad = generator.gradient(i);
        sum_generated.add_assign(&grad);
        let result = feedback.compress_with(&mut compressor, &grad, 0.05);
        result.sparse.add_into(&mut sum_sent);
    }
    let mut reconstructed = sum_sent.clone();
    reconstructed.add_assign(feedback.memory());
    reconstructed.axpy(-1.0, &sum_generated);
    let err = reconstructed.l2_norm();
    assert!(
        err / sum_generated.l2_norm() < 1e-4,
        "mass conservation violated: {err}"
    );
}

#[test]
fn threshold_is_consistent_with_selection_for_threshold_schemes() {
    let grad = gradient(GradientProfile::LaplaceLike, 100_000, 6);
    for kind in [
        CompressorKind::TopK,
        CompressorKind::Dgc,
        CompressorKind::RedSync,
        CompressorKind::GaussianKSgd,
        CompressorKind::Sidco(sidco_stats::fit::SidKind::Exponential),
    ] {
        let mut compressor = build_compressor(kind, 0).unwrap();
        let result = compressor.compress(&grad, 0.01);
        if let Some(threshold) = result.threshold {
            for &v in result.sparse.values() {
                assert!(
                    (v.abs() as f64) >= threshold * 0.999,
                    "{kind}: selected value {v} below threshold {threshold}"
                );
            }
        }
    }
}
