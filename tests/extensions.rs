//! Integration tests for the extensions that go beyond the paper's core evaluation:
//! per-layer compression, wire encodings, the wire saving of aggressive
//! sparsification and the delay-aware ratio controller — all exercised together on
//! realistic gradients.

use sidco::prelude::*;
use sidco_dist::adaptive::{RatioController, RatioControllerConfig};
use sidco_tensor::encoding::{
    best_encoding, delta_varint_decode, delta_varint_encode, EncodingKind,
};

#[test]
fn layerwise_sidco_tracks_target_on_layered_gradients() {
    // Per-layer compression on a gradient whose layers differ in scale by orders of
    // magnitude: a global threshold would starve the small layers, per-layer SIDCo
    // keeps every layer represented while still hitting the overall target.
    let dim = 120_000;
    let layers = 12;
    let mut generator = SyntheticGradientGenerator::new(dim, GradientProfile::SparseGamma, 7);
    let grad = generator.layered_gradient(1_000, layers);
    let layout = LayerLayout::uniform(dim, layers);
    let mut layerwise = LayerwiseCompressor::new(layout, || {
        Box::new(SidcoCompressor::new(SidcoConfig::exponential()))
    });
    let delta = 0.01;
    let mut result = layerwise.compress(grad.as_slice(), delta);
    for _ in 0..11 {
        result = layerwise.compress(grad.as_slice(), delta);
    }
    let achieved = result.achieved_ratio();
    assert!(
        (achieved - delta).abs() / delta < 0.75,
        "layer-wise achieved ratio {achieved} should track {delta}"
    );
    // Every layer contributes at least one element.
    let per_layer = dim / layers;
    for layer in 0..layers {
        let lo = (layer * per_layer) as u32;
        let hi = lo + per_layer as u32;
        let count = result
            .sparse
            .indices()
            .iter()
            .filter(|&&i| i >= lo && i < hi)
            .count();
        assert!(count > 0, "layer {layer} was starved");
    }
}

#[test]
fn wire_encodings_shrink_compressed_gradients_losslessly() {
    let mut generator = SyntheticGradientGenerator::new(500_000, GradientProfile::LaplaceLike, 5);
    let grad = generator.gradient(500);
    let mut sidco = SidcoCompressor::new(SidcoConfig::exponential());
    let result = sidco.compress(grad.as_slice(), 0.01);
    let sparse = &result.sparse;

    let varint = delta_varint_encode(sparse);
    let decoded = delta_varint_decode(&varint).expect("lossless roundtrip");
    assert_eq!(decoded.to_dense().as_slice(), sparse.to_dense().as_slice());
    assert!(
        varint.wire_bytes() < sparse.wire_bytes(),
        "delta-varint ({}) should beat raw pairs ({})",
        varint.wire_bytes(),
        sparse.wire_bytes()
    );
    let best = best_encoding(sparse);
    assert!(best.wire_bytes() <= varint.wire_bytes());
    assert_ne!(
        best.kind(),
        EncodingKind::Bitmap,
        "1% density should not pick the bitmap"
    );
}

#[test]
fn sparsification_at_delta_0_001_saves_over_100x_on_the_wire() {
    // The Section-1.1 argument: quantizing an f32 to one bit saves at most 32x,
    // aggressive sparsification saves orders of magnitude more.
    let mut generator = SyntheticGradientGenerator::new(200_000, GradientProfile::LaplaceLike, 6);
    let grad = generator.gradient(100);
    let dense_bytes = grad.len() * 4;

    let mut sidco = SidcoCompressor::new(SidcoConfig::exponential());
    let sparse_bytes = sidco.compress(grad.as_slice(), 0.001).sparse.wire_bytes();
    assert!(
        dense_bytes as f64 / sparse_bytes as f64 > 100.0,
        "0.1% sparsification should save >100x, saved {}x",
        dense_bytes as f64 / sparse_bytes as f64
    );
}

#[test]
fn ratio_controller_drives_sidco_to_meet_a_communication_budget() {
    // Close the loop: the controller recommends a ratio, SIDCo compresses to it, and
    // the resulting payload fits the communication budget on the modelled network.
    let elements = 1_000_000;
    let workers = 8;
    let network = NetworkModel::ethernet_25g();
    let controller = RatioController::new(
        RatioControllerConfig {
            comm_budget: 0.002,
            min_ratio: 0.0001,
            max_ratio: 0.5,
            feedback: 0.0,
        },
        network,
        workers,
        elements,
    );
    let ratio = controller.recommend_ratio();
    assert!(ratio > 0.0001 && ratio < 0.5);

    let mut generator = SyntheticGradientGenerator::new(elements, GradientProfile::LaplaceLike, 9);
    let grad = generator.gradient(50);
    let mut sidco = SidcoCompressor::new(SidcoConfig::exponential());
    let mut result = sidco.compress(grad.as_slice(), ratio);
    for _ in 0..9 {
        result = sidco.compress(grad.as_slice(), ratio);
    }
    let comm_time = network.allgather_sparse(result.sparse.wire_bytes(), workers);
    assert!(
        comm_time <= 0.002 * 1.6,
        "payload of {} bytes takes {comm_time}s, budget 0.002s",
        result.sparse.wire_bytes()
    );
}
