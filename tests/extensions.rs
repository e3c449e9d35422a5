//! Integration tests for the extensions that go beyond the paper's core evaluation:
//! per-layer compression, the delta-varint wire format, the wire saving of
//! aggressive sparsification and a ratio derived from a communication-time
//! budget — all exercised together on realistic gradients.

use sidco::prelude::*;
use sidco_tensor::encoding::{delta_varint_decode, delta_varint_encode};

#[test]
fn layerwise_sidco_tracks_target_on_layered_gradients() {
    // Per-layer compression on a gradient whose layers differ in scale by orders of
    // magnitude: a global threshold would starve the small layers, one SIDCo per
    // layer keeps every layer represented while still hitting the overall target.
    let dim = 120_000;
    let layers = 12;
    let mut generator = SyntheticGradientGenerator::new(dim, GradientProfile::SparseGamma, 7);
    let grad = generator.layered_gradient(1_000, layers);
    let layout = LayerLayout::uniform(dim, layers);
    let mut per_layer: Vec<SidcoCompressor> = layout
        .segments()
        .map(|_| SidcoCompressor::new(SidcoConfig::exponential()))
        .collect();
    let delta = 0.01;
    // Twelve rounds, so each layer's stage controller adapts twice.
    let mut selected = Vec::new();
    for _ in 0..12 {
        selected.clear();
        for ((offset, size), compressor) in layout.segments().zip(&mut per_layer) {
            let result = compressor.compress(&grad.as_slice()[offset..offset + size], delta);
            selected.extend(result.sparse.indices().iter().map(|&i| offset as u32 + i));
        }
    }
    let achieved = selected.len() as f64 / dim as f64;
    assert!(
        (achieved - delta).abs() / delta < 0.75,
        "layer-wise achieved ratio {achieved} should track {delta}"
    );
    // Every layer contributes at least one element.
    let per_layer_size = dim / layers;
    for layer in 0..layers {
        let lo = (layer * per_layer_size) as u32;
        let hi = lo + per_layer_size as u32;
        let count = selected.iter().filter(|&&i| i >= lo && i < hi).count();
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
fn budget_derived_ratio_drives_sidco_to_meet_a_communication_budget() {
    // Close the loop: invert the all-gather model for the ratio that fills the
    // budget, compress to it with SIDCo, and check the resulting payload fits the
    // budget on the modelled network.
    let elements = 1_000_000;
    // The paper's dedicated testbed: 8 single-GPU workers on flat 25 Gbps Ethernet.
    let cluster = ClusterConfig::paper_dedicated();
    // 8 wire bytes per sparse element (u32 index + f32 value).
    let ratio = cluster.allgather_budget_bytes(0.002) / (elements as f64 * 8.0);
    assert!(ratio > 0.0001 && ratio < 0.5);

    let mut generator = SyntheticGradientGenerator::new(elements, GradientProfile::LaplaceLike, 9);
    let grad = generator.gradient(50);
    let mut sidco = SidcoCompressor::new(SidcoConfig::exponential());
    let mut result = sidco.compress(grad.as_slice(), ratio);
    for _ in 0..9 {
        result = sidco.compress(grad.as_slice(), ratio);
    }
    let comm_time = cluster.allgather_sparse(result.sparse.wire_bytes());
    assert!(
        comm_time <= 0.002 * 1.6,
        "payload of {} bytes takes {comm_time}s, budget 0.002s",
        result.sparse.wire_bytes()
    );
}
