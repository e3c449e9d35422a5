//! Quickstart: compress one gradient with every scheme the paper evaluates and
//! compare achieved ratios and thresholds.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use sidco::prelude::*;

fn main() {
    // A synthetic gradient with the Laplace-like profile the paper observes on
    // ResNet-20 (Figure 2), sized like a small convolutional layer.
    let mut generator =
        SyntheticGradientGenerator::new(1_000_000, GradientProfile::LaplaceLike, 42);
    let grad = generator.gradient(1_000);
    let target = 0.001; // keep 0.1% of the elements

    println!("gradient dimension: {}", grad.len());
    println!("target ratio      : {target}");
    println!();
    println!(
        "{:<14} {:>10} {:>14} {:>14}",
        "compressor", "kept", "achieved", "threshold"
    );

    let mut compressors: Vec<Box<dyn Compressor>> = vec![
        Box::new(TopKCompressor::new()),
        Box::new(DgcCompressor::new()),
        Box::new(RedSyncCompressor::new()),
        Box::new(GaussianKSgdCompressor::new()),
        Box::new(SidcoCompressor::new(SidcoConfig::exponential())),
        Box::new(SidcoCompressor::new(SidcoConfig::gamma_pareto())),
        Box::new(SidcoCompressor::new(SidcoConfig::generalized_pareto())),
    ];

    for compressor in compressors.iter_mut() {
        // SIDCo adapts its stage count over a few calls; warm it up like a real
        // training loop would.
        let mut result = compressor.compress(grad.as_slice(), target);
        for _ in 0..9 {
            result = compressor.compress(grad.as_slice(), target);
        }
        println!(
            "{:<14} {:>10} {:>14.6} {:>14.6}",
            compressor.kind().label(),
            result.sparse.nnz(),
            result.sparse.achieved_ratio(),
            result.threshold.unwrap_or(f64::NAN),
        );
    }

    println!();
    println!(
        "exact top-k would keep {} elements; SIDCo estimates a threshold in linear time\n\
         whose selection count matches it closely, while the Gaussian-based heuristics drift.",
        (grad.len() as f64 * target).ceil() as usize
    );
}
