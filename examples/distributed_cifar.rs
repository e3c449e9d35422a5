//! Distributed data-parallel training of an image-classification proxy (the paper's
//! CIFAR-10 scenario): 8 workers, softmax classifier on Gaussian blobs, comparing
//! the no-compression baseline against Top-k and SIDCo-E at a 1% ratio.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example distributed_cifar
//! ```

use sidco::prelude::*;
use sidco_models::dataset::ClassificationDataset;
use sidco_models::logistic::SoftmaxClassifier;
use std::sync::Arc;

fn main() {
    let data = ClassificationDataset::gaussian_blobs(2_048, 64, 10, 6.0, 3);
    let model: Arc<dyn DifferentiableModel> = Arc::new(SoftmaxClassifier::new(data));
    let cluster = ClusterConfig::paper_dedicated();
    let config = TrainerConfig {
        iterations: 300,
        batch_per_worker: 32,
        schedule: LrSchedule::with_warmup(0.5, 20),
        ..TrainerConfig::default()
    };
    let delta = 0.01;

    println!(
        "distributed training: softmax classifier, {} workers, δ = {delta}",
        cluster.workers
    );
    println!();
    println!(
        "{:<12} {:>12} {:>12} {:>12} {:>16} {:>12}",
        "scheme", "final loss", "accuracy", "sim time(s)", "est. quality", "speed-up"
    );

    let mut baseline =
        ModelTrainer::uncompressed(Arc::clone(&model), cluster.clone(), config.clone());
    let baseline_report = baseline.run(1.0);
    print_row("none", &baseline_report, &baseline_report);

    type CompressorFactory = Box<dyn Fn() -> Box<dyn Compressor>>;
    let runs: Vec<(&str, CompressorFactory)> = vec![
        (
            "topk",
            Box::new(|| Box::new(TopKCompressor::new()) as Box<dyn Compressor>),
        ),
        (
            "dgc",
            Box::new(|| Box::new(DgcCompressor::new()) as Box<dyn Compressor>),
        ),
        (
            "sidco-e",
            Box::new(|| {
                Box::new(SidcoCompressor::new(SidcoConfig::exponential())) as Box<dyn Compressor>
            }),
        ),
    ];
    for (name, factory) in runs {
        let mut trainer = ModelTrainer::new(
            Arc::clone(&model),
            cluster.clone(),
            config.clone(),
            factory.as_ref(),
        );
        let report = trainer.run(delta);
        print_row(name, &report, &baseline_report);
    }

    println!();
    println!(
        "the compressed runs reach the baseline's loss while spending far less simulated\n\
         time in communication — the effect the paper's Figure 5 reports for VGG16."
    );
}

fn print_row(
    name: &str,
    report: &sidco_dist::TrainingReport,
    baseline: &sidco_dist::TrainingReport,
) {
    let quality = report.estimation_quality();
    let speedup = sidco_dist::metrics::normalized_speedup(report, baseline, 0.10);
    println!(
        "{:<12} {:>12.4} {:>12.3} {:>12.3} {:>16.3} {:>12.2}",
        name,
        report.final_evaluation(),
        report.final_accuracy().unwrap_or(f64::NAN),
        report.total_time(),
        quality.mean_normalized_ratio,
        speedup,
    );
}
