//! Criterion micro-benchmarks of the sharded parallel compression engine:
//! single- vs multi-thread throughput of the full fit → threshold → select
//! pipeline and of the individual primitives on a ≥16M-element SID-shaped
//! gradient (the ImageNet regime of the paper), plus the end-to-end
//! compression↔communication overlap speed-up of the bucketed trainer.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sidco_core::engine::CompressionEngine;
use sidco_core::prelude::*;
use sidco_dist::cluster::ClusterConfig;
use sidco_dist::trainer::{ModelTrainer, TrainerConfig};
use sidco_dist::LrSchedule;
use sidco_models::dataset::RegressionDataset;
use sidco_models::regression::LinearRegression;
use sidco_models::synthetic::{GradientProfile, SyntheticGradientGenerator};
use std::sync::Arc;

/// ImageNet-regime gradient size (16Mi elements, comparable to ResNet-50's
/// 25.5M and well past the 16M floor of the acceptance criterion).
const DIM: usize = 1 << 24;
const DELTA: f64 = 0.001;

fn sid_shaped_gradient() -> Vec<f32> {
    let mut generator = SyntheticGradientGenerator::new(DIM, GradientProfile::LaplaceLike, 7);
    generator.gradient(0).into_vec()
}

fn bench_engine_pipeline(c: &mut Criterion) {
    // Context for the 1-vs-N comparisons below: threads beyond the host's
    // cores cannot speed anything up, so print what this machine offers.
    println!(
        "host parallelism: {} hardware threads",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let grad = sid_shaped_gradient();
    let mut group = c.benchmark_group("engine_sidco_pipeline_16M");
    group.throughput(Throughput::Elements(DIM as u64));
    group.sample_size(5);

    for threads in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("sidco-e", format!("threads={threads}")),
            &threads,
            |b, &threads| {
                let mut compressor = SidcoCompressor::new(SidcoConfig::exponential())
                    .with_engine(CompressionEngine::new(threads));
                compressor.compress(&grad, DELTA);
                b.iter(|| compressor.compress(std::hint::black_box(&grad), DELTA));
            },
        );
    }
    for threads in [1usize, 4] {
        group.bench_with_input(
            BenchmarkId::new("topk-chunked", format!("threads={threads}")),
            &threads,
            |b, &threads| {
                let mut compressor =
                    TopKCompressor::new().with_engine(CompressionEngine::new(threads));
                b.iter(|| compressor.compress(std::hint::black_box(&grad), DELTA));
            },
        );
    }
    group.finish();
}

fn bench_engine_primitives(c: &mut Criterion) {
    let grad = sid_shaped_gradient();
    let mut group = c.benchmark_group("engine_primitives_16M");
    group.throughput(Throughput::Elements(DIM as u64));
    group.sample_size(5);

    for threads in [1usize, 4] {
        let engine = CompressionEngine::new(threads);
        let threshold = engine.abs_moments(&grad).mean * 4.0;
        group.bench_with_input(
            BenchmarkId::new("abs_moments", format!("threads={threads}")),
            &engine,
            |b, engine| b.iter(|| engine.abs_moments(std::hint::black_box(&grad))),
        );
        group.bench_with_input(
            BenchmarkId::new("select_above", format!("threads={threads}")),
            &engine,
            |b, engine| b.iter(|| engine.select_above(std::hint::black_box(&grad), threshold)),
        );
        let sparse = engine.select_above(&grad, threshold);
        group.bench_with_input(
            BenchmarkId::new("encode", format!("threads={threads}")),
            &engine,
            |b, engine| b.iter(|| engine.encode(std::hint::black_box(&sparse))),
        );
    }
    group.finish();
}

fn bench_trainer_overlap(c: &mut Criterion) {
    let model: Arc<dyn sidco_models::DifferentiableModel> = Arc::new(LinearRegression::new(
        RegressionDataset::generate(256, 512, 0.01, 5),
    ));
    let mut group = c.benchmark_group("trainer_overlap");
    group.sample_size(3);

    for overlap in [false, true] {
        let config = TrainerConfig {
            iterations: 30,
            batch_per_worker: 16,
            schedule: LrSchedule::constant(0.05),
            buckets: 8,
            overlap,
            ..TrainerConfig::default()
        };
        let model = Arc::clone(&model);
        group.bench_with_input(
            BenchmarkId::new("bucketed_trainer", format!("overlap={overlap}")),
            &overlap,
            |b, _| {
                b.iter(|| {
                    let mut trainer = ModelTrainer::new(
                        Arc::clone(&model),
                        ClusterConfig::paper_dedicated(),
                        config.clone(),
                        || Box::new(TopKCompressor::new()),
                    );
                    trainer.run(0.01)
                });
            },
        );
        // Report the *simulated* end-to-end effect (the timed numbers above
        // only cover host-side work, which overlap does not change).
        let mut trainer = ModelTrainer::new(
            Arc::clone(&model),
            ClusterConfig::paper_dedicated(),
            config,
            || Box::new(TopKCompressor::new()),
        );
        let report = trainer.run(0.01);
        let acc = report.schedule().expect("compressed run");
        println!(
            "trainer_overlap/overlap={overlap}: simulated total {:.6}s, \
             overhead speed-up {:.3}x ({} buckets)",
            report.total_time(),
            acc.speedup_vs_serial(),
            acc.buckets()
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_engine_pipeline,
    bench_engine_primitives,
    bench_trainer_overlap
);
criterion_main!(benches);
