//! The Table-1 benchmark simulator: runs a real compressor over synthetic
//! gradients shaped like the benchmark's, and scales compute / compression /
//! communication costs to the benchmark's full parameter count through the
//! cluster's analytic cost models.
//!
//! The split mirrors how the paper's numbers were produced: estimation
//! *quality* comes from genuinely compressing (measured on `measured_dim`
//! elements), while iteration *time* comes from the calibrated cost models at
//! the full gradient dimension.

use crate::cluster::ClusterConfig;
use sidco_core::compressor::{Compressor, CompressorKind};
use sidco_core::dgc::DgcCompressor;
use sidco_core::metrics::{EstimationQualitySummary, EstimationQualityTracker};
use sidco_core::prelude::{
    GaussianKSgdCompressor, RandomKCompressor, RedSyncCompressor, TopKCompressor,
};
use sidco_core::sidco::{SidcoCompressor, SidcoConfig};
use sidco_models::benchmarks::{BenchmarkId, TaskKind};
use sidco_models::synthetic::{GradientProfile, SyntheticGradientGenerator};

/// Constructs the compressor for a scheme, or `None` for
/// [`CompressorKind::None`] (the dense baseline has nothing to build).
/// `seed` feeds the randomised schemes (Random-k selection, DGC sampling) so
/// experiments are reproducible.
pub fn build_compressor(kind: CompressorKind, seed: u64) -> Option<Box<dyn Compressor>> {
    match kind {
        CompressorKind::None => None,
        CompressorKind::TopK => Some(Box::new(TopKCompressor::new())),
        CompressorKind::RandomK => Some(Box::new(RandomKCompressor::with_seed(seed))),
        CompressorKind::Dgc => Some(Box::new(DgcCompressor::with_seed(seed))),
        CompressorKind::RedSync => Some(Box::new(RedSyncCompressor::new())),
        CompressorKind::GaussianKSgd => Some(Box::new(GaussianKSgdCompressor::new())),
        CompressorKind::Sidco(sid) => {
            Some(Box::new(SidcoCompressor::new(SidcoConfig::for_sid(sid))))
        }
    }
}

/// Configuration of one simulated benchmark run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationConfig {
    /// Which Table-1 benchmark to simulate.
    pub benchmark: BenchmarkId,
    /// The cluster it runs on.
    pub cluster: ClusterConfig,
    /// Number of simulated training iterations.
    pub iterations: u64,
    /// Dimension of the synthetic gradient the compressor actually runs on
    /// (scaled down from the benchmark's full parameter count to keep
    /// simulations fast; quality statistics are ratio-based and transfer).
    pub measured_dim: usize,
    /// Seed of the synthetic gradient stream and the randomised compressors.
    pub seed: u64,
}

impl SimulationConfig {
    /// Default simulation of `benchmark` on the paper's dedicated cluster.
    pub fn for_benchmark(benchmark: BenchmarkId) -> Self {
        Self {
            benchmark,
            cluster: ClusterConfig::paper_dedicated(),
            iterations: 40,
            measured_dim: 200_000,
            seed: 0xD157,
        }
    }

    /// Sets the number of simulated iterations.
    pub fn with_iterations(mut self, iterations: u64) -> Self {
        self.iterations = iterations;
        self
    }

    /// Sets the measured gradient dimension.
    pub fn with_measured_dim(mut self, measured_dim: usize) -> Self {
        self.measured_dim = measured_dim;
        self
    }

    /// Sets the cluster.
    pub fn with_cluster(mut self, cluster: ClusterConfig) -> Self {
        self.cluster = cluster;
        self
    }

    /// The gradient profile the benchmark's task produces (Figure 2: the
    /// CNNs' gradients are sparser and spikier than the RNNs').
    pub fn gradient_profile(&self) -> GradientProfile {
        match self.benchmark.spec().task {
            TaskKind::ImageClassification => GradientProfile::SparseGamma,
            TaskKind::LanguageModeling | TaskKind::SpeechRecognition => {
                GradientProfile::LaplaceLike
            }
        }
    }
}

/// Cost breakdown of one simulated iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationTiming {
    /// Forward/backward compute time (seconds).
    pub compute: f64,
    /// Gradient compression time (seconds).
    pub compression: f64,
    /// Collective communication time (seconds).
    pub communication: f64,
}

impl IterationTiming {
    /// Total iteration time.
    pub fn total(&self) -> f64 {
        self.compute + self.compression + self.communication
    }

    /// Fraction of the iteration spent communicating — the quantity Table 1
    /// calls "communication overhead".
    pub fn communication_fraction(&self) -> f64 {
        let total = self.total();
        if total > 0.0 {
            self.communication / total
        } else {
            0.0
        }
    }
}

/// Per-iteration timing series of one simulated run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TimingSeries {
    timings: Vec<IterationTiming>,
}

impl TimingSeries {
    /// The per-iteration breakdowns, in iteration order.
    pub fn timings(&self) -> &[IterationTiming] {
        &self.timings
    }

    /// Sum of all iteration times.
    pub fn total_time(&self) -> f64 {
        self.timings.iter().map(IterationTiming::total).sum()
    }

    /// Mean iteration time after skipping `warmup` iterations (adaptive
    /// schemes settle their stage counts during warm-up). Falls back to the
    /// full mean when fewer than `warmup + 1` iterations exist.
    pub fn mean_iteration_time(&self, warmup: usize) -> f64 {
        let skip = if self.timings.len() > warmup {
            warmup
        } else {
            0
        };
        let tail = &self.timings[skip..];
        if tail.is_empty() {
            return 0.0;
        }
        tail.iter().map(IterationTiming::total).sum::<f64>() / tail.len() as f64
    }
}

/// Outcome of one simulated benchmark run.
#[derive(Debug, Clone)]
pub struct SimulationResult {
    /// The benchmark that was simulated.
    pub benchmark: BenchmarkId,
    /// The compression scheme.
    pub kind: CompressorKind,
    /// The target compression ratio.
    pub delta: f64,
    /// Achieved-ratio series and statistics.
    pub quality: EstimationQualityTracker,
    /// Per-iteration cost breakdowns.
    pub timing: TimingSeries,
}

impl SimulationResult {
    /// Summary of the normalised achieved compression ratio.
    pub fn estimation_quality(&self) -> EstimationQualitySummary {
        self.quality.summary()
    }

    /// Mean iteration time (seconds) after `warmup` iterations.
    pub fn mean_iteration_time(&self, warmup: usize) -> f64 {
        self.timing.mean_iteration_time(warmup)
    }

    /// Total simulated run time (seconds).
    pub fn total_time(&self) -> f64 {
        self.timing.total_time()
    }

    /// Mean training throughput in samples per second across the whole
    /// cluster, after `warmup` iterations.
    pub fn mean_throughput_samples(&self, workers: usize, warmup: usize) -> f64 {
        let iter_time = self.mean_iteration_time(warmup);
        if iter_time <= 0.0 {
            return 0.0;
        }
        (self.benchmark.spec().per_worker_batch * workers) as f64 / iter_time
    }
}

/// Simulates training `config.benchmark` with scheme `kind` at target ratio
/// `delta`, returning the quality and timing series. Deterministic for a
/// fixed configuration.
///
/// # Panics
///
/// Panics if `delta` is not in `(0, 1]`.
pub fn simulate_benchmark(
    config: &SimulationConfig,
    kind: CompressorKind,
    delta: f64,
) -> SimulationResult {
    assert!(
        delta > 0.0 && delta <= 1.0,
        "delta must lie in (0,1], got {delta}"
    );
    let spec = config.benchmark.spec();
    let cluster = &config.cluster;

    let dense_comm = cluster.allreduce_dense(spec.gradient_bytes());
    let compute = cluster.table1_compute_time(&spec);

    let mut generator = SyntheticGradientGenerator::new(
        config.measured_dim,
        config.gradient_profile(),
        config.seed,
    );
    let mut compressor = build_compressor(kind, config.seed);

    let mut quality = EstimationQualityTracker::new(delta);
    let mut timings = Vec::with_capacity(config.iterations as usize);

    for iteration in 0..config.iterations {
        let (achieved, stages) = match compressor.as_mut() {
            Some(compressor) => {
                let grad = generator.gradient(iteration);
                let result = compressor.compress(grad.as_slice(), delta);
                (result.achieved_ratio(), result.stages_used.unwrap_or(1))
            }
            None => (1.0, 1),
        };
        quality.record(achieved);

        let (compression, communication) = if compressor.is_some() {
            // Projection guarded against non-finite/oversized ratios and
            // clamped to ≥ 1 wire element, like every other modelled payload.
            let payload = crate::collective::projected_payload_bytes(achieved, spec.parameters);
            (
                // Charged at the slowest node's device and skew, not node 0's
                // profile — the whole fleet waits for the last payload.
                cluster.modeled_compression_time(kind, spec.parameters, delta, stages),
                cluster.allgather_sparse(payload),
            )
        } else {
            (0.0, dense_comm)
        };
        timings.push(IterationTiming {
            compute,
            compression,
            communication,
        });
    }

    SimulationResult {
        benchmark: config.benchmark,
        kind,
        delta,
        quality,
        timing: TimingSeries { timings },
    }
}

/// End-to-end training speed-up of `result` over `baseline`: the ratio of
/// total simulated times for the same iteration count. A run compared with
/// itself scores exactly 1.
///
/// This is a pure *time* ratio — the simulator fixes the iteration count, so
/// convergence quality never enters. When comparing real training runs use
/// [`crate::metrics::normalized_speedup`] instead, which gates on reaching
/// the baseline's loss and reports 0 for a diverging run.
pub fn normalized_speedup(result: &SimulationResult, baseline: &SimulationResult) -> f64 {
    let own = result.total_time();
    if own <= 0.0 {
        return 0.0;
    }
    baseline.total_time() / own
}

/// Training-throughput ratio of `result` over `baseline` (samples per second,
/// measured after the adaptive warm-up). A run compared with itself scores
/// exactly 1.
pub fn normalized_throughput(result: &SimulationResult, baseline: &SimulationResult) -> f64 {
    let warmup = (result.timing.timings().len() / 4).min(3);
    let own = result.mean_iteration_time(warmup);
    if own <= 0.0 {
        return 0.0;
    }
    baseline.mean_iteration_time(warmup) / own
}

#[cfg(test)]
mod tests {
    use super::*;
    use sidco_stats::fit::SidKind;

    fn quick(benchmark: BenchmarkId) -> SimulationConfig {
        SimulationConfig::for_benchmark(benchmark)
            .with_iterations(12)
            .with_measured_dim(60_000)
    }

    #[test]
    fn baseline_reproduces_table1_overhead() {
        for benchmark in BenchmarkId::ALL {
            let config = quick(benchmark);
            let baseline = simulate_benchmark(&config, CompressorKind::None, 1.0);
            let fraction = baseline.timing.timings()[0].communication_fraction();
            let expected = benchmark.spec().communication_overhead;
            assert!(
                (fraction - expected).abs() < 1e-9,
                "{benchmark}: fraction {fraction} vs Table 1 {expected}"
            );
        }
    }

    #[test]
    fn identities_hold_for_baseline_vs_itself() {
        let config = quick(BenchmarkId::Vgg16Cifar10);
        let baseline = simulate_benchmark(&config, CompressorKind::None, 1.0);
        assert_eq!(normalized_speedup(&baseline, &baseline), 1.0);
        assert_eq!(normalized_throughput(&baseline, &baseline), 1.0);
    }

    #[test]
    fn simulation_is_deterministic_under_a_fixed_seed() {
        let config = quick(BenchmarkId::LstmPtb);
        let kind = CompressorKind::Sidco(SidKind::Exponential);
        let a = simulate_benchmark(&config, kind, 0.01);
        let b = simulate_benchmark(&config, kind, 0.01);
        assert_eq!(a.quality.history(), b.quality.history());
        assert_eq!(a.timing, b.timing);
        // A different seed changes the measured gradients (and so the series).
        let other = SimulationConfig { seed: 99, ..config };
        let c = simulate_benchmark(&other, kind, 0.01);
        assert_ne!(a.quality.history(), c.quality.history());
    }

    #[test]
    fn compression_speeds_up_communication_bound_benchmarks() {
        let config = quick(BenchmarkId::LstmPtb);
        let baseline = simulate_benchmark(&config, CompressorKind::None, 1.0);
        let sidco = simulate_benchmark(&config, CompressorKind::Sidco(SidKind::Exponential), 0.001);
        let speedup = normalized_speedup(&sidco, &baseline);
        assert!(
            speedup > 5.0,
            "LSTM-PTB at δ=0.001 should fly, got {speedup}"
        );
        let throughput = normalized_throughput(&sidco, &baseline);
        assert!(throughput > 5.0);
    }

    #[test]
    fn throughput_uses_batch_size() {
        let config = quick(BenchmarkId::ResNet20Cifar10);
        let baseline = simulate_benchmark(&config, CompressorKind::None, 1.0);
        let per_iter = baseline.mean_iteration_time(3);
        let samples = baseline.mean_throughput_samples(8, 3);
        let expected = (BenchmarkId::ResNet20Cifar10.spec().per_worker_batch * 8) as f64 / per_iter;
        assert!((samples - expected).abs() / expected < 1e-12);
    }

    #[test]
    fn engine_workers_and_topology_shape_the_cost_model() {
        let config = quick(BenchmarkId::Vgg16Cifar10);
        let kind = CompressorKind::Sidco(SidKind::Exponential);
        let serial = simulate_benchmark(&config, kind, 0.01);
        // More engine workers: same quality series, cheaper compression.
        let parallel_cluster = config.cluster.with_engine_workers(4);
        let parallel = simulate_benchmark(
            &SimulationConfig {
                cluster: parallel_cluster,
                ..config
            },
            kind,
            0.01,
        );
        assert_eq!(serial.quality.history(), parallel.quality.history());
        let t_serial: f64 = serial.timing.timings().iter().map(|t| t.compression).sum();
        let t_parallel: f64 = parallel
            .timing
            .timings()
            .iter()
            .map(|t| t.compression)
            .sum();
        assert!(
            t_parallel < t_serial,
            "4 engine workers {t_parallel} should compress faster than 1 {t_serial}"
        );
        // A two-tier topology reduces communication on the slow fabric.
        let two_tier = simulate_benchmark(
            &SimulationConfig {
                cluster: ClusterConfig::paper_two_tier(),
                ..config
            },
            kind,
            0.01,
        );
        let comm_flat: f64 = serial
            .timing
            .timings()
            .iter()
            .map(|t| t.communication)
            .sum();
        let comm_hier: f64 = two_tier
            .timing
            .timings()
            .iter()
            .map(|t| t.communication)
            .sum();
        assert!(
            comm_hier < comm_flat,
            "hierarchical {comm_hier} should beat flat {comm_flat}"
        );
    }

    #[test]
    fn straggler_skew_stretches_compute_and_compression_not_the_wire() {
        // Pins the heterogeneity sweep: simulate_benchmark used to read only
        // node 0's device profile, so a straggler elsewhere was free.
        let healthy =
            quick(BenchmarkId::Vgg16Cifar10).with_cluster(ClusterConfig::paper_two_tier());
        let skewed =
            quick(BenchmarkId::Vgg16Cifar10).with_cluster(ClusterConfig::paper_straggler());
        let kind = CompressorKind::TopK;
        let base = simulate_benchmark(&healthy, kind, 0.01);
        let slow = simulate_benchmark(&skewed, kind, 0.01);
        let base_t = base.timing.timings()[0];
        let slow_t = slow.timing.timings()[0];
        // The 2× straggler gates both synchronous compute phases exactly...
        assert_eq!(slow_t.compute, 2.0 * base_t.compute);
        assert_eq!(slow_t.compression, 2.0 * base_t.compression);
        // ...while the wire charge is untouched (the NICs are healthy).
        assert_eq!(slow_t.communication, base_t.communication);
        // A factor-1.0 straggler collapses bit-for-bit to the unskewed run.
        let uniform = quick(BenchmarkId::Vgg16Cifar10)
            .with_cluster(ClusterConfig::paper_two_tier().with_straggler(1, 1.0));
        let collapsed = simulate_benchmark(&uniform, kind, 0.01);
        assert_eq!(collapsed.timing, base.timing);
    }

    #[test]
    fn build_compressor_covers_every_kind() {
        assert!(build_compressor(CompressorKind::None, 0).is_none());
        for kind in CompressorKind::EVALUATED {
            let mut compressor = build_compressor(kind, 7).expect("compressed scheme");
            let grad: Vec<f32> = (1..=4_096)
                .map(|j| if j % 2 == 0 { 1.0 } else { -1.0 } * (j as f32).powf(-0.6))
                .collect();
            let result = compressor.compress(&grad, 0.05);
            assert!(result.sparse.nnz() > 0, "{kind} selected nothing");
        }
    }
}
