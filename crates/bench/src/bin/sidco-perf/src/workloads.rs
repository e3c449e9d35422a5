//! The four workloads: their generated inputs, one op each, and the checks on
//! every op's output.
//!
//! Every engine, runtime and compressor is built explicitly, so the
//! `SIDCO_THREADS` / `SIDCO_RUNTIME` environment variables cannot change what
//! a workload runs.

use crate::measure::{mix, unit, Digest};
use sidco::core::engine::CompressionEngine;
use sidco::dist::cluster::ClusterConfig;
use sidco::dist::trainer::{ModelTrainer, TrainerConfig};
use sidco::dist::{
    BucketPolicy, FleetReport, FleetScheduler, JobSpec, PriorityPolicy, SharePolicy, TenancyConfig,
    TrainingReport,
};
use sidco::models::benchmarks::BenchmarkId;
use sidco::models::dataset::ClassificationDataset;
use sidco::models::mlp::Mlp;
use sidco::models::synthetic::{GradientProfile, SyntheticGradientGenerator};
use sidco::models::DifferentiableModel;
use sidco::prelude::{CompressionResult, Compressor, SidcoCompressor, SidcoConfig};
use sidco::runtime::RuntimeKind;
use sidco::tensor::encoding::{delta_varint_decode, EncodedGradient};
use sidco::tensor::GradientVector;
use std::sync::Arc;

/// Which workload a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Sidco16Mi,
    Layerwise,
    TrainMlp,
    Fleet,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Sidco16Mi,
        Workload::Layerwise,
        Workload::TrainMlp,
        Workload::Fleet,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Sidco16Mi => "sidco_16Mi",
            Workload::Layerwise => "layerwise_256x64Ki",
            Workload::TrainMlp => "train_mlp_8w",
            Workload::Fleet => "fleet_16job",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What one item of [`items_per_s`](crate::catalog) counts.
    pub fn item(self) -> &'static str {
        match self {
            Workload::Sidco16Mi | Workload::Layerwise => "gradient elements",
            Workload::TrainMlp => "training samples",
            Workload::Fleet => "simulated iterations",
        }
    }
}

/// Full size for measurement; smoke size for the tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// Worker threads every parallel engine and the trainer's pool use.
pub fn bench_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(4)
}

/// The engine every pooled workload compresses on.
pub fn pool_engine(threads: usize) -> CompressionEngine {
    CompressionEngine::new(threads).with_runtime(RuntimeKind::Pool)
}

/// One workload: fixed generated inputs, a stateful system built from them,
/// and an op that is timed while its checks are not.
pub trait Bench: Sized {
    type Inputs;
    type Output;

    /// Ops run after construction and before measurement (part of set-up).
    const WARMUP_OPS: usize;

    /// Generates the inputs from the seed (not counted as set-up).
    fn inputs(scale: Scale, seed: u64) -> Self::Inputs;

    /// Builds the system under test (counted as set-up).
    fn build(inputs: &Self::Inputs, threads: usize) -> Self;

    /// Units of work one op completes (see [`Workload::item`]).
    fn items_per_op(&self) -> f64;

    /// The timed op.
    fn op(&mut self, index: usize) -> Self::Output;

    /// Checks one op's output. `deep` adds the costlier checks run on a
    /// sample of ops.
    fn check(&mut self, index: usize, out: &Self::Output, deep: bool) -> Result<(), String>;

    /// Feeds the output into the run's digest.
    fn digest(&self, out: &Self::Output, digest: &mut Digest);

    /// Modelled (simulated-time) outputs to print beside the checks.
    fn modelled(&self, _out: &Self::Output) -> Option<String> {
        None
    }
}

/// One compress + encode: the compressor's result and the wire payload.
pub struct Compressed {
    pub result: CompressionResult,
    pub encoded: EncodedGradient,
}

fn compress_and_encode(
    compressor: &mut SidcoCompressor,
    engine: &CompressionEngine,
    grad: &[f32],
    delta: f64,
) -> Compressed {
    let result = compressor.compress(grad, delta);
    let encoded = engine.encode_varint(&result.sparse);
    Compressed { result, encoded }
}

/// Checks a compressed output against its input: indices strictly increasing
/// and in range, values copied from the gradient; when `deep`, selection
/// consistent with the threshold and a lossless varint round trip.
fn check_compressed(grad: &[f32], out: &Compressed, deep: bool) -> Result<(), String> {
    let sparse = &out.result.sparse;
    if sparse.dense_len() != grad.len() {
        return Err(format!(
            "dense length {} != {}",
            sparse.dense_len(),
            grad.len()
        ));
    }
    if sparse.nnz() == 0 {
        return Err("nothing selected".into());
    }
    if !sparse.indices().windows(2).all(|w| w[0] < w[1]) {
        return Err("indices not strictly increasing".into());
    }
    if sparse
        .indices()
        .last()
        .is_some_and(|&i| i as usize >= grad.len())
    {
        return Err("index out of range".into());
    }
    if out.encoded.nnz() != sparse.nnz() {
        return Err("encoded element count differs".into());
    }
    if !deep {
        return Ok(());
    }
    if sparse
        .iter()
        .any(|(i, v)| grad[i as usize].to_bits() != v.to_bits())
    {
        return Err("selected value differs from the gradient".into());
    }
    // The selection contract: `|g| >= threshold`, compared in f32 with the
    // threshold rounded once.
    let threshold = out.result.threshold.ok_or("no threshold reported")? as f32;
    let above = grad.iter().filter(|g| g.abs() >= threshold).count();
    if above != sparse.nnz() || sparse.values().iter().any(|v| v.abs() < threshold) {
        return Err(format!(
            "selection inconsistent with threshold {threshold}: {} selected, {above} at or above it",
            sparse.nnz()
        ));
    }
    match delta_varint_decode(&out.encoded) {
        Some(decoded) if decoded == *sparse => Ok(()),
        _ => Err("varint round trip lost data".into()),
    }
}

fn digest_compressed(out: &Compressed, digest: &mut Digest) {
    digest.u64(out.result.sparse.nnz() as u64);
    digest.f64(out.result.threshold.unwrap_or(f64::NAN));
    digest.u64(out.result.stages_used.unwrap_or(0) as u64);
    digest.bytes(out.encoded.payload());
}

// ---------------------------------------------------------------- sidco_16Mi

/// SIDCo-E on one 16Mi-element gradient per op, cycling through four
/// pre-generated heavy-tailed steps.
pub struct Sidco16Mi {
    pub engine: CompressionEngine,
    pub compressor: SidcoCompressor,
    pub steps: Arc<Vec<GradientVector>>,
}

pub const SIDCO_DELTA: f64 = 0.001;

impl Sidco16Mi {
    pub fn grad(&self, index: usize) -> &[f32] {
        self.steps[index % self.steps.len()].as_slice()
    }
}

impl Bench for Sidco16Mi {
    type Inputs = Arc<Vec<GradientVector>>;
    type Output = Compressed;
    const WARMUP_OPS: usize = 20;

    fn inputs(scale: Scale, seed: u64) -> Self::Inputs {
        let dim = match scale {
            Scale::Full => 1 << 24,
            Scale::Smoke => 1 << 14,
        };
        let mut generator =
            SyntheticGradientGenerator::new(dim, GradientProfile::HeavyTail, mix(seed, 1));
        Arc::new((0..4).map(|step| generator.gradient(step)).collect())
    }

    fn build(inputs: &Self::Inputs, threads: usize) -> Self {
        let engine = pool_engine(threads);
        Self {
            engine,
            compressor: SidcoCompressor::new(SidcoConfig::exponential()).with_engine(engine),
            steps: Arc::clone(inputs),
        }
    }

    fn items_per_op(&self) -> f64 {
        self.steps[0].len() as f64
    }

    fn op(&mut self, index: usize) -> Compressed {
        let grad = self.steps[index % self.steps.len()].as_slice();
        compress_and_encode(&mut self.compressor, &self.engine, grad, SIDCO_DELTA)
    }

    fn check(&mut self, index: usize, out: &Compressed, deep: bool) -> Result<(), String> {
        check_compressed(self.grad(index), out, deep)
    }

    fn digest(&self, out: &Compressed, digest: &mut Digest) {
        digest_compressed(out, digest);
    }
}

// -------------------------------------------------------- layerwise_256x64Ki

/// One round of per-layer SIDCo-E compressors, each with its own state, over
/// a gradient split into equal layers.
pub struct Layerwise {
    pub engine: CompressionEngine,
    pub layers: Vec<SidcoCompressor>,
    pub grad: Arc<LayeredGradient>,
}

pub struct LayeredGradient {
    pub values: GradientVector,
    pub layer_dim: usize,
    pub chunk: usize,
}

impl LayeredGradient {
    pub fn layer(&self, layer: usize) -> &[f32] {
        &self.values.as_slice()[layer * self.layer_dim..(layer + 1) * self.layer_dim]
    }

    pub fn layers(&self) -> usize {
        self.values.len() / self.layer_dim
    }
}

pub const LAYERWISE_DELTA: f64 = 0.1;

impl Bench for Layerwise {
    type Inputs = Arc<LayeredGradient>;
    type Output = Vec<Compressed>;
    const WARMUP_OPS: usize = 5;

    fn inputs(scale: Scale, seed: u64) -> Self::Inputs {
        let (layers, layer_dim, chunk) = match scale {
            Scale::Full => (256, 1 << 16, 1 << 14),
            Scale::Smoke => (8, 1 << 10, 1 << 8),
        };
        let mut generator = SyntheticGradientGenerator::new(
            layers * layer_dim,
            GradientProfile::LaplaceLike,
            mix(seed, 2),
        );
        Arc::new(LayeredGradient {
            values: generator.gradient(0),
            layer_dim,
            chunk,
        })
    }

    fn build(inputs: &Self::Inputs, threads: usize) -> Self {
        let engine = pool_engine(threads).with_chunk_size(inputs.chunk);
        Self::with_engine(inputs, engine)
    }

    fn items_per_op(&self) -> f64 {
        self.grad.values.len() as f64
    }

    fn op(&mut self, _index: usize) -> Vec<Compressed> {
        let grad = &self.grad;
        self.layers
            .iter_mut()
            .enumerate()
            .map(|(layer, compressor)| {
                compress_and_encode(compressor, &self.engine, grad.layer(layer), LAYERWISE_DELTA)
            })
            .collect()
    }

    fn check(&mut self, _index: usize, out: &Vec<Compressed>, deep: bool) -> Result<(), String> {
        if out.len() != self.grad.layers() {
            return Err(format!(
                "{} layer outputs for {} layers",
                out.len(),
                self.grad.layers()
            ));
        }
        for (layer, compressed) in out.iter().enumerate() {
            check_compressed(self.grad.layer(layer), compressed, deep)
                .map_err(|e| format!("layer {layer}: {e}"))?;
        }
        Ok(())
    }

    fn digest(&self, out: &Vec<Compressed>, digest: &mut Digest) {
        for compressed in out {
            digest_compressed(compressed, digest);
        }
    }
}

impl Layerwise {
    /// The same workload on an explicit engine (the trace phase reruns it on
    /// a sequential engine to price the pool).
    pub fn with_engine(inputs: &Arc<LayeredGradient>, engine: CompressionEngine) -> Self {
        Self {
            engine,
            layers: (0..inputs.layers())
                .map(|_| SidcoCompressor::new(SidcoConfig::exponential()).with_engine(engine))
                .collect(),
            grad: Arc::clone(inputs),
        }
    }
}

// -------------------------------------------------------------- train_mlp_8w

/// One `ModelTrainer::run` job: an MLP trained data-parallel on 8 simulated
/// workers with per-layer buckets, overlap and SIDCo-E with error feedback.
pub struct TrainMlp {
    pub trainer: ModelTrainer,
    pub setup: Arc<TrainSetup>,
    /// Final-loss bits of the first checked job; every job must repeat them.
    reference: Option<u64>,
}

pub struct TrainSetup {
    pub model: Arc<dyn DifferentiableModel>,
    pub cluster: ClusterConfig,
    pub config: TrainerConfig,
}

pub const TRAIN_DELTA: f64 = 0.01;

impl TrainSetup {
    pub fn samples_per_job(&self) -> usize {
        self.config.iterations as usize * self.cluster.workers * self.config.batch_per_worker
    }

    /// A trainer over this setup; every worker/bucket compressor runs on a
    /// sequential engine while the jobs fan out on a `threads`-worker pool.
    pub fn trainer(&self, config: TrainerConfig, threads: usize) -> ModelTrainer {
        ModelTrainer::new(
            Arc::clone(&self.model),
            self.cluster.clone(),
            config,
            sequential_sidco,
        )
        .with_runtime(RuntimeKind::Pool, threads)
    }
}

/// The per-worker, per-bucket compressor of the trainer workload.
pub fn sequential_sidco() -> Box<dyn Compressor> {
    Box::new(
        SidcoCompressor::new(SidcoConfig::exponential())
            .with_engine(CompressionEngine::sequential().with_runtime(RuntimeKind::Pool)),
    )
}

impl Bench for TrainMlp {
    type Inputs = Arc<TrainSetup>;
    type Output = TrainingReport;
    const WARMUP_OPS: usize = 1;

    fn inputs(scale: Scale, seed: u64) -> Self::Inputs {
        let (examples, dim, classes, hidden, iterations) = match scale {
            Scale::Full => (512, 128, 10, 256, 10),
            Scale::Smoke => (64, 8, 3, 8, 3),
        };
        let data = ClassificationDataset::gaussian_blobs(examples, dim, classes, 3.0, mix(seed, 3));
        let config = TrainerConfig {
            iterations,
            batch_per_worker: 32,
            bucket_policy: BucketPolicy::PerLayer,
            overlap: true,
            arrival_aware: true,
            streams: 4,
            priority: PriorityPolicy::NearestOutputFirst,
            error_feedback: true,
            seed: mix(seed, 4),
            ..TrainerConfig::default()
        };
        Arc::new(TrainSetup {
            model: Arc::new(Mlp::new(data, hidden)),
            cluster: ClusterConfig::paper_dedicated(),
            config,
        })
    }

    fn build(inputs: &Self::Inputs, threads: usize) -> Self {
        Self {
            trainer: inputs.trainer(inputs.config.clone(), threads),
            setup: Arc::clone(inputs),
            reference: None,
        }
    }

    fn items_per_op(&self) -> f64 {
        self.setup.samples_per_job() as f64
    }

    fn op(&mut self, _index: usize) -> TrainingReport {
        self.trainer.run(TRAIN_DELTA)
    }

    fn check(&mut self, _index: usize, out: &TrainingReport, _deep: bool) -> Result<(), String> {
        let last = out.final_loss();
        let first = out.samples().first().map(|s| s.loss).ok_or("no samples")?;
        if !last.is_finite() || !first.is_finite() || last >= first {
            return Err(format!(
                "final loss {last} is not a finite value below the initial {first}"
            ));
        }
        match self.reference {
            None => self.reference = Some(last.to_bits()),
            Some(bits) if bits != last.to_bits() => {
                return Err(format!(
                    "final loss {last} differs from {}",
                    f64::from_bits(bits)
                ));
            }
            Some(_) => {}
        }
        Ok(())
    }

    fn digest(&self, out: &TrainingReport, digest: &mut Digest) {
        for sample in out.samples() {
            digest.f64(sample.loss);
        }
        digest.f64(out.final_evaluation());
        digest.f64(out.total_time());
    }

    fn modelled(&self, out: &TrainingReport) -> Option<String> {
        Some(format!(
            "simulated total_time {:.6} s, final loss {:.6}",
            out.total_time(),
            out.final_loss()
        ))
    }
}

// --------------------------------------------------------------- fleet_16job

/// One fleet simulate under each share policy, for a seeded mix of Table-1
/// jobs on the heterogeneous mixed-fabric cluster.
pub struct Fleet {
    pub schedulers: Vec<FleetScheduler>,
    pub jobs: Arc<Vec<JobSpec>>,
    /// Per-policy makespan bits of the first checked op.
    reference: Option<Vec<u64>>,
}

pub const FLEET_DELTAS: [f64; 3] = [0.001, 0.01, 0.02];

impl Fleet {
    /// Every policy's scheduler over the workload cluster, optionally traced.
    pub fn schedulers(trace: bool) -> Vec<FleetScheduler> {
        let cluster = ClusterConfig::paper_mixed_fleet();
        SharePolicy::ALL
            .into_iter()
            .map(|policy| {
                let tenancy = TenancyConfig {
                    trace,
                    ..TenancyConfig::for_cluster(&cluster)
                };
                FleetScheduler::new(cluster.clone(), policy).with_tenancy(tenancy)
            })
            .collect()
    }
}

impl Bench for Fleet {
    type Inputs = Arc<Vec<JobSpec>>;
    type Output = Vec<FleetReport>;
    const WARMUP_OPS: usize = 3;

    fn inputs(scale: Scale, seed: u64) -> Self::Inputs {
        let (jobs, iterations) = match scale {
            Scale::Full => (16, 20),
            Scale::Smoke => (4, 3),
        };
        Arc::new(
            (0..jobs)
                .map(|j| {
                    let benchmark = BenchmarkId::ALL[j % BenchmarkId::ALL.len()];
                    let delta = FLEET_DELTAS[j % FLEET_DELTAS.len()];
                    JobSpec::new(format!("job{j:02}"), benchmark, delta)
                        .with_arrival(2.0 * unit(seed, 100 + j as u64))
                        .with_iterations(iterations)
                        .with_buckets(16)
                        .with_streams(4)
                        .with_priority_class(j % 4)
                })
                .collect(),
        )
    }

    fn build(inputs: &Self::Inputs, _threads: usize) -> Self {
        Self {
            schedulers: Self::schedulers(false),
            jobs: Arc::clone(inputs),
            reference: None,
        }
    }

    fn items_per_op(&self) -> f64 {
        let per_fleet: usize = self.jobs.iter().map(|job| job.iterations).sum();
        (per_fleet * self.schedulers.len()) as f64
    }

    fn op(&mut self, _index: usize) -> Vec<FleetReport> {
        self.schedulers
            .iter()
            .map(|s| s.simulate(&self.jobs))
            .collect()
    }

    fn check(&mut self, _index: usize, out: &Vec<FleetReport>, _deep: bool) -> Result<(), String> {
        let makespans: Vec<u64> = out.iter().map(|r| r.fleet_makespan().to_bits()).collect();
        for report in out {
            let fairness = report.fairness_index();
            if !(fairness > 0.0 && fairness <= 1.0) {
                return Err(format!(
                    "{}: Jain index {fairness} outside (0, 1]",
                    report.policy
                ));
            }
            if !report.fleet_makespan().is_finite() {
                return Err(format!("{}: makespan not finite", report.policy));
            }
        }
        match &self.reference {
            None => self.reference = Some(makespans),
            Some(expected) if *expected != makespans => {
                return Err("fleet makespans differ between ops".into());
            }
            Some(_) => {}
        }
        Ok(())
    }

    fn digest(&self, out: &Vec<FleetReport>, digest: &mut Digest) {
        for report in out {
            digest.f64(report.fleet_makespan());
            digest.f64(report.fairness_index());
            digest.f64(report.link_busy_seconds);
        }
    }

    fn modelled(&self, out: &Vec<FleetReport>) -> Option<String> {
        Some(
            out.iter()
                .map(|r| format!("{} makespan {:.6} s", r.policy, r.fleet_makespan()))
                .collect::<Vec<_>>()
                .join(", "),
        )
    }
}
