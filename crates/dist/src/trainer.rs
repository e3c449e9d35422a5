//! Synchronous data-parallel SGD over real [`DifferentiableModel`]s with
//! per-worker gradient compression and error feedback.
//!
//! The trainer executes the actual numerics — forward/backward passes, error
//! feedback, sparse aggregation, the optimizer — and *simulates* the
//! wall-clock cost of every iteration through the cluster's network and
//! device models, so loss-vs-time curves (Figure 10) come out of one run.
//!
//! Gradients can be compressed as one flat vector (the default) or split into
//! DDP-style buckets: near-uniform ([`TrainerConfig::buckets`]), or one per
//! model layer ([`TrainerConfig::bucket_policy`]). The layout depends on the
//! model and the configuration alone, never on the cluster.
//!
//! Every compressed iteration is priced on one path through the
//! [`collective`](crate::collective) scheduler. A single-stream FIFO schedule
//! of the per-bucket costs is the pipelined reference. With
//! [`TrainerConfig::overlap`] enabled, the stream-budget search
//! ([`CollectiveScheduler::best_schedule`]) starts from that schedule —
//! multi-stream and/or priority-preemptive via [`TrainerConfig::streams`] and
//! [`TrainerConfig::priority`] — and the iteration is charged the chosen
//! schedule's makespan; that same timeline is traced and reported. With
//! overlap off the iteration is charged the serial sum of its compression
//! and communication costs. With [`TrainerConfig::arrival_aware`] the
//! schedule additionally respects gradient-availability release times — each
//! bucket is released as the backward pass produces its layers
//! (output-side first), so compression and communication interleave with the
//! backward pass itself. The bucketing decides *what* is compressed (so it
//! changes the selected elements); the overlap flag, stream count, priority
//! policy and arrival awareness only decide *when* costs are charged, so
//! overlapped, multi-stream, arrival-aware and serial runs of the same
//! bucketing converge bit-identically and differ purely in simulated time.
//!
//! Every iteration executes as fan-outs on one executor (the shared pool,
//! or inline at one thread): phase 1 runs each worker's mini-batch
//! sampling, forward/backward pass, clipping and error-feedback read as one
//! job over a gradient buffer that worker keeps across iterations; phase 2
//! runs each (worker, bucket) compression as one job, in index order; phase
//! 3 merges serially. The final full-dataset loss and accuracy come from one
//! forward pass per example, sharded into fixed-size example ranges as one
//! more fan-out ([`dataset_metrics`]). Every job owns its worker's (or
//! cell's, or shard's) state, and everything crossing jobs — the loss sum,
//! the dense or sparse aggregation, the quality series, the final loss
//! terms — is reduced after the join in worker (or example) order, so a run
//! is bit-identical at any thread count and claim order.

use crate::cluster::ClusterConfig;
use crate::collective::{BucketCost, CollectiveScheduler, PriorityPolicy, ScheduleAccounting};
use crate::metrics::{RescaleRecord, TrainingReport, TrainingSample};
use crate::optimizer::Optimizer;
use crate::schedule::{bucket_ready_times, BucketPolicy, LrSchedule};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sidco_core::layerwise::LayerLayout;
use sidco_core::metrics::EstimationQualityTracker;
use sidco_core::{CompressionEngine, CompressionResult, Compressor, CompressorKind, ErrorFeedback};
use sidco_models::{dataset_metrics, DifferentiableModel};
use sidco_runtime::{Runtime, RuntimeKind};
use sidco_tensor::{GradientVector, SparseGradient};
use sidco_trace::{Lane, TraceSession, TraceSink, VirtualClock};
use std::sync::{Arc, Mutex};

/// Seconds of simulated compute per example·parameter (forward + backward).
///
/// Priced through [`ClusterConfig::iteration_compute_time`], the one
/// expression the trainer and the multi-tenant fleet simulator
/// ([`crate::tenancy`]) share — the single-job fleet must collapse
/// bit-for-bit onto the trainer's clock.
pub const COMPUTE_COST_PER_EXAMPLE_ELEMENT: f64 = 2.0e-9;

/// Shards of the final full-dataset metric pass: enough for every pool
/// thread of a small host to share it, few enough that each shard's forward
/// passes dwarf its dispatch.
const EVAL_SHARDS: usize = 8;

/// A cluster-membership change applied at an iteration boundary.
///
/// Events fire *before* the iteration whose index equals their step runs:
/// `Join(3)` means iteration 3 already trains on the grown fleet. On a
/// two-tier topology one machine is `workers_per_node` workers; on a flat
/// cluster it is a single worker. Joining workers start from scratch — fresh
/// error-feedback memory, a fresh per-worker RNG (the same seed derivation a
/// worker built at step 0 gets), fresh compressor state — and data shards
/// repartition automatically because sharding is derived from the live
/// worker count. A leaving machine's error-feedback residuals fold into the
/// survivors round-robin, so no gradient mass is lost; a `Join` immediately
/// undone by a `Leave` at the same step is bit-identical to no event at all.
/// Events whose step is at or past [`TrainerConfig::iterations`] never fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClusterEvent {
    /// One machine joins before iteration `.0` runs.
    Join(u64),
    /// The most recently added machine leaves before iteration `.0` runs.
    Leave(u64),
}

impl ClusterEvent {
    /// The iteration the event fires before.
    pub fn step(&self) -> u64 {
        match self {
            Self::Join(step) | Self::Leave(step) => *step,
        }
    }
}

/// Hyper-parameters of one training run.
#[derive(Debug, Clone)]
pub struct TrainerConfig {
    /// Number of synchronous iterations.
    pub iterations: u64,
    /// Mini-batch size per worker (at least 1; the constructors reject 0).
    pub batch_per_worker: usize,
    /// Learning-rate schedule.
    pub schedule: LrSchedule,
    /// Momentum coefficient (0 disables momentum).
    pub momentum: f64,
    /// Use the Nesterov form of momentum.
    pub nesterov: bool,
    /// Clip each worker's gradient to this L2 norm before compression.
    pub clip_norm: Option<f64>,
    /// Keep the sparsification residual in per-worker error-feedback memory
    /// (the EC scheme the paper's convergence analysis assumes).
    pub error_feedback: bool,
    /// Which scheme the simulated compression-latency model charges for.
    /// `None` asks the factory passed to [`ModelTrainer::new`] — a probe
    /// compressor's [`Compressor::kind`] — so Top-k factories are charged as
    /// Top-k without any out-of-band hint. Set it explicitly to override the
    /// factory's self-description (e.g. to price one scheme as another).
    pub compressor_kind: Option<CompressorKind>,
    /// Number of near-equal gradient buckets compressed (and communicated)
    /// independently per iteration, DDP-style. 1 compresses the flat gradient
    /// in one piece. Used by [`BucketPolicy::Uniform`]; ignored under
    /// another policy.
    pub buckets: usize,
    /// How buckets are derived: near-uniform ([`BucketPolicy::Uniform`], the
    /// default) or one bucket per model layer ([`BucketPolicy::PerLayer`]).
    pub bucket_policy: BucketPolicy,
    /// Overlap compression of bucket `i + 1` with communication of bucket `i`
    /// in the cost model. Has no effect on the numerics — only on simulated
    /// time — and no effect at all with a single bucket.
    pub overlap: bool,
    /// Number of communication streams the overlapped cost model schedules
    /// buckets onto (1 reproduces the classic single-FIFO pipeline). Charging
    /// reads it only when [`overlap`](Self::overlap) is on.
    pub streams: usize,
    /// Order in which buckets contend for streams and the wire; non-FIFO
    /// policies let small buckets preempt large transfers
    /// (ByteScheduler-style). Charging reads it only when
    /// [`overlap`](Self::overlap) is on.
    pub priority: PriorityPolicy,
    /// Model gradient-availability **arrival times**: the scheduled cost
    /// model releases each bucket only once the backward pass (charged as
    /// [`BACKWARD_COMPUTE_FRACTION`] of the compute time) has produced every
    /// layer the bucket covers, so compression and communication of the
    /// output-side buckets overlap the rest of the backward pass —
    /// ByteScheduler-style interleaving, with
    /// [`PriorityPolicy::NearestOutputFirst`] transmitting buckets in their
    /// genuine arrival order. Release times come from
    /// [`DifferentiableModel::layer_backward_costs`] aggregated through
    /// [`bucket_ready_times`]. Off (the default), every bucket is ready at
    /// schedule start and charging is bit-identical to the arrival-oblivious
    /// model. Like [`overlap`](Self::overlap) this only moves simulated time,
    /// never the numerics. Charging reads it only when `overlap` is on.
    pub arrival_aware: bool,
    /// Cluster-membership changes applied at iteration boundaries, fired in
    /// ascending step order (configuration order within a step). Empty (the
    /// default) trains on a fixed fleet. See [`ClusterEvent`] for the
    /// migration semantics.
    pub cluster_events: Vec<ClusterEvent>,
    /// Record a structured trace of the run: virtual-time spans for the
    /// modeled schedule (compression processor, per-stream transfers, the
    /// bottleneck link), real-time spans for pool/engine execution, and a
    /// metrics frame — drained into
    /// [`TrainingReport::trace`](crate::metrics::TrainingReport::trace).
    /// Tracing is strictly observational: a traced run is bit-identical to an
    /// untraced one (property-tested). Holds the process-wide trace session
    /// for the duration of the run, so concurrent traced runs serialise.
    pub trace: bool,
    /// Seed for parameter initialisation and mini-batch sampling.
    pub seed: u64,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        Self {
            iterations: 200,
            batch_per_worker: 32,
            schedule: LrSchedule::constant(0.1),
            momentum: 0.0,
            nesterov: false,
            clip_norm: None,
            error_feedback: true,
            compressor_kind: None,
            buckets: 1,
            bucket_policy: BucketPolicy::Uniform,
            overlap: false,
            streams: 1,
            priority: PriorityPolicy::Fifo,
            arrival_aware: false,
            cluster_events: Vec::new(),
            trace: false,
            seed: 17,
        }
    }
}

/// Fraction of the modelled per-iteration compute time spent in the backward
/// pass — the standard two-backward-flops-per-forward-flop accounting. The
/// arrival-aware cost model overlaps bucket compression and communication
/// with this portion of the compute.
pub const BACKWARD_COMPUTE_FRACTION: f64 = 2.0 / 3.0;

/// The compressor kind the cost model charges for: the explicit configuration
/// override when set, otherwise whatever the factory's probe compressor
/// reports about itself, otherwise (on the dense baseline, which has no probe
/// to ask) the SIDCo-E placeholder.
fn resolve_charged_kind(config: &TrainerConfig, probe: Option<&dyn Compressor>) -> CompressorKind {
    config
        .compressor_kind
        .or_else(|| probe.map(Compressor::kind))
        .unwrap_or(CompressorKind::Sidco(
            sidco_stats::fit::SidKind::Exponential,
        ))
}

/// One worker's phase-1 state, persistent across iterations and resized with
/// the fleet on every [`ClusterEvent`] exactly as its error-feedback memory
/// is: the mini-batch RNG, a reused index buffer, the gradient buffer the
/// forward/backward pass overwrites every iteration (then clipped and
/// error-corrected in place), and the loss of the latest mini-batch.
struct WorkerState {
    rng: SmallRng,
    batch: Vec<usize>,
    grad: GradientVector,
    loss: f64,
}

impl WorkerState {
    /// Fresh state for worker `index` — the same seed derivation whether the
    /// worker exists at step 0 or joins mid-run.
    fn new(seed: u64, index: usize, dim: usize) -> Self {
        Self {
            rng: SmallRng::seed_from_u64(seed ^ (0x9E37 + index as u64)),
            batch: Vec::new(),
            grad: GradientVector::zeros(dim),
            loss: 0.0,
        }
    }
}

/// Synchronous data-parallel trainer.
///
/// Construct with [`ModelTrainer::new`] (compressed, one compressor per
/// worker and bucket from the supplied factory) or
/// [`ModelTrainer::uncompressed`] (dense all-reduce baseline), then call
/// [`run`](ModelTrainer::run).
pub struct ModelTrainer {
    model: Arc<dyn DifferentiableModel>,
    cluster: ClusterConfig,
    config: TrainerConfig,
    /// The bucket decomposition resolved once at construction, so the
    /// compressor matrix below and the per-iteration segment loop can never
    /// disagree on the bucket count.
    layout: LayerLayout,
    /// `compressors[worker][bucket]` — each bucket keeps its own adaptive
    /// state, exactly like the per-tensor hooks of the reference integration.
    /// Mutex-wrapped so the per-cell state can cross into executor jobs
    /// ([`Compressor`] is `Send` but not `Sync`); each iteration locks every
    /// cell from exactly one job, so the locks are never contended.
    compressors: Vec<Vec<Mutex<Box<dyn Compressor>>>>,
    /// Scheme the cost model charges compression at, resolved once at
    /// construction (explicit config override, else the factory's probe).
    charged_kind: CompressorKind,
    /// Executor every phase of an iteration is dispatched on — the
    /// per-worker forward/backward jobs, the per-(worker, bucket)
    /// compression jobs and the final metric shards. By default it
    /// is the same process-wide runtime the [`CompressionEngine`] uses, so
    /// trainer jobs and engine chunks share one pool.
    executor: &'static dyn Runtime,
}

impl ModelTrainer {
    /// A trainer whose workers compress gradients with compressors built by
    /// `factory` (called once per worker and bucket, so adaptive state is
    /// per-worker *and* per-bucket).
    ///
    /// # Panics
    ///
    /// Panics if the cluster has no workers or its topology spans a different
    /// worker count than [`ClusterConfig::workers`], the model has no
    /// examples, `config.batch_per_worker` is zero, `config.buckets` is zero
    /// under the uniform policy, or the model's layers do not cover its
    /// parameters.
    pub fn new<F>(
        model: Arc<dyn DifferentiableModel>,
        cluster: ClusterConfig,
        config: TrainerConfig,
        factory: F,
    ) -> Self
    where
        F: Fn() -> Box<dyn Compressor>,
    {
        validate_cluster(model.as_ref(), &cluster, &config);
        // Probe the factory once so the cost model can charge the scheme the
        // workers actually run, not a hard-wired default.
        let probe = factory();
        let charged_kind = resolve_charged_kind(&config, Some(probe.as_ref()));
        drop(probe);
        let layout = resolve_layout(&config, model.as_ref());
        let buckets = layout.len();
        // Sized for the event timeline's worker-count peak, not the starting
        // fleet: rows beyond the live worker count sit idle until a
        // `ClusterEvent::Join` activates them (reset to fresh state), so the
        // factory never needs to outlive construction.
        let compressors = (0..event_worker_peak(&cluster, &config))
            .map(|_| (0..buckets).map(|_| Mutex::new(factory())).collect())
            .collect();
        Self {
            model,
            cluster,
            config,
            layout,
            compressors,
            charged_kind,
            executor: CompressionEngine::from_env().shared_runtime(),
        }
    }

    /// The dense synchronous-SGD baseline (no compression).
    ///
    /// # Panics
    ///
    /// As [`new`](Self::new).
    pub fn uncompressed(
        model: Arc<dyn DifferentiableModel>,
        cluster: ClusterConfig,
        config: TrainerConfig,
    ) -> Self {
        validate_cluster(model.as_ref(), &cluster, &config);
        let charged_kind = resolve_charged_kind(&config, None);
        let layout = resolve_layout(&config, model.as_ref());
        Self {
            model,
            cluster,
            config,
            layout,
            compressors: Vec::new(),
            charged_kind,
            executor: CompressionEngine::from_env().shared_runtime(),
        }
    }

    /// Dispatches the trainer's jobs — per-worker forward/backward,
    /// per-(worker, bucket) compression and the final evaluation — on the
    /// shared runtime for `threads` workers ([`sidco_runtime::handle`]: the
    /// pool, or inline at one thread, which runs the same jobs in index
    /// order) instead of the engine's process-wide default. `kind` selects
    /// nothing — the pool is the only executor family. The executor changes
    /// *only* where the jobs run — convergence is bit-identical across thread
    /// counts, because every job owns its worker's (or cell's) state and
    /// everything that crosses workers is reduced serially in a fixed order.
    #[must_use]
    pub fn with_runtime(mut self, kind: RuntimeKind, threads: usize) -> Self {
        self.executor = sidco_runtime::handle(kind, threads);
        self
    }

    /// The cluster-derived charging context: modelled compute time per
    /// iteration (gated on the slowest node's
    /// [`compute_factor`](crate::network::NodeProfile::compute_factor) —
    /// exactly `1.0` unskewed, so homogeneous fleets collapse bit-for-bit onto
    /// the old charge), the backward share that releases buckets, and the
    /// per-bucket release times. With arrival-aware scheduling the backward
    /// share of the compute releases buckets as their gradients materialise
    /// (output-side first); the scheduled makespan then *includes* the backward
    /// pass, so the charged overhead is the makespan beyond it. A zero backward
    /// duration (arrival-oblivious charging) keeps every release at zero.
    /// Re-derived whenever a [`ClusterEvent`] rescales the fleet.
    fn charging_context(&self, cluster: &ClusterConfig, compressed: bool) -> (f64, f64, Vec<f64>) {
        let compute_time = cluster
            .iteration_compute_time(self.config.batch_per_worker, self.model.num_parameters());
        let backward_time = if compressed && self.config.overlap && self.config.arrival_aware {
            BACKWARD_COMPUTE_FRACTION * compute_time
        } else {
            0.0
        };
        let ready: Vec<f64> = if backward_time > 0.0 {
            bucket_ready_times(
                &self.model.layer_sizes(),
                &self.model.layer_backward_costs(),
                backward_time,
                &self.layout,
            )
        } else {
            vec![0.0; self.layout.len()]
        };
        (compute_time, backward_time, ready)
    }

    /// Trains for the configured number of iterations, compressing every
    /// worker's gradient to the target ratio `delta`, and returns the full
    /// trajectory. For the uncompressed baseline pass `delta = 1.0`.
    ///
    /// # Panics
    ///
    /// Panics if `delta` is not in `(0, 1]`.
    pub fn run(&mut self, delta: f64) -> TrainingReport {
        assert!(
            delta > 0.0 && delta <= 1.0,
            "delta must lie in (0,1], got {delta}"
        );
        // Tracing is strictly observational: every virtual timestamp below is
        // derived from the same modeled costs the clock charges, so a traced
        // run is bit-identical to an untraced one (property-tested).
        let session = self.config.trace.then(TraceSession::begin);
        let sink = if session.is_some() {
            sidco_trace::global_sink()
        } else {
            TraceSink::noop()
        };
        let trainer_track = sink.track("trainer", Lane::Virtual);
        if sink.enabled() {
            // Every pool worker gets its track up front — a fast run can
            // finish before an idle worker is ever scheduled, and its
            // lifecycle events would land after the session closed.
            self.executor.register_trace_tracks();
        }
        let dim = self.model.num_parameters();
        let num_examples = self.model.num_examples();
        // The live cluster: `ClusterEvent`s rescale this local copy at
        // iteration boundaries, never the configured starting fleet, so
        // repeated `run` calls replay the same elastic trajectory.
        let mut cluster = self.cluster.clone();
        let mut workers = cluster.workers;
        let compressed = !self.compressors.is_empty();
        let segments: Vec<(usize, usize)> = self.layout.segments().collect();
        let buckets = segments.len();

        let mut params = self.model.initial_parameters(self.config.seed);
        let mut velocity = GradientVector::zeros(dim);
        let optimizer = Optimizer::from_hyperparameters(self.config.momentum, self.config.nesterov);
        let mut feedback: Vec<ErrorFeedback> =
            (0..workers).map(|_| ErrorFeedback::new(dim)).collect();
        let mut worker_states: Vec<Mutex<WorkerState>> = (0..workers)
            .map(|w| Mutex::new(WorkerState::new(self.config.seed, w, dim)))
            .collect();
        // Phase-1 inputs that never change during the run.
        let model = self.model.as_ref();
        let batch_per_worker = self.config.batch_per_worker;
        let clip_norm = self.config.clip_norm;
        let error_corrected = compressed && self.config.error_feedback;
        for worker in &mut self.compressors {
            for cell in worker {
                // INVARIANT: the cells are only ever locked from inside this
                // method's dispatch, which has fully completed (or not yet
                // started) whenever `run` holds `&mut self`.
                cell.get_mut().expect("compressor cell poisoned").reset();
            }
        }
        // All workers compress concurrently; the slowest gates each bucket.
        // Charge the scheme resolved at construction (explicit override or
        // the factory probe's self-reported kind).
        let charged_kind = self.charged_kind;

        let mut quality = EstimationQualityTracker::new(delta);
        let mut samples = Vec::with_capacity(self.config.iterations as usize);
        let scheduler = CollectiveScheduler::new(self.config.streams, self.config.priority);
        let mut schedule_accounting = ScheduleAccounting::new(buckets, self.config.streams);
        // The run's model-time clock. `advance_by` is the same f64 addition
        // the bare accumulator performed, so routing it through the
        // `VirtualClock` facade (the only clock `sidco-lint` allows in this
        // crate) cannot move any sample timestamp.
        let mut clock = VirtualClock::new(0.0);

        // Re-derived whenever a `ClusterEvent` rescales the fleet.
        let (mut compute_time, mut backward_time, mut ready) =
            self.charging_context(&cluster, compressed);
        let pool_before = self.executor.stats();

        let events = sorted_events(&self.config);
        let mut next_event = 0usize;
        let mut rescales: Vec<RescaleRecord> = Vec::new();
        // Phase 2's result slots, `worker * buckets + bucket`, sized for the
        // event timeline's worker-count peak like the compressor matrix;
        // phase 3 takes every live slot back to `None`.
        let slots: Vec<Mutex<Option<CompressionResult>>> = (0..self.compressors.len() * buckets)
            .map(|_| Mutex::new(None))
            .collect();
        // Phase 3's combined-gradient buffers, handed to each worker's
        // `SparseGradient` in turn and taken back, so they keep their
        // capacity across workers and iterations.
        let (mut indices, mut values): (Vec<u32>, Vec<f32>) = (Vec::new(), Vec::new());

        for iteration in 0..self.config.iterations {
            if next_event < events.len() && events[next_event].step() <= iteration {
                while next_event < events.len() && events[next_event].step() <= iteration {
                    let event = events[next_event];
                    next_event += 1;
                    let workers_before = workers;
                    let ef_mass_before = total_ef_mass(&feedback);
                    let mut migrated_ef_l1 = 0.0;
                    match event {
                        ClusterEvent::Join(_) => {
                            cluster = cluster.after_join();
                            for w in workers..cluster.workers {
                                feedback.push(ErrorFeedback::new(dim));
                                worker_states.push(Mutex::new(WorkerState::new(
                                    self.config.seed,
                                    w,
                                    dim,
                                )));
                                if compressed {
                                    // The matrix was sized for the timeline's
                                    // peak at construction; resetting gives
                                    // the joiner the state a worker built at
                                    // step 0 would have.
                                    for cell in &mut self.compressors[w] {
                                        // INVARIANT: `&mut self` proves no
                                        // dispatched job holds the lock.
                                        cell.get_mut().expect("compressor cell poisoned").reset();
                                    }
                                }
                            }
                            workers = cluster.workers;
                        }
                        ClusterEvent::Leave(_) => {
                            cluster = cluster
                                .after_leave()
                                // INVARIANT: validate_cluster replayed the
                                // whole timeline at construction, so the
                                // fleet still has a machine to lose.
                                .expect("validated event timeline cannot empty the fleet");
                            let survivors = cluster.workers;
                            // Departing residuals fold into survivors
                            // round-robin so no gradient mass is lost.
                            // Zero-mass residuals are skipped: folding an
                            // all-zero vector could still flip signed zeros,
                            // and skipping keeps a Join immediately undone by
                            // a Leave bit-identical to no event at all.
                            let departing = feedback.split_off(survivors);
                            for (slot, residual) in departing.iter().enumerate() {
                                let mass = residual.memory().l1_norm();
                                if mass > 0.0 {
                                    migrated_ef_l1 += mass;
                                    feedback[slot % survivors].fold_in(residual.memory());
                                }
                            }
                            worker_states.truncate(survivors);
                            workers = survivors;
                        }
                    }
                    rescales.push(RescaleRecord {
                        step: iteration,
                        event,
                        workers_before,
                        workers_after: workers,
                        ef_mass_before,
                        ef_mass_after: total_ef_mass(&feedback),
                        migrated_ef_l1,
                    });
                }
                // The slowest node (and with it every modelled charge) may
                // have changed.
                (compute_time, backward_time, ready) = self.charging_context(&cluster, compressed);
            }
            let lr = self.config.schedule.lr_at(iteration);
            let mut aggregated = GradientVector::zeros(dim);
            let mut loss_sum = 0.0;
            let mut bucket_payloads = vec![0usize; buckets];
            let mut bucket_compression = vec![0.0f64; buckets];

            // Phase 1 (parallel): each worker's mini-batch sampling,
            // forward/backward pass, clipping and error-feedback read is one
            // independent job on the executor. A job touches only its own
            // `WorkerState` (RNG, index and gradient buffers) and reads only
            // its own error-feedback memory, so any claim order computes the
            // same per-worker bits. Clipping happens before error feedback
            // reads the gradient on both the dense and the compressed path,
            // so their trajectories differ only in what compression drops.
            let shared_params = params.as_slice();
            self.executor.run_indexed(workers, &|worker| {
                // INVARIANT: each state is locked by exactly one job per
                // iteration (`run_indexed` runs every index exactly once), so
                // the lock is uncontended and can only be poisoned by this
                // very job.
                let mut guard = worker_states[worker].lock().expect("worker state poisoned");
                let state = &mut *guard;
                // The worker samples its mini-batch from its shard of the
                // dataset (round-robin assignment, with replacement).
                let shard_size =
                    num_examples / workers + usize::from(worker < num_examples % workers);
                state.batch.clear();
                for _ in 0..batch_per_worker {
                    let within = state.rng.gen_range(0..shard_size.max(1));
                    state
                        .batch
                        .push((within * workers + worker).min(num_examples - 1));
                }
                state.loss = model.loss_and_gradient_into(
                    shared_params,
                    &state.batch,
                    state.grad.as_mut_slice(),
                );
                if let Some(max_norm) = clip_norm {
                    state.grad.clip_to_norm(max_norm);
                }
                if error_corrected {
                    // The bits of `ErrorFeedback::corrected`, in place.
                    state.grad.add_assign(feedback[worker].memory());
                }
            });
            // Everything that crosses workers is reduced after the join, in
            // worker order — the serial trainer's order of f64/f32 additions.
            let mut corrected: Vec<&GradientVector> = Vec::with_capacity(workers);
            for state in &mut worker_states {
                // INVARIANT: `run_indexed` returned, so no job holds a lock.
                let state = state.get_mut().expect("worker state poisoned");
                loss_sum += state.loss;
                if compressed {
                    corrected.push(&state.grad);
                } else {
                    quality.record(delta);
                    aggregated.add_assign(&state.grad);
                }
            }

            if compressed {
                // Phase 2 (parallel): every (worker, bucket) cell is one
                // independent job on the executor, in index order — the
                // per-bucket compressions the cost model charges as
                // concurrent. The ordering that is charged lives in the
                // collective scheduler alone. Cells are disjoint, so any
                // claim order computes the same per-cell results, and
                // `run_indexed` returning is the join.
                let (compressors, slots) = (&self.compressors, &slots);
                self.executor.run_indexed(workers * buckets, &|job| {
                    let bucket = job / workers;
                    let worker = job % workers;
                    let (offset, size) = segments[bucket];
                    let segment = &corrected[worker].as_slice()[offset..offset + size];
                    // INVARIANT: each (worker, bucket) cell is locked by
                    // exactly one job per iteration (`run_indexed` runs every
                    // index exactly once), so the lock is uncontended and can
                    // only be poisoned by this very job.
                    let result = compressors[worker][bucket]
                        .lock()
                        .expect("compressor cell poisoned")
                        .compress(segment, delta);
                    // INVARIANT: one writer per slot, same argument.
                    *slots[worker * buckets + bucket]
                        .lock()
                        .expect("result slot poisoned") = Some(result);
                });

                // Phase 3 (serial, worker-major order): merge exactly as the
                // serial trainer did — quality, error feedback and the
                // aggregation all see the same sequence of f32 additions, so
                // convergence is bit-identical to serial execution. The
                // error-feedback update overwrites each worker's memory in
                // place.
                for worker in 0..workers {
                    indices.clear();
                    values.clear();
                    for (bucket, &(offset, size)) in segments.iter().enumerate() {
                        let mut slot = slots[worker * buckets + bucket]
                            .lock()
                            .expect("result slot poisoned");
                        // INVARIANT: `run_indexed` returned, so every slot
                        // was filled by its job.
                        let result = slot.take().expect("dispatched job filled its slot");
                        drop(slot);
                        let stages = result.stages_used.unwrap_or(1);
                        // Charged at the worker's *own* node — its device
                        // profile times its skew factor — so a straggler
                        // gates exactly the buckets it participates in.
                        bucket_compression[bucket] =
                            bucket_compression[bucket].max(cluster.worker_compression_time(
                                worker,
                                charged_kind,
                                size,
                                delta,
                                stages,
                            ));
                        bucket_payloads[bucket] =
                            bucket_payloads[bucket].max(result.sparse.wire_bytes());
                        for (i, v) in result.sparse.iter() {
                            indices.push(offset as u32 + i);
                            values.push(v);
                        }
                    }
                    let combined = SparseGradient::new(
                        std::mem::take(&mut indices),
                        std::mem::take(&mut values),
                        dim,
                    );
                    quality.record(combined.achieved_ratio());
                    if self.config.error_feedback {
                        feedback[worker].update_sparse(corrected[worker], &combined);
                    }
                    combined.add_into(&mut aggregated);
                    (indices, values) = combined.into_parts();
                }
            }

            aggregated.scale(1.0 / workers as f32);
            optimizer.step(&mut params, &mut velocity, &aggregated, lr);

            let overhead_time = if compressed {
                // Communication costs split into their overlappable and
                // link-serialised parts (hierarchical when the cluster has a
                // two-tier topology), released at the bucket's gradient
                // arrival time (zero when arrival-oblivious).
                let costs: Vec<BucketCost> = bucket_compression
                    .iter()
                    .zip(&bucket_payloads)
                    .enumerate()
                    .map(|(bucket, (&compression, &bytes))| {
                        let (latency, transfer) = cluster.allgather_sparse_parts(bytes);
                        BucketCost {
                            ready_at: ready[bucket],
                            compression,
                            latency,
                            transfer,
                        }
                    })
                    .collect();
                let serial: f64 = costs
                    .iter()
                    .map(|c| c.compression + c.communication())
                    .sum();
                // Schedule t=0 is the start of the backward pass the releases
                // are measured from (the end of compute when arrival-oblivious,
                // where `backward_time` is zero). A makespan includes that
                // backward pass (bucket 0 releases exactly at its end, so the
                // makespan is never smaller); every overhead is the excess.
                let fifo = CollectiveScheduler::single_stream_fifo().schedule(&costs);
                let pipelined = fifo.makespan() - backward_time;
                let charged = if self.config.overlap {
                    // The budget search starts from the FIFO reference and
                    // only replaces it with a strictly shorter schedule, so
                    // the charge never exceeds `pipelined`. The charged
                    // timeline is the one traced and stored.
                    let timeline = scheduler.best_schedule_from(&costs, fifo);
                    let charged = timeline.makespan() - backward_time;
                    timeline.record_trace(&sink, clock.now() + compute_time - backward_time);
                    if iteration + 1 == self.config.iterations {
                        schedule_accounting.set_timeline(timeline);
                    }
                    charged
                } else {
                    serial
                };
                schedule_accounting.record(serial, pipelined, charged);
                charged
            } else {
                cluster.allreduce_dense(dim * std::mem::size_of::<f32>())
            };
            if sink.enabled() {
                let compute_end = clock.now() + compute_time;
                sink.span(
                    trainer_track,
                    format!("compute {iteration}"),
                    clock.now(),
                    compute_end,
                );
                if overhead_time > 0.0 {
                    sink.span(
                        trainer_track,
                        format!("overhead {iteration}"),
                        compute_end,
                        compute_end + overhead_time,
                    );
                }
                sink.observe("iteration.compute_seconds", compute_time);
                sink.observe("iteration.overhead_seconds", overhead_time);
            }
            clock.advance_by(compute_time + overhead_time);
            samples.push(TrainingSample {
                iteration,
                loss: loss_sum / workers as f64,
                time: clock.now(),
            });
        }

        // The final full-dataset loss and accuracy are pure functions of the
        // trained parameters: one forward pass per example, in fixed-size
        // example ranges fanned out over the executor and summed in example
        // order after the join — the bits of `evaluate` and `accuracy`.
        let metrics = dataset_metrics(model, params.as_slice(), EVAL_SHARDS, |shards, job| {
            self.executor.run_indexed(shards, job);
        });
        let report = TrainingReport::new(samples, quality, metrics.loss, metrics.accuracy)
            .with_rescales(rescales);
        let report = if compressed {
            if sink.enabled() {
                sink.gauge_set(
                    "schedule.serial_overhead",
                    schedule_accounting.serial_overhead(),
                );
                sink.gauge_set(
                    "schedule.pipelined_overhead",
                    schedule_accounting.pipelined_overhead(),
                );
                sink.gauge_set(
                    "schedule.charged_overhead",
                    schedule_accounting.charged_overhead(),
                );
                sink.gauge_set("trainer.total_time", clock.now());
                // Pool counters are diffed against the pre-run snapshot so
                // concurrent users of the shared runtime (e.g. engine
                // chunks) before this run are not attributed to it.
                let pool = match (self.executor.stats(), pool_before) {
                    (Some(after), Some(before)) => Some(after.since(&before)),
                    (after, _) => after,
                };
                if let Some(stats) = &pool {
                    stats.record_metrics(&sink, "pool");
                }
            }
            report.with_schedule(schedule_accounting)
        } else {
            if sink.enabled() {
                sink.gauge_set("trainer.total_time", clock.now());
            }
            report
        };
        match session {
            Some(active) => report.with_trace(active.finish()),
            None => report,
        }
    }
}

/// Sanity checks shared by both constructors, so degenerate input fails
/// when the trainer is built, not mid-run.
///
/// # Panics
///
/// Panics if the cluster has no workers or its topology spans a different
/// worker count, the model has no examples to sample, the per-worker mini-batch is empty, the schedule has no streams,
/// or the configured [`ClusterEvent`] timeline would shrink the fleet below
/// one machine at any point.
fn validate_cluster(
    model: &dyn DifferentiableModel,
    cluster: &ClusterConfig,
    config: &TrainerConfig,
) {
    assert!(cluster.workers > 0, "cluster must have at least one worker");
    // A `ClusterEvent` rebuilds the cluster from its topology, which would
    // hide the mismatch instead of failing on it.
    cluster.topology_checked();
    assert!(
        model.num_examples() > 0,
        "the model must have at least one training example"
    );
    assert!(
        config.batch_per_worker > 0,
        "the per-worker mini-batch must hold at least one example"
    );
    assert!(config.streams > 0, "the schedule needs at least one stream");
    // Replaying the timeline both validates every Leave up front (fail at
    // construction, not mid-run) and yields the high-water worker count.
    event_worker_peak(cluster, config);
}

/// The events that will actually fire, in firing order: ascending step,
/// configuration order within a step (the sort is stable), events at or past
/// the iteration count dropped.
fn sorted_events(config: &TrainerConfig) -> Vec<ClusterEvent> {
    let mut events: Vec<ClusterEvent> = config
        .cluster_events
        .iter()
        .copied()
        .filter(|event| event.step() < config.iterations)
        .collect();
    events.sort_by_key(ClusterEvent::step);
    events
}

/// Worker-count high-water mark over the configured event timeline. The
/// compressor matrix is sized for the peak up front, so a mid-run `Join`
/// never needs the (long-gone) factory — it just resets its pre-built cells.
///
/// # Panics
///
/// Panics if any `Leave` would shrink the fleet below one machine.
fn event_worker_peak(cluster: &ClusterConfig, config: &TrainerConfig) -> usize {
    let mut cluster = cluster.clone();
    let mut peak = cluster.workers;
    for event in sorted_events(config) {
        cluster = match event {
            ClusterEvent::Join(_) => cluster.after_join(),
            ClusterEvent::Leave(step) => cluster.after_leave().unwrap_or_else(|| {
                panic!("ClusterEvent::Leave({step}) would shrink the fleet below one machine")
            }),
        };
        peak = peak.max(cluster.workers);
    }
    peak
}

/// Total signed error-feedback mass across the fleet — the sum of every
/// residual component, widened to `f64`. The *signed* sum is the quantity
/// migration conserves: folding a departing residual into a survivor is
/// vector addition, which cannot create or destroy signed mass beyond `f32`
/// rounding. (An L1 norm is not conserved — opposite-sign residuals cancel.)
fn total_ef_mass(feedback: &[ErrorFeedback]) -> f64 {
    feedback
        .iter()
        .map(|ef| {
            ef.memory()
                .as_slice()
                .iter()
                .map(|&v| f64::from(v))
                .sum::<f64>()
        })
        .sum()
}

/// The bucket layout a configuration induces for a model, as its
/// [`BucketPolicy`] derives it: a near-uniform split or the model's real
/// layer boundaries.
///
/// # Panics
///
/// Panics if `config.buckets` is zero under the uniform policy, or the
/// model's layers do not total its parameter count.
fn resolve_layout(config: &TrainerConfig, model: &dyn DifferentiableModel) -> LayerLayout {
    let dim = model.num_parameters();
    match config.bucket_policy {
        BucketPolicy::Uniform => {
            assert!(config.buckets > 0, "at least one bucket is required");
            LayerLayout::uniform(dim, config.buckets.min(dim))
        }
        BucketPolicy::PerLayer => {
            let layout = LayerLayout::new(model.layer_sizes());
            assert_eq!(
                layout.total(),
                dim,
                "model layers cover {} parameters but the model has {dim}",
                layout.total()
            );
            layout
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sidco_core::prelude::TopKCompressor;
    use sidco_models::dataset::{ClassificationDataset, RegressionDataset};
    use sidco_models::mlp::Mlp;
    use sidco_models::regression::LinearRegression;

    fn model() -> Arc<dyn DifferentiableModel> {
        Arc::new(LinearRegression::new(RegressionDataset::generate(
            128, 64, 0.01, 5,
        )))
    }

    fn config(iterations: u64) -> TrainerConfig {
        TrainerConfig {
            iterations,
            batch_per_worker: 16,
            schedule: LrSchedule::constant(0.1),
            ..TrainerConfig::default()
        }
    }

    #[test]
    fn uncompressed_training_reduces_loss() {
        let mut trainer =
            ModelTrainer::uncompressed(model(), ClusterConfig::small_test(), config(120));
        let report = trainer.run(1.0);
        assert_eq!(report.samples().len(), 120);
        assert!(report.final_evaluation() < report.samples()[0].loss * 0.2);
        assert!(report.total_time() > 0.0);
        assert!(report.schedule().is_none());
        // Times are strictly increasing.
        for pair in report.samples().windows(2) {
            assert!(pair[1].time > pair[0].time);
        }
    }

    #[test]
    fn compressed_training_records_quality_and_converges() {
        let mut trainer =
            ModelTrainer::new(model(), ClusterConfig::small_test(), config(150), || {
                Box::new(TopKCompressor::new())
            });
        let report = trainer.run(0.1);
        assert!(report.final_evaluation() < report.samples()[0].loss * 0.3);
        // Top-k hits its target ratio exactly, up to rounding.
        let q = report.estimation_quality();
        assert!(
            (q.mean_normalized_ratio - 1.0).abs() < 0.15,
            "k̂/k = {}",
            q.mean_normalized_ratio
        );
        // A serial single-bucket run charges exactly its serial overhead.
        let acc = report.schedule().expect("compressed run has accounting");
        assert_eq!(acc.buckets(), 1);
        assert_eq!(acc.charged_overhead(), acc.serial_overhead());
        assert_eq!(acc.speedup_vs_serial(), 1.0);
    }

    #[test]
    fn runs_are_deterministic() {
        let run = || {
            ModelTrainer::new(model(), ClusterConfig::small_test(), config(40), || {
                Box::new(TopKCompressor::new())
            })
            .run(0.1)
        };
        let a = run();
        let b = run();
        assert_eq!(a.final_evaluation(), b.final_evaluation());
        let losses = |r: &TrainingReport| r.samples().iter().map(|s| s.loss).collect::<Vec<_>>();
        assert_eq!(losses(&a), losses(&b));
    }

    #[test]
    fn overlap_changes_time_but_not_numerics() {
        let run = |overlap: bool| {
            let cfg = TrainerConfig {
                buckets: 4,
                overlap,
                ..config(60)
            };
            ModelTrainer::new(model(), ClusterConfig::small_test(), cfg, || {
                Box::new(TopKCompressor::new())
            })
            .run(0.1)
        };
        let serial = run(false);
        let overlapped = run(true);
        // Identical numerics: loss trajectory, final metrics, quality series.
        let losses = |r: &TrainingReport| r.samples().iter().map(|s| s.loss).collect::<Vec<_>>();
        assert_eq!(losses(&serial), losses(&overlapped));
        assert_eq!(serial.final_evaluation(), overlapped.final_evaluation());
        assert_eq!(
            serial.estimation_quality().mean_normalized_ratio,
            overlapped.estimation_quality().mean_normalized_ratio
        );
        // Strictly less simulated time with pipelining.
        assert!(
            overlapped.total_time() < serial.total_time(),
            "overlap {} should beat serial {}",
            overlapped.total_time(),
            serial.total_time()
        );
        let acc = overlapped.schedule().expect("accounting present");
        assert_eq!(acc.buckets(), 4);
        let saved = acc.serial_overhead() - acc.charged_overhead();
        assert!(saved > 0.0);
        assert!(acc.speedup_vs_serial() > 1.0);
        // The serial run's accounting charges the full serial overhead.
        let serial_acc = serial.schedule().expect("accounting present");
        assert_eq!(serial_acc.charged_overhead(), serial_acc.serial_overhead());
        assert!(
            (serial.total_time() - overlapped.total_time() - saved).abs()
                < 1e-9 * serial.total_time().max(1.0)
        );
    }

    #[test]
    fn arrival_aware_charging_interleaves_with_the_backward_pass() {
        use sidco_models::dataset::ClassificationDataset;
        use sidco_models::mlp::Mlp;
        // A 4-layer MLP so PerLayer buckets have real arrival spread.
        let mlp: Arc<dyn DifferentiableModel> = Arc::new(Mlp::new(
            ClassificationDataset::gaussian_blobs(96, 10, 3, 3.0, 11),
            12,
        ));
        let run = |arrival_aware: bool| {
            let cfg = TrainerConfig {
                bucket_policy: BucketPolicy::PerLayer,
                overlap: true,
                streams: 4,
                priority: PriorityPolicy::NearestOutputFirst,
                arrival_aware,
                ..config(40)
            };
            ModelTrainer::new(Arc::clone(&mlp), ClusterConfig::small_test(), cfg, || {
                Box::new(TopKCompressor::new())
            })
            .run(0.1)
        };
        let oblivious = run(false);
        let aware = run(true);
        // Arrival awareness moves simulated time only — numerics identical.
        let losses = |r: &TrainingReport| r.samples().iter().map(|s| s.loss).collect::<Vec<_>>();
        assert_eq!(losses(&oblivious), losses(&aware));
        assert_eq!(oblivious.final_evaluation(), aware.final_evaluation());
        // Accounting invariants hold on the arrival-aware run: the charged
        // schedule never loses to its own single-stream FIFO reference, and
        // overheads stay non-negative (the makespan always covers the
        // backward pass it overlaps with).
        let acc = aware.schedule().expect("compressed run has accounting");
        assert!(acc.charged_overhead() >= 0.0);
        assert!(acc.charged_overhead() <= acc.pipelined_overhead());
        assert!(acc.pipelined_overhead() <= acc.serial_overhead() + 1e-12);
        // Overlapping compression/communication with the backward pass can
        // only help relative to starting the same schedule after it.
        assert!(
            aware.total_time() <= oblivious.total_time() + 1e-9,
            "arrival-aware {} should not exceed oblivious {}",
            aware.total_time(),
            oblivious.total_time()
        );
        // The recorded timeline carries the release times, output-side first.
        let timeline = acc.last_timeline().expect("timeline recorded");
        let ready: Vec<f64> = timeline.entries().iter().map(|e| e.ready_at).collect();
        assert!(ready[0] > 0.0, "bucket 0 releases at the backward end");
        for pair in ready.windows(2) {
            assert!(pair[1] <= pair[0], "arrivals must be output-side first");
        }
        for entry in timeline.entries() {
            assert!(entry.compress_start >= entry.ready_at);
        }
    }

    #[test]
    #[should_panic(expected = "delta")]
    fn rejects_invalid_delta() {
        ModelTrainer::uncompressed(model(), ClusterConfig::small_test(), config(1)).run(0.0);
    }

    #[test]
    #[should_panic(expected = "at least one training example")]
    fn rejects_a_model_without_examples_at_construction() {
        let empty = Arc::new(Mlp::new(
            ClassificationDataset::gaussian_blobs(0, 4, 2, 1.0, 1),
            3,
        ));
        ModelTrainer::new(empty, ClusterConfig::small_test(), config(1), || {
            Box::new(TopKCompressor::new())
        });
    }

    #[test]
    #[should_panic(expected = "mini-batch must hold at least one example")]
    fn rejects_an_empty_mini_batch_at_construction() {
        let cfg = TrainerConfig {
            batch_per_worker: 0,
            ..config(1)
        };
        ModelTrainer::uncompressed(model(), ClusterConfig::small_test(), cfg);
    }

    #[test]
    #[should_panic(expected = "topology spans 4 workers but the cluster declares 8")]
    fn rejects_a_topology_that_disagrees_with_the_worker_count_at_construction() {
        // A Join rebuilds the cluster from its topology, so without the
        // construction check this mismatch would vanish instead of failing.
        let cluster = ClusterConfig {
            workers: 8,
            ..ClusterConfig::small_test()
        };
        let cfg = TrainerConfig {
            cluster_events: vec![ClusterEvent::Join(0)],
            ..config(1)
        };
        ModelTrainer::new(model(), cluster, cfg, || Box::new(TopKCompressor::new()));
    }

    #[test]
    fn charged_kind_is_derived_from_the_factory() {
        // A Top-k factory with no explicit hint must be charged as Top-k
        // (the probe's self-reported kind), not silently as SIDCo.
        let trainer = ModelTrainer::new(model(), ClusterConfig::small_test(), config(20), || {
            Box::new(TopKCompressor::new())
        });
        assert_eq!(trainer.charged_kind, CompressorKind::TopK);

        let run = |kind: Option<CompressorKind>| {
            let cfg = TrainerConfig {
                compressor_kind: kind,
                ..config(20)
            };
            ModelTrainer::new(model(), ClusterConfig::small_test(), cfg, || {
                Box::new(TopKCompressor::new())
            })
            .run(0.1)
        };
        // Deriving the kind charges exactly what an explicit pin charges...
        let derived = run(None);
        let pinned = run(Some(CompressorKind::TopK));
        assert_eq!(derived.total_time(), pinned.total_time());
        // ...and an explicit override still wins over the probe.
        let sidco_kind = CompressorKind::Sidco(sidco_stats::fit::SidKind::Exponential);
        let overridden = run(Some(sidco_kind));
        assert_ne!(
            derived.total_time(),
            overridden.total_time(),
            "Top-k and SIDCo charging must differ for this pin to matter"
        );
        let trainer = ModelTrainer::new(
            model(),
            ClusterConfig::small_test(),
            TrainerConfig {
                compressor_kind: Some(sidco_kind),
                ..config(20)
            },
            || Box::new(TopKCompressor::new()),
        );
        assert_eq!(trainer.charged_kind, sidco_kind);
    }

    #[test]
    fn clipping_is_shared_between_dense_and_compressed_paths() {
        // At δ = 1.0 Top-k keeps every element and the error-feedback
        // residual stays zero, so a clipped compressed run must reproduce
        // the clipped dense baseline bit-for-bit — pinning that both paths
        // clip at the same site (before error feedback reads the gradient).
        let cfg = TrainerConfig {
            clip_norm: Some(0.5),
            ..config(40)
        };
        let dense =
            ModelTrainer::uncompressed(model(), ClusterConfig::small_test(), cfg.clone()).run(1.0);
        let compressed = ModelTrainer::new(model(), ClusterConfig::small_test(), cfg, || {
            Box::new(TopKCompressor::new())
        })
        .run(1.0);
        let losses = |r: &TrainingReport| r.samples().iter().map(|s| s.loss).collect::<Vec<_>>();
        assert_eq!(losses(&dense), losses(&compressed));
        assert_eq!(dense.final_evaluation(), compressed.final_evaluation());
    }

    #[test]
    fn pool_dispatch_preserves_serial_numerics_and_runs_every_round_on_the_pool() {
        let run = |threads: usize| {
            let cfg = TrainerConfig {
                buckets: 3,
                overlap: true,
                ..config(30)
            };
            ModelTrainer::new(model(), ClusterConfig::small_test(), cfg, || {
                Box::new(TopKCompressor::new())
            })
            .with_runtime(RuntimeKind::Pool, threads)
            .run(0.1)
        };
        let serial = run(1);
        let pool = sidco_runtime::handle(RuntimeKind::Pool, 3);
        let before = pool.stats().expect("pool runtime keeps counters");
        let pooled = run(3);
        let ran = pool
            .stats()
            .expect("pool runtime keeps counters")
            .since(&before);
        // Real concurrent execution, identical numerics.
        let losses = |r: &TrainingReport| r.samples().iter().map(|s| s.loss).collect::<Vec<_>>();
        assert_eq!(losses(&serial), losses(&pooled));
        assert_eq!(serial.final_evaluation(), pooled.final_evaluation());
        assert_eq!(serial.total_time(), pooled.total_time());

        // Per iteration one forward/backward fan-out (4 workers) and one
        // compression fan-out (4 × 3 cells), then the final metric pass as
        // one fan-out of `EVAL_SHARDS` example ranges (128 examples, 16
        // each). Other tests on the same shared pool only add to the counts.
        assert!(
            ran.jobs > 2 * 30,
            "two fan-outs per iteration plus the final one, got {}",
            ran.jobs
        );
        assert!(ran.chunks_executed >= 30 * (4 + 12) + EVAL_SHARDS as u64);
        // A one-thread budget runs inline, which keeps no counters.
        assert!(sidco_runtime::handle(RuntimeKind::Pool, 1)
            .stats()
            .is_none());
    }

    #[test]
    fn join_immediately_undone_by_leave_is_bit_identical_to_no_event() {
        let run = |events: Vec<ClusterEvent>| {
            let mut cfg = config(30);
            cfg.cluster_events = events;
            ModelTrainer::new(model(), ClusterConfig::small_test(), cfg, || {
                Box::new(TopKCompressor::new())
            })
            .run(0.1)
        };
        let baseline = run(Vec::new());
        let elastic = run(vec![ClusterEvent::Join(7), ClusterEvent::Leave(7)]);
        assert_eq!(baseline.samples().len(), elastic.samples().len());
        for (a, b) in baseline.samples().iter().zip(elastic.samples()) {
            assert_eq!(a.loss, b.loss, "loss diverged at iteration {}", a.iteration);
            assert_eq!(
                a.time, b.time,
                "clock diverged at iteration {}",
                a.iteration
            );
        }
        assert_eq!(baseline.final_evaluation(), elastic.final_evaluation());
        // The cancelled rescale still shows up in the log.
        assert!(baseline.rescales().is_empty());
        assert_eq!(elastic.rescales().len(), 2);
        assert_eq!(elastic.rescales()[0].workers_after, 5);
        assert_eq!(elastic.rescales()[1].workers_after, 4);
    }

    #[test]
    fn leave_folds_residuals_and_conserves_signed_ef_mass() {
        let mut cfg = config(30);
        cfg.cluster_events = vec![ClusterEvent::Leave(10), ClusterEvent::Join(20)];
        let mut trainer = ModelTrainer::new(model(), ClusterConfig::small_test(), cfg, || {
            Box::new(TopKCompressor::new())
        });
        let report = trainer.run(0.1);
        assert_eq!(report.samples().len(), 30);
        let rescales = report.rescales();
        assert_eq!(rescales.len(), 2);

        let leave = &rescales[0];
        assert_eq!(leave.step, 10);
        assert_eq!(leave.event, ClusterEvent::Leave(10));
        assert_eq!((leave.workers_before, leave.workers_after), (4, 3));
        // By step 10 Top-k has dropped real mass into the residual; the
        // departing worker's share migrates instead of vanishing.
        assert!(leave.migrated_ef_l1 > 0.0);
        let scale = leave.ef_mass_before.abs().max(1.0);
        assert!(
            (leave.ef_mass_after - leave.ef_mass_before).abs() <= 1e-5 * scale,
            "signed EF mass must survive the fold: {} -> {}",
            leave.ef_mass_before,
            leave.ef_mass_after
        );

        let join = &rescales[1];
        assert_eq!(join.step, 20);
        assert_eq!((join.workers_before, join.workers_after), (3, 4));
        // A join adds zero-mass residuals, so mass is conserved exactly.
        assert_eq!(join.ef_mass_before, join.ef_mass_after);
        assert_eq!(join.migrated_ef_l1, 0.0);

        // Training keeps converging across both rescales.
        assert!(report.final_evaluation() < report.samples()[0].loss);
    }

    #[test]
    #[should_panic(expected = "below one machine")]
    fn leave_timeline_cannot_empty_the_fleet() {
        let mut cfg = config(10);
        cfg.cluster_events = (1..=4).map(ClusterEvent::Leave).collect();
        let _ = ModelTrainer::uncompressed(model(), ClusterConfig::small_test(), cfg);
    }

    #[test]
    fn straggler_skew_slows_the_clock_but_not_the_numerics() {
        let run = |cluster: ClusterConfig| {
            ModelTrainer::new(model(), cluster, config(20), || {
                Box::new(TopKCompressor::new())
            })
            .run(0.1)
        };
        let healthy = run(ClusterConfig::small_test());
        let skewed = run(ClusterConfig::small_test().with_straggler(2, 2.0));
        for (a, b) in healthy.samples().iter().zip(skewed.samples()) {
            assert_eq!(a.loss, b.loss, "skew must never touch the numerics");
            assert!(b.time > a.time, "a 2x straggler must stretch the clock");
        }
        // And a factor-1.0 straggler collapses bit-for-bit.
        let uniform = run(ClusterConfig::small_test().with_straggler(2, 1.0));
        for (a, b) in healthy.samples().iter().zip(uniform.samples()) {
            assert_eq!(a.loss, b.loss);
            assert_eq!(a.time, b.time);
        }
    }

    #[test]
    fn charged_overhead_is_the_stored_timeline() {
        // One path: the iteration is charged the makespan of exactly the
        // timeline that is stored (and traced), bit for bit — for the plain
        // single-FIFO pipeline as much as for a multi-stream budget. (On
        // these costs the two-stage recurrence rounds differently from the
        // schedule, so a closed-form charge would not match.)
        for (streams, priority) in [
            (1, PriorityPolicy::Fifo),
            (4, PriorityPolicy::SmallestFirst),
        ] {
            let cfg = TrainerConfig {
                buckets: 3,
                overlap: true,
                streams,
                priority,
                ..config(1)
            };
            let report = ModelTrainer::new(model(), ClusterConfig::small_test(), cfg, || {
                Box::new(TopKCompressor::new())
            })
            .run(0.05);
            let acc = report.schedule().expect("compressed run has accounting");
            let timeline = acc
                .last_timeline()
                .expect("overlapped run stores its timeline");
            assert_eq!(
                acc.charged_overhead().to_bits(),
                timeline.makespan().to_bits(),
                "{streams} streams, {priority}"
            );
        }
    }
}
