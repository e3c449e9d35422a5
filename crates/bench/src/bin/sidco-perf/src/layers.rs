//! The trace phase: each workload's op replayed call by call into the layers
//! (`core`, `tensor`, `runtime`, `models`, `dist`), timed from here around
//! every public call, plus traced runs for the counters only a trace session
//! records. End-to-end numbers never come from this phase: tracing and the
//! replay perturb them.

use crate::measure::{median, timed};
use crate::workloads::{
    bench_threads, sequential_sidco, Bench, Fleet, Layerwise, Scale, Sidco16Mi, TrainMlp,
    TrainSetup, Workload, LAYERWISE_DELTA, SIDCO_DELTA, TRAIN_DELTA,
};
use sidco::core::engine::CompressionEngine;
use sidco::core::layerwise::LayerLayout;
use sidco::dist::collective::modeled_bucket_costs;
use sidco::dist::schedule::pack_layers;
use sidco::dist::trainer::TrainerConfig;
use sidco::dist::{CollectiveScheduler, Optimizer, TenancyConfig};
use sidco::prelude::{
    Compressor, CompressorKind, DgcCompressor, ErrorFeedback, SidKind, TopKCompressor,
};
use sidco::runtime::RuntimeKind;
use sidco::tensor::{GradientVector, SparseGradient};
use sidco::trace::{TraceReport, TraceSession};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Mutex;

/// One workload's op split into the layer calls it makes.
pub struct StageTable {
    pub workload: Workload,
    /// Median untraced op time.
    pub op_ms: f64,
    /// Median op time with a trace session recording.
    pub traced_op_ms: f64,
    /// Median over reps of the traced op's excess over the untraced op run
    /// just before it.
    pub overhead_pct: f64,
    /// `(row, ms per op, counted in the sum)`; uncounted rows break down the
    /// row above them.
    pub rows: Vec<(&'static str, f64, bool)>,
}

impl StageTable {
    /// The table of `workload` from per-rep samples named `op`, `traced` and
    /// `overhead`, plus its rows.
    fn new(workload: Workload, s: &Samples, rows: Vec<(&'static str, f64, bool)>) -> Self {
        Self {
            workload,
            op_ms: s.ms("op"),
            traced_op_ms: s.ms("traced"),
            overhead_pct: s.med("overhead") * 100.0,
            rows,
        }
    }

    /// Op time the counted rows do not explain (negative when the replayed
    /// calls, run one at a time, cost more than the op running them).
    pub fn unaccounted_ms(&self) -> f64 {
        self.op_ms - self.rows.iter().filter(|r| r.2).map(|r| r.1).sum::<f64>()
    }

    pub fn render(&self) -> String {
        let mut out = format!(
            "stage table: {} (ms per op, medians)\n",
            self.workload.name()
        );
        for (name, ms, counted) in &self.rows {
            let indent = if *counted { "" } else { "  " };
            out.push_str(&format!(
                "  {indent}{name:<36} {ms:>12.4} {:>7.1} %\n",
                ms / self.op_ms * 100.0
            ));
        }
        out.push_str(&format!(
            "  {:<36} {:>12.4} {:>7.1} %\n",
            "unaccounted",
            self.unaccounted_ms(),
            self.unaccounted_ms() / self.op_ms * 100.0
        ));
        out.push_str(&format!("  {:<36} {:>12.4}\n", "op (untraced)", self.op_ms));
        out.push_str(&format!(
            "  {:<36} {:>12.4} {:>+7.1} %\n",
            "op (traced)", self.traced_op_ms, self.overhead_pct
        ));
        out
    }

    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|(name, ms, counted)| {
                format!("{{\"stage\": \"{name}\", \"ms\": {ms}, \"counted\": {counted}}}")
            })
            .collect();
        format!(
            "{{\"workload\": \"{}\", \"op_ms\": {}, \"traced_op_ms\": {}, \"unaccounted_ms\": {}, \"rows\": [{}]}}",
            self.workload.name(),
            self.op_ms,
            self.traced_op_ms,
            self.unaccounted_ms(),
            rows.join(", ")
        )
    }
}

/// Everything the trace phase measured.
#[derive(Default)]
pub struct TraceRun {
    pub tables: Vec<StageTable>,
    pub metrics: BTreeMap<&'static str, f64>,
    pub attempted: usize,
    pub failed: usize,
    /// `flame_summary()` of the first traced trainer job.
    pub flame: String,
}

impl TraceRun {
    fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Seconds one op took; its output is checked.
    fn checked<B: Bench>(&mut self, bench: &mut B, index: usize) -> f64 {
        let (seconds, out) = timed(|| bench.op(index));
        self.attempted += 1;
        if let Err(e) = bench.check(index, &out, true) {
            self.failed += 1;
            eprintln!("check failed on a traced op: {e}");
        }
        seconds
    }
}

/// Named per-rep samples, reduced to medians.
#[derive(Default)]
struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    fn ms(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| median(v)) * 1e3
    }

    fn med(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| median(v))
    }
}

/// Inputs plus a built, warmed-up system, as a measured run starts.
fn ready<B: Bench>(seed: u64, scale: Scale) -> (B::Inputs, B) {
    let inputs = B::inputs(scale, seed);
    let mut bench = B::build(&inputs, bench_threads());
    for index in 0..B::WARMUP_OPS {
        black_box(bench.op(index));
    }
    (inputs, bench)
}

/// Runs every workload's replay and returns all per-layer metrics; the
/// tables are printed by the caller.
pub fn trace_all(seed: u64, scale: Scale, reps: usize) -> TraceRun {
    let mut run = TraceRun::default();
    sidco_16mi(&mut run, seed, scale, reps);
    layerwise(&mut run, seed, scale, reps);
    train(&mut run, seed, scale, reps);
    fleet(&mut run, seed, scale, reps);
    run
}

/// One untraced op then one traced op (a session open around it), pushed as
/// `op`, `traced` and their `overhead` ratio: adjacent, so both see the same
/// host state.
fn op_pair<B: Bench>(run: &mut TraceRun, bench: &mut B, index: &mut usize, s: &mut Samples) {
    let plain = run.checked(bench, *index);
    let session = TraceSession::begin();
    let traced = run.checked(bench, *index + 1);
    black_box(session.finish());
    *index += 2;
    s.push("op", plain);
    s.push("traced", traced);
    s.push("overhead", traced / plain - 1.0);
}

fn sidco_16mi(run: &mut TraceRun, seed: u64, scale: Scale, reps: usize) {
    let (steps, mut bench) = ready::<Sidco16Mi>(seed, scale);
    let mut index = Sidco16Mi::WARMUP_OPS;
    let engine = bench.engine;
    let mut topk = TopKCompressor::new().with_engine(engine);
    let mut dgc = DgcCompressor::new().with_engine(engine);
    let mut s = Samples::default();
    for _ in 0..reps {
        op_pair(run, &mut bench, &mut index, &mut s);
        let grad = steps[index % steps.len()].as_slice();
        index += 1;
        let (t, estimate) = timed(|| bench.compressor.estimate_threshold(grad, SIDCO_DELTA));
        let Some(estimate) = estimate else {
            run.failed += 1;
            continue;
        };
        s.push("estimate", t);
        s.push("abs", timed(|| black_box(engine.abs_moments(grad))).0);
        // Stage m > 0 fits the exceedances of stage m - 1's threshold.
        let stages = estimate.thresholds.len();
        let pot: f64 = estimate.thresholds[..stages - 1]
            .iter()
            .map(|&t| timed(|| black_box(engine.pot_moments(grad, t))).0)
            .sum();
        s.push("pot", pot);
        let (t, sparse) = timed(|| engine.select_above(grad, estimate.final_threshold()));
        s.push("select", t);
        s.push(
            "encode",
            timed(|| black_box(engine.encode_varint(&sparse))).0,
        );
        s.push("passes", (stages + 1) as f64);
        let (t, result) = timed(|| bench.compressor.compress(grad, SIDCO_DELTA));
        s.push("compress", t);
        s.push("ratio", result.sparse.achieved_ratio() / SIDCO_DELTA);
        s.push(
            "topk",
            timed(|| black_box(topk.compress(grad, SIDCO_DELTA))).0,
        );
        s.push(
            "dgc",
            timed(|| black_box(dgc.compress(grad, SIDCO_DELTA))).0,
        );
    }
    run.set("core.compress_ms", s.ms("compress"));
    run.set("core.estimate_ms", s.ms("estimate"));
    run.set("core.engine.abs_moments_ms", s.ms("abs"));
    run.set("core.engine.pot_moments_ms", s.ms("pot"));
    run.set("core.engine.select_ms", s.ms("select"));
    run.set("core.passes_per_op", s.med("passes"));
    run.set(
        "core.unaccounted_ms",
        s.ms("compress") - s.ms("estimate") - s.ms("select"),
    );
    run.set("core.ratio_p50", s.med("ratio"));
    run.set("core.speedup_vs_topk", s.med("topk") / s.med("compress"));
    run.set("core.speedup_vs_dgc", s.med("dgc") / s.med("compress"));
    let rows = vec![
        ("core.estimate", s.ms("estimate"), true),
        ("core.engine.abs_moments", s.ms("abs"), false),
        ("core.engine.pot_moments", s.ms("pot"), false),
        ("core.engine.select", s.ms("select"), true),
        ("tensor.encode_varint", s.ms("encode"), true),
    ];
    run.tables
        .push(StageTable::new(Workload::Sidco16Mi, &s, rows));
}

fn layerwise(run: &mut TraceRun, seed: u64, scale: Scale, reps: usize) {
    let (grad, mut bench) = ready::<Layerwise>(seed, scale);
    let mut index = Layerwise::WARMUP_OPS;
    let engine = bench.engine;
    let inline_engine = CompressionEngine::sequential()
        .with_runtime(RuntimeKind::Pool)
        .with_chunk_size(grad.chunk);
    let mut inline = Layerwise::with_engine(&grad, inline_engine);
    for i in 0..Layerwise::WARMUP_OPS {
        black_box(inline.op(i));
    }
    let mut s = Samples::default();
    for rep in 0..reps {
        let before = engine.pool_stats().unwrap_or_default();
        run.checked(&mut bench, index);
        index += 1;
        let pool = engine.pool_stats().unwrap_or_default().since(&before);
        s.push("jobs", pool.jobs as f64);
        s.push("chunks", pool.chunks_executed as f64);
        s.push("parks", pool.parks as f64);
        s.push("steals", pool.steals() as f64);

        op_pair(run, &mut bench, &mut index, &mut s);
        let inline_seconds = run.checked(&mut inline, Layerwise::WARMUP_OPS + rep);
        s.push("inline", inline_seconds);

        let (mut estimate, mut select, mut encode, mut bytes) = (0.0, 0.0, 0.0, 0usize);
        for (layer, compressor) in bench.layers.iter().enumerate() {
            let g = grad.layer(layer);
            let (t, est) = timed(|| compressor.estimate_threshold(g, LAYERWISE_DELTA));
            estimate += t;
            let threshold = est.map_or(0.0, |e| e.final_threshold());
            let (t, sparse) = timed(|| engine.select_above(g, threshold));
            select += t;
            let (t, encoded) = timed(|| engine.encode_varint(&sparse));
            encode += t;
            bytes += encoded.wire_bytes();
        }
        s.push("estimate", estimate);
        s.push("select", select);
        s.push("encode", encode);
        s.push("bytes", bytes as f64);
    }
    run.set("tensor.encode_varint_ms", s.ms("encode"));
    run.set("tensor.wire_bytes_per_op", s.med("bytes"));
    run.set("runtime.jobs_per_op", s.med("jobs"));
    run.set("runtime.chunks_per_op", s.med("chunks"));
    run.set("runtime.parks_per_op", s.med("parks"));
    run.set("runtime.steals_per_op", s.med("steals"));
    run.set("runtime.speedup_vs_inline", s.med("inline") / s.med("op"));
    let rows = vec![
        ("core.estimate", s.ms("estimate"), true),
        ("core.engine.select", s.ms("select"), true),
        ("tensor.encode_varint", s.ms("encode"), true),
    ];
    run.tables
        .push(StageTable::new(Workload::Layerwise, &s, rows));
}

/// Sum of the pool workers' chunk spans over the traced wall time of all
/// workers: the share of pool capacity the job used.
fn busy_share(trace: &TraceReport, wall_seconds: f64, workers: usize) -> f64 {
    let busy: f64 = trace
        .spans_lenient()
        .iter()
        .filter(|span| {
            span.name == "chunk"
                && trace.tracks()[span.track.index()]
                    .label
                    .starts_with("sidco-pool-")
        })
        .map(|span| span.end - span.start)
        .sum();
    busy / (wall_seconds * workers as f64)
}

fn train(run: &mut TraceRun, seed: u64, scale: Scale, reps: usize) {
    let threads = bench_threads();
    let (setup, mut bench) = ready::<TrainMlp>(seed, scale);
    // The trainer records its own session when `trace` is set. A traced job
    // is bit-identical to an untraced one, so the same final-loss check
    // holds across both trainers.
    let mut traced_trainer = setup.trainer(
        TrainerConfig {
            trace: true,
            ..setup.config.clone()
        },
        threads,
    );
    black_box(traced_trainer.run(TRAIN_DELTA));
    let mut s = Samples::default();
    for rep in 0..reps {
        let plain = run.checked(&mut bench, rep);
        let (traced, report) = timed(|| traced_trainer.run(TRAIN_DELTA));
        run.attempted += 1;
        if let Err(e) = bench.check(rep, &report, true) {
            run.failed += 1;
            eprintln!("check failed on a traced trainer job: {e}");
        }
        s.push("op", plain);
        s.push("traced", traced);
        s.push("overhead", traced / plain - 1.0);
        if let Some(trace) = report.trace() {
            s.push("busy", busy_share(trace, traced, threads));
            if run.flame.is_empty() {
                run.flame = trace.flame_summary();
            }
        }
        replay_job(&setup, threads, &mut s);
    }
    let rows = vec![
        ("models.loss_and_gradient", s.ms("loss_and_gradient"), true),
        ("core.ef", s.ms("ef"), true),
        ("core.compress (pool phase)", s.ms("compress"), true),
        ("tensor.merge", s.ms("merge"), true),
        ("dist.optimizer", s.ms("optimizer"), true),
        ("dist.schedule", s.ms("schedule"), true),
        ("models.evaluate", s.ms("evaluate"), true),
    ];
    let table = StageTable::new(Workload::TrainMlp, &s, rows);
    run.set(
        "models.loss_and_gradient_ms",
        s.ms("loss_and_gradient") / setup.config.iterations as f64,
    );
    run.set("models.evaluate_ms", s.ms("evaluate"));
    run.set("core.ef_ms", s.ms("ef"));
    run.set("tensor.merge_ms", s.ms("merge"));
    run.set("dist.optimizer_ms", s.ms("optimizer"));
    run.set("dist.unaccounted_ms", table.unaccounted_ms());
    run.set("runtime.busy_share", s.med("busy"));
    run.tables.push(table);
}

/// One training job replayed stage by stage with the trainer's public
/// building blocks: the same model, buckets, compressors, error feedback,
/// optimizer and scheduler, each call timed from here.
fn replay_job(setup: &TrainSetup, threads: usize, s: &mut Samples) {
    let model = setup.model.as_ref();
    let config = &setup.config;
    let workers = setup.cluster.workers;
    let dim = model.num_parameters();
    let layout = LayerLayout::new(model.layer_sizes());
    let segments: Vec<(usize, usize)> = layout.segments().collect();
    let buckets = segments.len();
    let cells: Vec<Mutex<Box<dyn Compressor>>> = (0..workers * buckets)
        .map(|_| Mutex::new(sequential_sidco()))
        .collect();
    let pool = sidco::runtime::handle(RuntimeKind::Pool, threads);
    let scheduler = CollectiveScheduler::new(config.streams, config.priority);
    let kind = CompressorKind::Sidco(SidKind::Exponential);
    let costs = modeled_bucket_costs(&setup.cluster, kind, TRAIN_DELTA, 2, &layout);
    let optimizer = Optimizer::from_hyperparameters(config.momentum, config.nesterov);
    let mut params = model.initial_parameters(config.seed);
    let mut velocity = GradientVector::zeros(dim);
    let mut feedback: Vec<ErrorFeedback> = (0..workers).map(|_| ErrorFeedback::new(dim)).collect();
    let examples = model.num_examples();
    let batch = config.batch_per_worker;
    let mut stage = [0.0f64; 7];

    for iteration in 0..config.iterations {
        let mut corrected = Vec::with_capacity(workers);
        for (worker, ef) in feedback.iter().enumerate() {
            let first = (iteration as usize * workers + worker) * batch;
            let examples_of_worker: Vec<usize> =
                (first..first + batch).map(|e| e % examples).collect();
            let (t, (_, grad)) =
                timed(|| model.loss_and_gradient(params.as_slice(), &examples_of_worker));
            stage[0] += t;
            let (t, c) = timed(|| ef.corrected(&grad));
            stage[1] += t;
            corrected.push(c);
        }

        let slots: Vec<Mutex<Option<SparseGradient>>> =
            (0..workers * buckets).map(|_| Mutex::new(None)).collect();
        let (t, ()) = timed(|| {
            pool.run_indexed(workers * buckets, &|job| {
                let (worker, bucket) = (job / buckets, job % buckets);
                let (offset, size) = segments[bucket];
                let segment = &corrected[worker].as_slice()[offset..offset + size];
                let result = cells[job]
                    .lock()
                    .expect("compressor cell poisoned")
                    .compress(segment, TRAIN_DELTA);
                *slots[job].lock().expect("result slot poisoned") = Some(result.sparse);
            });
        });
        stage[2] += t;

        let mut aggregated = GradientVector::zeros(dim);
        for worker in 0..workers {
            let mut indices = Vec::new();
            let mut values = Vec::new();
            for (bucket, &(offset, _)) in segments.iter().enumerate() {
                let slot = slots[worker * buckets + bucket]
                    .lock()
                    .expect("result slot poisoned")
                    .take()
                    .unwrap_or_else(|| SparseGradient::empty(0));
                for (i, v) in slot.iter() {
                    indices.push(offset as u32 + i);
                    values.push(v);
                }
            }
            let combined = SparseGradient::new(indices, values, dim);
            let (t, ()) = timed(|| feedback[worker].update_sparse(&corrected[worker], &combined));
            stage[1] += t;
            let (t, ()) = timed(|| combined.add_into(&mut aggregated));
            stage[3] += t;
        }
        let lr = config.schedule.lr_at(iteration);
        let (t, ()) = timed(|| {
            aggregated.scale(1.0 / workers as f32);
            optimizer.step(&mut params, &mut velocity, &aggregated, lr);
        });
        stage[4] += t;
        stage[5] += timed(|| black_box(scheduler.best_schedule(&costs))).0;
    }
    stage[6] = timed(|| {
        black_box(model.evaluate(params.as_slice()));
        black_box(model.accuracy(params.as_slice()));
    })
    .0;
    let names = [
        "loss_and_gradient",
        "ef",
        "compress",
        "merge",
        "optimizer",
        "schedule",
        "evaluate",
    ];
    for (name, seconds) in names.into_iter().zip(stage) {
        s.push(name, seconds);
    }
}

fn fleet(run: &mut TraceRun, seed: u64, scale: Scale, reps: usize) {
    let (jobs, mut bench) = ready::<Fleet>(seed, scale);
    let traced_schedulers = Fleet::schedulers(true);
    // The per-iteration pricing call, on each job's own layout and costs as
    // `simulate` prices them while every job is active: compression
    // stretched by the engine pool's oversubscription.
    let cluster = bench.schedulers[0].cluster().clone();
    let stretch = jobs.len() as f64 / TenancyConfig::for_cluster(&cluster).pool_workers as f64;
    let priced: Vec<_> = jobs
        .iter()
        .map(|job| {
            let spec = job.benchmark.spec();
            let layout = pack_layers(
                &spec.representative_layer_sizes(),
                spec.parameters.div_ceil(job.buckets),
            );
            let mut costs = modeled_bucket_costs(&cluster, job.compressor, job.delta, 2, &layout);
            for cost in &mut costs {
                cost.compression *= stretch.max(1.0);
            }
            (CollectiveScheduler::new(job.streams, job.policy), costs)
        })
        .collect();
    let mut s = Samples::default();
    for rep in 0..reps {
        let plain = run.checked(&mut bench, rep);
        let (traced, reports) = timed(|| {
            traced_schedulers
                .iter()
                .map(|scheduler| scheduler.simulate(&jobs))
                .collect::<Vec<_>>()
        });
        run.attempted += 1;
        if let Err(e) = bench.check(rep, &reports, true) {
            run.failed += 1;
            eprintln!("check failed on a traced fleet op: {e}");
        }
        s.push("op", plain);
        s.push("traced", traced);
        s.push("overhead", traced / plain - 1.0);
        let traces: Vec<&TraceReport> = reports.iter().filter_map(|r| r.trace()).collect();
        let counter = |name: &str| -> f64 {
            traces
                .iter()
                .map(|t| t.metrics().counter(name).unwrap_or(0.0))
                .sum()
        };
        s.push("calls", counter("scheduler.best_schedule.calls"));
        s.push("candidates", counter("scheduler.candidates_evaluated"));
        s.push(
            "events",
            traces.iter().map(|t| t.events().len()).sum::<usize>() as f64,
        );
        let (t, ()) = timed(|| {
            for (scheduler, costs) in &priced {
                black_box(scheduler.best_schedule(costs));
            }
        });
        s.push("per_call", t / priced.len() as f64);
    }
    let schedule_us = s.med("per_call") * 1e6;
    run.set("dist.schedule_us", schedule_us);
    run.set("dist.best_schedule_calls_per_op", s.med("calls"));
    run.set("dist.candidates_per_op", s.med("candidates"));
    run.set("dist.trace_events_per_op", s.med("events"));
    let rows = vec![(
        "dist.schedule (best_schedule calls)",
        schedule_us * s.med("calls") / 1e3,
        true,
    )];
    run.tables.push(StageTable::new(Workload::Fleet, &s, rows));
}
