//! One benchmark run: set-up, the closed measuring loop, and the result line.

use crate::catalog;
use crate::layers;
use crate::measure::{
    calibrate, median, peak_rss_mb, percentile, process_cpu_seconds, resolvable, timed, Digest,
};
use crate::workloads::{
    bench_threads, Bench, Fleet, Layerwise, Scale, Sidco16Mi, TrainMlp, Workload,
};
use std::hint::black_box;
use std::time::Instant;

/// How long and how often one run measures.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub scale: Scale,
    /// Measure for at least this long...
    pub seconds: f64,
    /// ...and for at least this many ops (100 gives the p90 ten samples
    /// beyond it), unless [`HARD_CAP_S`] runs out first.
    pub min_ops: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Ops per replay in the trace phase.
    pub trace_reps: usize,
}

impl Plan {
    pub fn full(seconds: f64) -> Self {
        Self {
            scale: Scale::Full,
            seconds,
            min_ops: 100,
            setups: 3,
            trace_reps: 5,
        }
    }

    pub fn smoke() -> Self {
        Self {
            scale: Scale::Smoke,
            seconds: 0.0,
            min_ops: 12,
            setups: 2,
            trace_reps: 2,
        }
    }
}

/// Measuring stops here even short of `min_ops`, so a run on a loaded host
/// still exits well inside its time limit.
pub const HARD_CAP_S: f64 = 100.0;
/// The calibration reading every time is rescaled to: about what
/// [`calibrate`] reads on an idle vCPU of the 2.1 GHz Xeon host, so rescaled
/// times are close to raw ones there. A fixed reference, not the run's own
/// fastest reading, so that a run spent entirely on a slow host is rescaled
/// too.
const REFERENCE_READING_S: f64 = 0.4e-3;
/// Outputs of this many leading measured ops feed the digest.
const DIGEST_OPS: usize = 8;
/// Every this-many-th op gets the deep output checks.
const DEEP_CHECK_EVERY: usize = 10;

/// What a run prints: human-readable lines, then the result object.
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<(&'static str, f64)>,
    pub lines: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.iter().all(|(_, v)| v.is_finite())
    }

    /// The last line of stdout: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value)| {
                // Every emitted name is in the catalogue (a test checks it).
                let unit = catalog::unit_of(name).unwrap_or("count");
                // A non-finite value is not JSON; `correct` is false then.
                let value = if value.is_finite() { *value } else { -1.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Runs `workload` once: the end-to-end metrics with `trace == false`, the
/// per-layer metrics with `trace == true`.
pub fn run(workload: Workload, seed: u64, trace: bool, plan: &Plan) -> Outcome {
    if trace {
        return trace_phase(workload, seed, plan);
    }
    match workload {
        Workload::Sidco16Mi => measure::<Sidco16Mi>(workload, seed, plan),
        Workload::Layerwise => measure::<Layerwise>(workload, seed, plan),
        Workload::TrainMlp => measure::<TrainMlp>(workload, seed, plan),
        Workload::Fleet => measure::<Fleet>(workload, seed, plan),
    }
}

fn measure<B: Bench>(workload: Workload, seed: u64, plan: &Plan) -> Outcome {
    let threads = bench_threads();
    let mut lines = vec![format!(
        "workload {} seed {seed}: closed loop, one client issuing ops back to back, \
         {threads} pool threads",
        workload.name()
    )];
    let (gen_s, inputs) = timed(|| B::inputs(plan.scale, seed));
    lines.push(format!("inputs generated in {gen_s:.3} s (not set-up)"));

    // Each set-up and op is paired with the calibration reading(s) around
    // it; see `measure::calibrate`.
    let mut setups = Vec::with_capacity(plan.setups);
    let mut bench = None;
    for _ in 0..plan.setups.max(1) {
        drop(bench.take());
        let before = calibrate();
        let (seconds, built) = timed(|| {
            let mut built = B::build(&inputs, threads);
            for index in 0..B::WARMUP_OPS {
                black_box(built.op(index));
            }
            built
        });
        setups.push(Timed::new(seconds, 0.0, (before + calibrate()) / 2.0));
        bench = Some(built);
    }
    // INVARIANT: the loop above runs at least once.
    let mut bench = bench.expect("at least one set-up ran");

    let mut ops = Vec::new();
    let mut failed = 0;
    let mut first_failure = None;
    let mut digest = Digest::default();
    let mut modelled = None;
    let start = Instant::now();
    let mut calibration = calibrate();
    loop {
        let n = ops.len();
        let index = B::WARMUP_OPS + n;
        let cpu_before = process_cpu_seconds().unwrap_or(0.0);
        let (seconds, out) = timed(|| bench.op(index));
        let cpu = process_cpu_seconds().unwrap_or(0.0) - cpu_before;
        // The readings on both sides of the op; the next op reuses this one.
        let after = calibrate();
        ops.push(Timed::new(seconds, cpu, (calibration + after) / 2.0));
        calibration = after;
        if let Err(e) = bench.check(index, &out, n % DEEP_CHECK_EVERY == 0) {
            failed += 1;
            first_failure.get_or_insert(format!("op {index}: {e}"));
        }
        if n < DIGEST_OPS {
            bench.digest(&out, &mut digest);
        }
        if n == 0 {
            modelled = bench.modelled(&out);
        }
        let elapsed = start.elapsed().as_secs_f64();
        let enough = elapsed >= plan.seconds && ops.len() >= plan.min_ops;
        if enough || elapsed >= HARD_CAP_S {
            break;
        }
    }
    let wall = start.elapsed().as_secs_f64();

    let n = ops.len();
    let ms = |scaled: bool| -> Vec<f64> { ops.iter().map(|t| t.seconds(scaled) * 1e3).collect() };
    let (scaled_ms, raw_ms) = (ms(true), ms(false));
    let p50 = percentile(&scaled_ms, 0.5).unwrap_or(f64::NAN);
    let p90 = percentile(&scaled_ms, 0.9).unwrap_or(f64::NAN);
    let items = bench.items_per_op() * n as f64 * 1e3 / scaled_ms.iter().sum::<f64>();
    let cpu_ms = ops.iter().map(|t| t.cpu() * 1e3).sum::<f64>() / n as f64;
    let setup_s = median(&setups.iter().map(|t| t.seconds(true)).collect::<Vec<_>>());
    let rss = peak_rss_mb().unwrap_or(f64::NAN);
    let readings: Vec<f64> = ops.iter().map(|t| t.calibration).collect();

    lines.push(format!(
        "host speed: calibration reading median {:.4} ms, fastest {:.4} ms; times below are \
         rescaled to the {:.1} ms reference reading",
        median(&readings) * 1e3,
        readings.iter().fold(f64::INFINITY, |a, &b| a.min(b)) * 1e3,
        REFERENCE_READING_S * 1e3
    ));
    lines.push(format!(
        "setup_s = {setup_s:.6} s (median of {} set-ups: construction + {} warm-up ops; raw {:?} s)",
        setups.len(),
        B::WARMUP_OPS,
        setups.iter().map(|t| (t.seconds(false) * 1e3).round() / 1e3).collect::<Vec<_>>()
    ));
    lines.push(format!(
        "op_ms_p50 = {p50:.4} ms ({n} samples over {wall:.1} s; raw {:.4} ms)",
        percentile(&raw_ms, 0.5).unwrap_or(f64::NAN)
    ));
    let beyond = if resolvable(n, 0.9) {
        String::new()
    } else {
        ", fewer than 10 beyond it: unresolved".to_string()
    };
    lines.push(format!(
        "op_ms_p90 = {p90:.4} ms ({n} samples{beyond}; raw {:.4} ms)",
        percentile(&raw_ms, 0.9).unwrap_or(f64::NAN)
    ));
    lines.push(format!(
        "items_per_s = {items:.1} 1/s ({} {} per op)",
        bench.items_per_op(),
        workload.item()
    ));
    lines.push(format!(
        "cpu_ms_per_op = {cpu_ms:.3} ms (user + system, all threads)"
    ));
    lines.push(format!("peak_rss_mb = {rss:.1} MiB (VmHWM)"));
    lines.push(format!(
        "failed_ops_share = {} ({failed} of {n} ops failed their output check){}",
        failed as f64 / n as f64,
        first_failure
            .map(|f| format!("; first: {f}"))
            .unwrap_or_default()
    ));
    if let Some(modelled) = modelled {
        lines.push(format!("modelled (checked, not gated): {modelled}"));
    }
    lines.push(format!(
        "digest {:016x} over the first {} measured ops",
        digest.value(),
        DIGEST_OPS.min(n)
    ));

    Outcome {
        attempted: n,
        failed,
        metrics: vec![
            ("op_ms_p50", p50),
            ("op_ms_p90", p90),
            ("items_per_s", items),
            ("cpu_ms_per_op", cpu_ms),
            ("setup_s", setup_s),
            ("peak_rss_mb", rss),
        ],
        lines,
    }
}

/// One timed interval with the CPU time it used and the calibration reading
/// taken with it.
struct Timed {
    wall: f64,
    cpu: f64,
    calibration: f64,
}

impl Timed {
    fn new(wall: f64, cpu: f64, calibration: f64) -> Self {
        Self {
            wall,
            cpu,
            calibration,
        }
    }

    /// Wall seconds, rescaled to the reference reading when `scaled`.
    fn seconds(&self, scaled: bool) -> f64 {
        if scaled {
            self.wall * REFERENCE_READING_S / self.calibration
        } else {
            self.wall
        }
    }

    fn cpu(&self) -> f64 {
        self.cpu * REFERENCE_READING_S / self.calibration
    }
}

/// The trace phase: every workload's replay (each per-layer metric comes from
/// the workload its layer call belongs to), the selected workload's trace
/// overhead, stage tables, and the trace artefacts under `target/sidco-perf/`.
fn trace_phase(workload: Workload, seed: u64, plan: &Plan) -> Outcome {
    let mut run = layers::trace_all(seed, plan.scale, plan.trace_reps);
    let mut lines = Vec::new();
    for table in &run.tables {
        let marker = if table.workload == workload {
            " <- this run's workload"
        } else {
            ""
        };
        lines.push(format!("{}{marker}", table.render().trim_end()));
    }
    if let Some(table) = run.tables.iter().find(|t| t.workload == workload) {
        run.metrics.insert("trace.overhead_pct", table.overhead_pct);
    }
    let tables: Vec<String> = run.tables.iter().map(|t| t.to_json()).collect();
    let metrics: Vec<String> = run
        .metrics
        .iter()
        .map(|(name, value)| format!("\"{name}\": {value}"))
        .collect();
    let json = format!(
        "{{\"workload\": \"{}\", \"seed\": {seed}, \"metrics\": {{{}}}, \"stage_tables\": [{}]}}\n",
        workload.name(),
        metrics.join(", "),
        tables.join(", ")
    );
    let artefacts = [
        (format!("trace-{}-seed{seed}.json", workload.name()), json),
        (format!("trainer-flame-seed{seed}.txt"), run.flame.clone()),
    ];
    // Smoke runs (the tests) leave no files behind.
    for (file, contents) in artefacts.iter().filter(|_| plan.scale == Scale::Full) {
        match write_artefact(file, contents) {
            Ok(path) => lines.push(format!("wrote {path}")),
            Err(e) => lines.push(format!("could not write {file}: {e}")),
        }
    }
    Outcome {
        attempted: run.attempted,
        failed: run.failed,
        metrics: catalog::PER_LAYER
            .iter()
            .map(|(name, _)| (*name, run.metrics.get(name).copied().unwrap_or(f64::NAN)))
            .collect(),
        lines,
    }
}

/// Writes `contents` to `target/sidco-perf/<file>` under the working
/// directory and returns the path.
pub fn write_artefact(file: &str, contents: &str) -> std::io::Result<String> {
    let dir = std::path::Path::new("target").join("sidco-perf");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(file);
    std::fs::write(&path, contents)?;
    Ok(path.display().to_string())
}
