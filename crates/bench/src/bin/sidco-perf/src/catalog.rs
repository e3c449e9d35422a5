//! The declared metric catalogue. `BENCHMARK.json` at the repository root
//! must declare exactly these names with these units (a test checks it).

/// A metric name and its unit.
pub type Metric = (&'static str, &'static str);

/// Printed by every `--trace 0` run: what a user of the system sees.
pub const END_TO_END: [Metric; 6] = [
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("items_per_s", "1/s"),
    ("cpu_ms_per_op", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Printed by every `--trace 1` run. Each is measured on the workload its
/// layer call belongs to (see the README's layer → metric → workload map).
pub const PER_LAYER: [Metric; 29] = [
    ("core.compress_ms", "ms"),
    ("core.estimate_ms", "ms"),
    ("core.engine.abs_moments_ms", "ms"),
    ("core.engine.pot_moments_ms", "ms"),
    ("core.engine.select_ms", "ms"),
    ("core.passes_per_op", "count"),
    ("core.unaccounted_ms", "ms"),
    ("core.ratio_p50", "ratio"),
    ("core.speedup_vs_topk", "ratio"),
    ("core.speedup_vs_dgc", "ratio"),
    ("core.ef_ms", "ms"),
    ("tensor.encode_varint_ms", "ms"),
    ("tensor.merge_ms", "ms"),
    ("tensor.wire_bytes_per_op", "bytes"),
    ("runtime.jobs_per_op", "count"),
    ("runtime.chunks_per_op", "count"),
    ("runtime.parks_per_op", "count"),
    ("runtime.steals_per_op", "count"),
    ("runtime.speedup_vs_inline", "ratio"),
    ("runtime.busy_share", "ratio"),
    ("models.loss_and_gradient_ms", "ms"),
    ("models.evaluate_ms", "ms"),
    ("dist.optimizer_ms", "ms"),
    ("dist.schedule_us", "us"),
    ("dist.best_schedule_calls_per_op", "count"),
    ("dist.candidates_per_op", "count"),
    ("dist.trace_events_per_op", "count"),
    ("dist.unaccounted_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// The unit a catalogue metric is declared with.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| *unit)
}

#[cfg(test)]
/// Whether `name` is a valid metric or workload name: a letter or digit,
/// then at most 63 more letters, digits, `_`, `.` or `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}
