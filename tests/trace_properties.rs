//! Property-test harness for the `sidco-trace` subsystem: span recording,
//! virtual-resource exclusivity re-checked *through the trace*, Chrome
//! trace-event JSON round-tripping, and the subsystem's core guarantee that
//! tracing is strictly observational (traced runs are bit-identical to
//! untraced ones, for every evaluated compressor, inline and on the pool).
//!
//! Case count set by `PROPTEST_CASES` (default 256), matching
//! `tests/scheduler_properties.rs`.

use proptest::prelude::*;
use sidco::prelude::*;
use sidco_dist::collective::{BucketCost, CollectiveScheduler, PriorityPolicy};
use sidco_dist::simulate::build_compressor;
use sidco_dist::BucketPolicy;
use sidco_models::dataset::ClassificationDataset;
use sidco_models::mlp::Mlp;
use sidco_trace::{global_sink, ChromeTrace, Lane, TraceSession};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Serialises every test in this binary. Trace sessions are process-global,
/// and a concurrently running *untraced* trainer in a sibling test would
/// record its pool workers' real-time spans into whichever session happens
/// to be open — harmless for production traces (extra tracks), but noise
/// this harness must keep out of its exact span-list assertions.
fn test_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

const POLICIES: [PriorityPolicy; 3] = [
    PriorityPolicy::Fifo,
    PriorityPolicy::SmallestFirst,
    PriorityPolicy::NearestOutputFirst,
];

/// Strategy: per-bucket `(compression, latency, transfer)` cost triples with
/// a healthy share of zeros, as in `tests/scheduler_properties.rs`.
fn bucket_costs_strategy() -> impl Strategy<Value = Vec<BucketCost>> {
    prop::collection::vec(
        (
            prop_oneof![4 => 0.0f64..3.0, 1 => Just(0.0f64)],
            prop_oneof![3 => 0.0f64..0.5, 1 => Just(0.0f64)],
            prop_oneof![4 => 0.0f64..5.0, 1 => Just(0.0f64)],
        ),
        1..12,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .map(|(compression, latency, transfer)| BucketCost {
                ready_at: 0.0,
                compression,
                latency,
                transfer,
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    /// Records a random mix of spans and instants over three tracks and
    /// checks `spans()` returns exactly the recorded spans, in recording
    /// order, and leaves the instants out.
    #[test]
    fn spans_come_back_exactly_in_recording_order(
        ops in prop::collection::vec(
            (0usize..3, 0usize..2, 0.0f64..100.0, 0.0f64..10.0),
            1..64,
        ),
    ) {
        let _serial = test_lock();
        let session = TraceSession::begin();
        let sink = global_sink();
        let tracks: Vec<_> = (0..3)
            .map(|t| sink.track(&format!("prop-track-{t}"), Lane::Virtual))
            .collect();

        let mut expected: Vec<(usize, String, f64, f64)> = Vec::new();
        for (seq, &(track, instant, start, length)) in ops.iter().enumerate() {
            let name = format!("event-{seq}");
            if instant == 1 {
                sink.instant(tracks[track], name, start);
            } else {
                sink.span(tracks[track], name.clone(), start, start + length);
                expected.push((tracks[track].index(), name, start, start + length));
            }
        }

        let report = session.finish();
        prop_assert_eq!(report.dropped(), 0);
        prop_assert_eq!(report.events().len(), ops.len());
        let got: Vec<(usize, String, f64, f64)> = report
            .spans()
            .map_err(TestCaseError::fail)?
            .into_iter()
            .map(|s| (s.track.index(), s.name, s.start, s.end))
            .collect();
        prop_assert_eq!(got, expected);
    }

    /// The scheduler's stream/link exclusivity invariant, re-verified through
    /// the *trace* rather than the timeline: record any schedule and check no
    /// two spans on one stream track (or the link track) overlap.
    #[test]
    fn recorded_schedules_keep_streams_and_link_exclusive(
        buckets in bucket_costs_strategy(),
        streams in 1usize..5,
        base in prop_oneof![2 => 0.0f64..10.0, 1 => Just(0.0f64)],
    ) {
        let _serial = test_lock();
        for policy in POLICIES {
            let timeline = CollectiveScheduler::new(streams, policy).best_schedule(&buckets);
            let session = TraceSession::begin();
            let sink = global_sink();
            timeline.record_trace(&sink, base);
            let report = session.finish();
            prop_assert_eq!(report.dropped(), 0);
            let spans = report.spans().map_err(TestCaseError::fail)?;

            // Expected span population, straight from the timeline.
            let expect_stream: usize = timeline
                .entries()
                .iter()
                .filter(|e| e.comm_end > e.comm_start)
                .count();
            let expect_link: usize = timeline
                .entries()
                .iter()
                .flat_map(|e| e.segments.iter())
                .filter(|s| s.end > s.start)
                .count();
            let on = |prefix: &str| {
                let mut windows: Vec<(f64, f64)> = spans
                    .iter()
                    .filter(|s| report.tracks()[s.track.index()].label.starts_with(prefix))
                    .map(|s| (s.start, s.end))
                    .collect();
                windows.sort_by(|a, b| a.partial_cmp(b).expect("finite span times"));
                windows
            };
            prop_assert_eq!(on("stream:").len(), expect_stream);
            prop_assert_eq!(on("link").len(), expect_link);

            // Exclusivity per resource track: sorted windows never overlap.
            let mut labels: Vec<&str> = report
                .tracks()
                .iter()
                .map(|t| t.label.as_str())
                .filter(|l| l.starts_with("stream:") || *l == "link")
                .collect();
            labels.dedup();
            for label in labels {
                let mut windows: Vec<(f64, f64)> = spans
                    .iter()
                    .filter(|s| report.tracks()[s.track.index()].label == label)
                    .map(|s| (s.start, s.end))
                    .collect();
                windows.sort_by(|a, b| a.partial_cmp(b).expect("finite span times"));
                for pair in windows.windows(2) {
                    prop_assert!(
                        pair[1].0 >= pair[0].1 - 1e-9,
                        "overlap on {}: {:?}",
                        label,
                        pair
                    );
                }
            }
        }
    }

    /// Chrome trace-event JSON survives a round trip through the in-crate
    /// parser: event counts, track metadata, and microsecond timestamps all
    /// reconstruct from the exported text.
    #[test]
    fn chrome_export_round_trips_through_the_parser(
        spans in prop::collection::vec((0usize..3, 0.0f64..50.0, 0.0f64..5.0), 0..24),
        instants in prop::collection::vec((0usize..3, 0.0f64..50.0), 0..8),
    ) {
        let _serial = test_lock();
        let session = TraceSession::begin();
        let sink = global_sink();
        let tracks: Vec<_> = (0..3)
            .map(|t| sink.track(&format!("rt \"track\" {t}\n"), Lane::Virtual))
            .collect();
        let mut max_end = 0.0f64;
        for &(track, start, dur) in &spans {
            sink.span(tracks[track], format!("s {start:.3}"), start, start + dur);
            max_end = max_end.max(start + dur);
        }
        for &(track, ts) in &instants {
            sink.instant(tracks[track], "mark", ts);
            max_end = max_end.max(ts);
        }
        let report = session.finish();

        let mut chrome = ChromeTrace::new();
        chrome.add("round/trip \\ test", &report);
        let json = chrome.finish();
        let parsed = parse_chrome_trace(&json).map_err(TestCaseError::fail)?;
        prop_assert_eq!(parsed.complete_events, spans.len());
        prop_assert_eq!(parsed.instant_events, instants.len());
        // Every interned track surfaces as thread metadata, escapes intact.
        for t in 0..3 {
            let label = format!("rt \"track\" {t}\n");
            prop_assert!(
                parsed.threads.values().any(|name| name == &label),
                "missing thread name {:?} in {:?}",
                label,
                parsed.threads
            );
        }
        // Timestamps are exported in microseconds; allow only float rounding.
        let span_time: f64 = spans.iter().map(|&(_, _, dur)| dur).sum();
        prop_assert!((parsed.total_dur_us - span_time * 1e6).abs() <= 1e-3 * span_time.max(1.0));
        prop_assert!((parsed.max_ts_us - max_end * 1e6).abs() <= 1e-3);
    }
}

/// The tentpole guarantee: tracing is strictly observational. For every
/// evaluated compressor, inline (1 thread) and on the pool (2 and 3
/// threads), under an elastic Join/Leave timeline that resizes the
/// persistent per-worker buffers mid-run, a traced run's losses, quality
/// series, final metrics and simulated clock are bit-identical to the
/// untraced run — the only difference is the attached [`TraceReport`].
#[test]
fn traced_runs_are_bit_identical_to_untraced_runs() {
    let _serial = test_lock();
    let model: Arc<dyn DifferentiableModel> = Arc::new(Mlp::new(
        ClassificationDataset::gaussian_blobs(96, 10, 3, 3.0, 11),
        12,
    ));
    for kind in sidco::core::compressor::CompressorKind::EVALUATED {
        for threads in [1usize, 2, 3] {
            let run = |trace: bool| {
                let config = TrainerConfig {
                    iterations: 5,
                    batch_per_worker: 8,
                    compressor_kind: Some(kind),
                    bucket_policy: BucketPolicy::PerLayer,
                    overlap: true,
                    streams: 3,
                    priority: PriorityPolicy::SmallestFirst,
                    arrival_aware: true,
                    cluster_events: vec![ClusterEvent::Join(1), ClusterEvent::Leave(3)],
                    trace,
                    ..TrainerConfig::default()
                };
                ModelTrainer::new(
                    Arc::clone(&model),
                    ClusterConfig::small_test(),
                    config,
                    || build_compressor(kind, 23).expect("evaluated kinds build"),
                )
                .with_runtime(RuntimeKind::Pool, threads)
                .run(0.05)
            };
            let plain = run(false);
            let traced = run(true);
            let losses = |r: &sidco_dist::TrainingReport| {
                r.samples().iter().map(|s| s.loss).collect::<Vec<_>>()
            };
            let times = |r: &sidco_dist::TrainingReport| {
                r.samples().iter().map(|s| s.time).collect::<Vec<_>>()
            };
            assert_eq!(
                losses(&plain),
                losses(&traced),
                "{kind:?} at {threads} threads diverged under tracing"
            );
            assert_eq!(
                times(&plain),
                times(&traced),
                "{kind:?} at {threads} threads clock moved under tracing"
            );
            assert_eq!(plain.final_evaluation(), traced.final_evaluation());
            assert_eq!(plain.final_accuracy(), traced.final_accuracy());
            assert_eq!(plain.rescales(), traced.rescales());
            assert_eq!(plain.total_time(), traced.total_time());
            assert_eq!(
                plain.estimation_quality().mean_normalized_ratio,
                traced.estimation_quality().mean_normalized_ratio,
            );
            let plain_acc = plain.schedule().expect("compressed run has accounting");
            let traced_acc = traced.schedule().expect("compressed run has accounting");
            assert_eq!(plain_acc.charged_overhead(), traced_acc.charged_overhead());

            assert!(plain.trace().is_none(), "untraced run grew a trace");
            let trace = traced.trace().expect("traced run keeps its report");
            assert_eq!(trace.dropped(), 0);
            assert!(!trace.events().is_empty());
            assert!(trace.track_by_label("trainer").is_some());
            assert!(trace
                .metrics()
                .gauges()
                .any(|(name, _)| name == "trainer.total_time"));
        }
    }
}

/// Same observational guarantee for the fleet simulator: per-job charges and
/// link accounting are bit-identical with tracing on, across all policies.
#[test]
fn traced_fleets_charge_bit_identically() {
    let _serial = test_lock();
    let cluster = ClusterConfig::paper_dedicated();
    let jobs = vec![
        JobSpec::new("a", BenchmarkId::ResNet20Cifar10, 0.01).with_iterations(3),
        JobSpec::new("b", BenchmarkId::Vgg16Cifar10, 0.02)
            .with_arrival(0.05)
            .with_iterations(2),
    ];
    for policy in SharePolicy::ALL {
        let run = |trace: bool| {
            FleetScheduler::new(cluster.clone(), policy)
                .with_tenancy(TenancyConfig {
                    trace,
                    ..TenancyConfig::for_cluster(&cluster)
                })
                .simulate(&jobs)
        };
        let plain = run(false);
        let traced = run(true);
        for (p, t) in plain.jobs.iter().zip(traced.jobs.iter()) {
            assert_eq!(p.charges, t.charges, "{policy}: charges diverged");
            assert_eq!(p.completion, t.completion);
            assert_eq!(p.deltas, t.deltas);
        }
        assert_eq!(plain.link_busy_seconds, traced.link_busy_seconds);
        assert_eq!(plain.total_wire_seconds, traced.total_wire_seconds);
        assert!(plain.trace().is_none());
        let trace = traced.trace().expect("traced fleet keeps its report");
        assert!(trace.track_by_label("link").is_some());
        assert!(trace.track_by_label("job:a").is_some());
        assert!(trace.track_by_label("job:b").is_some());
        // Wire exclusivity holds through the trace under serial policies.
        let spans = trace.spans().expect("well-formed fleet trace");
        let link = trace.track_by_label("link").expect("link track");
        let mut windows: Vec<(f64, f64)> = spans
            .iter()
            .filter(|s| s.track == link)
            .map(|s| (s.start, s.end))
            .collect();
        windows.sort_by(|a, b| a.partial_cmp(b).expect("finite span times"));
        for pair in windows.windows(2) {
            assert!(
                pair[1].0 >= pair[0].1 - 1e-9,
                "{policy}: link overlap {pair:?}"
            );
        }
    }
}
