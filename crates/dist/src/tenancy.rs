//! Multi-tenant compression service: concurrent training jobs arbitrating
//! one shared cluster.
//!
//! The rest of this crate models a *dedicated* cluster: one job owns the
//! compression engine, the streams and the wire, and
//! [`CollectiveScheduler::best_schedule`] prices its iteration. Real SIDCo
//! deployments are shared — several training jobs with different models,
//! compressors and δ targets land on the same machines and the same
//! interconnect. This module layers that tenancy on top of the existing
//! single-job machinery without re-deriving any of it:
//!
//! * **Within a job nothing changes.** Each [`JobSpec`] gets its own stream
//!   group (a private [`CollectiveScheduler`]) and its iteration is priced by
//!   the very same `best_schedule` search a dedicated run uses. An iteration
//!   then splits into a *local phase* (compute + the compression/latency
//!   front of the schedule, `makespan − Σtransfer`) and a *wire request*
//!   (the `Σtransfer` of bandwidth-serialised work the link must carry).
//!   Prices are memoised per job shape (benchmark, bucket count, stream
//!   count, compressor and bucket policy) for the length of one
//!   [`simulate`](FleetScheduler::simulate). With the cluster fixed, a price
//!   is a pure function of the shape, the granted engine workers, the pool
//!   stretch and δ: jobs of one shape share it, and the last three repeat
//!   across iterations because admission only changes at arrivals and
//!   departures. Reusing the first search's bits for a repeated key is
//!   therefore exact; a stretch ≤ 1 leaves the costs untouched, so it
//!   shares the key of stretch 1.
//! * **Across jobs the wire is shared.** A small event-driven simulator
//!   serves each job's wire requests under a pluggable [`SharePolicy`]:
//!   processor-sharing ([`FairShare`](SharePolicy::FairShare)), strict
//!   preemptive priority by class
//!   ([`PriorityClass`](SharePolicy::PriorityClass)), or whole requests in
//!   arrival order ([`Fifo`](SharePolicy::Fifo)). All three are
//!   work-conserving: the link is never idle while a request is pending.
//! * **The engine pool is shared too.** Admission control grants each tenant
//!   `min(demand, pool / active jobs)` engine workers (at least one), and
//!   once more jobs are active than the pool has workers the compression
//!   phases stretch proportionally — the backpressure of a bounded pool.
//! * **Tenants adapt.** Each job's wire budget is its dedicated wire time;
//!   when its wire requests come back stretched `s`× by contention, δ is
//!   re-derived as the ratio whose modelled all-gather fills a `budget/s`
//!   budget ([`ClusterConfig::allgather_budget_bytes`]), clamped to
//!   `[δ/20, δ]`, trading compression ratio for iteration-time stability.
//!
//! An iteration is charged `makespan + delay`, where `delay` is how far the
//! shared link pushed the request past its dedicated completion
//! (`actual − (request start + demand)`). For a fleet of one the request is
//! alone on the link, the delay is *exactly* `0.0`, admission grants the
//! full engine, and the charge collapses bit-for-bit onto the dedicated
//! `best_schedule` path — the invariant `tests/tenancy_properties.rs` pins
//! across all three policies.

use crate::cluster::ClusterConfig;
use crate::collective::{
    modeled_bucket_costs, total_wire_seconds, CollectiveScheduler, PriorityPolicy,
};
use crate::metrics::{jain_fairness_index, percentile};
use crate::schedule::pack_layers;
use crate::SPARSE_WIRE_BYTES;
use sidco_core::compressor::CompressorKind;
use sidco_core::layerwise::LayerLayout;
use sidco_models::BenchmarkId;
use sidco_stats::fit::SidKind;
use sidco_trace::{Lane, TraceSession, TraceSink, TrackId};
use std::collections::HashMap;

/// Estimation stages priced into every bucket (the two-stage SIDCo pipeline,
/// matching the golden overlap tests).
const STAGES: usize = 2;

/// Contention never shrinks a job's δ below `δ / MAX_SQUEEZE`.
const MAX_SQUEEZE: f64 = 20.0;

/// How the shared link divides bandwidth between tenants' pending wire
/// requests. Every policy is work-conserving — the link serves at full rate
/// whenever any request is pending — they differ only in *whose* request
/// that rate goes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SharePolicy {
    /// Processor sharing: the `n` pending requests each progress at rate
    /// `1/n`. No request ever starves — a tenant is always within a factor
    /// `n` of its dedicated wire time.
    FairShare,
    /// Strict preemptive priority by [`JobSpec::priority_class`] (lower is
    /// more important, ties broken by job index). A newly arrived
    /// higher-class request preempts the one in service.
    PriorityClass,
    /// Whole requests served to completion in request-arrival order (ties by
    /// job index). No preemption: an early bulky tenant delays everyone.
    Fifo,
}

impl SharePolicy {
    /// Every policy, in the order the fleet reports list them.
    pub const ALL: [SharePolicy; 3] = [
        SharePolicy::FairShare,
        SharePolicy::PriorityClass,
        SharePolicy::Fifo,
    ];

    /// Stable kebab-case label (used by benches, goldens and reports).
    pub fn as_str(&self) -> &'static str {
        match self {
            SharePolicy::FairShare => "fair-share",
            SharePolicy::PriorityClass => "priority-class",
            SharePolicy::Fifo => "fifo",
        }
    }
}

impl std::fmt::Display for SharePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One tenant's submission to the shared cluster: which workload, when it
/// arrives, how it compresses, and how its private stream group schedules.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Human-readable job name (reports echo it).
    pub name: String,
    /// Workload the job trains — sizes the gradient, the per-layer bucket
    /// packing and the compute phase.
    pub benchmark: BenchmarkId,
    /// Simulated arrival time (seconds). The job consumes no resources
    /// before it.
    pub arrival: f64,
    /// Requested compression ratio δ in `(0, 1]`; contention may shrink the
    /// effective δ below this, never above.
    pub delta: f64,
    /// Compression scheme the job runs.
    pub compressor: CompressorKind,
    /// Priority class under [`SharePolicy::PriorityClass`] (lower = more
    /// important).
    pub priority_class: usize,
    /// Number of training iterations the job runs.
    pub iterations: usize,
    /// Stream budget of the job's private [`CollectiveScheduler`].
    pub streams: usize,
    /// Bucket-ordering policy of the job's private scheduler.
    pub policy: PriorityPolicy,
    /// Target bucket count the job's layers are packed into.
    pub buckets: usize,
}

impl JobSpec {
    /// A job with the repo-wide defaults: arrives at `t = 0`, SIDCo-E
    /// compression, priority class 1, 8 iterations, 4 streams under
    /// smallest-first ordering, 8 buckets.
    pub fn new(name: impl Into<String>, benchmark: BenchmarkId, delta: f64) -> Self {
        Self {
            name: name.into(),
            benchmark,
            arrival: 0.0,
            delta,
            compressor: CompressorKind::Sidco(SidKind::Exponential),
            priority_class: 1,
            iterations: 8,
            streams: 4,
            policy: PriorityPolicy::SmallestFirst,
            buckets: 8,
        }
    }

    /// Sets the arrival time.
    #[must_use]
    pub fn with_arrival(mut self, arrival: f64) -> Self {
        self.arrival = arrival;
        self
    }

    /// Sets the priority class (lower = more important).
    #[must_use]
    pub fn with_priority_class(mut self, class: usize) -> Self {
        self.priority_class = class;
        self
    }

    /// Sets the iteration count.
    #[must_use]
    pub fn with_iterations(mut self, iterations: usize) -> Self {
        self.iterations = iterations;
        self
    }

    /// Sets the stream budget of the job's private scheduler.
    #[must_use]
    pub fn with_streams(mut self, streams: usize) -> Self {
        self.streams = streams;
        self
    }

    /// Sets the target bucket count.
    #[must_use]
    pub fn with_buckets(mut self, buckets: usize) -> Self {
        self.buckets = buckets;
        self
    }

    fn validate(&self) {
        assert!(
            self.delta > 0.0 && self.delta <= 1.0,
            "job {:?}: delta {} outside (0, 1]",
            self.name,
            self.delta
        );
        assert!(
            self.arrival.is_finite() && self.arrival >= 0.0,
            "job {:?}: arrival {} must be finite and non-negative",
            self.name,
            self.arrival
        );
        assert!(
            self.iterations >= 1,
            "job {:?} must run at least one iteration",
            self.name
        );
        assert!(
            self.streams >= 1 && self.buckets >= 1,
            "job {:?} needs at least one stream and one bucket",
            self.name
        );
    }
}

/// Knobs of the shared fleet: how many workers the compression-engine pool
/// holds, and whether the run is traced. Each tenant is granted at most its
/// fair share of the pool, and every tenant adapts δ under wire contention.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenancyConfig {
    /// Total engine workers in the shared pool.
    pub pool_workers: usize,
    /// Record a [`sidco_trace`] session over the fleet run (off by default).
    /// Strictly observational: a traced run charges bit-identically to an
    /// untraced one, and the report exposes the capture via
    /// [`FleetReport::trace`].
    pub trace: bool,
}

impl TenancyConfig {
    /// The default pool for `cluster`: as many workers as a dedicated run
    /// would use. A fleet of one is then granted everything a dedicated run
    /// gets — the collapse guarantee.
    pub fn for_cluster(cluster: &ClusterConfig) -> Self {
        Self {
            pool_workers: cluster.engine_workers.max(1),
            trace: false,
        }
    }
}

/// Per-iteration pricing of one job under the current contention: the
/// `best_schedule` makespan, the wire demand, and the δ it was priced at.
#[derive(Debug, Clone, Copy)]
struct PricedIteration {
    makespan: f64,
    wire: f64,
    delta: f64,
}

/// Memo key of one shape's iteration price: `(granted, stretch bits, δ bits)`.
///
/// A stretch of at most 1.0 is folded to 1.0, because
/// [`FleetScheduler::price`] only scales compression when the pool is
/// oversubscribed (`stretch > 1.0`); every undersubscribed stretch prices
/// the same bits.
type PriceKey = (usize, u64, u64);

fn price_key(granted: usize, stretch: f64, delta: f64) -> PriceKey {
    let stretch = if stretch > 1.0 { stretch } else { 1.0 };
    (granted, stretch.to_bits(), delta.to_bits())
}

/// A job's shape, `(benchmark, buckets, streams, compressor, policy)`: every
/// [`JobSpec`] field [`FleetScheduler::price`] prices from. Within one call
/// the cluster is fixed, so jobs of one shape share every price.
type Shape = (BenchmarkId, usize, usize, CompressorKind, PriorityPolicy);

/// The prices of one [`FleetScheduler::simulate`] or
/// [`FleetScheduler::serialized_end`] call: per shape, its packed layers and
/// the `(makespan, wire)` of every [`PriceKey`] it has been priced at.
type PriceMemo = HashMap<Shape, (LayerLayout, HashMap<PriceKey, (f64, f64)>)>;

/// Where a job currently is in the fleet simulation.
#[derive(Debug, Clone, Copy)]
enum Phase {
    /// Not yet arrived.
    Waiting,
    /// Arrived (or between iterations), about to be priced — counted as
    /// active so same-instant starters see each other in admission control.
    Starting,
    /// In its local phase (compute + compression/latency front); the wire
    /// request releases at `ready_at`.
    Local {
        ready_at: f64,
        priced: PricedIteration,
    },
    /// Wire request pending on the shared link.
    Wire { priced: PricedIteration },
    /// All iterations charged.
    Done,
}

/// One tenant's live state while the fleet runs.
struct JobState {
    spec: JobSpec,
    /// Dedicated wire seconds per iteration, the budget contention squeezes
    /// δ against (`None` when the job has no wire work).
    wire_budget: Option<f64>,
    /// Compute seconds per iteration (same constant the trainer charges).
    compute: f64,
    /// Uncontended per-iteration latency: `compute + best_schedule` makespan
    /// at the requested δ on the full engine.
    dedicated: f64,
    /// The job's charge clock: `arrival + Σ charges so far`. Authoritative
    /// for when its next iteration starts (keeps the single-job sum free of
    /// link-simulator float residue).
    clock: f64,
    iteration: usize,
    /// Observed wire slowdown of the previous iteration (`(w + delay) / w`).
    slowdown: f64,
    phase: Phase,
    charges: Vec<f64>,
    deltas: Vec<f64>,
    local_seconds: f64,
    wire_seconds: f64,
}

/// A wire request pending on the shared link.
struct Pending {
    job: usize,
    remaining: f64,
    demand: f64,
    ready_at: f64,
    class: usize,
}

/// What one job experienced over the fleet run.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// Job name from the spec.
    pub name: String,
    /// Arrival time from the spec.
    pub arrival: f64,
    /// Time the last iteration's charge landed.
    pub completion: f64,
    /// Priority class from the spec.
    pub priority_class: usize,
    /// Charged latency of each iteration (`compute + makespan + delay`).
    pub charges: Vec<f64>,
    /// Effective δ each iteration was priced at (≤ the requested δ).
    pub deltas: Vec<f64>,
    /// What one iteration costs with the cluster to itself — the yardstick
    /// every charge is compared against.
    pub dedicated_iteration: f64,
    /// Total seconds spent off the wire (compute + compression/latency).
    pub local_seconds: f64,
    /// Total wire demand the job presented to the shared link.
    pub wire_seconds: f64,
}

impl JobOutcome {
    /// Arrival-to-completion span.
    pub fn makespan(&self) -> f64 {
        self.completion - self.arrival
    }

    /// What the same iterations would have spanned on a dedicated cluster.
    pub fn dedicated_makespan(&self) -> f64 {
        self.dedicated_iteration * self.charges.len() as f64
    }

    /// 99th-percentile charged iteration latency.
    pub fn p99_latency(&self) -> f64 {
        percentile(&self.charges, 0.99)
    }
}

/// Everything a fleet run produced: per-job outcomes plus link accounting.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// The arbitration policy the fleet ran under.
    pub policy: SharePolicy,
    /// Per-job outcomes, in submission order.
    pub jobs: Vec<JobOutcome>,
    /// Earliest arrival across the fleet.
    pub fleet_start: f64,
    /// Seconds the shared link spent serving (work conservation pins this to
    /// [`total_wire_seconds`](Self::total_wire_seconds)).
    pub link_busy_seconds: f64,
    /// Total wire demand all jobs presented.
    pub total_wire_seconds: f64,
    /// Trace captured when [`TenancyConfig::trace`] was set.
    trace: Option<sidco_trace::TraceReport>,
}

impl FleetReport {
    /// Completion time of the last job to finish.
    pub fn fleet_end(&self) -> f64 {
        self.jobs
            .iter()
            .map(|job| job.completion)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// First-arrival-to-last-completion span of the whole fleet.
    pub fn fleet_makespan(&self) -> f64 {
        self.fleet_end() - self.fleet_start
    }

    /// Jain fairness index over per-job normalised progress rates
    /// (`dedicated_makespan / makespan`): 1 when contention slowed every
    /// tenant equally, `1/n` when one tenant absorbed all of it.
    pub fn fairness_index(&self) -> f64 {
        let rates: Vec<f64> = self
            .jobs
            .iter()
            .map(|job| job.dedicated_makespan() / job.makespan())
            .collect();
        jain_fairness_index(&rates)
    }

    /// 99th-percentile charged iteration latency across every job.
    pub fn p99_latency(&self) -> f64 {
        let all: Vec<f64> = self
            .jobs
            .iter()
            .flat_map(|job| job.charges.iter().copied())
            .collect();
        percentile(&all, 0.99)
    }

    /// The trace captured during [`FleetScheduler::simulate`], if the fleet
    /// ran with [`TenancyConfig::trace`] set.
    pub fn trace(&self) -> Option<&sidco_trace::TraceReport> {
        self.trace.as_ref()
    }
}

/// Arbitrates a fleet of [`JobSpec`]s over one shared cluster.
#[derive(Debug, Clone)]
pub struct FleetScheduler {
    cluster: ClusterConfig,
    policy: SharePolicy,
    config: TenancyConfig,
}

impl FleetScheduler {
    /// A fleet over `cluster` arbitrated by `policy`, with the default
    /// engine pool ([`TenancyConfig::for_cluster`]).
    ///
    /// # Panics
    ///
    /// Panics if the cluster's topology spans a different worker count than
    /// [`ClusterConfig::workers`].
    pub fn new(cluster: ClusterConfig, policy: SharePolicy) -> Self {
        cluster.topology_checked();
        let config = TenancyConfig::for_cluster(&cluster);
        Self {
            cluster,
            policy,
            config,
        }
    }

    /// Overrides the engine-pool configuration.
    ///
    /// # Panics
    ///
    /// Panics if the pool has no workers.
    #[must_use]
    pub fn with_tenancy(mut self, config: TenancyConfig) -> Self {
        assert!(
            config.pool_workers >= 1,
            "the engine pool needs at least one worker"
        );
        self.config = config;
        self
    }

    /// The cluster the fleet shares.
    pub fn cluster(&self) -> &ClusterConfig {
        &self.cluster
    }

    /// Runs the fleet to completion and reports per-job charging plus link
    /// accounting.
    ///
    /// # Panics
    ///
    /// Panics on an empty fleet or an invalid [`JobSpec`].
    pub fn simulate(&self, jobs: &[JobSpec]) -> FleetReport {
        assert!(!jobs.is_empty(), "fleet needs at least one job");
        let session = self.config.trace.then(TraceSession::begin);
        let sink = if session.is_some() {
            sidco_trace::global_sink()
        } else {
            TraceSink::noop()
        };
        let mut memo = PriceMemo::new();
        let mut states: Vec<JobState> = jobs
            .iter()
            .map(|spec| self.admit(spec, &mut memo))
            .collect();
        let link_track = sink.track("link", Lane::Virtual);
        let job_tracks: Vec<TrackId> = states
            .iter()
            .map(|state| sink.track(&format!("job:{}", state.spec.name), Lane::Virtual))
            .collect();
        let mut pending: Vec<Pending> = Vec::new();
        let mut link_busy = 0.0_f64;
        let mut wire_total = 0.0_f64;
        let fleet_start = states
            .iter()
            .map(|state| state.spec.arrival)
            .fold(f64::INFINITY, f64::min);
        let mut now = fleet_start;

        while states
            .iter()
            .any(|state| !matches!(state.phase, Phase::Done))
        {
            let next_arrival = states
                .iter()
                .filter(|state| matches!(state.phase, Phase::Waiting))
                .map(|state| state.spec.arrival)
                .fold(f64::INFINITY, f64::min);
            let next_local = states
                .iter()
                .filter_map(|state| match state.phase {
                    Phase::Local { ready_at, .. } => Some(ready_at),
                    _ => None,
                })
                .fold(f64::INFINITY, f64::min);
            let wire_candidate = self.link_completion(&pending, now);
            let mut t = next_arrival.min(next_local);
            if let Some((wire_t, _)) = wire_candidate {
                t = t.min(wire_t);
            }
            assert!(t.is_finite(), "fleet simulation stalled with no events");
            let t = t.max(now);
            if sink.enabled() && !pending.is_empty() && t > now {
                // Link-occupancy span for the interval being drained: who
                // held the wire, under the policy that granted it.
                let name = match self.served_index(&pending) {
                    Some(idx) => states[pending[idx].job].spec.name.clone(),
                    None => format!("shared\u{d7}{}", pending.len()),
                };
                sink.span(link_track, name, now, t);
            }
            self.drain_link(&mut pending, t - now, &mut link_busy);
            now = t;

            // Arrivals first: same-instant arrivals must see each other as
            // active before any of them is priced.
            let arriving: Vec<usize> = (0..states.len())
                .filter(|&j| {
                    matches!(states[j].phase, Phase::Waiting) && states[j].spec.arrival <= now
                })
                .collect();
            if !arriving.is_empty() {
                for &j in &arriving {
                    states[j].phase = Phase::Starting;
                    states[j].clock = states[j].spec.arrival;
                }
                for &j in &arriving {
                    self.begin_iteration(j, &mut states, &mut memo);
                }
                continue;
            }

            // Local completions next: their requests reach the link before
            // any same-instant wire completion is finalised, so a preempting
            // arrival really does preempt.
            let releasing: Vec<usize> = (0..states.len())
                .filter(|&j| {
                    matches!(states[j].phase, Phase::Local { ready_at, .. } if ready_at <= now)
                })
                .collect();
            if !releasing.is_empty() {
                for &j in &releasing {
                    let Phase::Local { ready_at, priced } = states[j].phase else {
                        unreachable!("filtered on Phase::Local")
                    };
                    states[j].phase = Phase::Wire { priced };
                    if priced.wire <= 0.0 {
                        // Degenerate workload with no transfer: nothing for
                        // the link to arbitrate.
                        if self.finish_iteration(
                            j,
                            &mut states,
                            ready_at,
                            ready_at,
                            0.0,
                            (&sink, &job_tracks),
                        ) {
                            self.begin_iteration(j, &mut states, &mut memo);
                        }
                    } else {
                        wire_total += priced.wire;
                        pending.push(Pending {
                            job: j,
                            remaining: priced.wire,
                            demand: priced.wire,
                            ready_at,
                            class: states[j].spec.priority_class,
                        });
                    }
                }
                continue;
            }

            // INVARIANT: the loop only reaches here when no compute event
            // fired, and jobs still pending guarantee an in-flight transfer.
            let (wire_t, idx) = wire_candidate.expect("progress requires a wire completion");
            debug_assert!(wire_t <= now);
            let done = pending.remove(idx);
            if self.finish_iteration(
                done.job,
                &mut states,
                now,
                done.ready_at,
                done.demand,
                (&sink, &job_tracks),
            ) {
                self.begin_iteration(done.job, &mut states, &mut memo);
            }
        }

        debug_assert!(pending.is_empty());
        let mut report = FleetReport {
            policy: self.policy,
            jobs: states
                .into_iter()
                .map(|state| JobOutcome {
                    name: state.spec.name,
                    arrival: state.spec.arrival,
                    completion: state.clock,
                    priority_class: state.spec.priority_class,
                    charges: state.charges,
                    deltas: state.deltas,
                    dedicated_iteration: state.dedicated,
                    local_seconds: state.local_seconds,
                    wire_seconds: state.wire_seconds,
                })
                .collect(),
            fleet_start,
            link_busy_seconds: link_busy,
            total_wire_seconds: wire_total,
            trace: None,
        };
        if sink.enabled() {
            sink.gauge_set("fleet.link_busy_seconds", link_busy);
            sink.gauge_set("fleet.total_wire_seconds", wire_total);
            sink.gauge_set("fleet.fairness_index", report.fairness_index());
            sink.gauge_set("fleet.makespan", report.fleet_makespan());
            for job in &report.jobs {
                sink.gauge_set(&format!("fleet.{}.makespan", job.name), job.makespan());
            }
        }
        report.trace = session.map(TraceSession::finish);
        report
    }

    /// End time of running the same jobs one after another, each with the
    /// cluster to itself (arrival order, no job starting before it arrives) —
    /// the baseline any work-conserving shared schedule should beat.
    ///
    /// # Panics
    ///
    /// Panics on an empty fleet or an invalid [`JobSpec`].
    pub fn serialized_end(&self, jobs: &[JobSpec]) -> f64 {
        assert!(!jobs.is_empty(), "fleet needs at least one job");
        let mut order: Vec<usize> = (0..jobs.len()).collect();
        order.sort_by(|&a, &b| {
            jobs[a]
                .arrival
                // INVARIANT: arrivals are validated finite at job admission.
                .partial_cmp(&jobs[b].arrival)
                .expect("NaN arrival")
                .then(a.cmp(&b))
        });
        let mut memo = PriceMemo::new();
        let mut end = f64::NEG_INFINITY;
        for j in order {
            let state = self.admit(&jobs[j], &mut memo);
            let start = end.max(state.spec.arrival);
            end = start + state.dedicated * state.spec.iterations as f64;
        }
        end
    }

    /// Admits one job: prices its dedicated iteration through `memo` and,
    /// when it has wire work, budgets its wire at the dedicated wire time,
    /// which δ then adapts against.
    fn admit(&self, spec: &JobSpec, memo: &mut PriceMemo) -> JobState {
        spec.validate();
        let bench = spec.benchmark.spec();
        // The trainer's own compute expression, so a single-job fleet on any
        // cluster — skewed or not — still collapses bit-for-bit onto the
        // trainer.
        let compute = self
            .cluster
            .iteration_compute_time(bench.per_worker_batch, bench.parameters);
        let granted = self.cluster.engine_workers.max(1);
        let (dedicated_makespan, dedicated_wire) = self.price(memo, spec, granted, 1.0, spec.delta);
        let wire_budget = (dedicated_wire > 0.0).then_some(dedicated_wire);
        JobState {
            wire_budget,
            compute,
            dedicated: compute + dedicated_makespan,
            clock: spec.arrival,
            iteration: 0,
            slowdown: 1.0,
            phase: Phase::Waiting,
            charges: Vec::with_capacity(spec.iterations),
            deltas: Vec::with_capacity(spec.iterations),
            local_seconds: 0.0,
            wire_seconds: 0.0,
            spec: spec.clone(),
        }
    }

    /// Prices one iteration of a job of `spec`'s [`Shape`], searching each
    /// [`PriceKey`] once in the call `memo` belongs to: `best_schedule` on a
    /// `granted`-worker view of the engine, with compression stretched by the
    /// pool oversubscription factor (a `stretch ≤ 1.0` leaves the costs
    /// untouched). Returns `(makespan, wire demand)`.
    fn price(
        &self,
        memo: &mut PriceMemo,
        spec: &JobSpec,
        granted: usize,
        stretch: f64,
        delta: f64,
    ) -> (f64, f64) {
        let &JobSpec {
            benchmark,
            buckets,
            streams,
            compressor,
            policy,
            ..
        } = spec;
        let (layout, prices) = memo
            .entry((benchmark, buckets, streams, compressor, policy))
            .or_insert_with(|| {
                let bench = benchmark.spec();
                let target = bench.parameters.div_ceil(buckets);
                (
                    pack_layers(&bench.representative_layer_sizes(), target),
                    HashMap::new(),
                )
            });
        let search = || {
            // The tenant's view of the shared engine pool: a full grant is
            // the cluster itself, field for field.
            let cluster = self.cluster.clone().with_engine_workers(granted);
            let mut costs = modeled_bucket_costs(&cluster, compressor, delta, STAGES, layout);
            if stretch > 1.0 {
                for cost in &mut costs {
                    cost.compression *= stretch;
                }
            }
            let timeline = CollectiveScheduler::new(streams, policy).best_schedule(&costs);
            (timeline.makespan(), total_wire_seconds(&costs))
        };
        let key = price_key(granted, stretch, delta);
        if let Some(&(makespan, wire)) = prices.get(&key) {
            // Debug builds re-price every hit and demand the same bits. A
            // traced fleet skips the recheck, so its search counter counts
            // only the searches that price.
            if cfg!(debug_assertions) && !self.config.trace {
                let (fresh_makespan, fresh_wire) = search();
                debug_assert_eq!(
                    (makespan.to_bits(), wire.to_bits()),
                    (fresh_makespan.to_bits(), fresh_wire.to_bits()),
                    "memoised price of job {:?} drifted from a fresh search",
                    spec.name
                );
            }
            return (makespan, wire);
        }
        let price = search();
        prices.insert(key, price);
        price
    }

    /// Prices job `j`'s next iteration under the current contention and
    /// starts its local phase.
    fn begin_iteration(&self, j: usize, states: &mut [JobState], memo: &mut PriceMemo) {
        let active = states
            .iter()
            .filter(|state| {
                matches!(
                    state.phase,
                    Phase::Starting | Phase::Local { .. } | Phase::Wire { .. }
                )
            })
            .count()
            .max(1);
        let fair_share = (self.config.pool_workers / active).max(1);
        let granted = self.cluster.engine_workers.min(fair_share).max(1);
        let stretch = active as f64 / self.config.pool_workers as f64;
        let state = &mut states[j];
        let delta = match state.wire_budget {
            Some(budget) => squeezed_delta(
                &self.cluster,
                budget,
                state.spec.benchmark.spec().parameters,
                state.spec.delta,
                state.slowdown,
            ),
            None => state.spec.delta,
        };
        let (makespan, wire) = self.price(memo, &state.spec, granted, stretch, delta);
        let ready_at = state.clock + state.compute + (makespan - wire);
        state.phase = Phase::Local {
            ready_at,
            priced: PricedIteration {
                makespan,
                wire,
                delta,
            },
        };
    }

    /// Charges job `j` for the iteration whose wire request just completed
    /// (at `now`, having entered at `ready_at` with `demand` seconds of
    /// work) and retires the job or leaves it [`Phase::Starting`]; returns
    /// whether it has an iteration left to begin.
    fn finish_iteration(
        &self,
        j: usize,
        states: &mut [JobState],
        now: f64,
        ready_at: f64,
        demand: f64,
        trace: (&TraceSink, &[TrackId]),
    ) -> bool {
        let state = &mut states[j];
        let Phase::Wire { priced } = state.phase else {
            unreachable!("finishing a job that is not on the wire")
        };
        let delay = (now - (ready_at + demand)).max(0.0);
        let charge = state.compute + priced.makespan + delay;
        let (sink, tracks) = trace;
        if sink.enabled() {
            // The iteration's charged span, split where the wire request was
            // released: [clock, ready_at] is local (compute + compression
            // front), the rest is wire service plus contention delay.
            let track = tracks[j];
            let iteration = state.iteration;
            sink.span(track, format!("local {iteration}"), state.clock, ready_at);
            if priced.wire > 0.0 {
                sink.span(
                    track,
                    format!("wire {iteration}"),
                    ready_at,
                    state.clock + charge,
                );
            }
            if delay > 0.0 {
                sink.instant(track, format!("delay {iteration}"), ready_at + demand);
                sink.observe("fleet.wire_delay", delay);
            }
            sink.observe("fleet.iteration_charge", charge);
        }
        state.charges.push(charge);
        state.deltas.push(priced.delta);
        state.local_seconds += state.compute + (priced.makespan - priced.wire);
        state.wire_seconds += priced.wire;
        state.clock += charge;
        // `(wire + delay) / wire` rather than measuring elapsed link time:
        // for an uncontended request `delay` is exactly 0.0, so the ratio is
        // exactly 1.0 and contention never perturbs δ — subtracting
        // timestamps instead would leak float residue into the collapse.
        state.slowdown = if priced.wire > 0.0 {
            (priced.wire + delay) / priced.wire
        } else {
            1.0
        };
        state.iteration += 1;
        let more = state.iteration < state.spec.iterations;
        state.phase = if more { Phase::Starting } else { Phase::Done };
        more
    }

    /// The request the link is currently dedicating rate to under a
    /// serial-service policy (`None` under processor sharing, where every
    /// request progresses).
    fn served_index(&self, pending: &[Pending]) -> Option<usize> {
        match self.policy {
            SharePolicy::FairShare => None,
            SharePolicy::PriorityClass => (0..pending.len()).min_by(|&a, &b| {
                (pending[a].class, pending[a].job).cmp(&(pending[b].class, pending[b].job))
            }),
            SharePolicy::Fifo => (0..pending.len()).min_by(|&a, &b| {
                pending[a]
                    .ready_at
                    // INVARIANT: ready times are sums of finite arrivals and
                    // finite service times, never NaN.
                    .partial_cmp(&pending[b].ready_at)
                    .expect("NaN ready time")
                    .then(pending[a].job.cmp(&pending[b].job))
            }),
        }
    }

    /// When the next pending request completes, and which one it is, if the
    /// link keeps serving the current set untouched.
    fn link_completion(&self, pending: &[Pending], now: f64) -> Option<(f64, usize)> {
        if pending.is_empty() {
            return None;
        }
        match self.policy {
            SharePolicy::FairShare => {
                let n = pending.len() as f64;
                let idx = (0..pending.len())
                    .min_by(|&a, &b| {
                        pending[a]
                            .remaining
                            // INVARIANT: remainders start from finite payload
                            // sizes and only shrink by finite steps.
                            .partial_cmp(&pending[b].remaining)
                            .expect("NaN remaining")
                            .then(pending[a].job.cmp(&pending[b].job))
                    })
                    // INVARIANT: pending was checked non-empty above.
                    .expect("non-empty");
                Some((now + pending[idx].remaining * n, idx))
            }
            SharePolicy::PriorityClass | SharePolicy::Fifo => {
                // INVARIANT: pending was checked non-empty above.
                let idx = self.served_index(pending).expect("non-empty");
                Some((now + pending[idx].remaining, idx))
            }
        }
    }

    /// Advances the link by `dt` seconds, draining remainders according to
    /// the policy and accounting busy time (work conservation: any pending
    /// work keeps the link serving at aggregate rate 1).
    fn drain_link(&self, pending: &mut [Pending], dt: f64, link_busy: &mut f64) {
        if pending.is_empty() || dt <= 0.0 {
            return;
        }
        *link_busy += dt;
        match self.policy {
            SharePolicy::FairShare => {
                let n = pending.len() as f64;
                for request in pending.iter_mut() {
                    request.remaining -= dt / n;
                }
            }
            SharePolicy::PriorityClass | SharePolicy::Fifo => {
                // INVARIANT: pending was checked non-empty above.
                let idx = self.served_index(pending).expect("non-empty");
                pending[idx].remaining -= dt;
            }
        }
    }
}

/// The δ a job requesting `delta` runs at once its wire requests come back
/// stretched `slowdown`× on `cluster`: the ratio whose modelled all-gather of
/// `parameters` elements fills `budget / slowdown` wire seconds, clamped to
/// `[delta / MAX_SQUEEZE, delta]`. Without contention (`slowdown ≤ 1`) it is
/// `delta` bit-for-bit, which keeps a fleet of one on the dedicated path.
fn squeezed_delta(
    cluster: &ClusterConfig,
    budget: f64,
    parameters: usize,
    delta: f64,
    slowdown: f64,
) -> f64 {
    if slowdown <= 1.0 {
        return delta;
    }
    let affordable = cluster.allgather_budget_bytes(budget / slowdown);
    (affordable / (parameters as f64 * SPARSE_WIRE_BYTES)).clamp(delta / MAX_SQUEEZE, delta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{HierarchicalTopology, NetworkModel};
    use crate::trainer::COMPUTE_COST_PER_EXAMPLE_ELEMENT;

    const DELTA: f64 = 0.01;

    fn cluster() -> ClusterConfig {
        ClusterConfig::paper_dedicated()
    }

    fn job(name: &str, arrival: f64) -> JobSpec {
        JobSpec::new(name, BenchmarkId::ResNet20Cifar10, DELTA)
            .with_arrival(arrival)
            .with_iterations(4)
    }

    fn fleet(policy: SharePolicy) -> FleetScheduler {
        FleetScheduler::new(cluster(), policy)
    }

    fn assert_rel_close(actual: f64, expected: f64, what: &str) {
        let tol = 1e-9 * expected.abs().max(1e-30);
        assert!(
            (actual - expected).abs() <= tol,
            "{what}: {actual} vs {expected}"
        );
    }

    #[test]
    fn single_job_collapses_bitwise_onto_best_schedule_for_every_policy() {
        // Independent reconstruction of the dedicated charge.
        let bench = BenchmarkId::ResNet20Cifar10.spec();
        let layout = pack_layers(
            &bench.representative_layer_sizes(),
            bench.parameters.div_ceil(8),
        );
        let costs = modeled_bucket_costs(
            &cluster(),
            CompressorKind::Sidco(SidKind::Exponential),
            DELTA,
            STAGES,
            &layout,
        );
        let makespan = CollectiveScheduler::new(4, PriorityPolicy::SmallestFirst)
            .best_schedule(&costs)
            .makespan();
        let compute = COMPUTE_COST_PER_EXAMPLE_ELEMENT
            * bench.per_worker_batch as f64
            * bench.parameters as f64;
        let dedicated = compute + makespan;

        for policy in SharePolicy::ALL {
            let report = fleet(policy).simulate(&[job("solo", 0.0)]);
            let outcome = &report.jobs[0];
            assert_eq!(outcome.charges.len(), 4);
            for &charge in &outcome.charges {
                assert_eq!(
                    charge, dedicated,
                    "{policy}: solo charge must be bit-for-bit the best_schedule path"
                );
            }
            assert_eq!(outcome.dedicated_iteration, dedicated);
            assert!(outcome.deltas.iter().all(|&d| d == DELTA));
            assert_rel_close(report.fairness_index(), 1.0, "solo fairness");
            assert_rel_close(
                report.link_busy_seconds,
                report.total_wire_seconds,
                "solo work conservation",
            );
        }
    }

    #[test]
    fn every_policy_conserves_work_on_the_shared_link() {
        let jobs = [
            job("a", 0.0),
            job("b", 0.0),
            job("c", 0.05).with_priority_class(0),
        ];
        for policy in SharePolicy::ALL {
            let report = fleet(policy).simulate(&jobs);
            assert!(report.total_wire_seconds > 0.0);
            assert_rel_close(
                report.link_busy_seconds,
                report.total_wire_seconds,
                &format!("{policy} work conservation"),
            );
        }
    }

    #[test]
    fn contention_inflates_charges_and_triggers_ratio_adaptation() {
        let jobs = [job("a", 0.0), job("b", 0.0)];
        let report = fleet(SharePolicy::FairShare).simulate(&jobs);
        for outcome in &report.jobs {
            // Iteration 1 is priced before any slowdown is observed.
            assert_eq!(outcome.deltas[0], DELTA);
            // Contended charges can only exceed the dedicated yardstick.
            for &charge in &outcome.charges {
                assert!(charge >= outcome.dedicated_iteration * (1.0 - 1e-12));
            }
            // Two simultaneous identical jobs contend from the first wire
            // request, so the first charge carries a real delay...
            assert!(outcome.charges[0] > outcome.dedicated_iteration);
            // ...and the observed slowdown shrinks δ from iteration 2 on.
            assert!(outcome.deltas[1] < DELTA);
            assert!(outcome.deltas.iter().all(|&d| d >= DELTA / 20.0));
        }
    }

    #[test]
    fn contention_squeezes_delta_within_its_clamp() {
        const BUDGET: f64 = 0.002;
        const PARAMETERS: usize = 1_000_000;
        const REQUESTED: f64 = 0.5;
        let squeeze = |cluster: &ClusterConfig, slowdown| {
            squeezed_delta(cluster, BUDGET, PARAMETERS, REQUESTED, slowdown)
        };
        let flat = cluster();
        // No contention is the requested δ bit-for-bit: the collapse guarantee.
        for slowdown in [0.5, 1.0] {
            assert_eq!(squeeze(&flat, slowdown).to_bits(), REQUESTED.to_bits());
        }
        // A stretched wire shrinks δ, monotonically in the stretch...
        let doubled = squeeze(&flat, 2.0);
        assert!(doubled < REQUESTED, "{doubled} should undercut {REQUESTED}");
        assert!(squeeze(&flat, 4.0) < doubled);
        // ...but never below the floor.
        assert_eq!(squeeze(&flat, 1e9), REQUESTED / MAX_SQUEEZE);
        // A lone worker has no all-gather to squeeze.
        let lone = ClusterConfig::default().with_topology(
            HierarchicalTopology::one_worker_per_node(1, NetworkModel::ethernet_25g()),
        );
        assert_eq!(squeeze(&lone, 2.0), REQUESTED);
        // The hierarchy makes the same payload cheaper, so the same squeezed
        // budget affords a larger δ.
        let two_tier = squeeze(&ClusterConfig::paper_two_tier(), 2.0);
        assert!(two_tier > doubled, "two-tier {two_tier} vs flat {doubled}");
    }

    #[test]
    fn priority_class_protects_the_higher_class() {
        let jobs = [
            job("urgent", 0.0).with_priority_class(0),
            job("batch", 0.0).with_priority_class(5),
        ];
        let report = fleet(SharePolicy::PriorityClass).simulate(&jobs);
        let urgent = &report.jobs[0];
        let batch = &report.jobs[1];
        assert!(
            urgent.makespan() < batch.makespan(),
            "urgent {} vs batch {}",
            urgent.makespan(),
            batch.makespan()
        );
        assert!(urgent.p99_latency() <= batch.p99_latency());
    }

    #[test]
    fn fairshare_beats_serializing_the_fleet() {
        let jobs = [
            job("a", 0.0),
            JobSpec::new("b", BenchmarkId::Vgg16Cifar10, DELTA).with_iterations(3),
            job("c", 0.02),
        ];
        let scheduler = fleet(SharePolicy::FairShare);
        let report = scheduler.simulate(&jobs);
        let serialized = scheduler.serialized_end(&jobs);
        assert!(
            report.fleet_end() <= serialized * (1.0 + 1e-9),
            "fleet end {} vs serialized {serialized}",
            report.fleet_end()
        );
    }

    #[test]
    fn fairshare_never_starves_anyone() {
        let jobs = [
            job("a", 0.0),
            job("b", 0.0),
            JobSpec::new("c", BenchmarkId::Vgg16Cifar10, DELTA)
                .with_arrival(0.01)
                .with_iterations(3),
        ];
        let report = fleet(SharePolicy::FairShare).simulate(&jobs);
        let n = jobs.len() as f64;
        for outcome in &report.jobs {
            let bound = outcome.local_seconds + n * outcome.wire_seconds;
            assert!(
                outcome.makespan() <= bound * (1.0 + 1e-9),
                "{}: makespan {} exceeds the no-starvation bound {bound}",
                outcome.name,
                outcome.makespan()
            );
        }
    }

    #[test]
    fn a_tighter_engine_pool_applies_backpressure() {
        // A 4-worker engine: the default pool grants each of the two jobs 2
        // workers with no oversubscription, the tight pool grants 1 and
        // stretches compression 2x.
        let shared = cluster().with_engine_workers(4);
        let jobs = [job("a", 0.0), job("b", 0.0)];
        let roomy = FleetScheduler::new(shared.clone(), SharePolicy::FairShare).simulate(&jobs);
        let tight = FleetScheduler::new(shared, SharePolicy::FairShare)
            .with_tenancy(TenancyConfig {
                pool_workers: 1,
                trace: false,
            })
            .simulate(&jobs);
        let total = |report: &FleetReport| -> f64 {
            report.jobs.iter().flat_map(|job| job.charges.iter()).sum()
        };
        assert!(
            total(&tight) > total(&roomy),
            "a one-worker pool must stretch compression: {} vs {}",
            total(&tight),
            total(&roomy)
        );
    }

    #[test]
    #[should_panic(expected = "topology spans 8 workers but the cluster declares 4")]
    fn a_topology_that_disagrees_with_the_worker_count_is_rejected_at_construction() {
        let cluster = ClusterConfig {
            workers: 4,
            ..cluster()
        };
        let _ = FleetScheduler::new(cluster, SharePolicy::Fifo);
    }

    #[test]
    #[should_panic(expected = "at least one job")]
    fn empty_fleet_is_rejected() {
        fleet(SharePolicy::Fifo).simulate(&[]);
    }

    #[test]
    #[should_panic(expected = "outside (0, 1]")]
    fn invalid_delta_is_rejected() {
        fleet(SharePolicy::Fifo).simulate(&[JobSpec::new("bad", BenchmarkId::LstmPtb, 0.0)]);
    }

    /// `best_schedule` searches a traced simulate of `jobs` ran. The trace
    /// registry is process-wide, so a search another test runs while the
    /// session is open is counted too: every reading is an upper bound on
    /// the fleet's own count. The first reading `enough` accepts proves the
    /// bound; until one does, the fleet re-runs (10 ms apart, so a
    /// concurrent burst of searches can end) and the fewest seen is kept.
    fn searches(
        scheduler: &FleetScheduler,
        jobs: &[JobSpec],
        enough: impl Fn(usize) -> bool,
    ) -> usize {
        let traced = scheduler.clone().with_tenancy(TenancyConfig {
            trace: true,
            ..scheduler.config
        });
        let mut fewest = usize::MAX;
        for _ in 0..100 {
            let report = traced.simulate(jobs);
            // INVARIANT: the scheduler was built with tracing on.
            let trace = report.trace().expect("traced fleet");
            let calls = trace
                .metrics()
                .counter("scheduler.best_schedule.calls")
                .unwrap_or(0.0);
            fewest = fewest.min(calls as usize);
            if enough(fewest) {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        fewest
    }

    #[test]
    fn an_uncontended_job_searches_once_per_simulate() {
        // The dedicated price `admit` computes is every iteration's price.
        for policy in SharePolicy::ALL {
            for iterations in [1, 8, 20] {
                let jobs = [job("solo", 0.0).with_iterations(iterations)];
                assert_eq!(
                    searches(&fleet(policy), &jobs, |n| n <= 1),
                    1,
                    "{policy}, {iterations} iterations"
                );
            }
        }
    }

    #[test]
    fn jobs_of_one_shape_search_once() {
        // Four copies of one shape, spaced so that each runs alone: every
        // admission and every iteration prices the same key.
        let solo = fleet(SharePolicy::Fifo).simulate(&[job("solo", 0.0)]);
        let gap = 2.0 * solo.jobs[0].makespan();
        let jobs: Vec<JobSpec> = (0..4)
            .map(|j| job(&format!("copy{j}"), gap * j as f64).with_priority_class(j))
            .collect();
        for policy in SharePolicy::ALL {
            assert_eq!(searches(&fleet(policy), &jobs, |n| n <= 1), 1, "{policy}");
        }
    }

    #[test]
    fn a_contended_table1_mix_searches_less_than_half_its_pricing_requests() {
        // 16 Table-1 jobs in four same-instant waves of four.
        let jobs: Vec<JobSpec> = (0..16)
            .map(|j| {
                let benchmark = BenchmarkId::ALL[j % BenchmarkId::ALL.len()];
                let delta = [0.001, 0.01, 0.02][j % 3];
                JobSpec::new(format!("job{j:02}"), benchmark, delta)
                    .with_arrival(0.5 * (j / 4) as f64)
                    .with_iterations(20)
                    .with_buckets(16)
                    .with_streams(4)
                    .with_priority_class(j % 4)
            })
            .collect();
        // One price at admission plus one per iteration.
        let requests = jobs.len() + jobs.iter().map(|job| job.iterations).sum::<usize>();
        for policy in SharePolicy::ALL {
            let scheduler = FleetScheduler::new(ClusterConfig::paper_mixed_fleet(), policy);
            let searched = searches(&scheduler, &jobs, |n| 2 * n < requests);
            assert!(
                2 * searched < requests,
                "{policy}: {searched} searches for {requests} pricing requests"
            );
        }
    }

    #[test]
    fn heterogeneous_clusters_price_the_slowest_node_into_every_charge() {
        let solo = |cluster: ClusterConfig| {
            FleetScheduler::new(cluster, SharePolicy::FairShare).simulate(&[job("solo", 0.0)])
        };
        let healthy = solo(ClusterConfig::paper_two_tier());
        let straggler = solo(ClusterConfig::paper_straggler());
        // A 2x compute straggler makes every dedicated iteration strictly
        // more expensive, yet the solo job still collapses onto its own
        // dedicated yardstick — contention, not heterogeneity, is what
        // creates slowdown.
        assert!(
            straggler.jobs[0].dedicated_iteration > healthy.jobs[0].dedicated_iteration,
            "straggler pricing must exceed the healthy fleet"
        );
        for report in [&healthy, &straggler] {
            let outcome = &report.jobs[0];
            for &charge in &outcome.charges {
                assert_eq!(charge, outcome.dedicated_iteration);
            }
        }
        // A mixed-NIC fleet is gated by its slowest (10G) node's drain.
        let mixed = solo(ClusterConfig::paper_mixed_fleet());
        let uniform = solo(ClusterConfig::paper_mixed_fleet().with_topology(
            HierarchicalTopology::new(
                4,
                2,
                NetworkModel::infiniband_100g(),
                NetworkModel::ethernet_25g(),
            ),
        ));
        assert!(
            mixed.jobs[0].dedicated_iteration > uniform.jobs[0].dedicated_iteration,
            "the 10G node must gate the mixed fleet's drain"
        );
    }
}
