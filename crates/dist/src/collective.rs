//! The async collective scheduler: multi-stream, priority-aware scheduling of
//! bucketed compression ↔ communication pipelines.
//!
//! DDP-style bucketing overlaps compression of bucket `i + 1` with
//! communication of bucket `i`: the classic two-stage pipeline of one
//! compression stream feeding one FIFO communication stream. Real frameworks
//! go further — NCCL exposes multiple communication streams, and
//! ByteScheduler-style schedulers let small, gradient-critical buckets preempt
//! large transfers already on the wire. This module generalises the pipeline
//! into an explicit schedule over three kinds of resources:
//!
//! * **one compression processor** — buckets are compressed serially,
//!   first-come-first-served in *gradient arrival* order: a bucket may not
//!   enter compression before its [`BucketCost::ready_at`] release time (the
//!   moment the backward pass has produced every gradient the bucket covers),
//!   and among arrived buckets the processor serves the earliest arrival
//!   (ties broken by bucket index — exactly how a framework's backward hooks
//!   enqueue compression kernels). With all arrivals at zero this collapses
//!   to plain index-order prefix sums, bit-identically;
//! * **`streams` communication streams** — a bucket occupies exactly one
//!   stream from the moment its collective is issued (the per-bucket latency
//!   `α` phase begins) until its transfer completes. Streams are granted to
//!   waiting buckets in priority order;
//! * **one shared link** — transfer (`β`) phases serialise on the physical
//!   link. The link always serves the highest-priority in-flight bucket whose
//!   latency phase has finished, *preempting* a lower-priority transfer the
//!   instant a higher-priority bucket is ready to transmit (the preempted
//!   bucket keeps its stream and resumes where it stopped).
//!
//! Latency phases of different streams overlap each other and the active
//! transfer, which is exactly why multi-stream schedules beat the single-FIFO
//! pipeline: with one stream every bucket pays its `(n-1)·α` setup on the
//! critical path, with several streams the setups hide under transfers.
//!
//! The model is work-conserving on the link, so every schedule respects the
//! bandwidth lower bound `makespan ≥ Σ transferᵢ`, and a single-stream FIFO
//! schedule reproduces the two-stage pipeline recurrence
//! `Wᵢ = max(Wᵢ₋₁, Cᵢ) + commᵢ` up to float rounding (the recurrence
//! survives only as a test oracle). With a stream per bucket, priority scheduling is provably optimal
//! for the critical (highest-priority) bucket: it completes at its path lower
//! bound `ready + α + β`, which no schedule — FIFO included — can beat. These
//! invariants (and more) are proven over randomised configurations in
//! `tests/scheduler_properties.rs`.
//!
//! One caveat the model surfaces faithfully: when buckets outnumber streams,
//! a preempted transfer still *holds its stream* (the collective is already
//! issued), so a freshly compressed high-priority bucket can wait for a slot
//! behind transfers it would otherwise preempt — the classical priority
//! inversion of slot-limited schedulers, complete with Graham-style
//! non-monotonicity (an extra stream can make a fixed schedule *worse*).
//! Provision `streams ≥ buckets` (or accept FIFO's slot order) when the
//! critical bucket's completion time is a hard constraint, and charge costs
//! through [`CollectiveScheduler::best_schedule`], whose search over stream
//! counts guarantees a charge never exceeds the FIFO pipeline makespan.

use crate::cluster::ClusterConfig;
use crate::SPARSE_WIRE_BYTES;
use sidco_core::compressor::CompressorKind;
use sidco_core::layerwise::LayerLayout;

/// Order in which the scheduler serves buckets that contend for a stream or
/// for the link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PriorityPolicy {
    /// First-compressed, first-served (bucket index order) — the behaviour of
    /// the plain pipelined overlap model.
    #[default]
    Fifo,
    /// Smallest communication first: buckets with the least `α + β` cost jump
    /// the queue, so small buckets never wait behind a large transfer.
    SmallestFirst,
    /// Highest bucket index first. Bucket layouts are input-first flat
    /// parameter order, so the highest indices hold the layers nearest the
    /// model *output* — the gradients a real backward pass produces first —
    /// making this the backward-order transmission schedule; with
    /// [`BucketCost::ready_at`] release times it transmits buckets in their
    /// genuine arrival order, interleaving with the backward pass.
    /// (ByteScheduler's forward-priority rule — input-side layers first,
    /// since the next forward pass consumes them first — coincides with
    /// [`Fifo`](Self::Fifo) here, because zero-arrival compression
    /// readiness follows index order.)
    NearestOutputFirst,
}

impl PriorityPolicy {
    /// Priority rank of every bucket (lower rank = served first). Ranks are a
    /// permutation of `0..buckets.len()`: ties are broken by bucket index, so
    /// scheduling is fully deterministic.
    pub fn ranks(&self, buckets: &[BucketCost]) -> Vec<usize> {
        let n = buckets.len();
        let mut order: Vec<usize> = (0..n).collect();
        match self {
            PriorityPolicy::Fifo => {}
            PriorityPolicy::NearestOutputFirst => order.reverse(),
            PriorityPolicy::SmallestFirst => {
                order.sort_by(|&a, &b| {
                    buckets[a]
                        .communication()
                        .partial_cmp(&buckets[b].communication())
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.cmp(&b))
                });
            }
        }
        let mut rank = vec![0usize; n];
        for (position, &bucket) in order.iter().enumerate() {
            rank[bucket] = position;
        }
        rank
    }
}

impl std::fmt::Display for PriorityPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            PriorityPolicy::Fifo => "fifo",
            PriorityPolicy::SmallestFirst => "smallest-first",
            PriorityPolicy::NearestOutputFirst => "nearest-output-first",
        })
    }
}

/// Modelled cost of one gradient bucket, split the way the scheduler consumes
/// it: the gradient-availability release time, serial compression time,
/// overlappable collective setup (`α` phases and intra-node stages), and the
/// transfer time that serialises on the bottleneck link (`β`).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BucketCost {
    /// Seconds (from the start of the schedule) at which the bucket's
    /// gradients become available — the backward pass has produced every
    /// layer the bucket covers. The bucket may not enter compression (and
    /// therefore the wire) before this release time. Zero (the default)
    /// reproduces the everything-ready-up-front model.
    pub ready_at: f64,
    /// Seconds on the (single) compression processor.
    pub compression: f64,
    /// Per-bucket collective setup: latency hops plus any phases that run on
    /// resources other than the bottleneck link. Overlaps across streams.
    pub latency: f64,
    /// Seconds the bucket's payload occupies the bottleneck link. Transfers
    /// never overlap each other.
    pub transfer: f64,
}

impl BucketCost {
    /// Total communication cost (`latency + transfer`) — what the lumped
    /// single-stream overlap model charges per bucket.
    pub fn communication(&self) -> f64 {
        self.latency + self.transfer
    }
}

/// One closed interval of link occupancy by a bucket's transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferSegment {
    /// Seconds at which the link started serving this bucket.
    pub start: f64,
    /// Seconds at which the link stopped (completion or preemption).
    pub end: f64,
}

/// Where and when one bucket was compressed and communicated.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledBucket {
    /// Bucket index (the layout order).
    pub bucket: usize,
    /// Communication stream the bucket occupied.
    pub stream: usize,
    /// Gradient-availability release time ([`BucketCost::ready_at`]),
    /// recorded so timelines show how long a bucket waited on the backward
    /// pass versus on the compression processor.
    pub ready_at: f64,
    /// Compression start on the serial compression processor (never before
    /// [`ready_at`](Self::ready_at)).
    pub compress_start: f64,
    /// Compression end (the bucket's *ready* time).
    pub compress_end: f64,
    /// Stream acquisition — the collective is issued and its latency phase
    /// begins.
    pub comm_start: f64,
    /// Transfer completion — the stream is released.
    pub comm_end: f64,
    /// Link-occupancy intervals of the bucket's transfer (several when the
    /// bucket was preempted; empty for a zero-byte transfer).
    pub segments: Vec<TransferSegment>,
}

/// A complete schedule: per-bucket placement plus the makespan.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleTimeline {
    streams: usize,
    entries: Vec<ScheduledBucket>,
    makespan: f64,
}

impl ScheduleTimeline {
    /// Per-bucket schedule entries, in bucket-index order.
    pub fn entries(&self) -> &[ScheduledBucket] {
        &self.entries
    }

    /// Number of communication streams the schedule was built for.
    pub fn streams(&self) -> usize {
        self.streams
    }

    /// End of the last communication (or compression, if nothing was
    /// communicated) — the iteration overhead this schedule charges.
    pub fn makespan(&self) -> f64 {
        self.makespan
    }

    /// Completion time of one bucket's communication.
    ///
    /// # Panics
    ///
    /// Panics if `bucket` is out of range.
    pub fn completion(&self, bucket: usize) -> f64 {
        self.entries[bucket].comm_end
    }

    /// Every link-occupancy segment across all buckets, sorted by start time.
    /// In a valid schedule these never overlap — the link is a serial
    /// resource.
    pub fn link_segments(&self) -> Vec<TransferSegment> {
        let mut segments: Vec<TransferSegment> = self
            .entries
            .iter()
            .flat_map(|e| e.segments.iter().copied())
            .collect();
        segments.sort_by(|a, b| {
            a.start
                .partial_cmp(&b.start)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        segments
    }

    /// Record this timeline as virtual-time trace spans, shifted by `base`
    /// seconds of model time (the instant the schedule's `t = 0` corresponds
    /// to in the run's [`sidco_trace::VirtualClock`]).
    ///
    /// Tracks emitted: `compress` (the serial compression processor, one span
    /// per bucket plus a release instant when the bucket's gradients arrive),
    /// `stream:{s}` (one per communication stream, spanning latency +
    /// transfer), and `link` (the bottleneck wire, one span per occupancy
    /// segment — several per bucket under preemption). Every span is derived
    /// from the already-computed timeline: recording is pure observation and
    /// cannot perturb the schedule. No-op when `sink` is disabled.
    pub fn record_trace(&self, sink: &sidco_trace::TraceSink, base: f64) {
        if !sink.enabled() {
            return;
        }
        use sidco_trace::Lane;
        let compress = sink.track("compress", Lane::Virtual);
        let link = sink.track("link", Lane::Virtual);
        for entry in &self.entries {
            let name = format!("bucket {}", entry.bucket);
            sink.instant(compress, format!("release {name}"), base + entry.ready_at);
            if entry.compress_end > entry.compress_start {
                sink.span(
                    compress,
                    name.clone(),
                    base + entry.compress_start,
                    base + entry.compress_end,
                );
            }
            if entry.comm_end > entry.comm_start {
                let stream = sink.track(&format!("stream:{}", entry.stream), Lane::Virtual);
                sink.span(
                    stream,
                    name.clone(),
                    base + entry.comm_start,
                    base + entry.comm_end,
                );
            }
            for segment in &entry.segments {
                if segment.end > segment.start {
                    sink.span(link, name.clone(), base + segment.start, base + segment.end);
                }
            }
        }
    }
}

/// The first-come-first-served compression order: bucket indices sorted by
/// `(ready_at, index)`. This is exactly the order a work-conserving serial
/// compression processor serves arrivals in (the earliest-arrived waiting
/// bucket is always the one with the smallest release time), and it collapses
/// to plain index order when every release time is equal.
fn compression_order(buckets: &[BucketCost]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..buckets.len()).collect();
    order.sort_by(|&a, &b| {
        buckets[a]
            .ready_at
            .partial_cmp(&buckets[b].ready_at)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    order
}

/// The tightest analytic lower bound the model admits: the bandwidth bound
/// (no schedule finishes before [`total_wire_seconds`]), the serial
/// compression bound (arrival-gated), and every bucket's own
/// `compressed + latency + transfer` path.
pub fn makespan_lower_bound(buckets: &[BucketCost]) -> f64 {
    let mut bound = total_wire_seconds(buckets);
    let mut frontier = 0.0f64;
    for &i in &compression_order(buckets) {
        frontier = frontier.max(buckets[i].ready_at) + buckets[i].compression;
        bound = bound.max(frontier + buckets[i].latency + buckets[i].transfer);
    }
    bound.max(frontier)
}

/// Multi-stream, priority-aware scheduler over the resource model described in
/// the [module docs](self).
///
/// # Example
///
/// ```
/// use sidco_dist::collective::{BucketCost, CollectiveScheduler, PriorityPolicy};
///
/// let buckets = vec![
///     BucketCost { compression: 1.0, latency: 0.5, transfer: 4.0, ..BucketCost::default() },
///     BucketCost { compression: 1.0, latency: 0.5, transfer: 0.5, ..BucketCost::default() },
/// ];
/// let fifo = CollectiveScheduler::single_stream_fifo().schedule(&buckets);
/// let multi = CollectiveScheduler::new(2, PriorityPolicy::SmallestFirst).schedule(&buckets);
/// // The second stream hides the small bucket's latency under the large
/// // transfer, and priority lets it finish long before the large bucket.
/// assert!(multi.makespan() <= fifo.makespan());
/// assert!(multi.completion(1) < fifo.completion(1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CollectiveScheduler {
    streams: usize,
    policy: PriorityPolicy,
}

impl Default for CollectiveScheduler {
    fn default() -> Self {
        Self::single_stream_fifo()
    }
}

impl CollectiveScheduler {
    /// A scheduler with `streams` communication streams serving buckets in
    /// `policy` order.
    ///
    /// # Panics
    ///
    /// Panics if `streams` is zero.
    pub fn new(streams: usize, policy: PriorityPolicy) -> Self {
        assert!(streams >= 1, "a schedule needs at least one stream");
        Self { streams, policy }
    }

    /// The single-stream FIFO scheduler — the classic two-stage
    /// compression↔communication pipeline, and the baseline every
    /// [`best_schedule`](Self::best_schedule) starts from.
    pub fn single_stream_fifo() -> Self {
        Self::new(1, PriorityPolicy::Fifo)
    }

    /// Number of communication streams.
    pub fn streams(&self) -> usize {
        self.streams
    }

    /// The priority policy.
    pub fn policy(&self) -> PriorityPolicy {
        self.policy
    }

    /// The cheapest schedule within this scheduler's *budget*: the
    /// single-stream FIFO pipeline and the configured policy at every stream
    /// count up to [`streams`](Self::streams) are all evaluated, and the
    /// first strictly-cheapest timeline wins (so a larger budget or a
    /// priority policy never charges more than the plain pipeline). This is
    /// what the trainer and the bucket auto-tuner charge; it is monotone in
    /// the stream budget by construction, which sidesteps the Graham-style
    /// anomalies a *fixed* priority schedule exhibits when buckets outnumber
    /// streams (see [`schedule`](Self::schedule)).
    ///
    /// # Panics
    ///
    /// Panics if any cost is negative or non-finite.
    pub fn best_schedule(&self, buckets: &[BucketCost]) -> ScheduleTimeline {
        self.best_schedule_from(buckets, Self::single_stream_fifo().schedule(buckets))
    }

    /// [`best_schedule`](Self::best_schedule) seeded with a precomputed
    /// single-stream FIFO `baseline` timeline for the same `buckets`, so a
    /// caller that already simulated the pipeline (e.g. as its accounting
    /// reference) does not pay for it twice.
    pub(crate) fn best_schedule_from(
        &self,
        buckets: &[BucketCost],
        baseline: ScheduleTimeline,
    ) -> ScheduleTimeline {
        let mut best = baseline;
        let mut evaluated = 1u32; // the FIFO baseline itself
        for streams in 1..=self.streams {
            if streams == 1 && self.policy == PriorityPolicy::Fifo {
                continue;
            }
            let candidate = Self::new(streams, self.policy).schedule(buckets);
            evaluated += 1;
            if candidate.makespan() < best.makespan() {
                best = candidate;
            }
        }
        let sink = sidco_trace::global_sink();
        if sink.enabled() {
            sink.counter_add("scheduler.best_schedule.calls", 1.0);
            sink.counter_add("scheduler.candidates_evaluated", f64::from(evaluated));
            sink.observe("scheduler.chosen_streams", best.streams() as f64);
        }
        best
    }

    /// Builds the schedule for `buckets` with exactly
    /// [`streams`](Self::streams) streams and returns its timeline.
    ///
    /// This is the faithful fixed-configuration simulator; note that a fixed
    /// priority schedule is *not* guaranteed monotone in the stream count
    /// (slot-limited preemption has genuine scheduling anomalies — rarely,
    /// an extra stream lets a high-priority transfer starve the
    /// makespan-critical bucket; with release times even fixed FIFO
    /// schedules exhibit them). Use [`best_schedule`](Self::best_schedule)
    /// when a charge must never lose to the pipeline.
    ///
    /// # Panics
    ///
    /// Panics if any cost is negative or non-finite.
    pub fn schedule(&self, buckets: &[BucketCost]) -> ScheduleTimeline {
        for (i, b) in buckets.iter().enumerate() {
            assert!(
                b.ready_at >= 0.0
                    && b.compression >= 0.0
                    && b.latency >= 0.0
                    && b.transfer >= 0.0
                    && b.ready_at.is_finite()
                    && b.compression.is_finite()
                    && b.latency.is_finite()
                    && b.transfer.is_finite(),
                "bucket {i} has invalid costs {b:?}"
            );
        }
        let n = buckets.len();
        let rank = self.policy.ranks(buckets);

        // Compression is serial and first-come-first-served in arrival order:
        // the processor serves the earliest-arrived waiting bucket (ties by
        // index), and a bucket never starts before its release time. With all
        // release times equal this is the plain index-order prefix sum. The
        // compression timeline is independent of the wire, so it can be laid
        // out up front.
        let mut entries: Vec<ScheduledBucket> = buckets
            .iter()
            .enumerate()
            .map(|(i, bucket)| ScheduledBucket {
                bucket: i,
                stream: 0,
                ready_at: bucket.ready_at,
                compress_start: f64::NAN,
                compress_end: f64::NAN,
                comm_start: f64::NAN,
                comm_end: f64::NAN,
                segments: Vec::new(),
            })
            .collect();
        let mut clock = 0.0f64;
        for &i in &compression_order(buckets) {
            let start = clock.max(buckets[i].ready_at);
            clock = start + buckets[i].compression;
            entries[i].compress_start = start;
            entries[i].compress_end = clock;
        }

        #[derive(Clone, Copy, PartialEq)]
        enum Phase {
            /// Not yet compressed (arrives at `ready`).
            Compressing,
            /// Compressed, waiting for a free stream.
            AwaitingStream,
            /// On a stream, collective setup running until the given time.
            Latency(f64),
            /// On a stream, transfer pending/suspended/active with remaining
            /// seconds of link time.
            LinkQueue(f64),
            Done,
        }

        let mut phase: Vec<Phase> = vec![Phase::Compressing; n];
        let mut free_streams: Vec<usize> = (0..self.streams).rev().collect();
        let mut current: Option<usize> = None;
        let mut done = 0usize;
        let mut t = 0.0f64;
        let mut makespan = clock; // nothing can end before the last compression

        while done < n {
            // Next event: earliest ready time, latency completion, or the
            // active transfer finishing.
            let mut t_next = f64::INFINITY;
            let mut link_completion = f64::INFINITY;
            for (i, p) in phase.iter().enumerate() {
                match *p {
                    Phase::Compressing => t_next = t_next.min(entries[i].compress_end),
                    Phase::Latency(until) => t_next = t_next.min(until),
                    _ => {}
                }
            }
            if let Some(cur) = current {
                if let Phase::LinkQueue(remaining) = phase[cur] {
                    link_completion = t + remaining;
                    t_next = t_next.min(link_completion);
                }
            }
            assert!(
                t_next.is_finite(),
                "scheduler deadlocked with {done}/{n} buckets done"
            );

            // Advance the active transfer to t_next. The completion flag is
            // decided by event selection (not float round-trips), so a served
            // transfer always ends exactly at `t + remaining` — except when
            // rounding collapses the remaining work to zero even though
            // `t + remaining` compared above `t_next` (e.g. `t = 1.4`,
            // `remaining = 2.2`, `t_next = 3.6`): a transfer with nothing
            // left must complete *now*, or it would sit in the queue with
            // zero remaining, invisible to the `r > 0` link arbitration, and
            // deadlock the scheduler.
            let mut link_done = false;
            if let Some(cur) = current {
                if let Phase::LinkQueue(remaining) = phase[cur] {
                    if link_completion <= t_next || remaining - (t_next - t) <= 0.0 {
                        phase[cur] = Phase::LinkQueue(0.0);
                        link_done = true;
                    } else {
                        phase[cur] = Phase::LinkQueue(remaining - (t_next - t));
                    }
                }
            }
            t = t_next;

            // Fire every event at time t. A bucket whose collective has no
            // transfer completes the moment its latency phase drains.
            for i in 0..n {
                match phase[i] {
                    Phase::Compressing if entries[i].compress_end <= t => {
                        phase[i] = Phase::AwaitingStream;
                    }
                    Phase::Latency(until) if until <= t => {
                        if buckets[i].transfer > 0.0 {
                            phase[i] = Phase::LinkQueue(buckets[i].transfer);
                        } else {
                            entries[i].comm_end = t;
                            makespan = makespan.max(t);
                            phase[i] = Phase::Done;
                            done += 1;
                            free_streams.push(entries[i].stream);
                            free_streams.sort_unstable_by(|a, b| b.cmp(a));
                        }
                    }
                    _ => {}
                }
            }
            if link_done {
                // INVARIANT: link_done is only set while a transfer occupies
                // the link, so `current` is necessarily populated here.
                let cur = current.expect("link completion without an active transfer");
                if let Some(segment) = entries[cur].segments.last_mut() {
                    segment.end = t;
                }
                entries[cur].comm_end = t;
                makespan = makespan.max(t);
                phase[cur] = Phase::Done;
                done += 1;
                free_streams.push(entries[cur].stream);
                free_streams.sort_unstable_by(|a, b| b.cmp(a));
                current = None;
            }

            // Grant freed streams to waiting buckets in priority order. A
            // zero-cost collective completes (and releases its stream) on the
            // spot, which can cascade.
            while let Some(&stream) = free_streams.last() {
                let next = (0..n)
                    .filter(|&i| matches!(phase[i], Phase::AwaitingStream))
                    .min_by_key(|&i| rank[i]);
                let Some(i) = next else { break };
                free_streams.pop();
                entries[i].stream = stream;
                entries[i].comm_start = t;
                if buckets[i].latency > 0.0 {
                    phase[i] = Phase::Latency(t + buckets[i].latency);
                } else if buckets[i].transfer > 0.0 {
                    phase[i] = Phase::LinkQueue(buckets[i].transfer);
                } else {
                    entries[i].comm_end = t;
                    makespan = makespan.max(t);
                    phase[i] = Phase::Done;
                    done += 1;
                    free_streams.push(stream);
                    free_streams.sort_unstable_by(|a, b| b.cmp(a));
                }
            }

            // The link serves the highest-priority latency-done bucket,
            // preempting whoever held it.
            let best = (0..n)
                .filter(|&i| matches!(phase[i], Phase::LinkQueue(r) if r > 0.0))
                .min_by_key(|&i| rank[i]);
            if best != current {
                if let Some(prev) = current {
                    if let Some(segment) = entries[prev].segments.last_mut() {
                        if segment.end.is_nan() {
                            segment.end = t;
                        }
                    }
                }
                if let Some(next) = best {
                    entries[next].segments.push(TransferSegment {
                        start: t,
                        end: f64::NAN,
                    });
                }
                current = best;
            }
        }

        ScheduleTimeline {
            streams: self.streams,
            entries,
            makespan,
        }
    }
}

/// Projects the sparse wire payload (bytes) of compressing a `size`-element
/// bucket at ratio `delta`, guarding the `f64 → usize` cast: the product is
/// computed in `f64` and can be non-finite or exceed `usize::MAX` for extreme
/// (but representable) inputs, so the cast saturates explicitly rather than
/// relying on the caller to stay in range, and the result is clamped to at
/// least one wire element — a real compressor always transmits ≥ 1 selected
/// element (`ceil(δ·k) ≥ 1`), so a modelled payload of zero bytes would
/// charge a collective as free.
///
/// # Panics
///
/// Panics if `delta` is NaN or negative (a silent NaN would otherwise
/// saturate to a zero payload and make communication free).
pub fn projected_payload_bytes(delta: f64, size: usize) -> usize {
    assert!(
        !delta.is_nan() && delta >= 0.0,
        "compression ratio must be non-negative, got {delta}"
    );
    let bytes = (delta * size as f64 * SPARSE_WIRE_BYTES).ceil();
    // `as` casts from f64 saturate (and map NaN to zero); the guard above
    // plus this explicit clamp make both directions loud and intentional.
    let bytes = if bytes >= usize::MAX as f64 {
        usize::MAX
    } else {
        bytes as usize
    };
    bytes.max(SPARSE_WIRE_BYTES as usize)
}

/// Per-bucket [`BucketCost`]s of `layout` under the cluster's analytic cost
/// models: compression charged at the **slowest node's** engine-aware device
/// profile and compute skew
/// ([`ClusterConfig::modeled_compression_time`] — synchronous SGD waits for
/// every worker's payload, so a heterogeneous fleet gates on its slowest
/// compressor), payloads projected from the target ratio `delta` (via
/// [`projected_payload_bytes`]), and communication split into its
/// overlappable and link-serialised parts by the cluster's topology —
/// including per-node NIC drains when node profiles are set. On a homogeneous
/// cluster every charge is bit-for-bit the cluster-wide one. All release
/// times are zero; pair with [`with_ready_times`] to model gradient arrivals.
pub fn modeled_bucket_costs(
    cluster: &ClusterConfig,
    kind: CompressorKind,
    delta: f64,
    stages: usize,
    layout: &LayerLayout,
) -> Vec<BucketCost> {
    layout
        .sizes()
        .iter()
        .map(|&size| {
            let payload = projected_payload_bytes(delta, size);
            let (latency, transfer) = cluster.allgather_sparse_parts(payload);
            BucketCost {
                ready_at: 0.0,
                compression: cluster.modeled_compression_time(kind, size, delta, stages),
                latency,
                transfer,
            }
        })
        .collect()
}

/// Stamps per-bucket release times onto modelled costs: `costs[i].ready_at =
/// ready[i]`. The typical source of `ready` is
/// [`schedule::bucket_ready_times`](crate::schedule::bucket_ready_times).
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn with_ready_times(mut costs: Vec<BucketCost>, ready: &[f64]) -> Vec<BucketCost> {
    assert_eq!(
        costs.len(),
        ready.len(),
        "per-bucket cost and release-time slices must align"
    );
    for (cost, &ready_at) in costs.iter_mut().zip(ready) {
        cost.ready_at = ready_at;
    }
    costs
}

/// Total transfer (bandwidth-serialised) seconds of a cost set — the wire
/// work one iteration presents to the link. Latency terms are excluded: they
/// overlap with other streams inside a job's own schedule, but the transfer
/// component is what a *shared* link arbiter (see [`crate::tenancy`]) must
/// actually serialise across tenants.
pub fn total_wire_seconds(costs: &[BucketCost]) -> f64 {
    costs.iter().map(|cost| cost.transfer).sum()
}

/// Accumulated three-way overhead accounting over a training run: fully
/// serial vs single-stream pipelined vs the configured (possibly
/// multi-stream, priority) schedule, plus the last iteration's full timeline
/// for per-stream/per-bucket inspection.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleAccounting {
    buckets: usize,
    streams: usize,
    policy: PriorityPolicy,
    serial: f64,
    pipelined: f64,
    charged: f64,
    iterations: u64,
    last_timeline: Option<ScheduleTimeline>,
}

impl ScheduleAccounting {
    /// Empty accounting for a run over `buckets` buckets scheduled on
    /// `streams` streams with `policy`.
    pub fn new(buckets: usize, streams: usize, policy: PriorityPolicy) -> Self {
        Self {
            buckets,
            streams,
            policy,
            serial: 0.0,
            pipelined: 0.0,
            charged: 0.0,
            iterations: 0,
            last_timeline: None,
        }
    }

    /// Adds one iteration's overheads: fully serialised, single-stream
    /// pipelined, and actually charged.
    pub fn record(&mut self, serial: f64, pipelined: f64, charged: f64) {
        self.serial += serial;
        self.pipelined += pipelined;
        self.charged += charged;
        self.iterations += 1;
    }

    /// Stores the most recent iteration's full timeline.
    pub fn set_timeline(&mut self, timeline: ScheduleTimeline) {
        self.last_timeline = Some(timeline);
    }

    /// Number of gradient buckets per iteration.
    pub fn buckets(&self) -> usize {
        self.buckets
    }

    /// The configured stream *budget*. The charged schedule may use fewer
    /// streams when that is cheaper (see
    /// [`CollectiveScheduler::best_schedule`]); the stream count actually
    /// chosen is [`last_timeline`](Self::last_timeline)`.streams()`.
    pub fn streams(&self) -> usize {
        self.streams
    }

    /// The configured priority policy (the charged schedule may have fallen
    /// back to the plain FIFO pipeline when that was cheaper).
    pub fn policy(&self) -> PriorityPolicy {
        self.policy
    }

    /// Iterations recorded.
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// Total overhead had every iteration been fully serialised.
    pub fn serial_overhead(&self) -> f64 {
        self.serial
    }

    /// Total overhead of the single-stream FIFO pipeline (the reference the
    /// multi-stream schedule is compared against).
    pub fn pipelined_overhead(&self) -> f64 {
        self.pipelined
    }

    /// Total overhead actually charged to the clock.
    pub fn charged_overhead(&self) -> f64 {
        self.charged
    }

    /// Seconds the charged schedule saved over the single-stream pipeline.
    pub fn multi_stream_saving(&self) -> f64 {
        (self.pipelined - self.charged).max(0.0)
    }

    /// Overhead speed-up of the charged schedule over the serial baseline.
    pub fn speedup_vs_serial(&self) -> f64 {
        if self.charged > 0.0 {
            self.serial / self.charged
        } else {
            1.0
        }
    }

    /// The last recorded iteration's full timeline, when one was stored.
    pub fn last_timeline(&self) -> Option<&ScheduleTimeline> {
        self.last_timeline.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn costs(raw: &[(f64, f64, f64)]) -> Vec<BucketCost> {
        raw.iter()
            .map(|&(compression, latency, transfer)| BucketCost {
                ready_at: 0.0,
                compression,
                latency,
                transfer,
            })
            .collect()
    }

    #[test]
    fn single_stream_fifo_matches_pipelined_overhead() {
        let buckets = costs(&[
            (1.0, 0.25, 2.0),
            (0.5, 0.25, 3.0),
            (2.0, 0.25, 0.5),
            (0.1, 0.25, 1.0),
        ]);
        let timeline = CollectiveScheduler::single_stream_fifo().schedule(&buckets);
        // The recurrence by hand, C_i = C_{i-1} + comp_i and
        // W_i = max(W_{i-1}, C_i) + comm_i:
        // C = 1, 1.5, 3.5, 3.6; W = 3.25, 6.5, 7.25, 8.5.
        let reference = 8.5;
        assert!(
            (timeline.makespan() - reference).abs() < 1e-12,
            "DES {} vs recurrence {reference}",
            timeline.makespan()
        );
    }

    #[test]
    fn empty_and_zero_cost_schedules() {
        let scheduler = CollectiveScheduler::new(3, PriorityPolicy::SmallestFirst);
        assert_eq!(scheduler.schedule(&[]).makespan(), 0.0);
        let zeros = costs(&[(0.0, 0.0, 0.0), (0.0, 0.0, 0.0)]);
        let timeline = scheduler.schedule(&zeros);
        assert_eq!(timeline.makespan(), 0.0);
        assert_eq!(timeline.entries().len(), 2);
        // Compression-only buckets finish at the compression frontier.
        let comp_only = costs(&[(1.0, 0.0, 0.0), (2.0, 0.0, 0.0)]);
        assert_eq!(scheduler.schedule(&comp_only).makespan(), 3.0);
    }

    #[test]
    fn extra_streams_hide_latency() {
        // Four buckets, latency-dominated: a single stream pays every α on
        // the critical path; two streams overlap them.
        let buckets = costs(&[
            (0.1, 1.0, 0.2),
            (0.1, 1.0, 0.2),
            (0.1, 1.0, 0.2),
            (0.1, 1.0, 0.2),
        ]);
        let one = CollectiveScheduler::new(1, PriorityPolicy::Fifo)
            .schedule(&buckets)
            .makespan();
        let four = CollectiveScheduler::new(4, PriorityPolicy::Fifo)
            .schedule(&buckets)
            .makespan();
        assert!(four < one, "4 streams {four} should beat 1 stream {one}");
        assert!(four >= total_wire_seconds(&buckets));
    }

    #[test]
    fn priority_preempts_the_wire_for_small_buckets() {
        // A huge transfer is on the wire when the small bucket compresses.
        let buckets = costs(&[(0.1, 0.0, 10.0), (0.1, 0.0, 0.1)]);
        let fifo = CollectiveScheduler::new(2, PriorityPolicy::Fifo).schedule(&buckets);
        let prio = CollectiveScheduler::new(2, PriorityPolicy::SmallestFirst).schedule(&buckets);
        // Under FIFO the small bucket waits out the large transfer…
        assert!(fifo.completion(1) > 10.0);
        // …under priority it preempts and finishes immediately.
        assert!((prio.completion(1) - 0.3).abs() < 1e-12);
        // The preempted bucket resumes: same makespan, split into segments.
        assert!((prio.makespan() - fifo.makespan()).abs() < 1e-12);
        assert_eq!(prio.entries()[0].segments.len(), 2);
        // The link never serves two transfers at once.
        let segments = prio.link_segments();
        for pair in segments.windows(2) {
            assert!(pair[1].start >= pair[0].end - 1e-12);
        }
    }

    #[test]
    fn best_schedule_never_loses_to_the_pipeline_and_is_monotone() {
        let buckets = costs(&[
            (1.9, 0.0, 0.2),
            (0.0, 0.2, 0.4),
            (0.2, 0.0, 1.2),
            (0.0, 0.3, 0.1),
            (1.1, 0.5, 4.3),
            (2.7, 0.1, 4.4),
            (1.3, 0.0, 4.8),
            (1.7, 0.0, 2.1),
        ]);
        let pipeline = CollectiveScheduler::single_stream_fifo()
            .schedule(&buckets)
            .makespan();
        for policy in [
            PriorityPolicy::Fifo,
            PriorityPolicy::SmallestFirst,
            PriorityPolicy::NearestOutputFirst,
        ] {
            let mut previous = f64::INFINITY;
            for streams in 1..=6 {
                let best = CollectiveScheduler::new(streams, policy)
                    .best_schedule(&buckets)
                    .makespan();
                assert!(
                    best <= pipeline + 1e-12,
                    "{policy} charged above the pipeline"
                );
                assert!(
                    best <= previous + 1e-12,
                    "{policy}: budget {streams} regressed {previous} -> {best}"
                );
                assert!(best >= total_wire_seconds(&buckets) - 1e-12);
                previous = best;
            }
        }
        // A 1-stream FIFO budget returns the pipeline itself.
        let base = CollectiveScheduler::single_stream_fifo().best_schedule(&buckets);
        assert_eq!(base.makespan(), pipeline);
        assert_eq!(base.streams(), 1);
    }

    #[test]
    fn makespan_respects_lower_bounds() {
        let buckets = costs(&[(0.5, 0.1, 1.5), (1.0, 0.2, 0.1), (0.2, 0.05, 2.0)]);
        for streams in 1..=4 {
            for policy in [
                PriorityPolicy::Fifo,
                PriorityPolicy::SmallestFirst,
                PriorityPolicy::NearestOutputFirst,
            ] {
                let makespan = CollectiveScheduler::new(streams, policy)
                    .schedule(&buckets)
                    .makespan();
                assert!(makespan >= makespan_lower_bound(&buckets) - 1e-12);
                let serial: f64 = buckets
                    .iter()
                    .map(|b| b.compression + b.communication())
                    .sum();
                assert!(makespan <= serial + 1e-12);
            }
        }
    }

    #[test]
    fn ranks_are_deterministic_permutations() {
        let buckets = costs(&[(0.0, 0.1, 2.0), (0.0, 0.1, 2.0), (0.0, 0.1, 1.0)]);
        assert_eq!(PriorityPolicy::Fifo.ranks(&buckets), vec![0, 1, 2]);
        assert_eq!(
            PriorityPolicy::NearestOutputFirst.ranks(&buckets),
            vec![2, 1, 0]
        );
        // Smallest first; equal buckets tie-break by index.
        assert_eq!(PriorityPolicy::SmallestFirst.ranks(&buckets), vec![1, 2, 0]);
        assert_eq!(PriorityPolicy::default(), PriorityPolicy::Fifo);
        assert_eq!(PriorityPolicy::SmallestFirst.to_string(), "smallest-first");
    }

    #[test]
    fn accounting_tracks_three_way_comparison() {
        let mut acc = ScheduleAccounting::new(4, 2, PriorityPolicy::SmallestFirst);
        acc.record(10.0, 8.0, 6.0);
        acc.record(10.0, 8.0, 6.0);
        assert_eq!(acc.buckets(), 4);
        assert_eq!(acc.streams(), 2);
        assert_eq!(acc.iterations(), 2);
        assert_eq!(acc.serial_overhead(), 20.0);
        assert_eq!(acc.pipelined_overhead(), 16.0);
        assert_eq!(acc.charged_overhead(), 12.0);
        assert_eq!(acc.multi_stream_saving(), 4.0);
        assert!((acc.speedup_vs_serial() - 20.0 / 12.0).abs() < 1e-12);
        assert!(acc.last_timeline().is_none());
        acc.set_timeline(CollectiveScheduler::default().schedule(&costs(&[(1.0, 0.0, 1.0)])));
        assert_eq!(acc.last_timeline().unwrap().entries().len(), 1);
        let empty = ScheduleAccounting::new(1, 1, PriorityPolicy::Fifo);
        assert_eq!(empty.speedup_vs_serial(), 1.0);
    }

    fn costs_with_arrivals(raw: &[(f64, f64, f64, f64)]) -> Vec<BucketCost> {
        raw.iter()
            .map(|&(ready_at, compression, latency, transfer)| BucketCost {
                ready_at,
                compression,
                latency,
                transfer,
            })
            .collect()
    }

    #[test]
    fn arrivals_gate_compression_and_the_wire() {
        // Backward-order arrivals: the output-side bucket (index 2) is ready
        // first, bucket 0 last — the shape `bucket_ready_times` produces.
        let buckets = costs_with_arrivals(&[
            (3.0, 0.5, 0.1, 1.0),
            (2.0, 0.5, 0.1, 1.0),
            (0.5, 0.5, 0.1, 1.0),
        ]);
        for streams in 1..=3 {
            for policy in [
                PriorityPolicy::Fifo,
                PriorityPolicy::SmallestFirst,
                PriorityPolicy::NearestOutputFirst,
            ] {
                let timeline = CollectiveScheduler::new(streams, policy).schedule(&buckets);
                for (entry, bucket) in timeline.entries().iter().zip(&buckets) {
                    // No compression before arrival…
                    assert!(entry.compress_start >= bucket.ready_at);
                    assert_eq!(entry.ready_at, bucket.ready_at);
                    // …and therefore no wire activity before arrival either.
                    assert!(entry.comm_start >= entry.compress_end);
                    for segment in &entry.segments {
                        assert!(segment.start >= bucket.ready_at);
                    }
                }
                // Compression is FCFS in arrival order: 2, then 1, then 0.
                let e = timeline.entries();
                assert_eq!(e[2].compress_start, 0.5);
                assert_eq!(e[1].compress_start, 2.0);
                assert_eq!(e[0].compress_start, 3.0);
            }
        }
        // The output-side bucket's transfer completes while bucket 0 is
        // still waiting on the backward pass — genuine interleaving.
        let nof =
            CollectiveScheduler::new(3, PriorityPolicy::NearestOutputFirst).schedule(&buckets);
        assert!(
            nof.completion(2) <= buckets[0].ready_at,
            "bucket 2 finished at {} but bucket 0 only arrives at 3.0",
            nof.completion(2)
        );
    }

    #[test]
    fn equal_arrivals_shift_the_zero_arrival_schedule_rigidly() {
        // All buckets released at the same instant T behave exactly like the
        // zero-arrival schedule delayed by T.
        let raw = [(1.0, 0.25, 2.0), (0.5, 0.25, 3.0), (2.0, 0.25, 0.5)];
        let base =
            CollectiveScheduler::new(2, PriorityPolicy::SmallestFirst).schedule(&costs(&raw));
        let shifted: Vec<BucketCost> = costs(&raw)
            .into_iter()
            .map(|b| BucketCost { ready_at: 5.0, ..b })
            .collect();
        let delayed = CollectiveScheduler::new(2, PriorityPolicy::SmallestFirst).schedule(&shifted);
        assert_eq!(delayed.makespan(), base.makespan() + 5.0);
        for (d, b) in delayed.entries().iter().zip(base.entries()) {
            assert_eq!(d.compress_start, b.compress_start + 5.0);
            assert_eq!(d.comm_end, b.comm_end + 5.0);
        }
    }

    #[test]
    fn arrival_lower_bound_accounts_for_release_times() {
        let buckets = costs_with_arrivals(&[(4.0, 1.0, 0.5, 2.0), (0.0, 1.0, 0.0, 1.0)]);
        // FCFS compression: bucket 1 at [0,1], bucket 0 at [4,5]; its path
        // then runs to 5 + 0.5 + 2 = 7.5.
        assert_eq!(makespan_lower_bound(&buckets), 7.5);
        let makespan = CollectiveScheduler::single_stream_fifo()
            .schedule(&buckets)
            .makespan();
        assert!(makespan >= makespan_lower_bound(&buckets) - 1e-12);
    }

    #[test]
    fn slot_limited_anomaly_is_real_but_never_charged() {
        // A found instance of the Graham anomaly: under NearestOutputFirst a
        // 4th stream makes the fixed schedule *worse* than 3 streams. The
        // charged search must still never lose to the single-stream pipeline
        // at any stream budget.
        let buckets = costs(&[
            (1.0, 1.9, 0.9),
            (0.0, 0.7, 0.0),
            (0.0, 1.3, 0.3),
            (0.0, 1.2, 1.6),
            (1.1, 0.0, 0.4),
            (1.2, 0.1, 0.9),
            (0.8, 0.1, 1.9),
            (1.1, 0.2, 0.0),
            (0.2, 2.6, 0.0),
            (1.3, 1.7, 1.0),
        ]);
        let three = CollectiveScheduler::new(3, PriorityPolicy::NearestOutputFirst)
            .schedule(&buckets)
            .makespan();
        let four = CollectiveScheduler::new(4, PriorityPolicy::NearestOutputFirst)
            .schedule(&buckets)
            .makespan();
        assert!(
            four > three + 1e-9,
            "expected the anomaly: 4 streams {four} vs 3 streams {three}"
        );
        let pipeline = CollectiveScheduler::single_stream_fifo()
            .schedule(&buckets)
            .makespan();
        for streams in 1..=12 {
            for policy in [
                PriorityPolicy::Fifo,
                PriorityPolicy::SmallestFirst,
                PriorityPolicy::NearestOutputFirst,
            ] {
                let charged = CollectiveScheduler::new(streams, policy)
                    .best_schedule(&buckets)
                    .makespan();
                assert!(
                    charged <= pipeline + 1e-12,
                    "{policy} at {streams} streams: charged {charged} lost to \
                     the pipeline {pipeline}"
                );
            }
        }
    }

    #[test]
    fn projected_payloads_guard_the_cast_and_clamp_to_one_element() {
        // Ordinary case: ceil of the projected bytes.
        assert_eq!(projected_payload_bytes(0.01, 1000), 80);
        // Tiny products clamp to one wire element (8 bytes).
        assert_eq!(projected_payload_bytes(1e-300, 1), 8);
        assert_eq!(projected_payload_bytes(0.0, 1 << 20), 8);
        // Oversized products saturate instead of wrapping.
        assert_eq!(projected_payload_bytes(f64::MAX, usize::MAX), usize::MAX);
        assert_eq!(projected_payload_bytes(1.0, usize::MAX), usize::MAX);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn projected_payloads_reject_nan_ratios() {
        projected_payload_bytes(f64::NAN, 100);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn projected_payloads_reject_negative_ratios() {
        projected_payload_bytes(-0.5, 100);
    }

    #[test]
    fn ready_time_stamping_aligns_with_costs() {
        let stamped = with_ready_times(costs(&[(1.0, 0.0, 1.0), (1.0, 0.0, 1.0)]), &[2.0, 0.5]);
        assert_eq!(stamped[0].ready_at, 2.0);
        assert_eq!(stamped[1].ready_at, 0.5);
    }

    #[test]
    #[should_panic(expected = "align")]
    fn ready_time_stamping_rejects_misaligned_slices() {
        with_ready_times(costs(&[(1.0, 0.0, 1.0)]), &[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "invalid costs")]
    fn rejects_negative_costs() {
        CollectiveScheduler::default().schedule(&costs(&[(1.0, -0.5, 1.0)]));
    }

    #[test]
    #[should_panic(expected = "invalid costs")]
    fn rejects_non_finite_arrivals() {
        CollectiveScheduler::default().schedule(&costs_with_arrivals(&[(
            f64::INFINITY,
            1.0,
            0.0,
            1.0,
        )]));
    }

    #[test]
    #[should_panic(expected = "at least one stream")]
    fn rejects_zero_streams() {
        CollectiveScheduler::new(0, PriorityPolicy::Fifo);
    }

    #[test]
    fn compression_order_sorts_by_arrival_with_index_ties() {
        let order = |ready: &[f64]| {
            let raw: Vec<_> = ready.iter().map(|&r| (r, 1.0, 0.0, 1.0)).collect();
            compression_order(&costs_with_arrivals(&raw))
        };
        // Zero arrivals (arrival-oblivious) degrade to plain index order.
        assert_eq!(order(&[0.0, 0.0, 0.0]), vec![0, 1, 2]);
        assert_eq!(order(&[]), Vec::<usize>::new());
        // Output-side-first arrivals (non-increasing in the bucket index)
        // serve the last bucket first.
        assert_eq!(order(&[3.0, 2.0, 0.5]), vec![2, 1, 0]);
        // Ties broken by ascending index, mixed arrivals sorted stably.
        assert_eq!(order(&[1.0, 0.0, 1.0, 0.0]), vec![1, 3, 0, 2]);
    }

    #[test]
    fn modeled_costs_charge_the_slowest_node_not_node_zero() {
        use crate::cluster::ClusterConfig;
        use sidco_core::compressor::CompressorKind;
        use sidco_core::layerwise::LayerLayout;

        let kind = CompressorKind::Sidco(sidco_stats::fit::SidKind::Exponential);
        let layout = LayerLayout::uniform(4_000_000, 4);

        // Compute skew on node 1 (never node 0): every bucket's compression
        // charge doubles exactly, the wire parts don't move.
        let healthy =
            modeled_bucket_costs(&ClusterConfig::paper_two_tier(), kind, 0.01, 2, &layout);
        let skewed =
            modeled_bucket_costs(&ClusterConfig::paper_straggler(), kind, 0.01, 2, &layout);
        for (h, s) in healthy.iter().zip(&skewed) {
            assert_eq!(s.compression, 2.0 * h.compression);
            assert_eq!(s.latency, h.latency);
            assert_eq!(s.transfer, h.transfer);
        }

        // Mixed NICs: the same 4×2 fleet on a uniform 25G vector must
        // *shrink* the drain — i.e. the profiled charge is gated by the slow
        // 10G node, not by a uniform 25G view of the network.
        let mixed_cluster = ClusterConfig::paper_mixed_fleet();
        let uniform_cluster =
            mixed_cluster
                .clone()
                .with_topology(crate::network::HierarchicalTopology::new(
                    4,
                    2,
                    crate::network::NetworkModel::infiniband_100g(),
                    crate::network::NetworkModel::ethernet_25g(),
                ));
        let mixed = modeled_bucket_costs(&mixed_cluster, kind, 0.01, 2, &layout);
        let uniform = modeled_bucket_costs(&uniform_cluster, kind, 0.01, 2, &layout);
        for (m, u) in mixed.iter().zip(&uniform) {
            assert!(m.transfer > u.transfer, "10G node must gate the drain");
            assert_eq!(m.compression, u.compression);
        }
    }
}
