//! `sidco-trace`: a structured span/event recorder for the SIDCo workspace.
//!
//! The crate provides one process-wide [`TraceRegistry`] fed by bounded
//! per-thread event buffers, a **dual clock** model, a small metrics registry
//! (counters / gauges / fixed-bucket histograms), and two exporters: Chrome
//! trace-event JSON (loadable in Perfetto or `chrome://tracing`) and a compact
//! text flamegraph-style summary.
//!
//! # Dual clocks
//!
//! Events carry timestamps in **seconds** on one of two lanes:
//!
//! * [`Lane::Virtual`] — model time produced by a [`VirtualClock`], advanced
//!   by the discrete-event simulator in `crates/dist`. The simulator never
//!   reads a wall clock (`sidco-lint` enforces this); every virtual timestamp
//!   is derived from modeled costs, so traced runs are bit-identical to
//!   untraced runs.
//! * [`Lane::Real`] — monotonic wall time measured from the start of the
//!   active [`TraceSession`]. Used by the thread pool in `crates/runtime` and
//!   the compression engine in `crates/core`.
//!
//! The Chrome exporter places the two lanes in separate trace *processes* so
//! the incompatible time axes are never drawn on a shared track.
//!
//! # Zero cost when disabled
//!
//! [`global_sink`] performs a single relaxed atomic load. When no session is
//! active it returns a no-op [`TraceSink`] whose record methods are a branch
//! on a `None` and inline away; no allocation, no clock read, no lock. The
//! workspace property tests assert that traced and untraced training runs
//! produce bit-identical results.
//!
//! # Recording model
//!
//! Producers push [`RawEvent`]s — a whole span when it ends, or an instant —
//! into a bounded buffer owned by their thread (a mutex only the registry's
//! drain ever contends); the registry drains all buffers when the session
//! finishes. Per-track event order is meaningful because each track is only
//! ever written by one thread (virtual tracks by the simulating thread,
//! real-lane thread tracks by their owner), so [`TraceReport::spans`] is the
//! span events in recording order: a nested span ends, and is recorded,
//! before the span around it.

#![forbid(unsafe_code)]

mod chrome;
mod clock;
mod metrics;
mod registry;
mod report;

pub use chrome::{parse_chrome_trace, ChromeTrace, ParsedChromeTrace};
pub use clock::VirtualClock;
pub use metrics::{Histogram, MetricsFrame};
pub use registry::{global, global_sink, RealSpanGuard, TraceRegistry, TraceSession, TraceSink};
pub use report::{CompleteSpan, EventKind, Lane, RawEvent, TraceReport, TrackId, TrackInfo};
