//! Distributed synchronous-SGD simulator for the SIDCo reproduction.
//!
//! This crate closes the loop between the compressors in `sidco-core` and the
//! workloads in `sidco-models`:
//!
//! * [`cluster`] — cluster topologies ([`ClusterConfig`](cluster::ClusterConfig)):
//!   worker count and one [`NodeProfile`] per machine
//!   (NIC, compression device, compute slowdown), including the paper's
//!   three testbeds;
//! * [`network`] — the α–β cost model of the collectives
//!   ([`NetworkModel`]): dense ring all-reduce for the baseline, sparse ring
//!   all-gather for compressed gradients, and two-tier hierarchical
//!   collectives ([`HierarchicalTopology`]):
//!   intra-node reduce-scatter feeding an inter-node exchange charged at the
//!   slowest node's [`NodeProfile`] (NIC model × rails);
//! * [`device`] — calibrated GPU/CPU compression-latency models
//!   ([`DeviceProfile`](device::DeviceProfile)) behind Figures 1 and 14–17,
//!   engine-aware so a multi-threaded
//!   [`CompressionEngine`](sidco_core::engine::CompressionEngine) deployment
//!   is charged its Amdahl speed-up;
//! * [`simulate`] — the Table-1 benchmark simulator
//!   ([`simulate_benchmark`](simulate::simulate_benchmark)): real compression
//!   on a measured gradient, analytic costs at full scale;
//! * [`collective`] — the async collective scheduler
//!   ([`CollectiveScheduler`]) that prices
//!   every bucketed iteration: DDP-style compression↔communication
//!   pipelining, multi-stream schedules over gradient-arrival release
//!   times, priority preemption of large transfers (ByteScheduler-style), a
//!   stream-budget search that never charges more than the pipeline,
//!   per-stream/per-bucket timelines and the analytic lower bounds its
//!   property tests pin down;
//! * [`trainer`] — a real data-parallel trainer
//!   ([`ModelTrainer`](trainer::ModelTrainer)) over the analytic models, with
//!   per-worker error feedback, momentum, clipping and scheduled bucketed
//!   overlap of compression and communication;
//! * [`metrics`] — training reports (schedule accounting and the elastic
//!   rescale log) and the time-to-quality speed-up metric;
//! * [`schedule`] / [`optimizer`] — learning-rate schedules, the bucket
//!   policy (uniform or per layer), layer packing and bucket release times,
//!   and the Table-1 local optimizers;
//! * [`tenancy`] — the multi-tenant compression service
//!   ([`FleetScheduler`]): concurrent jobs
//!   arbitrating one shared wire and one shared engine pool under pluggable
//!   [`SharePolicy`] link arbitration, with per-tenant
//!   admission control and contention-adaptive δ: a contended tenant's δ
//!   shrinks to what its dedicated wire time affords on the stretched wire.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod collective;
pub mod device;
pub mod metrics;
pub mod network;
pub mod optimizer;
pub mod schedule;
pub mod simulate;
pub mod tenancy;
pub mod trainer;

pub use collective::{BucketCost, CollectiveScheduler, PriorityPolicy, ScheduleTimeline};
pub use metrics::{RescaleRecord, TrainingReport};
pub use network::{HierarchicalTopology, NetworkModel, NodeProfile};
pub use optimizer::Optimizer;
pub use schedule::{BucketPolicy, LrSchedule};
pub use tenancy::{FleetReport, FleetScheduler, JobOutcome, JobSpec, SharePolicy, TenancyConfig};
pub use trainer::ClusterEvent;

/// Bytes on the wire per sparse element (u32 index + f32 value), matching
/// [`sidco_tensor::SparseGradient::wire_bytes`]. Used wherever a payload size
/// is *projected* from a ratio rather than taken from a materialised sparse
/// gradient.
pub(crate) const SPARSE_WIRE_BYTES: f64 = 8.0;
