//! Closed-form oracles shared by the integration suites (`mod oracle;` in
//! each suite).
//!
//! The trainer charges every iteration through `CollectiveScheduler`; the
//! pipeline recurrences are the independent reference its single-stream FIFO
//! schedule must reproduce (up to float rounding) and the source of the
//! modeled goldens in `overlap_golden.rs`. `StripedTopology` is the
//! single-bottleneck hierarchical charge a uniform per-node NIC profile
//! vector must reproduce bit-for-bit. `ScopedOracle` is the per-call scoped
//! executor every production runtime must match bit-for-bit at the
//! parallel-primitive layer. `Rescan` is the multi-stage backend that reads
//! the whole gradient for every stage, which the compressor's
//! survivor-compacted estimate must match bit-for-bit, and `filter_select`
//! the filter loop every selection kernel must reproduce. `topk` holds the
//! full-sort selector every quickselect Top-k must agree with.

// Each suite that includes this module uses only some of the oracles.
#![allow(dead_code)]

pub mod topk;

use sidco_core::engine::CompressionEngine;
use sidco_dist::NetworkModel;
use sidco_runtime::Runtime;
use sidco_stats::moments::{AbsMoments, MomentNeeds};
use sidco_stats::pot::StageMoments;
use sidco_tensor::parallel::{abs_moments_on, exceedance_moments_on};
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// Total compression + communication overhead when the two phases are fully
/// serialised (compress every bucket, then communicate every bucket).
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn serial_overhead(compression: &[f64], communication: &[f64]) -> f64 {
    assert_eq!(
        compression.len(),
        communication.len(),
        "per-bucket cost slices must align"
    );
    compression.iter().sum::<f64>() + communication.iter().sum::<f64>()
}

/// Total overhead when compression of bucket `i + 1` overlaps communication of
/// bucket `i` (single compression stream, single communication stream).
///
/// Classic two-stage pipeline recurrence: with `C_i` the compression finish
/// time (`C_i = C_{i-1} + comp_i`) the wire finishes bucket `i` at
/// `W_i = max(W_{i-1}, C_i) + comm_i`; the overhead is `W_last`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn pipelined_overhead(compression: &[f64], communication: &[f64]) -> f64 {
    assert_eq!(
        compression.len(),
        communication.len(),
        "per-bucket cost slices must align"
    );
    let mut compress_done = 0.0f64;
    let mut wire_done = 0.0f64;
    for (&comp, &comm) in compression.iter().zip(communication) {
        compress_done += comp;
        wire_done = wire_done.max(compress_done) + comm;
    }
    wire_done
}

/// The single-bottleneck hierarchical charge of a homogeneous two-tier
/// cluster: `nodes` machines of `workers_per_node` workers whose inter-node
/// stage runs over one logical link, `inter` striped by `rails` NIC rails.
/// Assembled from the flat `NetworkModel` collectives stage by stage, it is
/// the closed form a uniform per-node profile vector must charge bit-for-bit.
pub struct StripedTopology {
    pub nodes: usize,
    pub workers_per_node: usize,
    pub intra: NetworkModel,
    pub inter: NetworkModel,
    pub rails: u32,
}

impl StripedTopology {
    /// `inter` striped by the rails: bandwidth scales, latency does not.
    fn link(&self) -> NetworkModel {
        NetworkModel {
            bandwidth_gbps: self.inter.bandwidth_gbps * f64::from(self.rails),
            latency: self.inter.latency,
        }
    }

    fn workers(&self) -> usize {
        self.nodes * self.workers_per_node
    }

    /// Intra gather + inter exchange of `g`-payload aggregates + intra
    /// fan-out, as `(overlappable, link-serialised)` parts.
    pub fn allgather_sparse_parts(&self, bytes: usize) -> (f64, f64) {
        let (n, g) = (self.nodes, self.workers_per_node);
        if bytes == 0 || self.workers() <= 1 {
            return (0.0, 0.0);
        }
        if n == 1 {
            return self.intra.allgather_sparse_parts(bytes, g);
        }
        if g == 1 {
            return self.link().allgather_sparse_parts(bytes, n);
        }
        let (latency, transfer) = self.link().allgather_sparse_parts(bytes * g, n);
        let fanout = (n - 1) as f64 * (g * bytes) as f64 / self.intra.bytes_per_second()
            + self.intra.latency;
        (
            self.intra.allgather_sparse(bytes, g) + latency + fanout,
            transfer,
        )
    }

    pub fn allgather_sparse(&self, bytes: usize) -> f64 {
        let (latency, transfer) = self.allgather_sparse_parts(bytes);
        latency + transfer
    }

    /// Intra ring all-reduce + inter all-reduce of the `1/g` shard.
    pub fn allreduce_dense(&self, bytes: usize) -> f64 {
        let (n, g) = (self.nodes, self.workers_per_node);
        if bytes == 0 || self.workers() <= 1 {
            return 0.0;
        }
        let intra = if g > 1 {
            self.intra.allreduce_dense(bytes, g)
        } else {
            0.0
        };
        let shard = (bytes as f64 / g as f64).ceil() as usize;
        intra + self.link().allreduce_dense(shard, n)
    }

    /// Inverse of `allgather_sparse`: the charge is affine in the payload.
    pub fn allgather_budget_bytes(&self, budget: f64) -> f64 {
        let (n, g) = (self.nodes, self.workers_per_node);
        if self.workers() <= 1 {
            return f64::INFINITY;
        }
        if n == 1 {
            return self.intra.allgather_budget_bytes(budget, g);
        }
        if g == 1 {
            return self.link().allgather_budget_bytes(budget, n);
        }
        let (g, n) = (g as f64, n as f64);
        let floor =
            (g - 1.0) * self.intra.latency + (n - 1.0) * self.inter.latency + self.intra.latency;
        let slope = (g - 1.0) / self.intra.bytes_per_second()
            + (n - 1.0) * g / self.link().bytes_per_second()
            + (n - 1.0) * g / self.intra.bytes_per_second();
        ((budget - floor) / slope).max(0.0)
    }
}

/// The per-call scoped executor the persistent pool replaced, kept as the
/// independent reference for the `Runtime` contract: every call spawns
/// `threads` scoped OS threads (fewer when there are fewer indices), each
/// running a contiguous block of indices, and joins them before returning.
/// Each index runs under its own `catch_unwind`, so a panic never skips the
/// rest of its block; the first panic is re-raised after every index ran.
#[derive(Debug)]
pub struct ScopedOracle {
    pub threads: usize,
}

impl Runtime for ScopedOracle {
    fn parallelism(&self) -> usize {
        self.threads
    }

    fn run_indexed(&self, tasks: usize, body: &(dyn Fn(usize) + Sync)) {
        let workers = self.threads.min(tasks).max(1);
        let per_worker = tasks.div_ceil(workers);
        let first_panic: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
        std::thread::scope(|s| {
            for w in 0..workers {
                let first_panic = &first_panic;
                s.spawn(move || {
                    for index in w * per_worker..((w + 1) * per_worker).min(tasks) {
                        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| body(index))) {
                            first_panic
                                .lock()
                                .expect("panic slot poisoned")
                                .get_or_insert(payload);
                        }
                    }
                });
            }
        });
        if let Some(payload) = first_panic.into_inner().expect("panic slot poisoned") {
            resume_unwind(payload);
        }
    }
}

/// The rescanning multi-stage backend: every stage reads the whole gradient
/// again, on the engine's chunks and executor. It is what the compressor's
/// estimate did before it kept the stage-1 survivors, and what the
/// survivor-compacted estimate must reproduce bit-for-bit: thresholds,
/// survivor counts and, through `CompressionEngine::select_above` at the
/// final threshold, the selection.
#[derive(Debug, Clone, Copy)]
pub struct Rescan(pub CompressionEngine);

impl StageMoments for Rescan {
    fn full_moments(&mut self, grad: &[f32], needs: MomentNeeds) -> AbsMoments {
        abs_moments_on(grad, needs, self.0.chunk_size(), self.0.shared_runtime())
    }

    fn exceedance_moments(
        &mut self,
        grad: &[f32],
        threshold: f64,
        needs: MomentNeeds,
    ) -> AbsMoments {
        exceedance_moments_on(
            grad,
            threshold,
            needs,
            self.0.chunk_size(),
            self.0.shared_runtime(),
        )
    }
}

/// The `C_η` filter loop: the `(index, value)` pairs with
/// `|g| >= threshold as f32`, in index order.
pub fn filter_select(grad: &[f32], threshold: f64) -> Vec<(u32, f32)> {
    let t = threshold as f32;
    (0u32..)
        .zip(grad)
        .filter(|&(_, g)| g.abs() >= t)
        .map(|(i, &g)| (i, g))
        .collect()
}
