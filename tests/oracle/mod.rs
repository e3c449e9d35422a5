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
//! the filter loop every selection kernel must reproduce. `pot_estimate` is
//! the multi-stage estimate driven by the closed-form peaks-over-threshold
//! updates (`exponential_pot_threshold`, `gp_pot_threshold`,
//! `gamma_stage_threshold`), which the estimator's fit-based stage updates
//! must reproduce bit for bit. `topk` holds the full-sort selector every
//! quickselect Top-k must agree with.

// Each suite that includes this module uses only some of the oracles.
#![allow(dead_code)]

pub mod topk;

use sidco_core::engine::CompressionEngine;
use sidco_dist::NetworkModel;
use sidco_runtime::Runtime;
use sidco_stats::fit::SidKind;
use sidco_stats::moments::{AbsMoments, MomentNeeds};
use sidco_stats::pot::{stage_schedule, StageMoments};
use sidco_stats::special::ln_gamma;
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

/// Corollary 2.1: exponential PoT threshold update.
///
/// Given the moments of the *shifted* exceedances (`|g| - η_{m-1}` for
/// `|g| > η_{m-1}`), the new threshold is `η_m = β̂_m ln(1/δ_m) + η_{m-1}` with
/// `β̂_m` the mean of the shifted exceedances.
pub fn exponential_pot_threshold(
    exceedance_moments: &AbsMoments,
    prev_threshold: f64,
    stage_delta: f64,
) -> f64 {
    debug_assert!(stage_delta > 0.0 && stage_delta < 1.0);
    prev_threshold + exceedance_moments.mean * (1.0 / stage_delta).ln()
}

/// Lemma 2: generalized-Pareto PoT threshold update via moment matching of the
/// shifted exceedances:
///
/// `α̂ = ½(1 - μ̄²/σ̄²)`, `β̂ = ½ μ̄ (μ̄²/σ̄² + 1)`,
/// `η_m = (β̂/α̂)(e^{-α̂ ln δ_m} - 1) + η_{m-1}`.
///
/// Falls back to the exponential update when the exceedance variance is degenerate
/// (the α → 0 limit).
pub fn gp_pot_threshold(
    exceedance_moments: &AbsMoments,
    prev_threshold: f64,
    stage_delta: f64,
) -> f64 {
    debug_assert!(stage_delta > 0.0 && stage_delta < 1.0);
    let mean = exceedance_moments.mean;
    let var = exceedance_moments.variance;
    if !(var > 0.0 && mean > 0.0) {
        return exponential_pot_threshold(exceedance_moments, prev_threshold, stage_delta);
    }
    let ratio = mean * mean / var;
    const EPS: f64 = 1e-6;
    let shape = (0.5 * (1.0 - ratio)).clamp(-0.5 + EPS, 0.5 - EPS);
    let scale = 0.5 * mean * (ratio + 1.0);
    if shape.abs() < 1e-12 {
        return prev_threshold + scale * (1.0 / stage_delta).ln();
    }
    prev_threshold + scale / shape * ((-shape * stage_delta.ln()).exp() - 1.0)
}

/// Gamma first-stage threshold (paper equation 15) expressed as an update from
/// moments, for symmetry with the other stage estimators. The location is zero in
/// the first stage, so `prev_threshold` is normally 0.
pub fn gamma_stage_threshold(moments: &AbsMoments, prev_threshold: f64, stage_delta: f64) -> f64 {
    debug_assert!(stage_delta > 0.0 && stage_delta < 1.0);
    if !(moments.mean > 0.0) {
        return prev_threshold;
    }
    let s = moments.mean.ln() - moments.mean_ln;
    let (shape, scale) = if s.is_finite() && s > 0.0 {
        let shape = (3.0 - s + ((s - 3.0) * (s - 3.0) + 24.0 * s).sqrt()) / (12.0 * s);
        (shape, moments.mean / shape)
    } else {
        (1.0, moments.mean)
    };
    prev_threshold + (-scale * (stage_delta.ln() + ln_gamma(shape))).max(0.0)
}

/// The closed-form update of stage `stage_index` for `kind`: SIDCo-GP's
/// gamma first stage, then GP refits; SIDCo-E and SIDCo-P keep their SID.
pub fn pot_stage_threshold(
    kind: SidKind,
    stage_index: usize,
    moments: &AbsMoments,
    prev_threshold: f64,
    stage_delta: f64,
) -> f64 {
    match (kind, stage_index) {
        (SidKind::Exponential, _) => {
            exponential_pot_threshold(moments, prev_threshold, stage_delta)
        }
        (SidKind::Gamma, 0) => gamma_stage_threshold(moments, prev_threshold, stage_delta),
        (SidKind::Gamma, _) => gp_pot_threshold(moments, prev_threshold, stage_delta),
        (SidKind::GeneralizedPareto, _) => gp_pot_threshold(moments, prev_threshold, stage_delta),
    }
}

/// The multi-stage estimate of Section 2.4 driven by [`pot_stage_threshold`]
/// over all-fields moment passes, as `(thresholds, survivors)`; `None` where
/// the first stage finds nothing to fit (an empty, all-zero or all-non-finite
/// gradient). A later stage with no exceedances keeps the previous
/// threshold, and no stage lowers it.
pub fn pot_estimate(
    grad: &[f32],
    kind: SidKind,
    delta: f64,
    delta1: f64,
    stages: usize,
) -> Option<(Vec<f64>, Vec<usize>)> {
    let mut thresholds = Vec::new();
    let mut survivors = Vec::new();
    let mut prev = 0.0f64;
    for (m, &stage_delta) in stage_schedule(delta, delta1, stages).iter().enumerate() {
        let moments = if m == 0 {
            AbsMoments::compute(grad)
        } else {
            AbsMoments::compute_exceedances(grad, prev)
        };
        if moments.count == 0 || !(moments.mean > 0.0) {
            if m == 0 {
                return None;
            }
            thresholds.push(prev);
            survivors.push(0);
            continue;
        }
        prev = pot_stage_threshold(kind, m, &moments, prev, stage_delta).max(prev);
        thresholds.push(prev);
        survivors.push(moments.count);
    }
    Some((thresholds, survivors))
}
