//! Calibrated per-device cost model of gradient compression.
//!
//! Reproduces the *shape* of the paper's Figures 1, 14–17: exact Top-k is
//! sort-bound and carries a large fixed kernel cost on the GPU, DGC pays the
//! sampled selection plus a full scan, RedSync and GaussianKSGD pay a handful
//! of linear passes, and SIDCo pays one full fitting pass plus geometrically
//! shrinking peaks-over-threshold passes. The constants are calibrated so the
//! modelled latencies land in the regime the paper measured on a V100 and a
//! Xeon host (milliseconds at tens of millions of elements), and — more
//! importantly — so every *ratio* between schemes matches the figures.

use sidco_core::compressor::CompressorKind;
use sidco_core::sidco::FIRST_STAGE_RATIO;

/// Where compression runs (Figure 12 contrasts the two).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ComputeDevice {
    /// The training accelerator itself.
    Gpu,
    /// The host CPU.
    Cpu,
}

impl std::fmt::Display for ComputeDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ComputeDevice::Gpu => "GPU",
            ComputeDevice::Cpu => "CPU",
        })
    }
}

/// Analytic latency model of one device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceProfile {
    /// Which device this profile describes.
    pub device: ComputeDevice,
    /// Seconds per element for one streaming (read + compare/accumulate) pass.
    pass_cost: f64,
    /// Seconds per element·log₂(element) for sort-based selection (GPU) or per
    /// element for partition-based selection (CPU).
    select_cost: f64,
    /// Fixed overhead of one selection call (kernel launches, sync).
    select_fixed: f64,
    /// Fixed overhead of one streaming pass.
    pass_fixed: f64,
}

impl DeviceProfile {
    /// V100-class accelerator: enormous streaming bandwidth, but selection
    /// (sort-based Top-k) is both asymptotically and constant-factor expensive.
    pub fn gpu() -> Self {
        Self {
            device: ComputeDevice::Gpu,
            pass_cost: 1.0e-11,
            select_cost: 5.0e-11,
            select_fixed: 3.0e-3,
            pass_fixed: 10e-6,
        }
    }

    /// Xeon-class host: an order of magnitude less bandwidth, but quickselect
    /// makes selection linear with a small constant and no launch overhead.
    pub fn cpu() -> Self {
        Self {
            device: ComputeDevice::Cpu,
            pass_cost: 8.0e-10,
            select_cost: 8.0e-10,
            select_fixed: 0.0,
            pass_fixed: 1e-7,
        }
    }

    /// Profile for a given device.
    pub fn for_device(device: ComputeDevice) -> Self {
        match device {
            ComputeDevice::Gpu => Self::gpu(),
            ComputeDevice::Cpu => Self::cpu(),
        }
    }

    /// Cost of one streaming pass over `dim` elements on `workers` engine
    /// threads: the per-element work shards perfectly (fixed-size chunks),
    /// the fixed pass overhead (launch, fork/join) stays serial.
    fn pass_with(&self, dim: usize, workers: usize) -> f64 {
        self.pass_fixed + self.pass_cost * dim as f64 / workers as f64
    }

    /// Cost of selecting the top elements out of `dim` candidates on
    /// `workers` engine threads. The comparison work shards (the engine's
    /// chunked partial Top-k merges without re-sorting), the fixed kernel
    /// cost does not.
    fn select_with(&self, dim: usize, workers: usize) -> f64 {
        if dim == 0 {
            return 0.0;
        }
        let d = dim as f64;
        let w = workers as f64;
        match self.device {
            // Sort-based: d·log₂(d) with a large fixed kernel cost.
            ComputeDevice::Gpu => self.select_fixed + self.select_cost * d * d.log2().max(1.0) / w,
            // Quickselect: expected ~4 partition passes.
            ComputeDevice::Cpu => self.select_fixed + self.select_cost * d * 4.0 / w,
        }
    }

    /// Modelled latency (seconds) of compressing a `dim`-element gradient to
    /// ratio `delta` with `kind`, where multi-stage schemes use `stages`
    /// estimation stages. [`CompressorKind::None`] costs nothing. Charges the
    /// single-threaded engine; see
    /// [`compression_time_with_workers`](Self::compression_time_with_workers)
    /// for the multi-threaded model.
    pub fn compression_time(
        &self,
        kind: CompressorKind,
        dim: usize,
        delta: f64,
        stages: usize,
    ) -> f64 {
        self.compression_time_with_workers(kind, dim, delta, stages, 1)
    }

    /// Modelled latency of compressing with a `workers`-thread
    /// [`CompressionEngine`](sidco_core::engine::CompressionEngine): every
    /// streaming pass and selection shards its per-element work across the
    /// workers while fixed overheads (kernel launches, fork/join) remain
    /// serial — the Amdahl profile the engine's chunked primitives exhibit on
    /// real hosts. `workers = 1` reproduces
    /// [`compression_time`](Self::compression_time) exactly.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn compression_time_with_workers(
        &self,
        kind: CompressorKind,
        dim: usize,
        delta: f64,
        stages: usize,
        workers: usize,
    ) -> f64 {
        assert!(workers >= 1, "the engine needs at least one worker");
        let d = dim as f64;
        let w = workers;
        match kind {
            CompressorKind::None => 0.0,
            // Exact Top-k over the full gradient.
            CompressorKind::TopK => self.select_with(dim, w),
            // Draw k random indices and gather them (too little work to shard).
            CompressorKind::RandomK => {
                self.pass_fixed + self.pass_cost * (delta * d).max(1.0) * 4.0
            }
            // Sample 1%, select the sample's top, scan the full gradient, and
            // hierarchically re-select the survivors (~2·k of them).
            CompressorKind::Dgc => {
                let sample = (dim / 100).max(256).min(dim);
                let survivors = projected_survivors(2.0 * delta, dim);
                self.select_with(sample, w)
                    + self.select_with(survivors, w)
                    + 2.0 * self.pass_with(dim, w)
            }
            // Max/mean interpolation search: a handful of scan-and-count passes.
            CompressorKind::RedSync => 7.0 * self.pass_with(dim, w),
            // Two moment passes plus a few threshold-adjustment scans.
            CompressorKind::GaussianKSgd => 4.0 * self.pass_with(dim, w),
            // One full fitting pass, then peaks-over-threshold refits over the
            // geometrically shrinking exceedance set, then the selection scan.
            CompressorKind::Sidco(_) => {
                let stages = stages.max(1);
                // The first-stage ratio δ₁ bounds every refit's input.
                // INVARIANT: `s < stages` and stage counts are tiny (≤ 64 by
                // construction), so the usize→i32 exponent cast cannot wrap.
                let refit_elements: f64 = (1..stages)
                    .map(|s| d * FIRST_STAGE_RATIO.powi(s as i32))
                    .sum();
                self.pass_with(dim, w)
                    + self.pass_cost * refit_elements / w as f64
                    + self.pass_with(dim, w)
                    + self.pass_fixed * (stages - 1) as f64
            }
        }
    }

    /// Modelled multi-thread speed-up of `kind` at `workers` engine threads
    /// over the single-threaded engine (≥ 1, ≤ `workers`, saturating per
    /// Amdahl as the serial fixed costs start to dominate).
    pub fn engine_speedup(
        &self,
        kind: CompressorKind,
        dim: usize,
        delta: f64,
        stages: usize,
        workers: usize,
    ) -> f64 {
        let parallel = self.compression_time_with_workers(kind, dim, delta, stages, workers);
        if parallel <= 0.0 {
            return 1.0;
        }
        self.compression_time(kind, dim, delta, stages) / parallel
    }

    /// Modelled compression speed-up of `kind` over exact Top-k (Figures 1a/b,
    /// 14 and 16). Top-k itself scores 1.
    pub fn speedup_over_topk(
        &self,
        kind: CompressorKind,
        dim: usize,
        delta: f64,
        stages: usize,
    ) -> f64 {
        let own = self.compression_time(kind, dim, delta, stages);
        if own <= 0.0 {
            return f64::INFINITY;
        }
        self.compression_time(CompressorKind::TopK, dim, delta, 1) / own
    }
}

/// Number of elements a selection stage at ratio `ratio` keeps out of `dim`,
/// at least one. Guarded in the `projected_payload_bytes` style: a NaN or
/// negative ratio panics instead of the bare `as` cast silently saturating it
/// to a zero-element (free) stage.
///
/// # Panics
///
/// Panics if `ratio` is NaN or negative.
fn projected_survivors(ratio: f64, dim: usize) -> usize {
    assert!(
        !ratio.is_nan() && ratio >= 0.0,
        "selection ratio must be non-negative, got {ratio}"
    );
    // INVARIANT: the product is finite and non-negative here, and `dim`
    // bounds it, so the cast cannot saturate.
    ((ratio * dim as f64) as usize).clamp(1, dim.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sidco_stats::fit::SidKind;

    const DIM: usize = 14_982_987; // VGG16

    #[test]
    fn device_labels() {
        assert_eq!(ComputeDevice::Gpu.to_string(), "GPU");
        assert_eq!(ComputeDevice::Cpu.to_string(), "CPU");
        assert_eq!(
            DeviceProfile::for_device(ComputeDevice::Cpu).device,
            ComputeDevice::Cpu
        );
    }

    #[test]
    fn sidco_beats_dgc_beats_topk_on_gpu() {
        let gpu = DeviceProfile::gpu();
        let sidco =
            gpu.compression_time(CompressorKind::Sidco(SidKind::Exponential), DIM, 0.001, 2);
        let dgc = gpu.compression_time(CompressorKind::Dgc, DIM, 0.001, 1);
        let topk = gpu.compression_time(CompressorKind::TopK, DIM, 0.001, 1);
        assert!(sidco < dgc, "SIDCo {sidco} should beat DGC {dgc}");
        assert!(dgc < topk, "DGC {dgc} should beat Top-k {topk}");
    }

    #[test]
    fn gpu_speedups_match_paper_regime() {
        let gpu = DeviceProfile::gpu();
        let s = gpu.speedup_over_topk(CompressorKind::Sidco(SidKind::Exponential), DIM, 0.001, 2);
        assert!(
            s > 10.0 && s < 500.0,
            "GPU SIDCo speed-up {s} outside the paper's regime"
        );
        let s_dgc = gpu.speedup_over_topk(CompressorKind::Dgc, DIM, 0.001, 1);
        assert!(
            s_dgc > 1.0 && s_dgc < s,
            "DGC {s_dgc} should sit between Top-k and SIDCo {s}"
        );
        assert_eq!(
            gpu.speedup_over_topk(CompressorKind::TopK, DIM, 0.001, 1),
            1.0
        );
    }

    #[test]
    fn cpu_speedups_are_modest() {
        let cpu = DeviceProfile::cpu();
        let s = cpu.speedup_over_topk(CompressorKind::Sidco(SidKind::Exponential), DIM, 0.001, 2);
        assert!(
            s > 1.0 && s < 10.0,
            "CPU SIDCo speed-up {s} should be modest"
        );
    }

    #[test]
    fn more_stages_cost_more_but_sublinearly() {
        let gpu = DeviceProfile::gpu();
        let one = gpu.compression_time(CompressorKind::Sidco(SidKind::Exponential), DIM, 0.001, 1);
        let four = gpu.compression_time(CompressorKind::Sidco(SidKind::Exponential), DIM, 0.001, 4);
        assert!(four > one);
        assert!(
            four < 2.0 * one,
            "PoT refits shrink geometrically: {one} -> {four}"
        );
    }

    #[test]
    fn none_is_free() {
        assert_eq!(
            DeviceProfile::gpu().compression_time(CompressorKind::None, DIM, 1.0, 1),
            0.0
        );
        assert_eq!(
            DeviceProfile::gpu().engine_speedup(CompressorKind::None, DIM, 1.0, 1, 8),
            1.0
        );
    }

    #[test]
    fn one_engine_worker_reproduces_the_serial_model_exactly() {
        let kinds = [
            CompressorKind::TopK,
            CompressorKind::RandomK,
            CompressorKind::Dgc,
            CompressorKind::RedSync,
            CompressorKind::GaussianKSgd,
            CompressorKind::Sidco(SidKind::Exponential),
        ];
        for profile in [DeviceProfile::gpu(), DeviceProfile::cpu()] {
            for kind in kinds {
                assert_eq!(
                    profile.compression_time(kind, DIM, 0.001, 2),
                    profile.compression_time_with_workers(kind, DIM, 0.001, 2, 1),
                    "{kind:?} on {}",
                    profile.device
                );
            }
        }
    }

    #[test]
    fn engine_speedup_is_monotone_bounded_and_saturating() {
        let cpu = DeviceProfile::cpu();
        let kind = CompressorKind::Sidco(SidKind::Exponential);
        let mut previous = 1.0;
        for workers in [1usize, 2, 4, 8, 16] {
            let speedup = cpu.engine_speedup(kind, DIM, 0.001, 2, workers);
            assert!(
                speedup >= previous - 1e-12,
                "speed-up must not drop: {previous} -> {speedup} at {workers}"
            );
            assert!(
                speedup <= workers as f64 + 1e-12,
                "speed-up {speedup} cannot exceed {workers} workers"
            );
            previous = speedup;
        }
        // Amdahl: the marginal gain of doubling shrinks.
        let s2 = cpu.engine_speedup(kind, DIM, 0.001, 2, 2);
        let s4 = cpu.engine_speedup(kind, DIM, 0.001, 2, 4);
        let s8 = cpu.engine_speedup(kind, DIM, 0.001, 2, 8);
        assert!(s4 / s2 <= s2 / 1.0 + 1e-12);
        assert!(s8 / s4 <= s4 / s2 + 1e-12);
    }

    #[test]
    fn gpu_topk_saturates_on_its_fixed_kernel_cost() {
        // The GPU's 3ms selection kernel is serial: even at a tiny dimension
        // and many workers the speed-up stays near 1.
        let gpu = DeviceProfile::gpu();
        let speedup = gpu.engine_speedup(CompressorKind::TopK, 10_000, 0.01, 1, 64);
        assert!(
            speedup < 1.2,
            "fixed kernel cost should cap the speed-up, got {speedup}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn rejects_zero_engine_workers() {
        DeviceProfile::cpu().compression_time_with_workers(CompressorKind::TopK, 1, 0.1, 1, 0);
    }
}
