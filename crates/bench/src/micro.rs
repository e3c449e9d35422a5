//! Micro-benchmarks: compression speed-up over Top-k and absolute compression
//! latency (Figures 1, 14, 15, 16, 17).
//!
//! Two complementary measurements are reported:
//!
//! * **modelled** GPU/CPU latencies from the calibrated
//!   [`DeviceProfile`] cost model at the
//!   benchmark's full parameter count (reproducing the figure's y-axes), and
//! * **measured** wall-clock CPU time of this crate's real implementations on a
//!   scaled-down gradient (ground truth for the relative ordering).

use crate::report::{fmt, Table};
use crate::Scale;
use sidco_core::compressor::CompressorKind;
use sidco_dist::device::DeviceProfile;
use sidco_dist::simulate::build_compressor;
use sidco_models::benchmarks::BenchmarkId;
use sidco_models::synthetic::{GradientProfile, SyntheticGradientGenerator};
use sidco_stats::fit::SidKind;
use std::time::Instant;

/// The compressor set shown in Figure 1.
const FIG1_SCHEMES: [CompressorKind; 5] = [
    CompressorKind::TopK,
    CompressorKind::Dgc,
    CompressorKind::RedSync,
    CompressorKind::GaussianKSgd,
    CompressorKind::Sidco(SidKind::Exponential),
];

/// The extended set of Figures 14–17 (all three SIDCo variants).
const EXTENDED_SCHEMES: [CompressorKind; 7] = [
    CompressorKind::TopK,
    CompressorKind::Dgc,
    CompressorKind::RedSync,
    CompressorKind::GaussianKSgd,
    CompressorKind::Sidco(SidKind::Exponential),
    CompressorKind::Sidco(SidKind::Gamma),
    CompressorKind::Sidco(SidKind::GeneralizedPareto),
];

const RATIOS: [f64; 3] = [0.1, 0.01, 0.001];

/// Figure 1: compression speed-up over Top-k on GPU (a) and CPU (b), and threshold
/// estimation quality (c), on a VGG16-sized gradient.
pub fn fig1(scale: Scale) -> String {
    let full_dim = BenchmarkId::Vgg16Cifar10.spec().parameters;
    let measured_dim = scale.pick(200_000, 2_000_000);
    let mut out = String::new();

    for profile in [DeviceProfile::gpu(), DeviceProfile::cpu()] {
        let mut table = Table::new(
            format!(
                "Figure 1{} — compression speed-up over Top-k ({}), VGG16 ({} params)",
                if profile.device == sidco_dist::device::ComputeDevice::Gpu {
                    "a"
                } else {
                    "b"
                },
                profile.device,
                full_dim
            ),
            &["scheme", "δ=0.1", "δ=0.01", "δ=0.001"],
        );
        for kind in FIG1_SCHEMES.iter().skip(1) {
            let mut cells = vec![kind.label().to_string()];
            for &delta in &RATIOS {
                let stages = if matches!(kind, CompressorKind::Sidco(_)) {
                    2
                } else {
                    1
                };
                cells.push(fmt(
                    profile.speedup_over_topk(*kind, full_dim, delta, stages)
                ));
            }
            table.row(&cells);
        }
        out.push_str(&table.render());
        out.push('\n');
    }

    // (c) estimation quality on real synthetic gradients.
    let mut table = Table::new(
        "Figure 1c — normalised achieved compression ratio (k̂/k), VGG16-like gradient",
        &["scheme", "δ=0.1", "δ=0.01", "δ=0.001"],
    );
    let mut generator =
        SyntheticGradientGenerator::new(measured_dim, GradientProfile::SparseGamma, 17);
    let grad = generator.gradient(2_000);
    for kind in FIG1_SCHEMES.iter().skip(1) {
        let mut cells = vec![kind.label().to_string()];
        for &delta in &RATIOS {
            // INVARIANT: the `.skip(1)` above drops CompressorKind::None, the
            // only kind build_compressor rejects.
            let mut compressor = build_compressor(*kind, 0).expect("compressed scheme");
            let mut achieved = 0.0;
            let reps = scale.pick(6, 12);
            for _ in 0..reps {
                achieved = compressor.compress(grad.as_slice(), delta).achieved_ratio();
            }
            cells.push(fmt(achieved / delta));
        }
        table.row(&cells);
    }
    out.push_str(&table.render());
    println!("{out}");
    out
}

/// Figures 14 and 15: per-model compression speed-up over Top-k and absolute
/// latency, for ResNet20, VGG16, ResNet50 and the PTB LSTM, on both devices.
pub fn fig14_15(_scale: Scale) -> String {
    let models = [
        BenchmarkId::ResNet20Cifar10,
        BenchmarkId::Vgg16Cifar10,
        BenchmarkId::ResNet50ImageNet,
        BenchmarkId::LstmPtb,
    ];
    let mut out = String::new();
    for profile in [DeviceProfile::gpu(), DeviceProfile::cpu()] {
        for benchmark in models {
            let dim = benchmark.spec().parameters;
            let mut table = Table::new(
                format!(
                    "Figures 14/15 — {} on {} ({} params): speed-up over Top-k | latency (ms)",
                    benchmark, profile.device, dim
                ),
                &["scheme", "δ", "speed-up ×", "latency (ms)"],
            );
            for kind in EXTENDED_SCHEMES {
                for &delta in &RATIOS {
                    let stages = if matches!(kind, CompressorKind::Sidco(_)) {
                        2
                    } else {
                        1
                    };
                    let latency = profile.compression_time(kind, dim, delta, stages) * 1e3;
                    let speedup = profile.speedup_over_topk(kind, dim, delta, stages);
                    table.row(&[
                        kind.label().to_string(),
                        delta.to_string(),
                        fmt(speedup),
                        fmt(latency),
                    ]);
                }
            }
            out.push_str(&table.render());
            out.push('\n');
        }
    }
    println!("{out}");
    out
}

/// Figures 16 and 17: synthetic tensors of 0.26M–260M elements — modelled speed-up
/// and latency per device (stdout), plus measured CPU wall-clock on the sizes
/// that fit a quick run (stderr, so stdout depends on no host property).
pub fn fig16_17(scale: Scale) -> String {
    let sizes: &[usize] = &[260_000, 2_600_000, 26_000_000, 260_000_000];
    let measured_cap = scale.pick(500_000, 5_000_000);
    let mut out = String::new();

    for profile in [DeviceProfile::gpu(), DeviceProfile::cpu()] {
        let mut table = Table::new(
            format!(
                "Figures 16/17 — synthetic tensors on {} (modelled)",
                profile.device
            ),
            &["elements", "scheme", "δ", "speed-up ×", "latency (ms)"],
        );
        for &size in sizes {
            for kind in EXTENDED_SCHEMES {
                for &delta in &RATIOS {
                    let stages = if matches!(kind, CompressorKind::Sidco(_)) {
                        2
                    } else {
                        1
                    };
                    table.row(&[
                        size.to_string(),
                        kind.label().to_string(),
                        delta.to_string(),
                        fmt(profile.speedup_over_topk(kind, size, delta, stages)),
                        fmt(profile.compression_time(kind, size, delta, stages) * 1e3),
                    ]);
                }
            }
        }
        out.push_str(&table.render());
        out.push('\n');
    }

    // Measured wall-clock CPU numbers on the sizes that are fast enough to run here.
    let mut table = Table::new(
        "Figures 16/17 — measured CPU wall-clock of this implementation",
        &[
            "elements",
            "scheme",
            "δ",
            "measured (ms)",
            "speed-up over Topk ×",
        ],
    );
    for &size in sizes.iter().filter(|&&s| s <= measured_cap) {
        let mut generator = SyntheticGradientGenerator::new(size, GradientProfile::LaplaceLike, 5);
        let grad = generator.gradient(500);
        for &delta in &[0.001f64] {
            let mut topk_ms = f64::NAN;
            for kind in [
                CompressorKind::TopK,
                CompressorKind::Dgc,
                CompressorKind::RedSync,
                CompressorKind::GaussianKSgd,
                CompressorKind::Sidco(SidKind::Exponential),
            ] {
                // INVARIANT: the list above never contains
                // CompressorKind::None, the only kind build_compressor rejects.
                let mut compressor = build_compressor(kind, 0).expect("compressed scheme");
                compressor.compress(grad.as_slice(), delta);
                let start = Instant::now();
                compressor.compress(grad.as_slice(), delta);
                let ms = start.elapsed().as_secs_f64() * 1e3;
                if kind == CompressorKind::TopK {
                    topk_ms = ms;
                }
                table.row(&[
                    size.to_string(),
                    kind.label().to_string(),
                    delta.to_string(),
                    fmt(ms),
                    fmt(topk_ms / ms),
                ]);
            }
        }
    }
    println!("{out}");
    let measured = table.render();
    eprintln!("{measured}");
    out.push_str(&measured);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_reports_expected_orderings() {
        let out = fig1(Scale::Quick);
        assert!(out.contains("Figure 1a"));
        assert!(out.contains("Figure 1b"));
        assert!(out.contains("Figure 1c"));
        assert!(out.contains("SIDCo-E"));
        assert!(out.contains("DGC"));
    }

    #[test]
    fn fig14_15_covers_four_models_and_two_devices() {
        let out = fig14_15(Scale::Quick);
        assert_eq!(out.matches("Figures 14/15").count(), 8);
        assert!(out.contains("LSTM-PTB"));
        assert!(out.contains("SIDCo-P"));
    }

    #[test]
    fn fig16_17_covers_all_sizes() {
        let out = fig16_17(Scale::Quick);
        assert!(out.contains("260000000"));
        assert!(out.contains("measured CPU wall-clock"));
    }
}
