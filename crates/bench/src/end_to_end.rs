//! End-to-end benchmark experiments driven by the Table-1 simulator
//! (Figures 3, 5, 6, 9, 12, 13 and 18).

use crate::report::{fmt, Table};
use crate::Scale;
use sidco_core::compressor::CompressorKind;
use sidco_dist::cluster::ClusterConfig;
use sidco_dist::simulate::{
    normalized_speedup, normalized_throughput, simulate_benchmark, SimulationConfig,
};
use sidco_models::benchmarks::{BenchmarkId, EVALUATED_RATIOS};
use sidco_stats::fit::SidKind;

/// The compressor line-up of the main end-to-end figures.
const MAIN_SCHEMES: [CompressorKind; 5] = [
    CompressorKind::TopK,
    CompressorKind::Dgc,
    CompressorKind::RedSync,
    CompressorKind::GaussianKSgd,
    CompressorKind::Sidco(SidKind::Exponential),
];

/// The all-SIDs line-up of Figure 18.
const ALL_SIDS_SCHEMES: [CompressorKind; 7] = [
    CompressorKind::TopK,
    CompressorKind::Dgc,
    CompressorKind::RedSync,
    CompressorKind::GaussianKSgd,
    CompressorKind::Sidco(SidKind::Exponential),
    CompressorKind::Sidco(SidKind::Gamma),
    CompressorKind::Sidco(SidKind::GeneralizedPareto),
];

fn simulation_config(benchmark: BenchmarkId, scale: Scale) -> SimulationConfig {
    SimulationConfig::for_benchmark(benchmark)
        .with_iterations(scale.pick(15, 60))
        .with_measured_dim(scale.pick(80_000, 500_000))
}

/// Renders the standard speed-up / throughput / estimation-quality block for one
/// benchmark across all schemes and ratios.
fn benchmark_block(
    title: &str,
    benchmark: BenchmarkId,
    cluster: ClusterConfig,
    schemes: &[CompressorKind],
    ratios: &[f64],
    scale: Scale,
) -> String {
    let config = simulation_config(benchmark, scale).with_cluster(cluster.clone());
    let baseline = simulate_benchmark(&config, CompressorKind::None, 1.0);
    let mut table = Table::new(
        title,
        &[
            "scheme",
            "δ",
            "speed-up ×",
            "throughput ×",
            "k̂/k mean",
            "k̂/k std",
            "iter time (s)",
        ],
    );
    for &kind in schemes {
        for &delta in ratios {
            let result = simulate_benchmark(&config, kind, delta);
            let quality = result.estimation_quality();
            table.row(&[
                kind.label().to_string(),
                delta.to_string(),
                fmt(normalized_speedup(&result, &baseline)),
                fmt(normalized_throughput(&result, &baseline)),
                fmt(quality.mean_normalized_ratio),
                fmt(quality.std_normalized_ratio),
                fmt(result.mean_iteration_time(3)),
            ]);
        }
    }
    let mut out = table.render();
    out.push_str(&format!(
        "baseline ({}): iter time {} s, comm fraction {}\n\n",
        benchmark,
        fmt(baseline.mean_iteration_time(3)),
        fmt(baseline.timing.timings()[0].communication_fraction()),
    ));
    out
}

/// Figure 3: LSTM-PTB and LSTM-AN4 — training speed-up, throughput and estimation
/// quality at δ ∈ {0.1, 0.01, 0.001}.
pub fn fig3(scale: Scale) -> String {
    let mut out = String::new();
    for (benchmark, label) in [
        (BenchmarkId::LstmPtb, "Figure 3(a-c) — LSTM on PTB"),
        (BenchmarkId::LstmAn4, "Figure 3(d-f) — LSTM on AN4"),
    ] {
        out.push_str(&benchmark_block(
            label,
            benchmark,
            ClusterConfig::paper_dedicated(),
            &MAIN_SCHEMES,
            &EVALUATED_RATIOS,
            scale,
        ));
    }
    println!("{out}");
    out
}

/// Figure 5: ResNet20 and VGG16 on CIFAR-10.
pub fn fig5(scale: Scale) -> String {
    let mut out = String::new();
    for (benchmark, label) in [
        (
            BenchmarkId::ResNet20Cifar10,
            "Figure 5(a,b) — ResNet20 on CIFAR-10",
        ),
        (BenchmarkId::Vgg16Cifar10, "Figure 5(c) — VGG16 on CIFAR-10"),
    ] {
        out.push_str(&benchmark_block(
            label,
            benchmark,
            ClusterConfig::paper_dedicated(),
            &MAIN_SCHEMES,
            &EVALUATED_RATIOS,
            scale,
        ));
    }
    println!("{out}");
    out
}

/// Figure 6: ResNet50 and VGG19 on ImageNet (VGG19 only at δ = 0.001, as in the
/// paper).
pub fn fig6(scale: Scale) -> String {
    let mut out = String::new();
    out.push_str(&benchmark_block(
        "Figure 6(a-c) — ResNet50 on ImageNet",
        BenchmarkId::ResNet50ImageNet,
        ClusterConfig::paper_dedicated(),
        &MAIN_SCHEMES,
        &EVALUATED_RATIOS,
        scale,
    ));
    out.push_str(&benchmark_block(
        "Figure 6(d-f) — VGG19 on ImageNet",
        BenchmarkId::Vgg19ImageNet,
        ClusterConfig::paper_dedicated(),
        &MAIN_SCHEMES,
        &[0.001],
        scale,
    ));
    println!("{out}");
    out
}

/// Figure 9: smoothed (running-average) achieved compression ratio over the run,
/// for every benchmark and ratio.
pub fn fig9(scale: Scale) -> String {
    let mut out = String::new();
    let window = 5;
    for benchmark in BenchmarkId::ALL {
        let config = simulation_config(benchmark, scale);
        for &delta in &EVALUATED_RATIOS {
            let mut table = Table::new(
                format!("Figure 9 — smoothed achieved ratio, {benchmark}, δ = {delta}"),
                &["scheme", "start", "25%", "50%", "75%", "end"],
            );
            for kind in [
                CompressorKind::Dgc,
                CompressorKind::RedSync,
                CompressorKind::GaussianKSgd,
                CompressorKind::Sidco(SidKind::Exponential),
                CompressorKind::Sidco(SidKind::Gamma),
                CompressorKind::Sidco(SidKind::GeneralizedPareto),
            ] {
                let result = simulate_benchmark(&config, kind, delta);
                let series = result.quality.smoothed_history(window);
                let pick = |frac: f64| -> f64 {
                    let idx = ((series.len() - 1) as f64 * frac).round() as usize;
                    series[idx]
                };
                table.row(&[
                    kind.label().to_string(),
                    fmt(pick(0.0)),
                    fmt(pick(0.25)),
                    fmt(pick(0.5)),
                    fmt(pick(0.75)),
                    fmt(pick(1.0)),
                ]);
            }
            out.push_str(&table.render());
            out.push('\n');
        }
    }
    println!("{out}");
    out
}

/// Figure 12: training throughput when the CPU is the compression device
/// (ResNet20, VGG16, LSTM-PTB; Top-k vs DGC vs SIDCo-E).
pub fn fig12(scale: Scale) -> String {
    let mut out = String::new();
    let schemes = [
        CompressorKind::TopK,
        CompressorKind::Dgc,
        CompressorKind::Sidco(SidKind::Exponential),
    ];
    for benchmark in [
        BenchmarkId::ResNet20Cifar10,
        BenchmarkId::Vgg16Cifar10,
        BenchmarkId::LstmPtb,
    ] {
        let cluster = ClusterConfig::paper_cpu_compression();
        let config = simulation_config(benchmark, scale).with_cluster(cluster.clone());
        let mut table = Table::new(
            format!("Figure 12 — {benchmark}, CPU compression device: throughput (samples/s)"),
            &["scheme", "δ=0.1", "δ=0.01", "δ=0.001"],
        );
        for kind in schemes {
            let mut cells = vec![kind.label().to_string()];
            for &delta in &EVALUATED_RATIOS {
                let result = simulate_benchmark(&config, kind, delta);
                cells.push(fmt(result.mean_throughput_samples(cluster.workers, 3)));
            }
            table.row(&cells);
        }
        out.push_str(&table.render());
        out.push('\n');
    }
    println!("{out}");
    out
}

/// Figure 13: full ImageNet training on a single 8-GPU node (100 Gbps InfiniBand) —
/// ResNet50 at δ=0.1 and VGG19 at δ=0.01 with all SIDs.
pub fn fig13(scale: Scale) -> String {
    let mut out = String::new();
    for (benchmark, delta) in [
        (BenchmarkId::ResNet50ImageNet, 0.1),
        (BenchmarkId::Vgg19ImageNet, 0.01),
    ] {
        out.push_str(&benchmark_block(
            &format!("Figure 13 — {benchmark} on the shared 8-GPU node, δ = {delta}"),
            benchmark,
            ClusterConfig::paper_shared_multi_gpu(),
            &ALL_SIDS_SCHEMES,
            &[delta],
            scale,
        ));
    }
    println!("{out}");
    out
}

/// Figure 18: the all-SIDs end-to-end sweep (every benchmark, every ratio, the three
/// SIDCo variants next to the baselines).
pub fn fig18(scale: Scale) -> String {
    let mut out = String::new();
    for benchmark in BenchmarkId::ALL {
        out.push_str(&benchmark_block(
            &format!("Figure 18 — {benchmark}, all SIDs"),
            benchmark,
            ClusterConfig::paper_dedicated(),
            &ALL_SIDS_SCHEMES,
            &EVALUATED_RATIOS,
            scale,
        ));
    }
    println!("{out}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_shows_large_speedup_for_sidco_on_ptb() {
        let out = fig3(Scale::Quick);
        assert!(out.contains("LSTM on PTB"));
        assert!(out.contains("LSTM on AN4"));
        assert!(out.contains("SIDCo-E"));
    }

    #[test]
    fn fig5_and_fig6_cover_cnn_benchmarks() {
        let out5 = fig5(Scale::Quick);
        assert!(out5.contains("ResNet20"));
        assert!(out5.contains("VGG16"));
        let out6 = fig6(Scale::Quick);
        assert!(out6.contains("ResNet50"));
        assert!(out6.contains("VGG19"));
    }

    #[test]
    fn fig12_uses_cpu_device() {
        let out = fig12(Scale::Quick);
        assert!(out.contains("CPU compression device"));
        assert_eq!(out.matches("Figure 12").count(), 3);
    }

    #[test]
    fn fig13_uses_shared_cluster() {
        let out = fig13(Scale::Quick);
        assert!(out.contains("shared 8-GPU node"));
    }
}
