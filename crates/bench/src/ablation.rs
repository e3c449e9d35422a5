//! Ablations of SIDCo's design choices (DESIGN.md §5).
//!
//! * number of estimation stages at an aggressive ratio;
//! * sensitivity to the first-stage ratio δ₁;
//! * stage-adaptation window `Q` and tolerance ε;
//! * gamma fitting: Minka closed form vs exact MLE vs exact quantile;
//! * peaks-over-threshold refit vs naive reuse of the first-stage fit.

use crate::report::{fmt, Table};
use crate::Scale;
use sidco_core::sidco::{SidcoCompressor, SidcoConfig};
use sidco_core::Compressor;
use sidco_models::synthetic::{GradientProfile, SyntheticGradientGenerator};
use sidco_stats::fit::{exponential_threshold, gamma_threshold, gamma_threshold_exact, SidKind};
use sidco_stats::pot::multi_stage_threshold;
use sidco_tensor::threshold::count_above_threshold;
use std::time::Instant;

fn gradient(profile: GradientProfile, dim: usize, seed: u64) -> Vec<f32> {
    let mut generator = SyntheticGradientGenerator::new(dim, profile, seed);
    generator.gradient(3_000).into_vec()
}

fn achieved(grad: &[f32], threshold: f64) -> f64 {
    count_above_threshold(grad, threshold) as f64 / grad.len() as f64
}

/// Ablation: single-stage vs multi-stage estimation across SIDs and tail profiles,
/// at δ = 0.001.
pub fn stages(scale: Scale) -> String {
    let dim = scale.pick(200_000, 1_000_000);
    let delta = 0.001;
    let mut table = Table::new(
        "Ablation — estimation stages at δ = 0.001 (achieved/target ratio)",
        &["profile", "SID", "M=1", "M=2", "M=3", "M=4"],
    );
    for profile in [
        GradientProfile::LaplaceLike,
        GradientProfile::SparseGamma,
        GradientProfile::HeavyTail,
        GradientProfile::Gaussian,
    ] {
        let grad = gradient(profile, dim, 31);
        for sid in SidKind::ALL {
            let mut cells = vec![profile.to_string(), sid.to_string()];
            for stages in 1..=4 {
                match multi_stage_threshold(&grad, sid, delta, 0.25, stages) {
                    Ok(est) => {
                        cells.push(fmt(achieved(&grad, est.final_threshold()) / delta));
                    }
                    Err(_) => cells.push("-".to_string()),
                }
            }
            table.row(&cells);
        }
    }
    let out = table.render();
    println!("{out}");
    out
}

/// Ablation: sensitivity of the two-stage estimator to the first-stage ratio δ₁.
pub fn delta1(scale: Scale) -> String {
    let dim = scale.pick(200_000, 1_000_000);
    let delta = 0.001;
    let grad = gradient(GradientProfile::SparseGamma, dim, 37);
    let mut table = Table::new(
        "Ablation — first-stage ratio δ₁ (two-stage SIDCo-E, δ = 0.001)",
        &["δ₁", "achieved/target", "threshold"],
    );
    for &d1 in &[0.05, 0.1, 0.25, 0.5, 0.75] {
        let est = multi_stage_threshold(&grad, SidKind::Exponential, delta, d1, 2)
            // INVARIANT: synthetic gradients are dense and non-constant, so
            // threshold estimation cannot degenerate.
            .expect("non-degenerate gradient");
        table.row(&[
            d1.to_string(),
            fmt(achieved(&grad, est.final_threshold()) / delta),
            fmt(est.final_threshold()),
        ]);
    }
    let out = table.render();
    println!("{out}");
    out
}

/// Ablation: stage-adaptation window `Q` and tolerance ε — how fast the controller
/// settles and where it lands.
pub fn adaptation(scale: Scale) -> String {
    let dim = scale.pick(150_000, 600_000);
    let delta = 0.001;
    let iterations = scale.pick(30, 100);
    let mut table = Table::new(
        "Ablation — stage-adaptation window Q and tolerance ε (SIDCo-E, heavy-tail, δ = 0.001)",
        &[
            "Q",
            "ε",
            "final stages M",
            "mean k̂/k (last half)",
            "iterations",
        ],
    );
    let mut generator = SyntheticGradientGenerator::new(dim, GradientProfile::HeavyTail, 41);
    let grads: Vec<Vec<f32>> = (0..iterations)
        .map(|i| generator.gradient(i as u64 * 20).into_vec())
        .collect();
    for &q in &[1usize, 5, 20] {
        for &eps in &[0.1f64, 0.2, 0.4] {
            let config = SidcoConfig {
                adaptation_period: q,
                epsilon_high: eps,
                epsilon_low: eps,
                ..SidcoConfig::exponential()
            };
            let mut compressor = SidcoCompressor::new(config);
            let mut late_ratios = Vec::new();
            for (i, grad) in grads.iter().enumerate() {
                let result = compressor.compress(grad, delta);
                if i >= grads.len() / 2 {
                    late_ratios.push(result.achieved_ratio() / delta);
                }
            }
            let mean_late = late_ratios.iter().sum::<f64>() / late_ratios.len().max(1) as f64;
            table.row(&[
                q.to_string(),
                eps.to_string(),
                compressor.current_stages().to_string(),
                fmt(mean_late),
                iterations.to_string(),
            ]);
        }
    }
    let out = table.render();
    println!("{out}");
    out
}

/// Ablation: gamma threshold — Minka closed-form approximation vs the exact inverse
/// incomplete-gamma quantile, in accuracy (stdout) and host cost (stderr, so
/// stdout depends on no host property).
pub fn gamma_fit(scale: Scale) -> String {
    let dim = scale.pick(200_000, 1_000_000);
    let grad = gradient(GradientProfile::SparseGamma, dim, 43);
    let mut accuracy = Table::new(
        "Ablation — gamma threshold: closed form vs exact quantile",
        &["δ", "closed-form η", "exact η", "rel. diff"],
    );
    let mut cost = Table::new(
        "Ablation — gamma threshold: measured host cost",
        &["δ", "closed-form µs", "exact µs"],
    );
    for &delta in &[0.1, 0.01, 0.001] {
        let start = Instant::now();
        let approx = gamma_threshold(&grad, delta);
        let t_approx = start.elapsed().as_secs_f64() * 1e6;
        let start = Instant::now();
        let exact = gamma_threshold_exact(&grad, delta);
        let t_exact = start.elapsed().as_secs_f64() * 1e6;
        accuracy.row(&[
            delta.to_string(),
            fmt(approx),
            fmt(exact),
            fmt((approx - exact).abs() / exact.max(1e-30)),
        ]);
        cost.row(&[delta.to_string(), fmt(t_approx), fmt(t_exact)]);
    }
    let (accuracy, cost) = (accuracy.render(), cost.render());
    println!("{accuracy}");
    eprintln!("{cost}");
    format!("{accuracy}\n{cost}")
}

/// Ablation: the peaks-over-threshold refit vs naively extrapolating the first-stage
/// exponential fit to the final ratio (what a single-stage estimator does).
pub fn pot_refit(scale: Scale) -> String {
    let dim = scale.pick(200_000, 1_000_000);
    let delta = 0.001;
    let mut table = Table::new(
        "Ablation — PoT refit vs single-stage extrapolation (δ = 0.001, achieved/target)",
        &["profile", "single-stage", "PoT 3-stage"],
    );
    for profile in [
        GradientProfile::LaplaceLike,
        GradientProfile::SparseGamma,
        GradientProfile::HeavyTail,
        GradientProfile::Gaussian,
    ] {
        let grad = gradient(profile, dim, 47);
        let single = exponential_threshold(&grad, delta);
        let multi = multi_stage_threshold(&grad, SidKind::Exponential, delta, 0.25, 3)
            // INVARIANT: synthetic gradients are dense and non-constant, so
            // threshold estimation cannot degenerate.
            .expect("non-degenerate gradient");
        table.row(&[
            profile.to_string(),
            fmt(achieved(&grad, single) / delta),
            fmt(achieved(&grad, multi.final_threshold()) / delta),
        ]);
    }
    let out = table.render();
    println!("{out}");
    out
}

/// Runs every ablation.
pub fn all(scale: Scale) -> String {
    let mut out = String::new();
    out.push_str(&stages(scale));
    out.push('\n');
    out.push_str(&delta1(scale));
    out.push('\n');
    out.push_str(&adaptation(scale));
    out.push('\n');
    out.push_str(&gamma_fit(scale));
    out.push('\n');
    out.push_str(&pot_refit(scale));
    out
}

/// Convenience used by the binary to make SIDCo a little more observable: runs one
/// compression and reports the per-stage thresholds.
pub fn describe_stages(delta: f64) -> String {
    let grad = gradient(GradientProfile::SparseGamma, 200_000, 53);
    let mut compressor = SidcoCompressor::new(SidcoConfig::exponential());
    for _ in 0..10 {
        compressor.compress(&grad, delta);
    }
    let est = compressor
        .estimate_threshold(&grad, delta)
        // INVARIANT: synthetic gradients are dense and non-constant, so
        // threshold estimation cannot degenerate.
        .expect("non-degenerate gradient");
    let mut table = Table::new(
        format!("SIDCo-E stage thresholds at δ = {delta}"),
        &["stage", "stage δ", "threshold", "survivors"],
    );
    for (i, ((eta, stage_delta), survivors)) in est
        .thresholds
        .iter()
        .zip(&est.schedule)
        .zip(&est.survivors)
        .enumerate()
    {
        table.row(&[
            (i + 1).to_string(),
            fmt(*stage_delta),
            fmt(*eta),
            survivors.to_string(),
        ]);
    }
    let out = table.render();
    println!("{out}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_ablation_shows_multi_stage_helps_on_heavy_tails() {
        let out = stages(Scale::Quick);
        assert!(out.contains("heavy-tail"));
        assert!(out.contains("M=4"));
    }

    #[test]
    fn gamma_fit_ablation_reports_costs() {
        let out = gamma_fit(Scale::Quick);
        assert!(out.contains("closed-form"));
        assert!(out.contains("exact µs"));
    }

    #[test]
    fn pot_ablation_and_stage_description() {
        let out = pot_refit(Scale::Quick);
        assert!(out.contains("single-stage"));
        let out = describe_stages(0.001);
        assert!(out.contains("stage"));
    }
}
