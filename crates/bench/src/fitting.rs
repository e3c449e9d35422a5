//! Distribution-fitting and compressibility experiments (Figures 2, 7 and 8).
//!
//! Figures 2 and 8 report the fit SIDCo itself computes:
//! [`fit_sid_from_moments`] over the gradient's [`AbsMoments`], the same
//! estimator every compression stage runs, turned into the signed
//! distribution only to evaluate its density and the KS distance of |g|.

use crate::report::{fmt, Table};
use crate::Scale;
use sidco_core::error_feedback::ErrorFeedback;
use sidco_core::topk::TopKCompressor;
use sidco_models::synthetic::{GradientProfile, SyntheticGradientGenerator};
use sidco_stats::empirical::{pdf_fit_error, EmpiricalCdf, Histogram};
use sidco_stats::fit::{fit_sid_from_moments, FittedSid, SidKind};
use sidco_stats::moments::AbsMoments;
use sidco_stats::{Continuous, DoubleGamma, DoubleGeneralizedPareto, Laplace};
use sidco_tensor::compressibility;
use sidco_tensor::GradientVector;

/// Builds the gradient snapshot used by the Figure-2/8 style fitting experiments:
/// the ResNet-20-like profile at a given "training iteration", optionally passed
/// through an error-feedback + Top-k loop first (Figure 8 studies the EC case).
fn resnet20_like_gradient(iteration: u64, with_ec: bool, scale: Scale) -> Vec<f32> {
    let dim = scale.pick(60_000, 270_000);
    let mut generator = SyntheticGradientGenerator::new(dim, GradientProfile::SparseGamma, 23);
    if !with_ec {
        return generator.gradient(iteration).into_vec();
    }
    // Replay a few iterations of Top-k + EC so the returned gradient is the
    // *corrected* gradient the compressor would actually see.
    let mut feedback = ErrorFeedback::new(dim);
    let mut compressor = TopKCompressor::new();
    let mut corrected = GradientVector::zeros(dim);
    let start = iteration.saturating_sub(10);
    for i in start..=iteration {
        let grad = generator.gradient(i);
        corrected = feedback.corrected(&grad);
        feedback.compress_with(&mut compressor, &grad, 0.001);
    }
    corrected.into_vec()
}

/// Fits the three SIDs to a gradient exactly as SIDCo does
/// ([`fit_sid_from_moments`] over the gradient's [`AbsMoments`]) and reports
/// per-fit diagnostics: PDF error against the empirical histogram and the
/// Kolmogorov–Smirnov distance of |g|.
fn fit_table(title: &str, grad: &[f32]) -> Table {
    let mut table = Table::new(
        title,
        &[
            "fit",
            "parameters",
            "pdf mean abs err",
            "KS distance of |g|",
        ],
    );
    let moments = AbsMoments::compute(grad);
    let lo = -5.0 * moments.mean;
    let hi = -lo;
    let hist = Histogram::from_f32(grad, lo, hi, 200);
    let abs: Vec<f64> = grad.iter().map(|&x| x.abs() as f64).collect();
    let abs_ecdf = EmpiricalCdf::new(&abs);
    for kind in SidKind::ALL {
        let Ok(fit) = fit_sid_from_moments(&moments, kind) else {
            continue;
        };
        let (name, parameters, diagnostics) = match fit {
            FittedSid::Exponential { scale } => (
                "double exponential",
                format!("β̂={scale:.2e}"),
                Laplace::new(0.0, scale)
                    .map(|d| scores(&hist, &abs_ecdf, &d, &d.abs_distribution())),
            ),
            FittedSid::Gamma { shape, scale } => (
                "double gamma",
                format!("α̂={shape:.3}, β̂={scale:.2e}"),
                DoubleGamma::new(shape, scale)
                    .map(|d| scores(&hist, &abs_ecdf, &d, &d.abs_distribution())),
            ),
            FittedSid::GeneralizedPareto { shape, scale } => (
                "double GP",
                format!("α̂={shape:.3}, β̂={scale:.2e}"),
                DoubleGeneralizedPareto::new(shape, scale)
                    .map(|d| scores(&hist, &abs_ecdf, &d, &d.abs_distribution())),
            ),
        };
        if let Ok([pdf_err, ks]) = diagnostics {
            table.row(&[name.to_string(), parameters, pdf_err, ks]);
        }
    }
    table
}

/// The PDF error of a signed fit against `hist` and the KS distance of its
/// |g| law `abs` from `abs_ecdf`, formatted.
fn scores<S: Continuous, A: Continuous>(
    hist: &Histogram,
    abs_ecdf: &EmpiricalCdf,
    signed: &S,
    abs: &A,
) -> [String; 2] {
    [
        fmt(pdf_fit_error(hist, signed)),
        fmt(abs_ecdf.ks_distance(abs)),
    ]
}

/// Figure 2: SID fits of the ResNet-20-like gradient at an early (100) and late
/// (10000) iteration, without error feedback.
pub fn fig2(scale: Scale) -> String {
    let mut out = String::new();
    for iteration in [100u64, 10_000] {
        let grad = resnet20_like_gradient(iteration, false, scale);
        let table = fit_table(
            &format!("Figure 2 — SID fits at iteration {iteration} (no EC)"),
            &grad,
        );
        out.push_str(&table.render());
        out.push('\n');
    }
    println!("{out}");
    out
}

/// Figure 8: the same fits with the error-feedback mechanism active — fitting gets
/// harder, especially at later iterations.
pub fn fig8(scale: Scale) -> String {
    let mut out = String::new();
    for iteration in [100u64, 10_000] {
        let grad = resnet20_like_gradient(iteration, true, scale);
        let table = fit_table(
            &format!("Figure 8 — SID fits at iteration {iteration} (with EC)"),
            &grad,
        );
        out.push_str(&table.render());
        out.push('\n');
    }
    println!("{out}");
    out
}

/// Figure 7: gradient compressibility — power-law decay of the sorted magnitudes and
/// the best-k sparsification error, at the start, middle and end of training.
pub fn fig7(scale: Scale) -> String {
    let mut out = String::new();
    let mut decay_table = Table::new(
        "Figure 7a — power-law decay of sorted gradient magnitudes",
        &[
            "epoch",
            "decay exponent p",
            "fit R²",
            "compressible (p > 1/2)",
        ],
    );
    let mut sigma_table = Table::new(
        "Figure 7b — best-k sparsification error σ_k / ||g||",
        &["epoch", "k = 1% of d", "k = 10% of d", "k = 50% of d"],
    );
    // Epoch 1, 15 and 30 of the paper's ResNet-20 run. The layered generator models
    // the per-layer magnitude disparity that gives real gradients their power-law
    // sorted profile.
    let dim = scale.pick(60_000, 270_000);
    for (epoch, iteration) in [(1u32, 100u64), (15, 5_000), (30, 10_000)] {
        let mut generator = SyntheticGradientGenerator::new(dim, GradientProfile::SparseGamma, 23);
        let grad = generator.layered_gradient(iteration, 24).into_vec();
        let report = compressibility::analyze(&grad, 0.4);
        decay_table.row(&[
            epoch.to_string(),
            fmt(report.decay_exponent),
            fmt(report.fit_r2),
            report.is_compressible().to_string(),
        ]);
        let d = grad.len();
        sigma_table.row(&[
            epoch.to_string(),
            fmt(report.relative_sparsification_error(d / 100)),
            fmt(report.relative_sparsification_error(d / 10)),
            fmt(report.relative_sparsification_error(d / 2)),
        ]);
    }
    out.push_str(&decay_table.render());
    out.push('\n');
    out.push_str(&sigma_table.render());
    println!("{out}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_fits_all_three_sids_at_both_iterations() {
        let out = fig2(Scale::Quick);
        assert_eq!(out.matches("double exponential").count(), 2);
        assert_eq!(out.matches("double gamma").count(), 2);
        assert_eq!(out.matches("double GP").count(), 2);
        assert!(out.contains("iteration 100"));
        assert!(out.contains("iteration 10000"));
    }

    #[test]
    fn fig7_reports_compressibility() {
        let out = fig7(Scale::Quick);
        assert!(out.contains("Figure 7a"));
        assert!(out.contains("Figure 7b"));
        assert!(
            out.contains("true"),
            "synthetic gradients must be compressible"
        );
    }

    #[test]
    fn fig8_runs_with_error_feedback() {
        let out = fig8(Scale::Quick);
        assert!(out.contains("with EC"));
        assert!(out.contains("double exponential"));
    }
}
