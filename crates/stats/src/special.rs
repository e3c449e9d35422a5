//! Special functions required by the sparsity-inducing distributions.
//!
//! Everything here is implemented from first principles (Lanczos approximation,
//! continued fractions, series expansions) so the crate has no numerical
//! dependencies. Accuracy targets are ~1e-10 relative error for `ln_gamma`, and
//! ~1e-8 for the incomplete gamma family, which is far tighter than the threshold
//! estimation in the paper requires.

/// Natural logarithm of the gamma function, `ln Γ(x)`, for `x > 0`.
///
/// Uses the Lanczos approximation with g = 7 and 9 coefficients.
///
/// # Panics
///
/// Panics in debug builds if `x` is not finite and positive.
///
/// # Example
///
/// ```
/// use sidco_stats::special::ln_gamma;
/// // Γ(5) = 24
/// assert!((ln_gamma(5.0) - 24.0f64.ln()).abs() < 1e-12);
/// ```
pub fn ln_gamma(x: f64) -> f64 {
    debug_assert!(x > 0.0 && x.is_finite(), "ln_gamma requires x > 0, got {x}");
    // Lanczos coefficients for g = 7, n = 9.
    const G: f64 = 7.0;
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula: Γ(x)Γ(1-x) = π / sin(πx)
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEFFS[0];
    let t = x + G + 0.5;
    for (i, &c) in COEFFS.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// The gamma function `Γ(x)` for `x > 0`.
///
/// # Example
///
/// ```
/// use sidco_stats::special::gamma;
/// assert!((gamma(4.0) - 6.0).abs() < 1e-9);
/// ```
pub fn gamma(x: f64) -> f64 {
    ln_gamma(x).exp()
}

/// The complementary error function `erfc(x) = 1 - erf(x)`.
///
/// Uses `Q(1/2, x²)` for positive arguments so the far tail keeps full relative
/// accuracy (important for the aggressive compression ratios where the Gaussian
/// baseline operates at the 99.95th percentile).
pub fn erfc(x: f64) -> f64 {
    if x == 0.0 {
        return 1.0;
    }
    if x > 0.0 {
        reg_upper_gamma(0.5, x * x)
    } else {
        1.0 + reg_lower_gamma(0.5, x * x)
    }
}

/// Standard normal cumulative distribution function `Φ(x)`.
pub fn std_normal_cdf(x: f64) -> f64 {
    0.5 * erfc(-x / std::f64::consts::SQRT_2)
}

/// Inverse of the standard normal CDF (the probit function), `Φ⁻¹(p)` for `p ∈ (0, 1)`.
///
/// Acklam's rational approximation followed by one step of Halley refinement,
/// giving ~1e-9 absolute accuracy.
///
/// # Panics
///
/// Panics in debug builds if `p` is outside `(0, 1)`.
pub fn std_normal_quantile(p: f64) -> f64 {
    debug_assert!(p > 0.0 && p < 1.0, "probit requires p in (0,1), got {p}");
    // Coefficients for Acklam's approximation.
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.02425;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };

    // One Halley refinement step.
    let e = std_normal_cdf(x) - p;
    let u = e * (2.0 * std::f64::consts::PI).sqrt() * (x * x / 2.0).exp();
    x - u / (1.0 + x * u / 2.0)
}

/// Regularized lower incomplete gamma function `P(a, x) = γ(a, x) / Γ(a)`.
///
/// Series expansion for `x < a + 1`, continued fraction otherwise
/// (Numerical Recipes `gammp`).
///
/// # Panics
///
/// Panics in debug builds if `a <= 0` or `x < 0`.
pub fn reg_lower_gamma(a: f64, x: f64) -> f64 {
    debug_assert!(a > 0.0, "reg_lower_gamma requires a > 0, got {a}");
    debug_assert!(x >= 0.0, "reg_lower_gamma requires x >= 0, got {x}");
    if x == 0.0 {
        return 0.0;
    }
    if x < a + 1.0 {
        lower_gamma_series(a, x)
    } else {
        1.0 - upper_gamma_cf(a, x)
    }
}

/// Regularized upper incomplete gamma function `Q(a, x) = 1 - P(a, x)`.
pub fn reg_upper_gamma(a: f64, x: f64) -> f64 {
    debug_assert!(a > 0.0, "reg_upper_gamma requires a > 0, got {a}");
    debug_assert!(x >= 0.0, "reg_upper_gamma requires x >= 0, got {x}");
    if x == 0.0 {
        return 1.0;
    }
    if x < a + 1.0 {
        1.0 - lower_gamma_series(a, x)
    } else {
        upper_gamma_cf(a, x)
    }
}

/// Series representation of `P(a, x)`, converges quickly for `x < a + 1`.
fn lower_gamma_series(a: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 500;
    const EPS: f64 = 1e-14;
    let mut ap = a;
    let mut sum = 1.0 / a;
    let mut del = sum;
    for _ in 0..MAX_ITER {
        ap += 1.0;
        del *= x / ap;
        sum += del;
        if del.abs() < sum.abs() * EPS {
            break;
        }
    }
    sum * (-x + a * x.ln() - ln_gamma(a)).exp()
}

/// Continued-fraction representation of `Q(a, x)` (modified Lentz), for `x >= a + 1`.
fn upper_gamma_cf(a: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 500;
    const EPS: f64 = 1e-14;
    const FPMIN: f64 = 1e-300;
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / FPMIN;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..=MAX_ITER {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = b + an / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    (-x + a * x.ln() - ln_gamma(a)).exp() * h
}

/// Inverse of the regularized lower incomplete gamma function:
/// finds `x` such that `P(a, x) = p`.
///
/// Initial guess from Wilson–Hilferty / series bounds, refined with Halley's
/// method (Numerical Recipes `invgammp`).
///
/// # Panics
///
/// Panics in debug builds if `a <= 0` or `p` is outside `[0, 1)`.
pub fn inv_reg_lower_gamma(a: f64, p: f64) -> f64 {
    debug_assert!(a > 0.0, "inv_reg_lower_gamma requires a > 0, got {a}");
    debug_assert!(
        (0.0..1.0).contains(&p),
        "inv_reg_lower_gamma requires p in [0,1), got {p}"
    );
    if p <= 0.0 {
        return 0.0;
    }
    let gln = ln_gamma(a);
    let a1 = a - 1.0;
    let lna1 = if a > 1.0 { a1.ln() } else { 0.0 };
    let afac = if a > 1.0 {
        (a1 * (lna1 - 1.0) - gln).exp()
    } else {
        0.0
    };

    // Initial guess.
    let mut x = if a > 1.0 {
        let pp = if p < 0.5 { p } else { 1.0 - p };
        let t = (-2.0 * pp.ln()).sqrt();
        let mut x0 = (2.30753 + t * 0.27061) / (1.0 + t * (0.99229 + t * 0.04481)) - t;
        if p < 0.5 {
            x0 = -x0;
        }
        (a * (1.0 - 1.0 / (9.0 * a) - x0 / (3.0 * a.sqrt())).powi(3)).max(1e-300)
    } else {
        let t = 1.0 - a * (0.253 + a * 0.12);
        if p < t {
            (p / t).powf(1.0 / a)
        } else {
            1.0 - (1.0 - (p - t) / (1.0 - t)).ln()
        }
    };

    // Halley iterations.
    for _ in 0..16 {
        if x <= 0.0 {
            return 0.0;
        }
        let err = reg_lower_gamma(a, x) - p;
        let t = if a > 1.0 {
            afac * (-(x - a1) + a1 * (x.ln() - lna1)).exp()
        } else {
            (-x + a1 * x.ln() - gln).exp()
        };
        let u = err / t;
        let dx = u / (1.0 - 0.5 * (u * ((a1 / x) - 1.0)).min(1.0));
        x -= dx;
        if x <= 0.0 {
            x = 0.5 * (x + dx);
        }
        if dx.abs() < 1e-11 * x {
            break;
        }
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_gamma_matches_factorials() {
        for n in 1u64..15 {
            let fact: f64 = (1..n).map(|k| k as f64).product();
            assert!(
                (ln_gamma(n as f64) - fact.ln()).abs() < 1e-9,
                "ln_gamma({n}) mismatch"
            );
        }
    }

    #[test]
    fn ln_gamma_half_integer() {
        // Γ(1/2) = sqrt(pi)
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-10);
        // Γ(3/2) = sqrt(pi)/2
        assert!((gamma(1.5) - std::f64::consts::PI.sqrt() / 2.0).abs() < 1e-10);
    }

    #[test]
    fn erfc_known_values() {
        assert_eq!(erfc(0.0), 1.0);
        assert!((erfc(0.5) - 0.479_500_122_186_953_5).abs() < 1e-12);
        assert!((erfc(1.0) - 0.157_299_207_050_285_1).abs() < 1e-12);
        assert!((erfc(-1.0) - 1.842_700_792_949_715).abs() < 1e-12);
        assert!((erfc(3.0) - 2.209_049_699_858_544e-5).abs() < 1e-15);
    }

    #[test]
    fn normal_cdf_and_quantile_roundtrip() {
        for &p in &[0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999] {
            let x = std_normal_quantile(p);
            assert!(
                (std_normal_cdf(x) - p).abs() < 1e-7,
                "roundtrip failed at p={p}: x={x}, cdf={}",
                std_normal_cdf(x)
            );
        }
        // Known value: Φ⁻¹(0.975) ≈ 1.959964
        assert!((std_normal_quantile(0.975) - 1.959_963_985).abs() < 1e-6);
    }

    #[test]
    fn reg_gamma_complementarity() {
        for &a in &[0.3, 0.7, 1.0, 2.5, 10.0] {
            for &x in &[0.01, 0.5, 1.0, 3.0, 15.0] {
                let p = reg_lower_gamma(a, x);
                let q = reg_upper_gamma(a, x);
                assert!((p + q - 1.0).abs() < 1e-10, "P+Q != 1 at a={a}, x={x}");
                assert!((0.0..=1.0).contains(&p));
            }
        }
    }

    #[test]
    fn reg_gamma_exponential_special_case() {
        // For a = 1, P(1, x) = 1 - e^{-x}.
        for &x in &[0.1, 0.5, 1.0, 2.0, 5.0] {
            assert!((reg_lower_gamma(1.0, x) - (1.0 - (-x).exp())).abs() < 1e-10);
        }
    }

    #[test]
    fn reg_gamma_is_monotone_in_x() {
        let a = 2.3;
        let mut prev = 0.0;
        for i in 1..200 {
            let x = i as f64 * 0.1;
            let p = reg_lower_gamma(a, x);
            assert!(p >= prev, "not monotone at x={x}");
            prev = p;
        }
    }

    #[test]
    fn inv_reg_gamma_roundtrip() {
        for &a in &[0.3, 0.7, 1.0, 2.0, 5.0, 20.0] {
            for &p in &[0.001, 0.01, 0.1, 0.5, 0.9, 0.99, 0.999] {
                let x = inv_reg_lower_gamma(a, p);
                let back = reg_lower_gamma(a, x);
                assert!(
                    (back - p).abs() < 1e-7,
                    "roundtrip failed at a={a}, p={p}: x={x}, back={back}"
                );
            }
        }
    }

    #[test]
    fn inv_reg_gamma_edge_cases() {
        assert_eq!(inv_reg_lower_gamma(2.0, 0.0), 0.0);
        assert!(inv_reg_lower_gamma(1.0, 0.999_999) > 10.0);
    }
}
