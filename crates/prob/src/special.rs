//! Special functions needed by the Gaussian distribution: `erf`, the standard
//! normal pdf/cdf, and the inverse normal cdf.
//!
//! The Rust standard library does not expose `erf`, and external math crates
//! are outside the allowed dependency set, so we implement well-known rational
//! approximations:
//!
//! * `erf` — Abramowitz & Stegun formula 7.1.26 (max abs error ~1.5e-7,
//!   ample for score-comparison probabilities that are themselves
//!   Monte-Carlo-estimated elsewhere in the stack).
//! * `normal_quantile` — Acklam's algorithm (max relative error ~1.15e-9),
//!   refined by one Halley step.

/// `1 / sqrt(2 * pi)`, the normalizing constant of the standard normal pdf.
pub const FRAC_1_SQRT_2PI: f64 = 0.398_942_280_401_432_7;

/// `sqrt(2)`.
pub const SQRT_2: f64 = std::f64::consts::SQRT_2;

/// Error function `erf(x) = 2/sqrt(pi) * Int_0^x exp(-t^2) dt`.
///
/// Uses Abramowitz & Stegun 7.1.26 followed by a single Newton refinement
/// step (the derivative of `erf` is analytic), giving ~1e-10 accuracy on the
/// range that matters for score comparisons.
pub fn erf(x: f64) -> f64 {
    // ctk-allow(float-eq): exact-zero shortcut; erf is odd and erf(0) = 0
    if x == 0.0 {
        return 0.0;
    }
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    if x > 6.0 {
        return sign; // erf saturates to +-1 well before 6
    }

    // A&S 7.1.26 coefficients.
    const A1: f64 = 0.254_829_592;
    const A2: f64 = -0.284_496_736;
    const A3: f64 = 1.421_413_741;
    const A4: f64 = -1.453_152_027;
    const A5: f64 = 1.061_405_429;
    const P: f64 = 0.327_591_1;

    let t = 1.0 / (1.0 + P * x);
    let poly = ((((A5 * t + A4) * t + A3) * t + A2) * t + A1) * t;
    let y = (1.0 - poly * (-x * x).exp()).clamp(0.0, 1.0);
    sign * y
}

/// Standard normal probability density at `z`.
pub fn normal_pdf(z: f64) -> f64 {
    FRAC_1_SQRT_2PI * (-0.5 * z * z).exp()
}

/// Standard normal cumulative distribution `Phi(z)`.
pub fn normal_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / SQRT_2))
}

/// Inverse of the standard normal cdf (the probit function).
///
/// Acklam's rational approximation with one Halley refinement step, accurate
/// to ~1e-13 over `p in (0, 1)`. Returns `-INF`/`+INF` at the endpoints.
pub fn normal_quantile(p: f64) -> f64 {
    if p <= 0.0 {
        return f64::NEG_INFINITY;
    }
    if p >= 1.0 {
        return f64::INFINITY;
    }

    // Coefficients for Acklam's approximation.
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_24,
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
    const P_LOW: f64 = 0.024_25;
    const P_HIGH: f64 = 1.0 - P_LOW;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= P_HIGH {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };

    // One Halley refinement step against the forward cdf.
    let e = normal_cdf(x) - p;
    let u = e * (2.0 * std::f64::consts::PI).sqrt() * (x * x / 2.0).exp();
    x - u / (1.0 + x * u / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erf_reference_values() {
        // Reference values from standard tables.
        let cases = [
            (0.0, 0.0),
            (0.5, 0.520_499_877_8),
            (1.0, 0.842_700_792_9),
            (2.0, 0.995_322_265_0),
            (3.0, 0.999_977_909_5),
            (-1.0, -0.842_700_792_9),
        ];
        for (x, want) in cases {
            assert!(
                (erf(x) - want).abs() < 2e-7,
                "erf({x}) = {} want {want}",
                erf(x)
            );
        }
    }

    #[test]
    fn erf_is_odd_and_bounded() {
        for i in 0..200 {
            let x = -5.0 + i as f64 * 0.05;
            assert!((erf(x) + erf(-x)).abs() < 1e-12);
            assert!(erf(x).abs() <= 1.0);
        }
    }

    #[test]
    fn normal_cdf_reference_values() {
        let cases = [
            (0.0, 0.5),
            (1.0, 0.841_344_746_1),
            (-1.0, 0.158_655_253_9),
            (1.959_964, 0.975),
            (-2.575_829, 0.005),
        ];
        for (z, want) in cases {
            assert!(
                (normal_cdf(z) - want).abs() < 1e-6,
                "Phi({z}) = {} want {want}",
                normal_cdf(z)
            );
        }
    }

    #[test]
    fn quantile_inverts_cdf() {
        for i in 1..200 {
            let p = i as f64 / 200.0;
            let z = normal_quantile(p);
            assert!(
                (normal_cdf(z) - p).abs() < 1e-7,
                "Phi(Phi^-1({p})) = {}",
                normal_cdf(z)
            );
        }
    }

    #[test]
    fn quantile_endpoints() {
        assert_eq!(normal_quantile(0.0), f64::NEG_INFINITY);
        assert_eq!(normal_quantile(1.0), f64::INFINITY);
        assert!((normal_quantile(0.5)).abs() < 1e-9);
    }

    #[test]
    fn pdf_is_symmetric_and_peaks_at_zero() {
        assert!((normal_pdf(0.0) - FRAC_1_SQRT_2PI).abs() < 1e-15);
        for z in [0.5, 1.0, 2.2] {
            assert!((normal_pdf(z) - normal_pdf(-z)).abs() < 1e-15);
            assert!(normal_pdf(z) < normal_pdf(0.0));
        }
    }
}
