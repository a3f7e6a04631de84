//! Gaussian score distribution `N(mu, sigma^2)`.
//!
//! Used by the paper's “non-uniform score distribution” experiments. The cdf
//! is computed with the crate-local `erf`; sampling uses inverse-cdf
//! transform so that a single `u64` seed fully determines every possible
//! world (important for reproducible experiments).

use crate::error::{ProbError, Result};
use crate::special::{normal_cdf, normal_pdf, normal_quantile};
use rand::Rng;

/// Number of standard deviations treated as the effective support for grid
/// construction. The mass outside `mu +- 8 sigma` is ~1.2e-15 — far below
/// every tolerance used by the exact probability engine.
pub const EFFECTIVE_SIGMAS: f64 = 8.0;

/// Gaussian distribution with mean `mu` and standard deviation `sigma > 0`.
#[derive(Debug, Clone, PartialEq)]
pub struct Gaussian {
    mu: f64,
    sigma: f64,
}

impl Gaussian {
    /// Creates a Gaussian; fails unless `sigma > 0` and both params finite.
    pub fn new(mu: f64, sigma: f64) -> Result<Self> {
        if !mu.is_finite() {
            return Err(ProbError::InvalidParameter {
                param: "mu",
                reason: format!("must be finite, got {mu}"),
            });
        }
        if !sigma.is_finite() || sigma <= 0.0 {
            return Err(ProbError::InvalidParameter {
                param: "sigma",
                reason: format!("must be positive and finite, got {sigma}"),
            });
        }
        let span = (mu + EFFECTIVE_SIGMAS * sigma) - (mu - EFFECTIVE_SIGMAS * sigma);
        if !span.is_finite() {
            return Err(ProbError::InvalidParameter {
                param: "mu/sigma",
                reason: format!("effective support mu +- {EFFECTIVE_SIGMAS} sigma overflows"),
            });
        }
        Ok(Self { mu, sigma })
    }

    /// Mean parameter.
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// Standard deviation parameter.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Probability density at `x`.
    pub fn pdf(&self, x: f64) -> f64 {
        normal_pdf((x - self.mu) / self.sigma) / self.sigma
    }

    /// Cumulative distribution `P(X <= x)`.
    pub fn cdf(&self, x: f64) -> f64 {
        normal_cdf((x - self.mu) / self.sigma)
    }

    /// Quantile function (inverse cdf).
    pub fn quantile(&self, p: f64) -> f64 {
        self.mu + self.sigma * normal_quantile(p)
    }

    /// Mean of the distribution.
    pub fn mean(&self) -> f64 {
        self.mu
    }

    /// Variance of the distribution.
    pub fn variance(&self) -> f64 {
        self.sigma * self.sigma
    }

    /// Effective support `mu +- 8 sigma` used for quadrature grids; the
    /// neglected tail mass is ~1e-15.
    pub fn support(&self) -> (f64, f64) {
        (
            self.mu - EFFECTIVE_SIGMAS * self.sigma,
            self.mu + EFFECTIVE_SIGMAS * self.sigma,
        )
    }

    /// Draws one sample via inverse-cdf transform.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // Open interval avoids the infinite quantiles at 0 and 1.
        let u: f64 = rng.gen_range(f64::EPSILON..(1.0 - f64::EPSILON));
        self.quantile(u)
    }

    /// Closed-form `P(X > Y)` for two independent Gaussians.
    pub fn pr_greater_than(&self, other: &Gaussian) -> f64 {
        let denom = (self.variance() + other.variance()).sqrt();
        normal_cdf((self.mu - other.mu) / denom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn construction_validates() {
        assert!(Gaussian::new(0.0, 1.0).is_ok());
        assert!(Gaussian::new(0.0, 0.0).is_err());
        assert!(Gaussian::new(0.0, -1.0).is_err());
        assert!(Gaussian::new(f64::NAN, 1.0).is_err());
        assert!(Gaussian::new(0.0, f64::NAN).is_err());
    }

    #[test]
    fn cdf_reference_points() {
        let g = Gaussian::new(10.0, 2.0).unwrap();
        assert!((g.cdf(10.0) - 0.5).abs() < 1e-9);
        assert!((g.cdf(12.0) - 0.841_344_7).abs() < 1e-6);
        assert!((g.cdf(8.0) - 0.158_655_3).abs() < 1e-6);
    }

    #[test]
    fn pdf_integrates_to_one() {
        let g = Gaussian::new(-3.0, 0.5).unwrap();
        let (lo, hi) = g.support();
        let val = crate::quad::adaptive_simpson(&|x| g.pdf(x), lo, hi, 1e-10);
        assert!((val - 1.0).abs() < 1e-8, "integral = {val}");
    }

    #[test]
    fn quantile_inverts_cdf() {
        let g = Gaussian::new(5.0, 3.0).unwrap();
        for i in 1..100 {
            let p = i as f64 / 100.0;
            assert!((g.cdf(g.quantile(p)) - p).abs() < 1e-6);
        }
    }

    #[test]
    fn closed_form_comparison_matches_symmetry() {
        let a = Gaussian::new(1.0, 1.0).unwrap();
        let b = Gaussian::new(0.0, 2.0).unwrap();
        let p = a.pr_greater_than(&b);
        let q = b.pr_greater_than(&a);
        assert!((p + q - 1.0).abs() < 1e-9);
        assert!(p > 0.5, "higher-mean Gaussian should win more often");
        // Equal distributions tie at exactly 1/2.
        assert!((a.pr_greater_than(&a) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn samples_match_moments() {
        let g = Gaussian::new(2.0, 0.7).unwrap();
        let mut rng = StdRng::seed_from_u64(99);
        const N: usize = 40_000;
        let xs: Vec<f64> = (0..N).map(|_| g.sample(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / N as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / N as f64;
        assert!((mean - 2.0).abs() < 0.02, "mean = {mean}");
        assert!((var - 0.49).abs() < 0.02, "var = {var}");
    }
}
