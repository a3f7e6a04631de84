//! Continuous uniform score distribution `U[lo, hi]`.
//!
//! This is the pdf family the paper's main experiments use: a tuple's score
//! is known up to an interval (e.g. a sensor reading with symmetric error),
//! and the interval width controls how much the orderings overlap.

use crate::error::{ProbError, Result};
use rand::Rng;

/// Uniform distribution on the closed interval `[lo, hi]`, `lo < hi`.
#[derive(Debug, Clone, PartialEq)]
pub struct Uniform {
    lo: f64,
    hi: f64,
}

impl Uniform {
    /// Creates a uniform distribution; fails unless `lo < hi` and both are
    /// finite.
    pub fn new(lo: f64, hi: f64) -> Result<Self> {
        if !lo.is_finite() || !hi.is_finite() {
            return Err(ProbError::InvalidParameter {
                param: "lo/hi",
                reason: format!("bounds must be finite, got [{lo}, {hi}]"),
            });
        }
        if lo >= hi {
            return Err(ProbError::InvalidParameter {
                param: "lo/hi",
                reason: format!("require lo < hi, got [{lo}, {hi}]"),
            });
        }
        if !(hi - lo).is_finite() {
            return Err(ProbError::InvalidParameter {
                param: "lo/hi",
                reason: format!("span of [{lo}, {hi}] overflows"),
            });
        }
        Ok(Self { lo, hi })
    }

    /// Uniform centered at `center` with total width `width`.
    pub fn centered(center: f64, width: f64) -> Result<Self> {
        if width <= 0.0 {
            return Err(ProbError::InvalidParameter {
                param: "width",
                reason: format!("must be positive, got {width}"),
            });
        }
        Self::new(center - width * 0.5, center + width * 0.5)
    }

    /// Lower endpoint.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper endpoint.
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Probability density at `x`.
    pub fn pdf(&self, x: f64) -> f64 {
        if x < self.lo || x > self.hi {
            0.0
        } else {
            1.0 / (self.hi - self.lo)
        }
    }

    /// Cumulative distribution `P(X <= x)`.
    pub fn cdf(&self, x: f64) -> f64 {
        if x <= self.lo {
            0.0
        } else if x >= self.hi {
            1.0
        } else {
            (x - self.lo) / (self.hi - self.lo)
        }
    }

    /// Quantile function; `p` is clamped to `[0, 1]`.
    pub fn quantile(&self, p: f64) -> f64 {
        let p = p.clamp(0.0, 1.0);
        self.lo + p * (self.hi - self.lo)
    }

    /// Mean of the distribution.
    pub fn mean(&self) -> f64 {
        0.5 * (self.lo + self.hi)
    }

    /// Variance of the distribution.
    pub fn variance(&self) -> f64 {
        let w = self.hi - self.lo;
        w * w / 12.0
    }

    /// Support interval (exact).
    pub fn support(&self) -> (f64, f64) {
        (self.lo, self.hi)
    }

    /// Draws one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        rng.gen_range(self.lo..self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn construction_validates() {
        assert!(Uniform::new(0.0, 1.0).is_ok());
        assert!(Uniform::new(1.0, 1.0).is_err());
        assert!(Uniform::new(2.0, 1.0).is_err());
        assert!(Uniform::new(f64::NAN, 1.0).is_err());
        assert!(Uniform::new(0.0, f64::INFINITY).is_err());
        assert!(Uniform::centered(0.5, 0.0).is_err());
        let u = Uniform::centered(0.5, 0.2).unwrap();
        assert!((u.lo() - 0.4).abs() < 1e-15);
        assert!((u.hi() - 0.6).abs() < 1e-15);
    }

    #[test]
    fn pdf_cdf_quantile_coherence() {
        let u = Uniform::new(2.0, 6.0).unwrap();
        assert_eq!(u.pdf(1.9), 0.0);
        assert_eq!(u.pdf(6.1), 0.0);
        assert!((u.pdf(3.0) - 0.25).abs() < 1e-15);
        assert_eq!(u.cdf(2.0), 0.0);
        assert_eq!(u.cdf(6.0), 1.0);
        assert!((u.cdf(4.0) - 0.5).abs() < 1e-15);
        for i in 0..=10 {
            let p = i as f64 / 10.0;
            assert!((u.cdf(u.quantile(p)) - p).abs() < 1e-12);
        }
    }

    #[test]
    fn moments() {
        let u = Uniform::new(0.0, 1.0).unwrap();
        assert!((u.mean() - 0.5).abs() < 1e-15);
        assert!((u.variance() - 1.0 / 12.0).abs() < 1e-15);
    }

    #[test]
    fn samples_stay_in_support_and_average_to_mean() {
        let u = Uniform::new(-1.0, 3.0).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let mut acc = 0.0;
        const N: usize = 20_000;
        for _ in 0..N {
            let s = u.sample(&mut rng);
            assert!((-1.0..3.0).contains(&s));
            acc += s;
        }
        assert!((acc / N as f64 - u.mean()).abs() < 0.05);
    }
}
