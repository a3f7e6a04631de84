//! Discrete score distribution: a finite set of score values with
//! probabilities (the x-relation / possible-values model common in
//! probabilistic databases).

use crate::error::{ProbError, Result};
use rand::Rng;

/// Finite discrete distribution over sorted support points.
#[derive(Debug, Clone, PartialEq)]
pub struct Discrete {
    /// Support points, strictly increasing.
    xs: Vec<f64>,
    /// Probabilities, same length as `xs`, summing to 1.
    ps: Vec<f64>,
    /// Cumulative probabilities; `cum[i] = P(X <= xs[i])`.
    cum: Vec<f64>,
}

impl Discrete {
    /// Builds a discrete distribution from `(value, weight)` pairs.
    ///
    /// Weights must be nonnegative with a positive sum; they are normalized.
    /// Duplicate values are merged; points with zero weight are dropped.
    pub fn new(pairs: &[(f64, f64)]) -> Result<Self> {
        if pairs.is_empty() {
            return Err(ProbError::InvalidWeights("no support points".into()));
        }
        for &(x, w) in pairs {
            if !x.is_finite() {
                return Err(ProbError::InvalidParameter {
                    param: "value",
                    reason: format!("support points must be finite, got {x}"),
                });
            }
            if !w.is_finite() || w < 0.0 {
                return Err(ProbError::InvalidWeights(format!(
                    "weight {w} at value {x} is negative or non-finite"
                )));
            }
        }
        let mut sorted: Vec<(f64, f64)> = pairs.to_vec();
        sorted.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        // Merge duplicates, drop zeros.
        let mut xs: Vec<f64> = Vec::with_capacity(sorted.len());
        let mut ps: Vec<f64> = Vec::with_capacity(sorted.len());
        for (x, w) in sorted {
            // ctk-allow(float-eq): exact-zero sentinel — drops only literally zero weights
            if w == 0.0 {
                continue;
            }
            if let Some(last) = xs.last() {
                if *last == x {
                    // ctk-allow(panic-unwrap): ps grows in lockstep with xs; xs.last() just matched
                    *ps.last_mut().expect("parallel vectors") += w;
                    continue;
                }
            }
            xs.push(x);
            ps.push(w);
        }
        let total: f64 = ps.iter().sum();
        if total <= 0.0 {
            return Err(ProbError::InvalidWeights("all weights are zero".into()));
        }
        if !total.is_finite() {
            return Err(ProbError::InvalidWeights("weight sum overflows".into()));
        }
        // Atoms are finite, but their span can still overflow (and with it
        // the variance).
        let (lo, hi) = (xs[0], xs[xs.len() - 1]);
        if !(hi - lo).is_finite() {
            return Err(ProbError::InvalidParameter {
                param: "value",
                reason: format!("span of [{lo}, {hi}] overflows"),
            });
        }
        for p in &mut ps {
            *p /= total;
        }
        let mut cum = Vec::with_capacity(ps.len());
        let mut acc = 0.0;
        for &p in &ps {
            acc += p;
            cum.push(acc);
        }
        // Guard against floating-point drift at the top.
        if let Some(last) = cum.last_mut() {
            *last = 1.0;
        }
        Ok(Self { xs, ps, cum })
    }

    /// Degenerate single-point distribution (used by [`crate::dist::ScoreDist::point`]).
    pub fn point(x: f64) -> Result<Self> {
        Self::new(&[(x, 1.0)])
    }

    /// Support points (sorted ascending).
    pub fn values(&self) -> &[f64] {
        &self.xs
    }

    /// Probabilities aligned with [`Self::values`].
    pub fn probabilities(&self) -> &[f64] {
        &self.ps
    }

    /// Probability mass at exactly `x` (0 if `x` is not a support point).
    pub fn pmf(&self, x: f64) -> f64 {
        match self.xs.binary_search_by(|v| v.total_cmp(&x)) {
            Ok(i) => self.ps[i],
            Err(_) => 0.0,
        }
    }

    /// Cumulative distribution `P(X <= x)` (right-continuous step function).
    pub fn cdf(&self, x: f64) -> f64 {
        // Index of the last support point <= x.
        match self.xs.binary_search_by(|v| v.total_cmp(&x)) {
            Ok(i) => self.cum[i],
            Err(0) => 0.0,
            Err(i) => self.cum[i - 1],
        }
    }

    /// Smallest support value `x` with `P(X <= x) >= p`.
    pub fn quantile(&self, p: f64) -> f64 {
        let p = p.clamp(0.0, 1.0);
        let idx = self.cum.partition_point(|&c| c < p);
        self.xs[idx.min(self.xs.len() - 1)]
    }

    /// Mean of the distribution.
    pub fn mean(&self) -> f64 {
        self.xs.iter().zip(&self.ps).map(|(x, p)| x * p).sum()
    }

    /// Variance of the distribution.
    pub fn variance(&self) -> f64 {
        let m = self.mean();
        self.xs
            .iter()
            .zip(&self.ps)
            .map(|(x, p)| p * (x - m) * (x - m))
            .sum()
    }

    /// Support hull (min and max support points).
    pub fn support(&self) -> (f64, f64) {
        // ctk-allow(panic-unwrap): constructor rejects empty support sets
        (self.xs[0], *self.xs.last().expect("non-empty"))
    }

    /// Draws one sample by inverse-cdf transform.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.gen();
        self.quantile(u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn die() -> Discrete {
        Discrete::new(&[
            (1.0, 1.0),
            (2.0, 1.0),
            (3.0, 1.0),
            (4.0, 1.0),
            (5.0, 1.0),
            (6.0, 1.0),
        ])
        .unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(Discrete::new(&[]).is_err());
        assert!(Discrete::new(&[(1.0, -0.5)]).is_err());
        assert!(Discrete::new(&[(f64::NAN, 1.0)]).is_err());
        assert!(Discrete::new(&[(1.0, 0.0)]).is_err());
    }

    #[test]
    fn duplicates_merge_and_zeros_drop() {
        let d = Discrete::new(&[(2.0, 1.0), (1.0, 1.0), (2.0, 2.0), (3.0, 0.0)]).unwrap();
        assert_eq!(d.values(), &[1.0, 2.0]);
        assert!((d.pmf(2.0) - 0.75).abs() < 1e-15);
        assert!((d.pmf(1.0) - 0.25).abs() < 1e-15);
        assert_eq!(d.pmf(3.0), 0.0);
    }

    #[test]
    fn cdf_is_right_continuous_step() {
        let d = die();
        assert_eq!(d.cdf(0.99), 0.0);
        assert!((d.cdf(1.0) - 1.0 / 6.0).abs() < 1e-12);
        assert!((d.cdf(3.5) - 0.5).abs() < 1e-12);
        assert_eq!(d.cdf(6.0), 1.0);
        assert_eq!(d.cdf(100.0), 1.0);
    }

    #[test]
    fn quantile_inverts() {
        let d = die();
        assert_eq!(d.quantile(0.0), 1.0);
        assert_eq!(d.quantile(1.0 / 6.0), 1.0);
        assert_eq!(d.quantile(1.0 / 6.0 + 1e-9), 2.0);
        assert_eq!(d.quantile(1.0), 6.0);
    }

    #[test]
    fn moments_of_die() {
        let d = die();
        assert!((d.mean() - 3.5).abs() < 1e-12);
        assert!((d.variance() - 35.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn point_mass() {
        let d = Discrete::point(4.2).unwrap();
        assert_eq!(d.support(), (4.2, 4.2));
        assert_eq!(d.pmf(4.2), 1.0);
        assert_eq!(d.cdf(4.19), 0.0);
        assert_eq!(d.cdf(4.2), 1.0);
    }

    #[test]
    fn sampling_matches_pmf() {
        let d = Discrete::new(&[(0.0, 0.7), (1.0, 0.3)]).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        const N: usize = 30_000;
        let ones = (0..N).filter(|_| d.sample(&mut rng) == 1.0).count();
        let frac = ones as f64 / N as f64;
        assert!((frac - 0.3).abs() < 0.02, "frac = {frac}");
    }
}
