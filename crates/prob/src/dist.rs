//! [`ScoreDist`]: the unified uncertain-score type consumed by the rest of
//! the system.
//!
//! The paper models the score of tuple `t_i` as a random variable with pdf
//! `f_i`; this enum is that random variable. Enum dispatch (rather than
//! `dyn Trait`) keeps scores `Clone + PartialEq`, avoids allocation in the
//! hot sampling loop, and lets the comparison code exploit closed forms for
//! specific pairs (e.g. Gaussian–Gaussian).

use crate::discrete::Discrete;
use crate::error::Result;
use crate::gaussian::Gaussian;
use crate::mixture::Mixture;
use crate::piecewise::PiecewiseLinear;
use crate::uniform::Uniform;
use rand::Rng;

/// An uncertain score: a univariate distribution over real score values.
#[derive(Debug, Clone, PartialEq)]
pub enum ScoreDist {
    /// Exactly known score (no uncertainty).
    Point(f64),
    /// Uniform over an interval.
    Uniform(Uniform),
    /// Gaussian.
    Gaussian(Gaussian),
    /// Finite set of possible values.
    Discrete(Discrete),
    /// Piecewise-linear density.
    Piecewise(PiecewiseLinear),
    /// Finite mixture of score distributions.
    Mixture(Mixture),
}

impl ScoreDist {
    /// Certain score `x`.
    pub fn point(x: f64) -> Self {
        ScoreDist::Point(x)
    }

    /// Uniform over `[lo, hi]`.
    pub fn uniform(lo: f64, hi: f64) -> Result<Self> {
        Ok(ScoreDist::Uniform(Uniform::new(lo, hi)?))
    }

    /// Uniform centered at `center` with width `width`.
    pub fn uniform_centered(center: f64, width: f64) -> Result<Self> {
        Ok(ScoreDist::Uniform(Uniform::centered(center, width)?))
    }

    /// Gaussian with mean `mu`, standard deviation `sigma`.
    pub fn gaussian(mu: f64, sigma: f64) -> Result<Self> {
        Ok(ScoreDist::Gaussian(Gaussian::new(mu, sigma)?))
    }

    /// Discrete over `(value, weight)` pairs.
    pub fn discrete(pairs: &[(f64, f64)]) -> Result<Self> {
        Ok(ScoreDist::Discrete(Discrete::new(pairs)?))
    }

    /// Piecewise-linear density through `knots`.
    pub fn piecewise(knots: &[(f64, f64)]) -> Result<Self> {
        Ok(ScoreDist::Piecewise(PiecewiseLinear::new(knots)?))
    }

    /// Triangular distribution on `[lo, hi]` with mode `mode`.
    pub fn triangular(lo: f64, mode: f64, hi: f64) -> Result<Self> {
        Ok(ScoreDist::Piecewise(PiecewiseLinear::triangular(
            lo, mode, hi,
        )?))
    }

    /// Finite mixture of `(weight, component)` pairs.
    pub fn mixture(parts: Vec<(f64, ScoreDist)>) -> Result<Self> {
        Ok(ScoreDist::Mixture(Mixture::new(parts)?))
    }

    /// Two-component mixture (the common bimodal case).
    pub fn bimodal(w1: f64, d1: ScoreDist, w2: f64, d2: ScoreDist) -> Result<Self> {
        Ok(ScoreDist::Mixture(Mixture::bimodal(w1, d1, w2, d2)?))
    }

    /// True if the distribution has a density (no point masses).
    pub fn is_continuous(&self) -> bool {
        match self {
            ScoreDist::Point(_) | ScoreDist::Discrete(_) => false,
            ScoreDist::Mixture(m) => m.is_continuous(),
            _ => true,
        }
    }

    /// Probability density at `x` (0 for purely discrete distributions —
    /// use [`Self::mass_at`] for atoms).
    pub fn pdf(&self, x: f64) -> f64 {
        match self {
            ScoreDist::Point(_) | ScoreDist::Discrete(_) => 0.0,
            ScoreDist::Uniform(d) => d.pdf(x),
            ScoreDist::Gaussian(d) => d.pdf(x),
            ScoreDist::Piecewise(d) => d.pdf(x),
            ScoreDist::Mixture(m) => m.pdf(x),
        }
    }

    /// Point mass at exactly `x` (non-zero only for `Point`/`Discrete`).
    pub fn mass_at(&self, x: f64) -> f64 {
        match self {
            // ctk-allow(float-eq): atom mass lives at exactly *v — bitwise match is the semantics
            ScoreDist::Point(v) if *v == x => 1.0,
            ScoreDist::Point(_) => 0.0,
            ScoreDist::Discrete(d) => d.pmf(x),
            ScoreDist::Mixture(m) => m.mass_at(x),
            _ => 0.0,
        }
    }

    /// Cumulative distribution `P(X <= x)`.
    pub fn cdf(&self, x: f64) -> f64 {
        match self {
            ScoreDist::Point(v) => {
                if x >= *v {
                    1.0
                } else {
                    0.0
                }
            }
            ScoreDist::Uniform(d) => d.cdf(x),
            ScoreDist::Gaussian(d) => d.cdf(x),
            ScoreDist::Discrete(d) => d.cdf(x),
            ScoreDist::Piecewise(d) => d.cdf(x),
            ScoreDist::Mixture(m) => m.cdf(x),
        }
    }

    /// Quantile function; `p` clamped to `[0, 1]`.
    pub fn quantile(&self, p: f64) -> f64 {
        match self {
            ScoreDist::Point(v) => *v,
            ScoreDist::Uniform(d) => d.quantile(p),
            ScoreDist::Gaussian(d) => d.quantile(p.clamp(1e-16, 1.0 - 1e-16)),
            ScoreDist::Discrete(d) => d.quantile(p),
            ScoreDist::Piecewise(d) => d.quantile(p),
            ScoreDist::Mixture(m) => m.quantile(p),
        }
    }

    /// Mean score.
    pub fn mean(&self) -> f64 {
        match self {
            ScoreDist::Point(v) => *v,
            ScoreDist::Uniform(d) => d.mean(),
            ScoreDist::Gaussian(d) => d.mean(),
            ScoreDist::Discrete(d) => d.mean(),
            ScoreDist::Piecewise(d) => d.mean(),
            ScoreDist::Mixture(m) => m.mean(),
        }
    }

    /// Score variance.
    pub fn variance(&self) -> f64 {
        match self {
            ScoreDist::Point(_) => 0.0,
            ScoreDist::Uniform(d) => d.variance(),
            ScoreDist::Gaussian(d) => d.variance(),
            ScoreDist::Discrete(d) => d.variance(),
            ScoreDist::Piecewise(d) => d.variance(),
            ScoreDist::Mixture(m) => m.variance(),
        }
    }

    /// Support hull `(lo, hi)`; effective (`mu +- 8 sigma`) for Gaussians.
    pub fn support(&self) -> (f64, f64) {
        match self {
            ScoreDist::Point(v) => (*v, *v),
            ScoreDist::Uniform(d) => d.support(),
            ScoreDist::Gaussian(d) => d.support(),
            ScoreDist::Discrete(d) => d.support(),
            ScoreDist::Piecewise(d) => d.support(),
            ScoreDist::Mixture(m) => m.support(),
        }
    }

    /// Draws one score sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match self {
            ScoreDist::Point(v) => *v,
            ScoreDist::Uniform(d) => d.sample(rng),
            ScoreDist::Gaussian(d) => d.sample(rng),
            ScoreDist::Discrete(d) => d.sample(rng),
            ScoreDist::Piecewise(d) => d.sample(rng),
            ScoreDist::Mixture(m) => m.sample(rng),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ProbError;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn all_families() -> Vec<ScoreDist> {
        vec![
            ScoreDist::point(0.5),
            ScoreDist::uniform(0.0, 1.0).unwrap(),
            ScoreDist::gaussian(0.5, 0.1).unwrap(),
            ScoreDist::discrete(&[(0.2, 1.0), (0.8, 3.0)]).unwrap(),
            ScoreDist::piecewise(&[(0.0, 0.0), (0.3, 1.0), (0.6, 1.0), (1.0, 0.0)]).unwrap(),
            ScoreDist::triangular(0.0, 0.4, 1.0).unwrap(),
            ScoreDist::bimodal(
                0.4,
                ScoreDist::uniform(0.0, 0.3).unwrap(),
                0.6,
                ScoreDist::gaussian(0.7, 0.05).unwrap(),
            )
            .unwrap(),
        ]
    }

    #[test]
    fn cdf_is_monotone_for_every_family() {
        for d in all_families() {
            let (lo, hi) = d.support();
            let span = (hi - lo).max(1e-6);
            let mut prev = -1.0;
            for i in 0..=100 {
                let x = lo - 0.1 * span + i as f64 / 100.0 * 1.2 * span;
                let c = d.cdf(x);
                assert!((0.0..=1.0).contains(&c), "{d:?} cdf({x}) = {c}");
                assert!(c >= prev - 1e-12, "{d:?} non-monotone at {x}");
                prev = c;
            }
        }
    }

    #[test]
    fn quantile_roundtrip_continuous() {
        for d in all_families().into_iter().filter(|d| d.is_continuous()) {
            for i in 1..20 {
                let p = i as f64 / 20.0;
                let x = d.quantile(p);
                assert!((d.cdf(x) - p).abs() < 1e-5, "{d:?} p={p}");
            }
        }
    }

    #[test]
    fn samples_inside_support() {
        let mut rng = StdRng::seed_from_u64(42);
        for d in all_families() {
            let (lo, hi) = d.support();
            for _ in 0..500 {
                let s = d.sample(&mut rng);
                assert!(
                    s >= lo - 1e-9 && s <= hi + 1e-9,
                    "{d:?} sampled {s} outside [{lo}, {hi}]"
                );
            }
        }
    }

    #[test]
    fn sample_mean_approximates_mean() {
        let mut rng = StdRng::seed_from_u64(1234);
        for d in all_families() {
            const N: usize = 20_000;
            let m: f64 = (0..N).map(|_| d.sample(&mut rng)).sum::<f64>() / N as f64;
            assert!(
                (m - d.mean()).abs() < 0.02,
                "{d:?}: sample mean {m} vs analytic {}",
                d.mean()
            );
        }
    }

    #[test]
    fn point_semantics() {
        let p = ScoreDist::point(2.0);
        assert!(!p.is_continuous());
        assert_eq!(p.mass_at(2.0), 1.0);
        assert_eq!(p.mass_at(2.1), 0.0);
        assert_eq!(p.cdf(1.999), 0.0);
        assert_eq!(p.cdf(2.0), 1.0);
        assert_eq!(p.variance(), 0.0);
        assert_eq!(p.support(), (2.0, 2.0));
    }

    #[test]
    fn constructors_propagate_errors() {
        assert!(ScoreDist::uniform(1.0, 0.0).is_err());
        assert!(ScoreDist::gaussian(0.0, -1.0).is_err());
        assert!(ScoreDist::discrete(&[]).is_err());
        assert!(ScoreDist::piecewise(&[(0.0, 1.0)]).is_err());
        assert!(ScoreDist::triangular(1.0, 2.0, 0.0).is_err());
    }

    #[test]
    fn finite_parameters_whose_span_or_total_overflows_are_rejected() {
        let spans = [
            ScoreDist::uniform(-1e308, 1e308),
            ScoreDist::gaussian(0.0, 1e308),
            // A finite area over knots whose outer span overflows.
            ScoreDist::piecewise(&[(-1e308, 1e-10), (0.0, 1e-10), (1e308, 1e-10)]),
            // Two valid components whose union support overflows.
            ScoreDist::bimodal(
                0.5,
                ScoreDist::uniform(-1.7e308, -1.6e308).unwrap(),
                0.5,
                ScoreDist::uniform(1.6e308, 1.7e308).unwrap(),
            ),
            // Finite atoms whose span overflows.
            ScoreDist::discrete(&[(-1e308, 0.5), (1e308, 0.5)]),
        ];
        for r in spans {
            assert!(
                matches!(r, Err(ProbError::InvalidParameter { .. })),
                "{r:?}"
            );
        }
        let totals = [
            ScoreDist::discrete(&[(0.0, 1e308), (1.0, 1e308)]),
            ScoreDist::mixture(vec![
                (1e308, ScoreDist::uniform(0.0, 1.0).unwrap()),
                (1e308, ScoreDist::uniform(0.5, 1.5).unwrap()),
            ]),
            ScoreDist::piecewise(&[(-1e308, 1.0), (1e308, 1.0)]),
        ];
        for r in totals {
            assert!(matches!(r, Err(ProbError::InvalidWeights(_))), "{r:?}");
        }
    }
}
