//! Finite mixture distributions.
//!
//! Mixtures model multi-modal score uncertainty — e.g. a tuple whose score
//! depends on an unresolved categorical fact (“if the photo is a finalist
//! its quality score is high, otherwise low”). The TKDE version of the
//! paper exercises non-uniform pdfs; mixtures are the standard way to
//! build them from simple components.

use crate::dist::ScoreDist;
use crate::error::{ProbError, Result};
use rand::Rng;

/// Weighted mixture of score distributions.
#[derive(Debug, Clone, PartialEq)]
pub struct Mixture {
    /// Components with normalized weights (positive, summing to 1).
    components: Vec<(f64, ScoreDist)>,
    /// Cumulative weights for sampling.
    cum: Vec<f64>,
}

impl Mixture {
    /// Builds a mixture from `(weight, component)` pairs. Weights must be
    /// nonnegative with positive sum; zero-weight components are dropped.
    pub fn new(parts: Vec<(f64, ScoreDist)>) -> Result<Self> {
        if parts.is_empty() {
            return Err(ProbError::InvalidWeights("empty mixture".into()));
        }
        let mut total = 0.0;
        for (w, _) in &parts {
            if !w.is_finite() || *w < 0.0 {
                return Err(ProbError::InvalidWeights(format!(
                    "mixture weight {w} is negative or non-finite"
                )));
            }
            total += w;
        }
        if total <= 0.0 {
            return Err(ProbError::InvalidWeights(
                "mixture weights sum to zero".into(),
            ));
        }
        if !total.is_finite() {
            return Err(ProbError::InvalidWeights(
                "mixture weight sum overflows".into(),
            ));
        }
        let components: Vec<(f64, ScoreDist)> = parts
            .into_iter()
            .filter(|(w, _)| *w > 0.0)
            .map(|(w, d)| (w / total, d))
            .collect();
        let mut cum = Vec::with_capacity(components.len());
        let mut acc = 0.0;
        for (w, _) in &components {
            acc += w;
            cum.push(acc);
        }
        if let Some(last) = cum.last_mut() {
            *last = 1.0;
        }
        let mixture = Self { components, cum };
        let (lo, hi) = mixture.support();
        if !(hi - lo).is_finite() {
            return Err(ProbError::InvalidParameter {
                param: "components",
                reason: format!("span of the union support [{lo}, {hi}] overflows"),
            });
        }
        Ok(mixture)
    }

    /// Two-component convenience constructor (the common bimodal case).
    pub fn bimodal(w1: f64, d1: ScoreDist, w2: f64, d2: ScoreDist) -> Result<Self> {
        Self::new(vec![(w1, d1), (w2, d2)])
    }

    /// The normalized components.
    pub fn components(&self) -> &[(f64, ScoreDist)] {
        &self.components
    }

    /// True when every component is continuous.
    pub fn is_continuous(&self) -> bool {
        self.components.iter().all(|(_, d)| d.is_continuous())
    }

    /// Mixture density (weighted sum of component densities).
    pub fn pdf(&self, x: f64) -> f64 {
        self.components.iter().map(|(w, d)| w * d.pdf(x)).sum()
    }

    /// Point mass at `x` (weighted sum of component atoms).
    pub fn mass_at(&self, x: f64) -> f64 {
        self.components.iter().map(|(w, d)| w * d.mass_at(x)).sum()
    }

    /// Mixture cdf.
    pub fn cdf(&self, x: f64) -> f64 {
        self.components.iter().map(|(w, d)| w * d.cdf(x)).sum()
    }

    /// Quantile by bisection on the (monotone) mixture cdf.
    pub fn quantile(&self, p: f64) -> f64 {
        let p = p.clamp(0.0, 1.0);
        let (mut lo, mut hi) = self.support();
        // ctk-allow(float-eq): exact-sentinels — clamp saturates to literal 0.0
        if p == 0.0 {
            return lo;
        }
        // ctk-allow(float-eq): exact-sentinels — clamp saturates to literal 1.0
        if p == 1.0 {
            return hi;
        }
        // 80 bisection steps: |hi - lo| shrinks by 2^-80 — far below f64
        // resolution for any practical support.
        for _ in 0..80 {
            let mid = 0.5 * (lo + hi);
            if self.cdf(mid) < p {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }

    /// Mixture mean (weighted component means).
    pub fn mean(&self) -> f64 {
        self.components.iter().map(|(w, d)| w * d.mean()).sum()
    }

    /// Mixture variance (law of total variance).
    pub fn variance(&self) -> f64 {
        let m = self.mean();
        self.components
            .iter()
            .map(|(w, d)| {
                let dm = d.mean();
                w * (d.variance() + (dm - m) * (dm - m))
            })
            .sum()
    }

    /// Support hull over all components.
    pub fn support(&self) -> (f64, f64) {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for (_, d) in &self.components {
            let (a, b) = d.support();
            lo = lo.min(a);
            hi = hi.max(b);
        }
        (lo, hi)
    }

    /// Samples a component by weight, then a value from it.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.gen();
        let idx = self.cum.partition_point(|&c| c < u);
        self.components[idx.min(self.components.len() - 1)]
            .1
            .sample(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn bimodal() -> Mixture {
        Mixture::bimodal(
            0.3,
            ScoreDist::uniform(0.0, 0.2).unwrap(),
            0.7,
            ScoreDist::uniform(0.8, 1.0).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(Mixture::new(vec![]).is_err());
        assert!(Mixture::new(vec![(-1.0, ScoreDist::point(0.0))]).is_err());
        assert!(Mixture::new(vec![(0.0, ScoreDist::point(0.0))]).is_err());
        // Zero-weight components are dropped.
        let m = Mixture::new(vec![
            (1.0, ScoreDist::point(0.0)),
            (0.0, ScoreDist::point(1.0)),
        ])
        .unwrap();
        assert_eq!(m.components().len(), 1);
    }

    #[test]
    fn weights_normalize() {
        let m = Mixture::bimodal(3.0, ScoreDist::point(0.0), 1.0, ScoreDist::point(1.0)).unwrap();
        assert!((m.components()[0].0 - 0.75).abs() < 1e-12);
        assert!((m.mass_at(0.0) - 0.75).abs() < 1e-12);
        assert!(!m.is_continuous());
    }

    #[test]
    fn cdf_and_pdf_combine_components() {
        let m = bimodal();
        assert!(m.is_continuous());
        assert_eq!(m.cdf(-0.1), 0.0);
        assert!((m.cdf(0.2) - 0.3).abs() < 1e-12);
        assert!((m.cdf(0.5) - 0.3).abs() < 1e-12, "gap has no mass");
        assert_eq!(m.cdf(1.0), 1.0);
        assert!((m.pdf(0.1) - 0.3 / 0.2).abs() < 1e-12);
        assert_eq!(m.pdf(0.5), 0.0);
        assert!((m.pdf(0.9) - 0.7 / 0.2).abs() < 1e-12);
    }

    #[test]
    fn quantile_inverts_cdf() {
        let m = bimodal();
        for i in 1..40 {
            let p = i as f64 / 40.0;
            let x = m.quantile(p);
            assert!((m.cdf(x) - p).abs() < 1e-9, "p={p} x={x} cdf={}", m.cdf(x));
        }
        assert_eq!(m.quantile(0.0), 0.0);
        assert_eq!(m.quantile(1.0), 1.0);
    }

    #[test]
    fn moments_by_total_laws() {
        let m = bimodal();
        // mean = 0.3*0.1 + 0.7*0.9 = 0.66
        assert!((m.mean() - 0.66).abs() < 1e-12);
        // var = E[var] + var[means]
        let within = 0.2f64 * 0.2 / 12.0;
        let between = 0.3 * (0.1f64 - 0.66).powi(2) + 0.7 * (0.9f64 - 0.66).powi(2);
        assert!((m.variance() - (within + between)).abs() < 1e-12);
    }

    #[test]
    fn sampling_respects_weights_and_support() {
        let m = bimodal();
        let mut rng = StdRng::seed_from_u64(8);
        const N: usize = 20_000;
        let mut high = 0usize;
        for _ in 0..N {
            let s = m.sample(&mut rng);
            assert!((0.0..=1.0).contains(&s));
            assert!(!(0.2..0.8).contains(&s), "gap must be empty, got {s}");
            if s >= 0.8 {
                high += 1;
            }
        }
        let frac = high as f64 / N as f64;
        assert!((frac - 0.7).abs() < 0.02, "frac = {frac}");
    }

    #[test]
    fn support_is_hull() {
        assert_eq!(bimodal().support(), (0.0, 1.0));
    }
}
