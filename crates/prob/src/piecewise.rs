//! Piecewise-linear density distribution.
//!
//! General-purpose continuous family: any density given as samples at knot
//! points is interpolated linearly and normalized. The special case of a
//! triangular distribution (common for human-assessed scores: a best guess
//! plus a spread) gets its own constructor.

use crate::error::{ProbError, Result};
use rand::Rng;

/// Continuous distribution whose density is linear between knots.
#[derive(Debug, Clone, PartialEq)]
pub struct PiecewiseLinear {
    /// Knot x-positions, strictly increasing.
    xs: Vec<f64>,
    /// Normalized density at each knot (nonnegative).
    ys: Vec<f64>,
    /// Cdf at each knot (`cum[0] = 0`, `cum[last] = 1`).
    cum: Vec<f64>,
}

impl PiecewiseLinear {
    /// Builds from knots `(x, density)`; x's strictly increasing, densities
    /// nonnegative with positive total area. Densities are normalized.
    pub fn new(knots: &[(f64, f64)]) -> Result<Self> {
        if knots.len() < 2 {
            return Err(ProbError::InvalidParameter {
                param: "knots",
                reason: "need at least two knots".into(),
            });
        }
        for w in knots.windows(2) {
            if !w[0].0.is_finite() || !w[1].0.is_finite() || w[0].0 >= w[1].0 {
                return Err(ProbError::InvalidParameter {
                    param: "knots",
                    reason: format!("x must be finite and strictly increasing near {w:?}"),
                });
            }
        }
        for &(x, y) in knots {
            if !y.is_finite() || y < 0.0 {
                return Err(ProbError::InvalidWeights(format!(
                    "density {y} at x={x} is negative or non-finite"
                )));
            }
        }
        let xs: Vec<f64> = knots.iter().map(|k| k.0).collect();
        let mut ys: Vec<f64> = knots.iter().map(|k| k.1).collect();
        // Total area under the un-normalized polyline.
        let mut area = 0.0;
        for i in 1..xs.len() {
            area += (xs[i] - xs[i - 1]) * (ys[i] + ys[i - 1]) * 0.5;
        }
        if area <= 0.0 {
            return Err(ProbError::InvalidWeights(
                "piecewise-linear density has zero area".into(),
            ));
        }
        if !area.is_finite() {
            return Err(ProbError::InvalidWeights(
                "piecewise-linear density area overflows".into(),
            ));
        }
        let (lo, hi) = (xs[0], xs[xs.len() - 1]);
        if !(hi - lo).is_finite() {
            return Err(ProbError::InvalidParameter {
                param: "knots",
                reason: format!("span of [{lo}, {hi}] overflows"),
            });
        }
        for y in &mut ys {
            *y /= area;
        }
        let mut cum = Vec::with_capacity(xs.len());
        cum.push(0.0);
        let mut acc = 0.0;
        for i in 1..xs.len() {
            acc += (xs[i] - xs[i - 1]) * (ys[i] + ys[i - 1]) * 0.5;
            cum.push(acc);
        }
        if let Some(last) = cum.last_mut() {
            *last = 1.0;
        }
        Ok(Self { xs, ys, cum })
    }

    /// Triangular distribution with support `[lo, hi]` and mode `mode`.
    pub fn triangular(lo: f64, mode: f64, hi: f64) -> Result<Self> {
        if lo >= hi || mode < lo || mode > hi {
            return Err(ProbError::InvalidParameter {
                param: "lo/mode/hi",
                reason: format!("require lo <= mode <= hi and lo < hi, got {lo}/{mode}/{hi}"),
            });
        }
        // Height chosen so area = 1: h = 2/(hi - lo).
        let h = 2.0 / (hi - lo);
        if mode == lo {
            Self::new(&[(lo, h), (hi, 0.0)])
        } else if mode == hi {
            Self::new(&[(lo, 0.0), (hi, h)])
        } else {
            Self::new(&[(lo, 0.0), (mode, h), (hi, 0.0)])
        }
    }

    /// Knot positions.
    pub fn knots(&self) -> &[f64] {
        &self.xs
    }

    /// Normalized densities at the knots.
    pub fn densities(&self) -> &[f64] {
        &self.ys
    }

    fn segment_of(&self, x: f64) -> Option<usize> {
        // ctk-allow(panic-unwrap): constructor requires >= 2 knots
        if x < self.xs[0] || x > *self.xs.last().expect("non-empty") {
            return None;
        }
        let i = self.xs.partition_point(|&v| v <= x);
        Some(i.saturating_sub(1).min(self.xs.len() - 2))
    }

    /// Probability density at `x`.
    pub fn pdf(&self, x: f64) -> f64 {
        match self.segment_of(x) {
            None => 0.0,
            Some(i) => {
                let h = self.xs[i + 1] - self.xs[i];
                let t = (x - self.xs[i]) / h;
                self.ys[i] + (self.ys[i + 1] - self.ys[i]) * t
            }
        }
    }

    /// Cumulative distribution `P(X <= x)` (piecewise quadratic).
    pub fn cdf(&self, x: f64) -> f64 {
        if x <= self.xs[0] {
            return 0.0;
        }
        // ctk-allow(panic-unwrap): constructor requires >= 2 knots
        if x >= *self.xs.last().expect("non-empty") {
            return 1.0;
        }
        // ctk-allow(panic-unwrap): the bound checks above pinned x inside the support
        let i = self.segment_of(x).expect("x within support");
        let h = self.xs[i + 1] - self.xs[i];
        let t = x - self.xs[i];
        let slope = (self.ys[i + 1] - self.ys[i]) / h;
        self.cum[i] + self.ys[i] * t + 0.5 * slope * t * t
    }

    /// Quantile function (solves the per-segment quadratic).
    pub fn quantile(&self, p: f64) -> f64 {
        let p = p.clamp(0.0, 1.0);
        // ctk-allow(float-eq): exact-sentinel — clamp saturates to literal 0.0
        if p == 0.0 {
            return self.xs[0];
        }
        // ctk-allow(float-eq): exact-sentinel — clamp saturates to literal 1.0
        if p == 1.0 {
            return *self.xs.last().expect("non-empty"); // ctk-allow(panic-unwrap): >= 2 knots by construction
        }
        // Find segment with cum[i] <= p <= cum[i+1].
        let i = self.cum.partition_point(|&c| c < p).saturating_sub(1);
        let i = i.min(self.xs.len() - 2);
        let need = p - self.cum[i];
        let h = self.xs[i + 1] - self.xs[i];
        let y0 = self.ys[i];
        let slope = (self.ys[i + 1] - y0) / h;
        let t = if slope.abs() < 1e-14 {
            if y0 > 0.0 {
                need / y0
            } else {
                0.0
            }
        } else {
            // Solve 0.5*slope*t^2 + y0*t - need = 0 for t in [0, h].
            let disc = (y0 * y0 + 2.0 * slope * need).max(0.0);
            (-y0 + disc.sqrt()) / slope
        };
        self.xs[i] + t.clamp(0.0, h)
    }

    /// Mean of the distribution (closed form per segment).
    pub fn mean(&self) -> f64 {
        let mut acc = 0.0;
        for i in 1..self.xs.len() {
            let (x0, y0) = (self.xs[i - 1], self.ys[i - 1]);
            let (x1, y1) = (self.xs[i], self.ys[i]);
            let h = x1 - x0;
            let d = y1 - y0;
            let mass = h * (y0 + y1) * 0.5;
            // Int over segment of x*f(x) dx with t = x - x0:
            acc += x0 * mass + y0 * h * h / 2.0 + d * h * h / 3.0;
        }
        acc
    }

    /// Variance of the distribution (closed form per segment).
    pub fn variance(&self) -> f64 {
        let mean = self.mean();
        let mut e2 = 0.0;
        for i in 1..self.xs.len() {
            let (x0, y0) = (self.xs[i - 1], self.ys[i - 1]);
            let (x1, y1) = (self.xs[i], self.ys[i]);
            let h = x1 - x0;
            let d = y1 - y0;
            let mass = h * (y0 + y1) * 0.5;
            let m1 = y0 * h * h / 2.0 + d * h * h / 3.0; // Int t f dt
            let m2 = y0 * h * h * h / 3.0 + d * h * h * h / 4.0; // Int t^2 f dt
            e2 += x0 * x0 * mass + 2.0 * x0 * m1 + m2;
        }
        (e2 - mean * mean).max(0.0)
    }

    /// Support hull.
    pub fn support(&self) -> (f64, f64) {
        // ctk-allow(panic-unwrap): constructor requires >= 2 knots
        (self.xs[0], *self.xs.last().expect("non-empty"))
    }

    /// Draws one sample via inverse-cdf transform.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.gen();
        self.quantile(u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        assert!(PiecewiseLinear::new(&[(0.0, 1.0)]).is_err());
        assert!(PiecewiseLinear::new(&[(1.0, 1.0), (0.0, 1.0)]).is_err());
        assert!(PiecewiseLinear::new(&[(0.0, -1.0), (1.0, 1.0)]).is_err());
        assert!(PiecewiseLinear::new(&[(0.0, 0.0), (1.0, 0.0)]).is_err());
        assert!(PiecewiseLinear::triangular(1.0, 0.5, 0.0).is_err());
    }

    #[test]
    fn flat_density_matches_uniform() {
        let p = PiecewiseLinear::new(&[(0.0, 1.0), (2.0, 1.0)]).unwrap();
        assert!((p.pdf(1.0) - 0.5).abs() < 1e-12);
        assert!((p.cdf(1.0) - 0.5).abs() < 1e-12);
        assert!((p.mean() - 1.0).abs() < 1e-12);
        assert!((p.variance() - 4.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn triangular_properties() {
        let t = PiecewiseLinear::triangular(0.0, 0.5, 1.0).unwrap();
        assert!((t.pdf(0.5) - 2.0).abs() < 1e-12);
        assert!((t.cdf(0.5) - 0.5).abs() < 1e-12);
        assert!((t.mean() - 0.5).abs() < 1e-12);
        // Var of symmetric triangular on [0,1] = 1/24.
        assert!((t.variance() - 1.0 / 24.0).abs() < 1e-12);

        // Degenerate modes at the endpoints.
        let left = PiecewiseLinear::triangular(0.0, 0.0, 1.0).unwrap();
        assert!((left.pdf(0.0) - 2.0).abs() < 1e-12);
        let right = PiecewiseLinear::triangular(0.0, 1.0, 1.0).unwrap();
        assert!((right.pdf(1.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_inverts_cdf() {
        let p = PiecewiseLinear::new(&[(0.0, 0.2), (1.0, 1.5), (3.0, 0.1), (4.0, 0.9)]).unwrap();
        for i in 0..=100 {
            let q = i as f64 / 100.0;
            let x = p.quantile(q);
            assert!((p.cdf(x) - q).abs() < 1e-9, "q={q} x={x} cdf={}", p.cdf(x));
        }
    }

    #[test]
    fn normalization() {
        let p = PiecewiseLinear::new(&[(0.0, 3.0), (1.0, 7.0), (2.0, 3.0)]).unwrap();
        let (lo, hi) = p.support();
        let area = crate::quad::adaptive_simpson(&|x| p.pdf(x), lo, hi, 1e-10);
        assert!((area - 1.0).abs() < 1e-8);
    }

    #[test]
    fn samples_in_support() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let p = PiecewiseLinear::triangular(-2.0, 0.0, 2.0).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..2000 {
            let s = p.sample(&mut rng);
            assert!((-2.0..=2.0).contains(&s));
        }
    }
}
