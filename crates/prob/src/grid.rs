//! Shared quadrature grids over the union support of a set of score
//! distributions.
//!
//! The exact TPO probability engine evaluates nested integrals of products
//! of pdfs and cdfs. All of them are computed on one shared grid so that
//! cumulative integrals compose level by level (see [`crate::nested`]).

use crate::dist::ScoreDist;

/// Default number of uniform grid cells. Pairwise comparison error with this
/// resolution is < 1e-6 for the distribution families in this crate.
pub const DEFAULT_RESOLUTION: usize = 1024;

/// Recursively collects density breakpoints (knots, atoms,
/// component supports) so the trapezoid rule never straddles a kink.
fn collect_breakpoints(d: &ScoreDist, out: &mut Vec<f64>) {
    let (a, b) = d.support();
    out.push(a);
    out.push(b);
    match d {
        ScoreDist::Piecewise(p) => out.extend_from_slice(p.knots()),
        ScoreDist::Discrete(d) => out.extend_from_slice(d.values()),
        ScoreDist::Mixture(m) => {
            for (_, c) in m.components() {
                collect_breakpoints(c, out);
            }
        }
        _ => {}
    }
}

/// A sorted, deduplicated set of quadrature points covering the union
/// support of a set of distributions, refined with every distribution's
/// breakpoints (support endpoints, piecewise knots, atoms) so the
/// trapezoid rule never straddles a kink of the integrand.
#[derive(Debug, Clone)]
pub struct SupportGrid {
    points: Vec<f64>,
}

impl SupportGrid {
    /// Builds a grid with `resolution` uniform cells over the union support
    /// of `dists`, plus all distribution breakpoints.
    pub fn build<'a, I>(dists: I, resolution: usize) -> Self
    where
        I: IntoIterator<Item = &'a ScoreDist>,
    {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        let mut breakpoints: Vec<f64> = Vec::new();
        for d in dists {
            let (a, b) = d.support();
            lo = lo.min(a);
            hi = hi.max(b);
            breakpoints.push(a);
            breakpoints.push(b);
            collect_breakpoints(d, &mut breakpoints);
        }
        if !lo.is_finite() || !hi.is_finite() {
            // Degenerate (empty input): a trivial two-point grid.
            return Self {
                points: vec![0.0, 1.0],
            };
        }
        if lo == hi {
            // All point masses at the same location: widen artificially.
            lo -= 0.5;
            hi += 0.5;
        }
        let resolution = resolution.max(2);
        let mut points: Vec<f64> = (0..=resolution)
            .map(|i| lo + (hi - lo) * i as f64 / resolution as f64)
            .collect();
        // Integrands built on this grid (pdf * cdf products) jump at support
        // endpoints and atoms. Sandwiching every breakpoint b between
        // b - delta and b + delta confines each jump to a cell of negligible
        // width, turning the trapezoid rule's O(cell) discontinuity error
        // into O(delta).
        let delta = (hi - lo) * 1e-9;
        for b in breakpoints.into_iter().filter(|x| x.is_finite()) {
            points.push(b - delta);
            points.push(b);
            points.push(b + delta);
        }
        points.sort_unstable_by(|a, b| a.total_cmp(b));
        points.dedup_by(|a, b| (*a - *b).abs() < f64::EPSILON * 4.0 * a.abs().max(1.0));
        Self { points }
    }

    /// Builds a grid at [`DEFAULT_RESOLUTION`].
    pub fn build_default<'a, I>(dists: I) -> Self
    where
        I: IntoIterator<Item = &'a ScoreDist>,
    {
        Self::build(dists, DEFAULT_RESOLUTION)
    }

    /// The quadrature points (sorted ascending, deduplicated).
    pub fn points(&self) -> &[f64] {
        &self.points
    }

    /// Number of quadrature points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Grids are never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Evaluates `f` at every grid point into a fresh vector.
    pub fn map<F: FnMut(f64) -> f64>(&self, mut f: F) -> Vec<f64> {
        self.points.iter().map(|&x| f(x)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_union_support() {
        let a = ScoreDist::uniform(0.0, 1.0).unwrap();
        let b = ScoreDist::uniform(2.0, 3.0).unwrap();
        let g = SupportGrid::build([&a, &b], 100);
        let pts = g.points();
        assert!(pts[0] <= 0.0);
        assert!(*pts.last().unwrap() >= 3.0);
        assert!(pts.windows(2).all(|w| w[0] < w[1]), "sorted and deduped");
    }

    #[test]
    fn grid_includes_breakpoints() {
        let t = ScoreDist::piecewise(&[(0.0, 0.0), (0.3, 1.0), (0.9, 1.0), (1.0, 0.0)]).unwrap();
        let g = SupportGrid::build([&t], 7);
        for edge in [0.0, 0.3, 0.9, 1.0] {
            assert!(
                g.points().iter().any(|&x| (x - edge).abs() < 1e-12),
                "missing edge {edge}"
            );
        }
    }

    #[test]
    fn degenerate_point_grid_widens() {
        let p = ScoreDist::point(5.0);
        let g = SupportGrid::build([&p], 10);
        assert!(g.points()[0] < 5.0);
        assert!(*g.points().last().unwrap() > 5.0);
        assert!(g.len() >= 2);
        assert!(!g.is_empty());
    }

    #[test]
    fn map_matches_pointwise_eval() {
        let a = ScoreDist::uniform(0.0, 2.0).unwrap();
        let g = SupportGrid::build([&a], 16);
        let ys = g.map(|x| a.cdf(x));
        for (i, &x) in g.points().iter().enumerate() {
            assert_eq!(ys[i], a.cdf(x));
        }
    }
}
