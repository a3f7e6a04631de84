//! Pairwise score-comparison probabilities `P(s_i > s_j)`.
//!
//! These drive three parts of the system: the relevant-question set `Q_K`
//! (a question is worth asking only if the order of the pair is uncertain),
//! the splitting of path mass for answers a path leaves undetermined, and
//! the noisy-worker Bayesian update.
//!
//! Ties between continuous scores have measure zero; ties between atoms are
//! split evenly (`P(A > B) + ½·P(A = B)`), matching the deterministic
//! tie-breaking rule assumed by the paper (any fixed rule yields the same
//! expected behaviour under the symmetric split).
//!
//! ## Fast path vs reference path
//!
//! [`pr_greater`] resolves every family pair *analytically* (DESIGN.md §10):
//! atoms by exact summation, Gaussian–Gaussian by the usual closed form,
//! pairs of piecewise-polynomial densities (Uniform / Piecewise) by
//! per-segment Simpson — exact, because the integrand
//! `f_A·F_B` has degree ≤ 3 on each merged segment — and Gaussian vs
//! piecewise-polynomial via the `Φ` antiderivatives. Mixtures recurse by
//! linearity. The generic grid quadrature it replaced survives as a
//! test-only reference (`pr_greater_reference`); tests pin the two within
//! `1e-6` (against a high-resolution reference, whose own truncation error
//! is far below that bound).
//!
//! [`PairwiseMatrix::compute`] adds two table-level optimizations on top:
//! a sweep-line over the supports sorted by lower endpoint, so pairs with
//! strictly disjoint supports resolve to 0/1 without touching the
//! evaluator, and a per-distribution cache of the piecewise CDF tables
//! (`DistCache`) reused across all `n−1` comparisons of a tuple.

use crate::bounds::certainly_greater;
use crate::dist::ScoreDist;
use crate::gaussian::Gaussian;
use crate::special::{normal_cdf, normal_pdf};
use crate::table::UncertainTable;

/// Tolerance under which an order probability counts as certain.
pub const ORDER_EPS: f64 = 1e-9;

/// Resolution used for the reference pairwise quadrature grid.
#[cfg(test)]
const PAIR_RESOLUTION: usize = 2048;

/// `P(A > B) + ½ P(A = B)` for independent scores `A`, `B`.
///
/// Every family pair is resolved in closed form (see module docs); the
/// result is deterministic and independent of any caching or threading.
pub fn pr_greater(a: &ScoreDist, b: &ScoreDist) -> f64 {
    let ca = DistCache::build(a);
    let cb = DistCache::build(b);
    pr_fast(a, &ca, b, &cb)
}

/// Test-only reference: exact arms for atoms and Gaussian pairs, generic
/// trapezoid quadrature on a shared [`crate::SupportGrid`] for everything
/// else. The agreement baseline for the analytic fast path.
#[cfg(test)]
pub(crate) fn pr_greater_reference(a: &ScoreDist, b: &ScoreDist) -> f64 {
    pr_greater_reference_res(a, b, PAIR_RESOLUTION)
}

/// [`pr_greater_reference`] with an explicit grid resolution. Tests
/// compare the fast path against a high-resolution run (the production
/// resolution's own truncation error on spiky densities can approach the
/// 1e-6 bound being pinned).
#[cfg(test)]
pub(crate) fn pr_greater_reference_res(a: &ScoreDist, b: &ScoreDist, resolution: usize) -> f64 {
    let mut cont = |a: &ScoreDist, _: &DistCache, b: &ScoreDist, _: &DistCache| {
        let grid = crate::grid::SupportGrid::build([a, b], resolution);
        let x = grid.points();
        let y: Vec<f64> = x.iter().map(|&xi| a.pdf(xi) * b.cdf(xi)).collect();
        crate::quad::trapezoid(x, &y).clamp(0.0, 1.0)
    };
    pr_clamped(a, &NONE_CACHE, b, &NONE_CACHE, &mut cont)
}

/// Fast-path evaluation with caller-provided caches (the matrix loop reuses
/// per-tuple caches across all of a tuple's comparisons).
fn pr_fast(a: &ScoreDist, ca: &DistCache, b: &ScoreDist, cb: &DistCache) -> f64 {
    let mut cont = cont_analytic;
    pr_clamped(a, ca, b, cb, &mut cont)
}

/// Continuous-pair evaluator type: resolves a pair once the shared arms
/// have peeled off atoms, Gaussian–Gaussian, and mixtures.
type ContEval<'a> = dyn FnMut(&ScoreDist, &DistCache, &ScoreDist, &DistCache) -> f64 + 'a;

fn pr_clamped(
    a: &ScoreDist,
    ca: &DistCache,
    b: &ScoreDist,
    cb: &DistCache,
    cont: &mut ContEval,
) -> f64 {
    // The summation arms can overshoot [0, 1] by a few ulps (normalized
    // discrete weights sum to 1 only within float error); clamp at every
    // recursion level, exactly as the pre-split implementation did.
    pr_arms(a, ca, b, cb, cont).clamp(0.0, 1.0)
}

/// Family dispatch shared by the fast and reference paths. Only fully
/// continuous, non-(Gaussian × Gaussian) pairs reach `cont`.
fn pr_arms(
    a: &ScoreDist,
    ca: &DistCache,
    b: &ScoreDist,
    cb: &DistCache,
    cont: &mut ContEval,
) -> f64 {
    use ScoreDist::*;
    // Strictly disjoint supports resolve to exact 0/1 for *every* family
    // pair, before any arm runs. This is what makes the matrix sweep's
    // shortcut bit-identical to direct evaluation: without it, a Gaussian
    // pair whose ±8σ effective supports are disjoint would still return
    // the ~1e-17 closed-form tail (Φ saturates only past z ≈ 8.49), and a
    // mixture strictly below its opponent would return its normalized
    // weight sum, which can miss 1.0 by an ulp. Touching supports
    // (`ahi == blo`) fall through — an atom at the shared boundary still
    // owes its tie split.
    let (alo, ahi) = a.support();
    let (blo, bhi) = b.support();
    if alo > bhi {
        return 1.0;
    }
    if ahi < blo {
        return 0.0;
    }
    match (a, b) {
        // Two atoms: direct comparison with symmetric tie split.
        (Point(x), Point(y)) => {
            if x > y {
                1.0
            } else if x < y {
                0.0
            } else {
                0.5
            }
        }
        // Closed form for the Gaussian pair.
        (Gaussian(ga), Gaussian(gb)) => ga.pr_greater_than(gb),
        // A is an atom at v: P(v > B) = P(B < v) + ½ P(B = v).
        (Point(v), _) => b.cdf(*v) - 0.5 * b.mass_at(*v),
        (_, Point(v)) => 1.0 - a.cdf(*v) + 0.5 * a.mass_at(*v),
        // Discrete A: sum over atoms.
        (Discrete(da), _) => da
            .values()
            .iter()
            .zip(da.probabilities())
            .map(|(&x, &p)| p * (b.cdf(x) - 0.5 * b.mass_at(x)))
            .sum(),
        // Discrete B: P(A > B) = sum_k p_k (1 - F_A(x_k) + ½ m_A(x_k)).
        // The tie-split term matters when A is a mixture carrying atoms —
        // without it this arm was asymmetric with its (Discrete, _) twin.
        (_, Discrete(db)) => db
            .values()
            .iter()
            .zip(db.probabilities())
            .map(|(&x, &p)| p * (1.0 - a.cdf(x) + 0.5 * a.mass_at(x)))
            .sum(),
        // Mixtures: P is linear in each argument, so recurse per component
        // (this also routes mixture atoms through the exact discrete arms).
        (Mixture(ma), _) => ma
            .components()
            .iter()
            .enumerate()
            .map(|(i, (w, c))| w * pr_clamped(c, ca.component(i), b, cb, &mut *cont))
            .sum(),
        (_, Mixture(mb)) => mb
            .components()
            .iter()
            .enumerate()
            .map(|(i, (w, c))| w * pr_clamped(a, ca, c, cb.component(i), &mut *cont))
            .sum(),
        // Both continuous: touching supports are still certain (no mass
        // at a boundary point), everything else goes to the evaluator.
        _ => {
            if alo >= bhi {
                return 1.0;
            }
            if ahi <= blo {
                return 0.0;
            }
            cont(a, ca, b, cb)
        }
    }
}

/// Analytic continuous-pair evaluator (the fast path's `cont`).
fn cont_analytic(a: &ScoreDist, ca: &DistCache, b: &ScoreDist, cb: &DistCache) -> f64 {
    use ScoreDist::*;
    match (a, b) {
        // Unreachable via the shared arms, kept for direct-call safety.
        (Gaussian(ga), Gaussian(gb)) => ga.pr_greater_than(gb),
        // P(G > B) = 1 − P(B > G); sharing one integral makes the pair
        // complementary by construction.
        (Gaussian(g), _) => 1.0 - with_poly(b, cb, |pb| poly_vs_gauss(pb, g)),
        (_, Gaussian(g)) => with_poly(a, ca, |pa| poly_vs_gauss(pa, g)),
        _ => with_poly(a, ca, |pa| with_poly(b, cb, |pb| poly_vs_poly(pa, pb))),
    }
}

/// Per-distribution table cached across a tuple's `n−1` comparisons: the
/// piecewise-polynomial density/CDF segments for the polynomial families,
/// recursively per component for mixtures. Atom and Gaussian families need
/// no table.
#[derive(Debug, Clone)]
pub(crate) enum DistCache {
    /// No table needed (atoms, Gaussians), or deliberately not built
    /// (reference path).
    None,
    /// Piecewise-polynomial density/CDF table.
    Poly(PolyCdf),
    /// Per-component caches, aligned with `Mixture::components`.
    Mixture(Vec<DistCache>),
}

static NONE_CACHE: DistCache = DistCache::None;

impl DistCache {
    pub(crate) fn build(d: &ScoreDist) -> Self {
        match d {
            ScoreDist::Uniform(_) | ScoreDist::Piecewise(_) => {
                // ctk-allow(panic-unwrap): PolyCdf::build succeeds for exactly these two variants
                DistCache::Poly(PolyCdf::build(d).expect("polynomial family"))
            }
            ScoreDist::Mixture(m) => DistCache::Mixture(
                m.components()
                    .iter()
                    .map(|(_, c)| DistCache::build(c))
                    .collect(),
            ),
            _ => DistCache::None,
        }
    }

    fn component(&self, i: usize) -> &DistCache {
        match self {
            DistCache::Mixture(v) => &v[i],
            _ => &NONE_CACHE,
        }
    }
}

/// Runs `f` with the distribution's polynomial table: borrowed from the
/// cache when present, built on the fly otherwise (standalone calls).
fn with_poly<R>(d: &ScoreDist, c: &DistCache, f: impl FnOnce(&PolyCdf) -> R) -> R {
    match c {
        DistCache::Poly(p) => f(p),
        // ctk-allow(panic-unwrap): callers route only polynomial-family dists here
        _ => f(&PolyCdf::build(d).expect("continuous polynomial family")),
    }
}

/// Piecewise-linear density with its exact piecewise-quadratic CDF, in
/// segment form: the shared representation of Uniform (one constant
/// segment) and Piecewise (linear per segment) that the closed-form
/// comparisons integrate over.
#[derive(Debug, Clone)]
pub(crate) struct PolyCdf {
    /// Segment breakpoints, strictly increasing (≥ 2).
    xs: Vec<f64>,
    /// Density at the left end of segment `i` (from inside the segment).
    yl: Vec<f64>,
    /// Density at the right end of segment `i` (from inside the segment).
    yr: Vec<f64>,
    /// Exact CDF at each breakpoint (`cdf[0] = 0`, `cdf[last] = 1`).
    cdf: Vec<f64>,
}

impl PolyCdf {
    fn build(d: &ScoreDist) -> Option<Self> {
        match d {
            ScoreDist::Uniform(u) => {
                let h = 1.0 / (u.hi() - u.lo());
                Some(Self {
                    xs: vec![u.lo(), u.hi()],
                    yl: vec![h],
                    yr: vec![h],
                    cdf: vec![0.0, 1.0],
                })
            }
            ScoreDist::Piecewise(p) => {
                let xs = p.knots().to_vec();
                let ys = p.densities();
                let yl = ys[..ys.len() - 1].to_vec();
                let yr = ys[1..].to_vec();
                let mut cdf = Vec::with_capacity(xs.len());
                cdf.push(0.0);
                let mut acc = 0.0;
                for i in 1..xs.len() {
                    acc += (xs[i] - xs[i - 1]) * (ys[i] + ys[i - 1]) * 0.5;
                    cdf.push(acc);
                }
                // ctk-allow(panic-unwrap): cdf starts with push(0.0), never empty
                *cdf.last_mut().expect("non-empty") = 1.0;
                Some(Self { xs, yl, yr, cdf })
            }
            _ => None,
        }
    }

    fn lo(&self) -> f64 {
        self.xs[0]
    }

    fn hi(&self) -> f64 {
        // ctk-allow(panic-unwrap): xs holds >= 2 knots by construction
        *self.xs.last().expect("non-empty")
    }

    /// Exact CDF at `x` (piecewise quadratic, saturating outside support).
    fn cdf_at(&self, x: f64) -> f64 {
        if x <= self.lo() {
            return 0.0;
        }
        if x >= self.hi() {
            return 1.0;
        }
        let i = self.xs.partition_point(|&v| v <= x) - 1;
        self.cdf_in_segment(i, x)
    }

    /// CDF at `x`, known to lie in segment `i`.
    fn cdf_in_segment(&self, i: usize, x: f64) -> f64 {
        let h = self.xs[i + 1] - self.xs[i];
        let t = x - self.xs[i];
        let slope = (self.yr[i] - self.yl[i]) / h;
        self.cdf[i] + self.yl[i] * t + 0.5 * slope * t * t
    }

    /// Density at `x`, known to lie in segment `i`.
    fn pdf_in_segment(&self, i: usize, x: f64) -> f64 {
        let h = self.xs[i + 1] - self.xs[i];
        let t = x - self.xs[i];
        self.yl[i] + (self.yr[i] - self.yl[i]) * (t / h)
    }
}

/// Exact `P(A > B) = ∫ f_A F_B` for two piecewise-linear densities.
///
/// On every merged segment the integrand is a single polynomial of degree
/// ≤ 3 (linear density × quadratic CDF), for which Simpson's rule is exact,
/// so the only error is float rounding.
fn poly_vs_poly(a: &PolyCdf, b: &PolyCdf) -> f64 {
    let (alo, ahi) = (a.lo(), a.hi());
    let (blo, bhi) = (b.lo(), b.hi());
    // A's mass strictly above B's support wins outright.
    let mut acc = if ahi > bhi { 1.0 - a.cdf_at(bhi) } else { 0.0 };
    let lo = alo.max(blo);
    let hi = ahi.min(bhi);
    if lo >= hi {
        return acc;
    }
    // Two-pointer walk over the merged breakpoints inside [lo, hi];
    // invariant: xs[ia] <= x0 < xs[ia + 1] (same for ib).
    let mut ia = a.xs.partition_point(|&v| v <= lo) - 1;
    let mut ib = b.xs.partition_point(|&v| v <= lo) - 1;
    let mut x0 = lo;
    while x0 < hi {
        let xa = a.xs[ia + 1];
        let xb = b.xs[ib + 1];
        let x1 = xa.min(xb).min(hi);
        let xm = 0.5 * (x0 + x1);
        let g0 = a.pdf_in_segment(ia, x0) * b.cdf_in_segment(ib, x0);
        let gm = a.pdf_in_segment(ia, xm) * b.cdf_in_segment(ib, xm);
        let g1 = a.pdf_in_segment(ia, x1) * b.cdf_in_segment(ib, x1);
        acc += (x1 - x0) / 6.0 * (g0 + 4.0 * gm + g1);
        if x1 >= xa {
            ia += 1;
        }
        if x1 >= xb {
            ib += 1;
        }
        x0 = x1;
    }
    acc
}

/// Exact `P(A > G) = ∫ f_A(x) Φ((x−μ)/σ) dx` for a piecewise-linear
/// density `A` against a Gaussian `G`, via the antiderivatives
/// `∫Φ = zΦ + φ` and `∫zΦ = ½((z²−1)Φ + zφ)`.
fn poly_vs_gauss(p: &PolyCdf, g: &Gaussian) -> f64 {
    // Beyond ±ZMAX·σ the crate's Φ saturates to exactly 0/1 (erf saturates
    // past 6·√2 ≈ 8.49), so the tails are handled as flat factors: the low
    // tail contributes nothing, the high tail contributes A's mass there.
    // This also keeps the antiderivative differences well-conditioned when
    // A's support extends far beyond the Gaussian's.
    const ZMAX: f64 = 9.0;
    let (mu, sigma) = (g.mu(), g.sigma());
    let zlo = mu - ZMAX * sigma;
    let zhi = mu + ZMAX * sigma;
    let mut acc = 0.0;
    for i in 0..p.xs.len() - 1 {
        let (x0, x1) = (p.xs[i], p.xs[i + 1]);
        let (y0, y1) = (p.yl[i], p.yr[i]);
        let s = (y1 - y0) / (x1 - x0);
        // Curved part: intersection with [zlo, zhi].
        let a = x0.max(zlo);
        let b = x1.min(zhi);
        if a < b {
            acc += linear_times_phi(mu, sigma, x0, y0, s, a, b);
        }
        // Flat high tail (Φ = 1): the segment's density mass above zhi.
        let a = x0.max(zhi);
        if a < x1 {
            let ya = y0 + s * (a - x0);
            acc += (x1 - a) * 0.5 * (ya + y1);
        }
    }
    acc
}

/// `∫_a^b (y0 + s·(x − x0)) · Φ((x − μ)/σ) dx`, exactly.
fn linear_times_phi(mu: f64, sigma: f64, x0: f64, y0: f64, s: f64, a: f64, b: f64) -> f64 {
    // Substituting z = (x − μ)/σ turns the linear factor into α + βz.
    let alpha = y0 + s * (mu - x0);
    let beta = s * sigma;
    let (za, zb) = ((a - mu) / sigma, (b - mu) / sigma);
    let i0 = |z: f64| z * normal_cdf(z) + normal_pdf(z);
    let i1 = |z: f64| 0.5 * ((z * z - 1.0) * normal_cdf(z) + z * normal_pdf(z));
    sigma * (alpha * (i0(zb) - i0(za)) + beta * (i1(zb) - i1(za)))
}

/// Dense matrix of pairwise probabilities for a table:
/// `m[i][j] = P(s_i > s_j)`, with `m[i][i] = 0.5` by convention.
#[derive(Debug, Clone)]
pub struct PairwiseMatrix {
    n: usize,
    p: Vec<f64>,
}

impl PairwiseMatrix {
    /// Computes all `n(n-1)/2` comparison probabilities of `table`.
    ///
    /// A sweep-line over the supports sorted by lower endpoint resolves
    /// every strictly-disjoint pair to 0/1 analytically; only overlapping
    /// pairs run the (closed-form) evaluator, on the calling thread.
    pub fn compute(table: &UncertainTable) -> Self {
        let n = table.len();
        let dists: Vec<&ScoreDist> = table.dists().collect();
        let caches: Vec<DistCache> = dists.iter().map(|d| DistCache::build(d)).collect();
        let supports: Vec<(f64, f64)> = dists.iter().map(|d| d.support()).collect();

        // Sweep-line: tuples sorted by support lower endpoint (ties by
        // index keep the visiting order deterministic).
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_unstable_by(|&i, &j| {
            supports[i as usize]
                .0
                .total_cmp(&supports[j as usize].0)
                .then(i.cmp(&j))
        });

        let mut p = vec![0.5; n * n];
        for a_pos in 0..n {
            let ia = order[a_pos] as usize;
            let ahi = supports[ia].1;
            let mut b_pos = a_pos + 1;
            while b_pos < n {
                let ib = order[b_pos] as usize;
                if supports[ib].0 > ahi {
                    break;
                }
                // Overlapping pairs are evaluated in (i < j) index
                // orientation — the orientation every entry was computed
                // in before the sweep existed, so the stored floats are
                // unchanged.
                let (i, j) = (ia.min(ib), ia.max(ib));
                let pij = pr_fast(dists[i], &caches[i], dists[j], &caches[j]);
                p[i * n + j] = pij;
                p[j * n + i] = 1.0 - pij;
                b_pos += 1;
            }
            // Everything past the frontier sits strictly above A's support:
            // P(A > B) = 0 exactly — the same exact 0 the shared arms'
            // strict-disjoint early-out returns, so the shortcut is
            // bit-identical to evaluating, every family included.
            for rest in &order[b_pos..] {
                let ib = *rest as usize;
                p[ia * n + ib] = 0.0;
                p[ib * n + ia] = 1.0;
            }
        }
        Self { n, p }
    }

    /// The matrix with every pair through the generic grid-quadrature
    /// [`pr_greater_reference`], sequentially. Test-only: the oracle of
    /// `reference_matrix_stays_close_to_fast_matrix`.
    #[cfg(test)]
    fn compute_reference(table: &UncertainTable) -> Self {
        let n = table.len();
        let mut p = vec![0.5; n * n];
        for i in 0..n {
            for j in (i + 1)..n {
                let v = pr_greater_reference(table.dist_at(i), table.dist_at(j));
                p[i * n + j] = v;
                p[j * n + i] = 1.0 - v;
            }
        }
        Self { n, p }
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the matrix is over an empty table.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// `P(s_i > s_j)` by tuple index.
    pub fn pr(&self, i: usize, j: usize) -> f64 {
        self.p[i * self.n + j]
    }

    /// True if the relative order of tuples `i` and `j` is uncertain.
    pub fn uncertain(&self, i: usize, j: usize) -> bool {
        let p = self.pr(i, j);
        p > ORDER_EPS && p < 1.0 - ORDER_EPS
    }

    /// Number of unordered pairs whose relative order is uncertain — the
    /// size of the paper's relevant-question space over the whole table.
    pub fn uncertain_pair_count(&self) -> usize {
        let mut c = 0;
        for i in 0..self.n {
            for j in (i + 1)..self.n {
                if self.uncertain(i, j) {
                    c += 1;
                }
            }
        }
        c
    }

    /// True if the relative order of tuples `i` and `j` is decided — the
    /// entry is saturated at (numerically) 0 or 1.
    pub fn decided(&self, i: usize, j: usize) -> bool {
        !self.uncertain(i, j)
    }

    /// Per-tuple certain-dominance counts: for each tuple `t`, how many
    /// other tuples are certainly above it and how many are certainly
    /// below it. One O(n²) scan; the input of the certain/possible top-K
    /// bounds ([`crate::bounds::TopKBounds`]).
    pub fn certain_dominance_counts(&self) -> (Vec<u32>, Vec<u32>) {
        let mut above = vec![0u32; self.n];
        let mut below = vec![0u32; self.n];
        for t in 0..self.n {
            for j in 0..self.n {
                if j == t {
                    continue;
                }
                let p = self.pr(t, j);
                if certainly_greater(p) {
                    below[t] += 1;
                } else if certainly_greater(1.0 - p) {
                    above[t] += 1;
                }
            }
        }
        (above, below)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(lo: f64, hi: f64) -> ScoreDist {
        ScoreDist::uniform(lo, hi).unwrap()
    }

    /// A deterministic zoo of every family, with overlapping, touching and
    /// disjoint supports, atoms, and nested mixtures.
    fn zoo() -> Vec<ScoreDist> {
        vec![
            u(0.0, 1.0),
            u(0.9, 1.1),
            u(2.0, 3.0),
            ScoreDist::gaussian(0.4, 0.2).unwrap(),
            ScoreDist::gaussian(1.0, 0.05).unwrap(),
            ScoreDist::discrete(&[(0.1, 0.4), (0.9, 0.6)]).unwrap(),
            ScoreDist::piecewise(&[(0.0, 0.0), (0.2, 1.0), (0.6, 1.0), (1.0, 0.0)]).unwrap(),
            ScoreDist::piecewise(&[(-1.0, 0.0), (-0.5, 1.0), (0.2, 1.0), (0.8, 0.0)]).unwrap(),
            ScoreDist::triangular(0.0, 0.7, 1.0).unwrap(),
            ScoreDist::piecewise(&[(0.2, 0.1), (0.5, 2.0), (0.6, 0.3), (1.2, 1.0)]).unwrap(),
            ScoreDist::point(0.45),
            ScoreDist::point(1.0),
            ScoreDist::bimodal(
                0.4,
                ScoreDist::uniform(0.0, 0.3).unwrap(),
                0.6,
                ScoreDist::gaussian(0.7, 0.05).unwrap(),
            )
            .unwrap(),
            // Mixture carrying an atom (exercises the tie-split fix).
            ScoreDist::bimodal(0.5, ScoreDist::point(0.9), 0.5, u(0.0, 0.5)).unwrap(),
            // Effective support strictly disjoint from most of the zoo but
            // with a non-saturating Gaussian tail — exercises the strict-
            // disjoint early-out ahead of the Gaussian closed form.
            ScoreDist::gaussian(8.2, 0.01).unwrap(),
            // Weights whose normalization misses 1.0 by an ulp — the
            // early-out must win over the mixture weight sum.
            ScoreDist::mixture(vec![(0.1, u(0.0, 1.0)), (0.3, u(0.2, 0.8))]).unwrap(),
        ]
    }

    #[test]
    fn identical_uniforms_tie_at_half() {
        let a = u(0.0, 1.0);
        let p = pr_greater(&a, &a.clone());
        assert!((p - 0.5).abs() < 1e-9, "p = {p}");
    }

    #[test]
    fn disjoint_supports_are_certain() {
        let hi = u(2.0, 3.0);
        let lo = u(0.0, 1.0);
        assert_eq!(pr_greater(&hi, &lo), 1.0);
        assert_eq!(pr_greater(&lo, &hi), 0.0);
    }

    #[test]
    fn overlapping_uniform_closed_form() {
        // A ~ U[0,2], B ~ U[1,3]: P(A > B) = area computation = 1/8.
        let a = u(0.0, 2.0);
        let b = u(1.0, 3.0);
        let p = pr_greater(&a, &b);
        assert!((p - 0.125).abs() < 1e-12, "p = {p}");
    }

    #[test]
    fn complementarity_across_families() {
        for a in &zoo() {
            for b in &zoo() {
                let p = pr_greater(a, b);
                let q = pr_greater(b, a);
                assert!(
                    (p + q - 1.0).abs() < 1e-9,
                    "complementarity failed: {a:?} vs {b:?}: {p} + {q}"
                );
            }
        }
    }

    #[test]
    fn fast_path_agrees_with_high_resolution_reference() {
        // The satellite drift bound: analytic vs converged quadrature.
        for a in &zoo() {
            for b in &zoo() {
                let fast = pr_greater(a, b);
                let slow = pr_greater_reference_res(a, b, 16_384);
                assert!(
                    (fast - slow).abs() < 1e-6,
                    "{a:?} vs {b:?}: fast {fast} reference {slow}"
                );
            }
        }
    }

    #[test]
    fn reference_path_is_still_available_at_production_resolution() {
        let a = u(0.0, 2.0);
        let b = ScoreDist::triangular(1.0, 1.5, 3.0).unwrap();
        let fast = pr_greater(&a, &b);
        let slow = pr_greater_reference(&a, &b);
        assert!((fast - slow).abs() < 1e-5, "fast {fast} vs slow {slow}");
    }

    #[test]
    fn discrete_tie_split_is_symmetric_for_mixtures_with_atoms() {
        // Regression for the (_, Discrete) arm: a mixture with an atom at
        // one of the discrete support points must split the tie mass the
        // same way in both orientations.
        let mix = ScoreDist::bimodal(0.5, ScoreDist::point(1.0), 0.5, u(0.0, 0.5)).unwrap();
        let disc = ScoreDist::discrete(&[(0.25, 0.5), (1.0, 0.5)]).unwrap();
        let p = pr_greater(&mix, &disc);
        let q = pr_greater(&disc, &mix);
        assert!((p + q - 1.0).abs() < 1e-12, "p = {p}, q = {q}");
        // By hand: P(mix > disc) = ½·[atom at 1: beats 0.25 (½), ties 1
        // (½·½)] + ½·[U(0,.5): beats 0.25 with P(U > .25) = ½ · ½].
        let expect = 0.5 * (0.5 + 0.25) + 0.5 * (0.5 * 0.5);
        assert!((p - expect).abs() < 1e-12, "p = {p}, expect {expect}");
    }

    #[test]
    fn gaussian_vs_polynomial_closed_form_matches_quadrature() {
        let g = ScoreDist::gaussian(0.5, 0.1).unwrap();
        for other in [
            u(0.2, 0.9),
            ScoreDist::piecewise(&[(0.0, 0.0), (0.2, 1.0), (0.6, 1.0), (1.0, 0.0)]).unwrap(),
            ScoreDist::triangular(0.3, 0.5, 0.8).unwrap(),
            u(-5.0, 5.0), // support far beyond the Gaussian's
        ] {
            let fast = pr_greater(&g, &other);
            let slow = pr_greater_reference_res(&g, &other, 16_384);
            assert!(
                (fast - slow).abs() < 1e-6,
                "{other:?}: fast {fast} vs reference {slow}"
            );
            let back = pr_greater(&other, &g);
            assert!((fast + back - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn strictly_disjoint_pairs_are_exact_for_every_family() {
        // Regression (review findings): the strict-disjoint early-out must
        // return bit-exact 0/1 from *direct* evaluation too, or the matrix
        // sweep's shortcut would diverge from `pr_greater`. Two mechanisms
        // used to break it: the Gaussian closed form ran first (leaving a
        // ~1e-17 tail for disjoint ±8σ supports), and mixture weight sums
        // can miss 1.0 by an ulp.
        let far = ScoreDist::gaussian(8.2, 0.01).unwrap();
        let near = ScoreDist::gaussian(0.0, 1.0).unwrap();
        assert_eq!(pr_greater(&far, &near).to_bits(), 1.0f64.to_bits());
        assert_eq!(pr_greater(&near, &far).to_bits(), 0.0f64.to_bits());
        let mix = ScoreDist::mixture(vec![(0.1, u(0.0, 1.0)), (0.3, u(0.2, 0.8))]).unwrap();
        let above = u(2.0, 3.0);
        assert_eq!(pr_greater(&above, &mix).to_bits(), 1.0f64.to_bits());
        assert_eq!(pr_greater(&mix, &above).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn point_vs_point_ties() {
        let a = ScoreDist::point(1.0);
        assert_eq!(pr_greater(&a, &ScoreDist::point(1.0)), 0.5);
        assert_eq!(pr_greater(&a, &ScoreDist::point(0.0)), 1.0);
        assert_eq!(pr_greater(&a, &ScoreDist::point(2.0)), 0.0);
    }

    #[test]
    fn discrete_tie_mass_split() {
        // A and B both have an atom at 1.0 with mass 0.5.
        let a = ScoreDist::discrete(&[(1.0, 0.5), (2.0, 0.5)]).unwrap();
        let b = ScoreDist::discrete(&[(0.0, 0.5), (1.0, 0.5)]).unwrap();
        // P(A>B): A=1: beats 0 (0.5), ties 1 (0.5*0.5 credit=0.25) -> 0.5*(0.5+0.25)
        //         A=2: beats everything -> 0.5*1
        let p = pr_greater(&a, &b);
        assert!((p - (0.5 * 0.75 + 0.5)).abs() < 1e-12, "p = {p}");
        let q = pr_greater(&b, &a);
        assert!((p + q - 1.0).abs() < 1e-12);
    }

    #[test]
    fn gaussian_closed_form_agrees_with_quadrature_of_mixed_pair() {
        // Compare a Gaussian with a trapezoid centred on its mean: p ~ 0.5.
        let g = ScoreDist::gaussian(0.5, 0.1).unwrap();
        let t = ScoreDist::piecewise(&[(0.2, 0.0), (0.4, 1.0), (0.6, 1.0), (0.8, 0.0)]).unwrap();
        let p = pr_greater(&g, &t);
        assert!((p - 0.5).abs() < 0.02, "p = {p}");
    }

    #[test]
    fn pairwise_matrix_consistency() {
        let table = UncertainTable::new(vec![
            u(0.0, 1.0),
            u(0.5, 1.5),
            u(2.0, 3.0),
            ScoreDist::point(0.75),
        ])
        .unwrap();
        let m = PairwiseMatrix::compute(&table);
        assert_eq!(m.len(), 4);
        assert!(!m.is_empty());
        for i in 0..4 {
            assert_eq!(m.pr(i, i), 0.5);
            for j in 0..4 {
                assert!((m.pr(i, j) + m.pr(j, i) - 1.0).abs() < 1e-9);
            }
        }
        // Tuple 2 dominates everyone: certain orders.
        assert!(!m.uncertain(2, 0));
        assert!(!m.uncertain(2, 1));
        assert!(!m.uncertain(2, 3));
        // Tuples 0 and 1 overlap.
        assert!(m.uncertain(0, 1));
        // Uncertain pairs: (0,1), (0,3), (1,3).
        assert_eq!(m.uncertain_pair_count(), 3);
    }

    #[test]
    fn sweep_line_matrix_matches_per_pair_bruteforce() {
        // The sweep's 0/1 shortcut and cached evaluation must agree with
        // calling `pr_greater` on every pair, bit for bit.
        let table = UncertainTable::new(zoo()).unwrap();
        let m = PairwiseMatrix::compute(&table);
        for i in 0..table.len() {
            for j in 0..table.len() {
                let expect = if i == j {
                    0.5
                } else if i < j {
                    pr_greater(table.dist_at(i), table.dist_at(j))
                } else {
                    1.0 - pr_greater(table.dist_at(j), table.dist_at(i))
                };
                assert_eq!(
                    m.pr(i, j).to_bits(),
                    expect.to_bits(),
                    "({i},{j}): {} vs {expect}",
                    m.pr(i, j)
                );
            }
        }
    }

    #[test]
    fn reference_matrix_stays_close_to_fast_matrix() {
        let table = UncertainTable::new(zoo()).unwrap();
        let fast = PairwiseMatrix::compute(&table);
        let slow = PairwiseMatrix::compute_reference(&table);
        for i in 0..table.len() {
            for j in 0..table.len() {
                assert!(
                    (fast.pr(i, j) - slow.pr(i, j)).abs() < 1e-5,
                    "({i},{j}): {} vs {}",
                    fast.pr(i, j),
                    slow.pr(i, j)
                );
            }
        }
    }
}
