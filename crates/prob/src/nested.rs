//! Exact top-prefix probabilities via nested quadrature.
//!
//! For a prefix `t_1 ≻ t_2 ≻ … ≻ t_d` (meaning: these are the `d` highest
//! scores, in this order) with remaining tuples `rest`, the probability is
//!
//! ```text
//! P = ∫ f_1(s_1) ∫^{s_1} f_2(s_2) … ∫^{s_{d-1}} f_d(s_d) · Π_{t ∈ rest} F_t(s_d) ds_d … ds_1
//! ```
//!
//! Computed bottom-up on a shared [`SupportGrid`]: the innermost integral is
//! a cumulative trapezoid of `f_d(x)·R(x)` where `R` is the product of the
//! rest cdfs; each outer level is a cumulative trapezoid of
//! `f_k(x) · inner(x)`. Cost is `O(d · G)` per prefix.
//!
//! This is the continuous-score ordering-probability computation of Li &
//! Deshpande (PVLDB'10) specialized to top-K prefixes, and serves as the
//! ground-truth engine against which the Monte-Carlo TPO builder is
//! validated.

use crate::dist::ScoreDist;
use crate::error::{ProbError, Result};
use crate::grid::SupportGrid;

/// Scratch buffers reused across [`prefix_probability_with`] calls so the
/// exact TPO builder performs no per-node allocation.
#[derive(Debug, Default)]
pub struct NestedScratch {
    integrand: Vec<f64>,
    inner: Vec<f64>,
    swap: Vec<f64>,
}

/// Probability that the tuples in `prefix` are the top `prefix.len()` scores
/// in exactly that order, with every distribution in `rest` scoring below
/// all of them.
///
/// All `prefix` distributions must be continuous (see
/// [`ProbError::RequiresContinuous`]); `rest` may contain any family (only
/// cdfs are needed).
pub fn prefix_probability(
    grid: &SupportGrid,
    prefix: &[&ScoreDist],
    rest: &[&ScoreDist],
) -> Result<f64> {
    let mut scratch = NestedScratch::default();
    prefix_probability_with(grid, prefix, rest, &mut scratch)
}

/// Same as [`prefix_probability`] but reusing caller-provided scratch space.
pub fn prefix_probability_with(
    grid: &SupportGrid,
    prefix: &[&ScoreDist],
    rest: &[&ScoreDist],
    scratch: &mut NestedScratch,
) -> Result<f64> {
    if prefix.is_empty() {
        return Ok(1.0);
    }
    for d in prefix {
        if !d.is_continuous() {
            return Err(ProbError::RequiresContinuous("prefix_probability"));
        }
    }
    let x = grid.points();
    let n = x.len();

    // R(x) = product of rest cdfs.
    scratch.inner.clear();
    scratch.inner.resize(n, 1.0);
    for d in rest {
        for (i, &xi) in x.iter().enumerate() {
            scratch.inner[i] *= d.cdf(xi);
        }
    }

    // Walk the prefix from the innermost (lowest-ranked) distribution out.
    for (level, d) in prefix.iter().enumerate().rev() {
        // integrand(x) = f_level(x) * inner(x)
        scratch.integrand.clear();
        scratch
            .integrand
            .extend(x.iter().zip(&scratch.inner).map(|(&xi, &r)| d.pdf(xi) * r));
        crate::quad::cumulative_trapezoid_into(x, &scratch.integrand, &mut scratch.swap);
        std::mem::swap(&mut scratch.inner, &mut scratch.swap);
        let _ = level;
    }
    Ok(scratch.inner.last().copied().unwrap_or(0.0).clamp(0.0, 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compare::pr_greater;

    fn u(lo: f64, hi: f64) -> ScoreDist {
        ScoreDist::uniform(lo, hi).unwrap()
    }

    #[test]
    fn empty_prefix_is_certain() {
        let a = u(0.0, 1.0);
        let grid = SupportGrid::build_default([&a]);
        assert_eq!(prefix_probability(&grid, &[], &[&a]).unwrap(), 1.0);
    }

    #[test]
    fn single_prefix_matches_pairwise() {
        let a = u(0.0, 1.0);
        let b = u(0.2, 0.8);
        let grid = SupportGrid::build([&a, &b], 4096);
        let p = prefix_probability(&grid, &[&a], &[&b]).unwrap();
        let q = pr_greater(&a, &b);
        assert!((p - q).abs() < 1e-5, "nested {p} vs pairwise {q}");
    }

    #[test]
    fn disjoint_supports_are_certain() {
        let hi = u(2.0, 3.0);
        let lo = u(0.0, 1.0);
        let grid = SupportGrid::build([&hi, &lo], 512);
        let p = prefix_probability(&grid, &[&hi, &lo], &[]).unwrap();
        assert!((p - 1.0).abs() < 1e-9, "p = {p}");
        let q = prefix_probability(&grid, &[&lo, &hi], &[]).unwrap();
        assert!(q.abs() < 1e-9, "q = {q}");
    }

    #[test]
    fn iid_orderings_are_equiprobable() {
        // Three iid U[0,1] scores: every ordering has probability 1/6.
        let a = u(0.0, 1.0);
        let b = u(0.0, 1.0);
        let c = u(0.0, 1.0);
        let grid = SupportGrid::build([&a, &b, &c], 2048);
        let p = prefix_probability(&grid, &[&a, &b, &c], &[]).unwrap();
        assert!((p - 1.0 / 6.0).abs() < 1e-4, "p = {p}");
    }

    #[test]
    fn prefix_probabilities_partition() {
        // The probabilities of all orderings of 3 overlapping tuples sum to 1.
        let a = u(0.0, 1.0);
        let b = u(0.1, 0.9);
        let c = u(0.3, 1.2);
        let grid = SupportGrid::build([&a, &b, &c], 2048);
        let dists = [&a, &b, &c];
        let mut total = 0.0;
        let perms: [[usize; 3]; 6] = [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ];
        for perm in perms {
            let ordered: Vec<&ScoreDist> = perm.iter().map(|&i| dists[i]).collect();
            total += prefix_probability(&grid, &ordered, &[]).unwrap();
        }
        assert!((total - 1.0).abs() < 1e-4, "total = {total}");
    }

    #[test]
    fn prefix_equals_sum_of_extensions() {
        // P(a first) = sum over second choices of P(a first, x second).
        let a = u(0.0, 1.0);
        let b = u(0.2, 1.1);
        let c = u(-0.2, 0.7);
        let grid = SupportGrid::build([&a, &b, &c], 2048);
        let top = prefix_probability(&grid, &[&a], &[&b, &c]).unwrap();
        let ab = prefix_probability(&grid, &[&a, &b], &[&c]).unwrap();
        let ac = prefix_probability(&grid, &[&a, &c], &[&b]).unwrap();
        assert!((top - (ab + ac)).abs() < 1e-5, "{top} vs {}", ab + ac);
    }

    #[test]
    fn rejects_discrete_prefix() {
        let a = ScoreDist::discrete(&[(0.0, 1.0), (1.0, 1.0)]).unwrap();
        let b = u(0.0, 1.0);
        let grid = SupportGrid::build([&a, &b], 128);
        let err = prefix_probability(&grid, &[&a], &[&b]).unwrap_err();
        assert!(matches!(err, ProbError::RequiresContinuous(_)));
    }

    #[test]
    fn discrete_rest_is_allowed() {
        let a = u(0.5, 1.5);
        let b = ScoreDist::discrete(&[(0.0, 0.5), (2.0, 0.5)]).unwrap();
        let grid = SupportGrid::build([&a, &b], 2048);
        // P(a > b) = 0.5 (a always beats 0.0, never beats 2.0).
        let p = prefix_probability(&grid, &[&a], &[&b]).unwrap();
        assert!((p - 0.5).abs() < 1e-6, "p = {p}");
    }

    #[test]
    fn gaussian_prefix_matches_closed_form() {
        let a = ScoreDist::gaussian(1.0, 0.3).unwrap();
        let b = ScoreDist::gaussian(0.5, 0.4).unwrap();
        let grid = SupportGrid::build([&a, &b], 4096);
        let p = prefix_probability(&grid, &[&a], &[&b]).unwrap();
        let q = pr_greater(&a, &b);
        assert!((p - q).abs() < 1e-5, "nested {p} vs closed form {q}");
    }
}
