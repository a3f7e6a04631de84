//! Numerical integration primitives: trapezoid rules on fixed grids (used by
//! the exact TPO probability engine) and adaptive Simpson for one-off
//! integrals in tests and diagnostics.

/// Integrates samples `y` taken at (sorted, not necessarily uniform) points
/// `x` with the composite trapezoid rule.
///
/// # Panics
/// Panics if `x.len() != y.len()` or fewer than two points are given.
pub fn trapezoid(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "x/y length mismatch");
    assert!(x.len() >= 2, "need at least two samples");
    let mut acc = 0.0;
    for i in 1..x.len() {
        acc += (x[i] - x[i - 1]) * (y[i] + y[i - 1]) * 0.5;
    }
    acc
}

/// Cumulative trapezoid: returns `out[i] = Int_{x[0]}^{x[i]} y dx` computed
/// with the composite trapezoid rule (`out[0] = 0`).
#[cfg(test)]
fn cumulative_trapezoid(x: &[f64], y: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), y.len(), "x/y length mismatch");
    let mut out = Vec::with_capacity(x.len());
    out.push(0.0);
    let mut acc = 0.0;
    for i in 1..x.len() {
        acc += (x[i] - x[i - 1]) * (y[i] + y[i - 1]) * 0.5;
        out.push(acc);
    }
    out
}

/// Cumulative trapezoid into `out`: `out[i] = Int_{x[0]}^{x[i]} y dx` with
/// the composite trapezoid rule (`out[0] = 0`), reusing the buffer to avoid
/// per-call allocations in the hot nested-integration loop.
pub fn cumulative_trapezoid_into(x: &[f64], y: &[f64], out: &mut Vec<f64>) {
    assert_eq!(x.len(), y.len(), "x/y length mismatch");
    out.clear();
    out.reserve(x.len());
    out.push(0.0);
    let mut acc = 0.0;
    for i in 1..x.len() {
        acc += (x[i] - x[i - 1]) * (y[i] + y[i - 1]) * 0.5;
        out.push(acc);
    }
}

/// Adaptive Simpson integration of `f` over `[a, b]` to absolute tolerance
/// `tol`. Recursion depth is capped at 50 to guarantee termination on
/// pathological integrands.
pub fn adaptive_simpson<F: Fn(f64) -> f64>(f: &F, a: f64, b: f64, tol: f64) -> f64 {
    fn simpson<F: Fn(f64) -> f64>(f: &F, a: f64, fa: f64, b: f64, fb: f64) -> (f64, f64, f64) {
        let m = 0.5 * (a + b);
        let fm = f(m);
        let s = (b - a) / 6.0 * (fa + 4.0 * fm + fb);
        (m, fm, s)
    }
    #[allow(clippy::too_many_arguments)]
    fn recurse<F: Fn(f64) -> f64>(
        f: &F,
        a: f64,
        fa: f64,
        b: f64,
        fb: f64,
        m: f64,
        fm: f64,
        whole: f64,
        tol: f64,
        depth: u32,
    ) -> f64 {
        let (lm, flm, left) = simpson(f, a, fa, m, fm);
        let (rm, frm, right) = simpson(f, m, fm, b, fb);
        let delta = left + right - whole;
        if depth >= 50 || delta.abs() <= 15.0 * tol {
            left + right + delta / 15.0
        } else {
            recurse(f, a, fa, m, fm, lm, flm, left, tol * 0.5, depth + 1)
                + recurse(f, m, fm, b, fb, rm, frm, right, tol * 0.5, depth + 1)
        }
    }

    if a == b {
        return 0.0;
    }
    let fa = f(a);
    let fb = f(b);
    let (m, fm, whole) = simpson(f, a, fa, b, fb);
    recurse(f, a, fa, b, fb, m, fm, whole, tol, 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trapezoid_integrates_linear_exactly() {
        let x: Vec<f64> = (0..=10).map(|i| i as f64 / 10.0).collect();
        let y: Vec<f64> = x.iter().map(|v| 3.0 * v + 1.0).collect();
        // Int_0^1 (3x + 1) dx = 2.5, exact for trapezoid on linear integrands.
        assert!((trapezoid(&x, &y) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn trapezoid_handles_nonuniform_grids() {
        let x = [0.0, 0.1, 0.5, 0.6, 1.0];
        let y: Vec<f64> = x.iter().map(|v| 2.0 * v).collect();
        assert!((trapezoid(&x, &y) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cumulative_matches_total() {
        let x: Vec<f64> = (0..=100).map(|i| i as f64 / 100.0).collect();
        let y: Vec<f64> = x.iter().map(|v| v * v).collect();
        let cum = cumulative_trapezoid(&x, &y);
        assert_eq!(cum[0], 0.0);
        assert!((cum.last().unwrap() - trapezoid(&x, &y)).abs() < 1e-14);
        // monotone for nonnegative integrand
        for w in cum.windows(2) {
            assert!(w[1] >= w[0]);
        }
    }

    #[test]
    fn cumulative_into_matches_allocating_version() {
        let x: Vec<f64> = (0..=50).map(|i| i as f64 / 50.0).collect();
        let y: Vec<f64> = x.iter().map(|v| (3.0 * v).sin().abs()).collect();
        let a = cumulative_trapezoid(&x, &y);
        let mut b = vec![1.0; 3]; // stale contents must be cleared
        cumulative_trapezoid_into(&x, &y, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn simpson_integrates_smooth_functions() {
        let val = adaptive_simpson(&|x: f64| x.exp(), 0.0, 1.0, 1e-10);
        assert!((val - (std::f64::consts::E - 1.0)).abs() < 1e-9);

        let val = adaptive_simpson(&|x: f64| (x * x).sin(), 0.0, 2.0, 1e-10);
        // Reference computed with high-resolution trapezoid.
        let x: Vec<f64> = (0..=200_000).map(|i| i as f64 * 2.0 / 200_000.0).collect();
        let y: Vec<f64> = x.iter().map(|v| (v * v).sin()).collect();
        assert!((val - trapezoid(&x, &y)).abs() < 1e-7);
    }

    #[test]
    fn simpson_degenerate_interval_is_zero() {
        assert_eq!(adaptive_simpson(&|x: f64| x, 2.0, 2.0, 1e-9), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn trapezoid_rejects_mismatched_lengths() {
        trapezoid(&[0.0, 1.0], &[1.0]);
    }
}
