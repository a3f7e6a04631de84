//! Property-based tests that pin the fast paths against this crate's
//! test-only reference implementations.

use crate::compare::{pr_greater, pr_greater_reference_res};
use crate::ScoreDist;
use proptest::prelude::*;

// The module is declared `#[cfg(test)]` in lib.rs; the helpers repeat the
// attribute because ctk-analyze reads one file at a time.

/// A moderate-parameter distribution for quadrature-agreement pins: spiky
/// enough to exercise every closed form, tame enough that the *reference*
/// trapezoid's own truncation error at the pin resolution stays far below
/// the 1e-6 bound being asserted (see DESIGN.md §10 on tolerance policy).
#[cfg(test)]
fn moderate_continuous() -> impl Strategy<Value = ScoreDist> {
    prop_oneof![
        (-2.0..2.0f64, 0.2..2.0f64).prop_map(|(c, w)| ScoreDist::uniform_centered(c, w).unwrap()),
        (-2.0..2.0f64, 0.2..0.8f64).prop_map(|(m, s)| ScoreDist::gaussian(m, s).unwrap()),
        (-2.0..2.0f64, 0.5..2.0f64, 0.0..1.0f64).prop_map(|(lo, w, frac)| {
            ScoreDist::triangular(lo, lo + frac * w, lo + w).unwrap()
        }),
        (-2.0..2.0f64, 0.5..2.0f64, 0.5..3.0f64, 0.5..3.0f64).prop_map(|(lo, w, w1, w2)| {
            ScoreDist::histogram(&[lo, lo + w / 2.0, lo + w], &[w1, w2]).unwrap()
        }),
    ]
}

#[cfg(test)]
fn moderate_dist() -> impl Strategy<Value = ScoreDist> {
    prop_oneof![
        moderate_continuous(),
        (-2.0..2.0f64).prop_map(ScoreDist::point),
        proptest::collection::vec((-2.0..2.0f64, 0.1..1.0f64), 1..4)
            .prop_map(|pairs| ScoreDist::discrete(&pairs).unwrap()),
        (moderate_continuous(), -2.0..2.0f64, 0.2..0.8f64).prop_map(|(c, atom, w)| {
            ScoreDist::bimodal(w, c, 1.0 - w, ScoreDist::point(atom)).unwrap()
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn fast_path_matches_reference_quadrature(a in moderate_dist(), b in moderate_dist()) {
        // The acceptance pin of the analytic arms: closed forms within
        // 1e-6 of the (converged) reference grid quadrature.
        let fast = pr_greater(&a, &b);
        let slow = pr_greater_reference_res(&a, &b, 65_536);
        prop_assert!(
            (fast - slow).abs() < 1e-6,
            "fast {fast} vs reference {slow} for {a:?} vs {b:?}"
        );
    }
}
