//! Bayesian reweighting for noisy crowd answers (§III-C).
//!
//! “When a crowd worker's accuracy is less than 1, no pruning of `T_K`
//! takes place, but the probabilities of the possible orderings are
//! appropriately adjusted so as to reflect the collected answers.”
//!
//! For worker accuracy `η` and received answer `a` to `q = (i ?≺ j)`:
//!
//! ```text
//! Pr(ω | a) ∝ Pr(a | ω) · Pr(ω)
//! Pr(a = yes | ω) = η        if ω implies yes
//!                 = 1 − η    if ω implies no
//!                 = η·p + (1−η)(1−p)   otherwise, p = P(i above j | below-k order)
//! ```

use crate::answers::{implication, Implication};
use crate::error::Result;
use crate::path::PathSet;

/// Applies one noisy answer as a Bayesian update and renormalizes.
///
/// * `yes` — the received answer to “does `i` rank above `j`?”;
/// * `accuracy` — the worker's probability of answering correctly,
///   clamped to `[0.5, 1.0]` (an accuracy below one half would carry
///   inverted information; the caller should flip the answer instead);
/// * `undetermined_split` — marginal `P(i above j)` used for paths that do
///   not determine the pair.
///
/// With `accuracy == 1.0` this degenerates to hard pruning.
pub fn bayes_update(
    ps: &PathSet,
    i: u32,
    j: u32,
    yes: bool,
    accuracy: f64,
    undetermined_split: f64,
) -> Result<PathSet> {
    let eta = accuracy.clamp(0.5, 1.0);
    let split = undetermined_split.clamp(0.0, 1.0);
    let (updated, _) = ps.reweighted(|p| {
        // Probability the path assigns to the event "i above j".
        let p_yes = match implication(&p.items, i, j) {
            Implication::Yes => 1.0,
            Implication::No => 0.0,
            Implication::Undetermined => split,
        };
        // Likelihood of the observed answer.
        let likelihood = if yes {
            eta * p_yes + (1.0 - eta) * (1.0 - p_yes)
        } else {
            eta * (1.0 - p_yes) + (1.0 - eta) * p_yes
        };
        p.prob * likelihood
    })?;
    Ok(updated)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TpoError;

    fn two_orderings() -> PathSet {
        PathSet::from_weighted(2, vec![(vec![0, 1], 0.5), (vec![1, 0], 0.5)]).unwrap()
    }

    #[test]
    fn perfect_accuracy_equals_pruning() {
        let s = two_orderings();
        let updated = bayes_update(&s, 0, 1, true, 1.0, 0.5).unwrap();
        assert_eq!(updated.len(), 1);
        assert_eq!(updated.paths()[0].items, vec![0, 1]);
    }

    #[test]
    fn noisy_answer_shifts_but_keeps_both() {
        let s = two_orderings();
        let updated = bayes_update(&s, 0, 1, true, 0.8, 0.5).unwrap();
        assert_eq!(updated.len(), 2, "no pruning with noisy workers");
        // Posterior: 0.8 vs 0.2.
        assert_eq!(updated.paths()[0].items, vec![0, 1]);
        assert!((updated.paths()[0].prob - 0.8).abs() < 1e-12);
        assert!((updated.paths()[1].prob - 0.2).abs() < 1e-12);
    }

    #[test]
    fn repeated_answers_accumulate() {
        let mut s = two_orderings();
        for _ in 0..3 {
            s = bayes_update(&s, 0, 1, true, 0.8, 0.5).unwrap();
        }
        // Posterior odds (0.8/0.2)^3 = 64 : 1.
        assert!((s.paths()[0].prob - 64.0 / 65.0).abs() < 1e-9);
    }

    #[test]
    fn conflicting_answers_cancel() {
        let mut s = two_orderings();
        s = bayes_update(&s, 0, 1, true, 0.8, 0.5).unwrap();
        s = bayes_update(&s, 0, 1, false, 0.8, 0.5).unwrap();
        assert!((s.paths()[0].prob - 0.5).abs() < 1e-12);
        assert!((s.paths()[1].prob - 0.5).abs() < 1e-12);
    }

    #[test]
    fn accuracy_below_half_is_clamped() {
        let s = two_orderings();
        let updated = bayes_update(&s, 0, 1, true, 0.1, 0.5).unwrap();
        // Clamped to 0.5: uninformative answer, distribution unchanged.
        assert!((updated.paths()[0].prob - 0.5).abs() < 1e-12);
    }

    #[test]
    fn undetermined_paths_use_split() {
        let s = PathSet::from_weighted(2, vec![(vec![0, 1], 0.5), (vec![2, 3], 0.5)]).unwrap();
        // Question (0 vs 5): [0,1] implies yes; [2,3] undetermined with split 0.25.
        let updated = bayes_update(&s, 0, 5, true, 0.9, 0.25).unwrap();
        // Likelihoods: yes-path: 0.9 ; undet: 0.9*0.25 + 0.1*0.75 = 0.3.
        let l0 = 0.9 * 0.5;
        let l1 = 0.3 * 0.5;
        assert!((updated.paths()[0].prob - l0 / (l0 + l1)).abs() < 1e-12);
    }

    #[test]
    fn contradiction_with_perfect_accuracy() {
        let s = PathSet::from_weighted(2, vec![(vec![0, 1], 1.0)]).unwrap();
        assert!(matches!(
            bayes_update(&s, 1, 0, true, 1.0, 0.5),
            Err(TpoError::ContradictoryAnswer)
        ));
    }
}
