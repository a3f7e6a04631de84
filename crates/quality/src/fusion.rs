//! Accuracy-weighted vote fusion: log-odds-weighted majority.
//!
//! Under the naive Bayes model (workers err independently with known
//! accuracies p_w, answers a priori equiprobable), the posterior
//! log-odds of "yes" given the votes is exactly
//! `s = Σ_v ±ln(p_w / (1 - p_w))` — each vote contributes its worker's
//! log-odds weight, signed by the vote's direction. The fused verdict is
//! `sign(s)` and the probability that verdict is correct is
//! `σ(|s|) = 1 / (1 + e^{-|s|})`, which is what the Bayesian belief
//! update in `ctk-core` consumes as the per-answer accuracy.
//!
//! With equal weights `w > 0` the score reduces to `w · (#yes − #no)`,
//! whose sign is the plain majority — weighted fusion strictly
//! generalizes `majority_vote` (pinned by
//! `equal_weights_reduce_to_exact_majority`).

/// A fused verdict with its evidence mass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct FusedVerdict {
    /// The weighted-majority answer.
    pub(crate) yes: bool,
    /// The signed log-odds score `Σ ±w_v` (positive favors yes). Folded
    /// in vote order, so identical inputs fuse bit-identically.
    pub(crate) score: f64,
    /// Posterior probability the verdict is correct: `σ(|score|)`. A
    /// zero-information panel (score 0) grades 0.5 — the Bayesian update
    /// downstream then treats the answer as worthless, which it is.
    pub(crate) posterior: f64,
}

/// Fuses `(vote, weight)` pairs, where `weight` is the voter's accuracy
/// log-odds (see [`crate::posterior::log_odds`]). Returns `None` on an
/// empty panel.
///
/// Ties (score neither positive nor negative — e.g. all weights zero, or
/// exactly opposed evidence) fall back to the unweighted vote count, and
/// a tie there resolves to "no" deterministically; either way the
/// posterior is 0.5, so downstream treats the answer as uninformative.
pub(crate) fn fuse_weighted(votes: &[(bool, f64)]) -> Option<FusedVerdict> {
    if votes.is_empty() {
        return None;
    }
    let mut score = 0.0;
    for &(yes, w) in votes {
        // Non-finite weights would poison the fold; treat them as
        // zero-information votes.
        if w.is_finite() {
            score += if yes { w } else { -w };
        }
    }
    let yes = if score > 0.0 {
        true
    } else if score < 0.0 {
        false
    } else {
        let yeas = votes.iter().filter(|&&(v, _)| v).count();
        yeas * 2 > votes.len()
    };
    let posterior = 1.0 / (1.0 + (-score.abs()).exp());
    Some(FusedVerdict {
        yes,
        score,
        posterior,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::posterior::log_odds;
    use ctk_crowd::aggregate::majority_vote;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn empty_panel_fuses_to_none() {
        assert!(fuse_weighted(&[]).is_none());
    }

    #[test]
    fn one_expert_outvotes_three_spammers() {
        let w_exp = log_odds(0.99);
        let w_spam = log_odds(0.55);
        let votes = [
            (true, w_exp),
            (false, w_spam),
            (false, w_spam),
            (false, w_spam),
        ];
        let f = fuse_weighted(&votes).unwrap();
        assert!(f.yes, "the expert's evidence dominates");
        assert!(f.posterior > 0.5);
        // The plain majority would have said no.
        assert!(!majority_vote(&[true, false, false, false, false]));
    }

    #[test]
    fn adversarial_weights_flip_the_vote() {
        // A worker estimated *below* 0.5 carries negative weight: their
        // "yes" is evidence for "no".
        let w_bad = log_odds(0.1);
        assert!(w_bad < 0.0);
        let f = fuse_weighted(&[(true, w_bad)]).unwrap();
        assert!(!f.yes);
        assert!(f.posterior > 0.5, "a reliable liar is informative");
    }

    #[test]
    fn equal_weights_reduce_to_exact_majority() {
        // Satellite edge case: uniform-accuracy pools must fuse to the
        // same verdict as `majority_vote`, for every panel.
        let w = log_odds(0.8);
        let mut rng = StdRng::seed_from_u64(9);
        for n in [1usize, 3, 5, 7, 9] {
            for _ in 0..200 {
                let bools: Vec<bool> = (0..n).map(|_| rng.gen::<f64>() < 0.5).collect();
                let weighted: Vec<(bool, f64)> = bools.iter().map(|&b| (b, w)).collect();
                let f = fuse_weighted(&weighted).unwrap();
                assert_eq!(f.yes, majority_vote(&bools), "panel {bools:?}");
            }
        }
    }

    #[test]
    fn zero_information_panels_grade_half() {
        // All-zero weights: tie falls back to the raw count; posterior 0.5.
        let f = fuse_weighted(&[(true, 0.0), (true, 0.0), (false, 0.0)]).unwrap();
        assert!(f.yes, "count fallback");
        assert!((f.posterior - 0.5).abs() < 1e-12);
        // Exactly opposed evidence, even panel: deterministic "no".
        let w = log_odds(0.8);
        let f = fuse_weighted(&[(true, w), (false, w)]).unwrap();
        assert!(!f.yes);
        assert!((f.posterior - 0.5).abs() < 1e-12);
    }

    #[test]
    fn non_finite_weights_are_ignored() {
        let w = log_odds(0.9);
        let f = fuse_weighted(&[(false, f64::NAN), (true, w), (false, f64::INFINITY)]).unwrap();
        assert!(f.yes);
        assert!(f.score.is_finite() && f.posterior.is_finite());
    }

    #[test]
    fn posterior_matches_closed_form_for_one_voter() {
        // One voter of accuracy p: posterior must be exactly p (after the
        // log-odds clamp): σ(ln(p/(1-p))) = p.
        for p in [0.55, 0.7, 0.9, 0.95] {
            let f = fuse_weighted(&[(true, log_odds(p))]).unwrap();
            assert!((f.posterior - p).abs() < 1e-12, "p = {p}");
        }
    }
}
