//! Per-worker accuracy belief: a Beta posterior over the latent
//! probability that the worker answers a pairwise question correctly.
//!
//! The conjugate Beta(α, β) model is the standard online estimator for a
//! Bernoulli rate: each answer graded correct bumps α, each graded wrong
//! bumps β, and the mean α/(α+β) is the point estimate the fusion layer
//! consumes. Grading is against the *fused consensus* (the
//! platform never sees ground truth), refined by the EM pass in
//! [`crate::estimator`] or seeded by gold questions.

/// The prior Beta(3, 1) every worker starts from: mean 0.75, i.e.
/// "workers are probably decent but far from certain" — weak enough that
/// a dozen graded answers dominate it.
pub(crate) const PRIOR: (f64, f64) = (3.0, 1.0);

/// How hard the mean is clamped before converting to log-odds: bounds the
/// weight any single worker can carry (|w| <= ln(99) ≈ 4.6) and keeps the
/// conversion finite at the posterior extremes.
const LOG_ODDS_CLAMP: f64 = 0.01;

/// Conjugate Beta posterior over one worker's accuracy, on top of
/// [`PRIOR`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct BetaPosterior {
    alpha: f64,
    beta: f64,
}

impl BetaPosterior {
    /// A posterior at the prior.
    pub(crate) fn nominal() -> Self {
        Self {
            alpha: PRIOR.0,
            beta: PRIOR.1,
        }
    }

    /// Records one answer graded against the consensus.
    pub(crate) fn observe(&mut self, correct: bool) {
        if correct {
            self.alpha += 1.0;
        } else {
            self.beta += 1.0;
        }
    }

    /// Replaces the accumulated evidence with `correct`/`wrong` soft
    /// counts on top of the prior (the history was re-interpreted, not
    /// re-collected). Negative or non-finite counts are treated as zero.
    pub(crate) fn set_evidence(&mut self, correct: f64, wrong: f64) {
        let sane = |x: f64| if x.is_finite() && x > 0.0 { x } else { 0.0 };
        self.alpha = PRIOR.0 + sane(correct);
        self.beta = PRIOR.1 + sane(wrong);
    }

    /// Forgets all evidence: back to the prior. Used
    /// on quarantine re-admission so a returning worker is re-judged
    /// fresh rather than instantly re-quarantined on stale counts.
    pub(crate) fn reset(&mut self) {
        *self = Self::nominal();
    }

    /// Posterior mean `α / (α + β)` — the point estimate of the worker's
    /// accuracy.
    pub(crate) fn mean(&self) -> f64 {
        self.alpha / (self.alpha + self.beta)
    }

    /// The fusion weight: `ln(p / (1 - p))` of the clamped posterior
    /// mean. Positive for better-than-coin-flip workers, negative for
    /// adversarial ones (whose votes then count as evidence for the
    /// opposite answer), zero at exactly 0.5.
    pub(crate) fn log_odds(&self) -> f64 {
        log_odds(self.mean())
    }
}

/// `ln(p / (1 - p))` with `p` clamped away from {0, 1} (see
/// `LOG_ODDS_CLAMP`) so the weight stays finite and bounded.
pub(crate) fn log_odds(p: f64) -> f64 {
    let p = p.clamp(LOG_ODDS_CLAMP, 1.0 - LOG_ODDS_CLAMP);
    (p / (1.0 - p)).ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_prior_mean() {
        let p = BetaPosterior::nominal();
        assert!((p.mean() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn converges_to_known_accuracy() {
        // Satellite edge case: a worker correct 80% of the time should
        // pull the posterior mean to ~0.8 regardless of the prior.
        let mut p = BetaPosterior::nominal();
        for i in 0..1000u32 {
            p.observe(i % 5 != 0); // 800 correct, 200 wrong
        }
        assert!((p.mean() - 0.8).abs() < 0.01, "mean = {}", p.mean());

        // Spammer: posterior collapses toward 0.5 from a deliberately
        // alternating record.
        let mut s = BetaPosterior::nominal();
        for i in 0..1000u32 {
            s.observe(i % 2 == 0);
        }
        assert!((s.mean() - 0.5).abs() < 0.01, "mean = {}", s.mean());
    }

    #[test]
    fn set_evidence_replaces_counts_on_top_of_prior() {
        let mut p = BetaPosterior::nominal();
        p.observe(true);
        p.observe(true);
        p.set_evidence(8.0, 2.0);
        // Beta(3+8, 1+2) -> mean 11/14.
        assert!((p.mean() - 11.0 / 14.0).abs() < 1e-12);
        // Garbage evidence degrades to the prior, not to NaN.
        p.set_evidence(f64::NAN, -1.0);
        assert!((p.mean() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn reset_restores_the_prior() {
        let mut p = BetaPosterior::nominal();
        for _ in 0..50 {
            p.observe(false);
        }
        assert!(p.mean() < 0.2);
        p.reset();
        assert!((p.mean() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn log_odds_signs_and_bounds() {
        assert!(log_odds(0.5).abs() < 1e-12);
        assert!(log_odds(0.9) > 0.0);
        assert!(log_odds(0.1) < 0.0);
        assert!((log_odds(0.9) + log_odds(0.1)).abs() < 1e-12, "symmetry");
        // Clamped at the extremes: finite and bounded.
        assert!(log_odds(1.0).is_finite());
        assert!(log_odds(0.0).is_finite());
        assert!(log_odds(1.0) <= (99.0f64).ln() + 1e-12);
    }
}
