//! Per-worker accuracy belief: a Beta posterior over the latent
//! probability that the worker answers a pairwise question correctly.
//!
//! The conjugate Beta(α, β) model is the standard online estimator for a
//! Bernoulli rate: each answer graded correct bumps α, each graded wrong
//! bumps β, and the mean α/(α+β) is the point estimate the fusion layer
//! consumes. Grading is against the *fused consensus* (the
//! platform never sees ground truth), optionally refined by the EM pass
//! in [`crate::estimator`] or seeded by gold questions.

use crate::error::QualityError;

/// How hard the mean is clamped before converting to log-odds: bounds the
/// weight any single worker can carry (|w| <= ln(99) ≈ 4.6) and keeps the
/// conversion finite at the posterior extremes.
const LOG_ODDS_CLAMP: f64 = 0.01;

/// Conjugate Beta posterior over one worker's accuracy.
#[derive(Debug, Clone, PartialEq)]
pub struct BetaPosterior {
    alpha: f64,
    beta: f64,
    prior_alpha: f64,
    prior_beta: f64,
}

impl BetaPosterior {
    /// Creates a posterior at its prior Beta(α₀, β₀).
    ///
    /// Fails with [`QualityError::InvalidPrior`] unless both pseudo-counts
    /// are positive and finite.
    pub fn new(prior_alpha: f64, prior_beta: f64) -> Result<Self, QualityError> {
        let valid = |c: f64| c > 0.0 && c.is_finite();
        if !valid(prior_alpha) || !valid(prior_beta) {
            return Err(QualityError::InvalidPrior);
        }
        Ok(Self {
            alpha: prior_alpha,
            beta: prior_beta,
            prior_alpha,
            prior_beta,
        })
    }

    /// The default prior Beta(3, 1): mean 0.75, i.e. "workers are
    /// probably decent but far from certain" — weak enough that a dozen
    /// graded answers dominate it.
    pub fn nominal() -> Self {
        Self {
            alpha: 3.0,
            beta: 1.0,
            prior_alpha: 3.0,
            prior_beta: 1.0,
        }
    }

    /// Records one answer graded against the consensus.
    pub fn observe(&mut self, correct: bool) {
        if correct {
            self.alpha += 1.0;
        } else {
            self.beta += 1.0;
        }
    }

    /// Replaces the accumulated evidence with `correct`/`wrong` soft
    /// counts on top of the prior (the history was re-interpreted, not
    /// re-collected). Negative or non-finite counts are treated as zero.
    pub fn set_evidence(&mut self, correct: f64, wrong: f64) {
        let sane = |x: f64| if x.is_finite() && x > 0.0 { x } else { 0.0 };
        self.alpha = self.prior_alpha + sane(correct);
        self.beta = self.prior_beta + sane(wrong);
    }

    /// Forgets all evidence: back to the prior. Used
    /// on quarantine re-admission so a returning worker is re-judged
    /// fresh rather than instantly re-quarantined on stale counts.
    pub fn reset(&mut self) {
        self.alpha = self.prior_alpha;
        self.beta = self.prior_beta;
    }

    /// Posterior mean `α / (α + β)` — the point estimate of the worker's
    /// accuracy.
    pub fn mean(&self) -> f64 {
        self.alpha / (self.alpha + self.beta)
    }

    /// The prior pseudo-counts (α₀, β₀) this posterior started from.
    pub fn prior(&self) -> (f64, f64) {
        (self.prior_alpha, self.prior_beta)
    }

    /// The fusion weight: `ln(p / (1 - p))` of the clamped posterior
    /// mean. Positive for better-than-coin-flip workers, negative for
    /// adversarial ones (whose votes then count as evidence for the
    /// opposite answer), zero at exactly 0.5.
    pub fn log_odds(&self) -> f64 {
        log_odds(self.mean())
    }
}

/// `ln(p / (1 - p))` with `p` clamped away from {0, 1} (see
/// `LOG_ODDS_CLAMP`) so the weight stays finite and bounded.
pub fn log_odds(p: f64) -> f64 {
    let p = p.clamp(LOG_ODDS_CLAMP, 1.0 - LOG_ODDS_CLAMP);
    (p / (1.0 - p)).ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prior_validation() {
        assert!(BetaPosterior::new(1.0, 1.0).is_ok());
        for (a, b) in [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0), (f64::NAN, 1.0)] {
            assert_eq!(
                BetaPosterior::new(a, b).unwrap_err(),
                QualityError::InvalidPrior,
                "Beta({a}, {b}) must be rejected"
            );
        }
        assert_eq!(
            BetaPosterior::new(1.0, f64::INFINITY).unwrap_err(),
            QualityError::InvalidPrior
        );
    }

    #[test]
    fn nominal_prior_mean() {
        let p = BetaPosterior::nominal();
        assert!((p.mean() - 0.75).abs() < 1e-12);
        assert_eq!(p.prior(), (3.0, 1.0));
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
        let mut p = BetaPosterior::new(2.0, 2.0).expect("valid prior");
        p.observe(true);
        p.observe(true);
        p.set_evidence(8.0, 2.0);
        // Beta(2+8, 2+2) -> mean 10/14.
        assert!((p.mean() - 10.0 / 14.0).abs() < 1e-12);
        // Garbage evidence degrades to the prior, not to NaN.
        p.set_evidence(f64::NAN, -1.0);
        assert!((p.mean() - 0.5).abs() < 1e-12);
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
