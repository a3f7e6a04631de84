//! Worker gates: who is allowed to answer.
//!
//! Real platforms gate workers on approval rate and minimum completed
//! tasks before trusting them with paid work, and quarantine accounts
//! whose quality collapses. [`GateConfig`] reproduces that policy over
//! the per-worker posterior-mean accuracy estimates.

use crate::error::QualityError;

/// Quarantine policy over per-worker posteriors. Built only through
/// [`GateConfig::new`] or [`GateConfig::spammer_default`], so the
/// approval floor is always a checked threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateConfig {
    /// Graded answers required before the gate judges a worker at all —
    /// the "minimum completed tasks" filter. Below this the worker is
    /// always eligible (everyone must be allowed to build a record).
    min_answers: u64,
    /// Posterior-mean approval floor: a judged worker whose mean drops
    /// below this is quarantined.
    approval_floor: f64,
    /// Pool questions a quarantined worker sits out before deterministic
    /// re-admission (with a reset posterior — re-judged fresh).
    pub(crate) cooldown: u64,
}

impl GateConfig {
    /// Creates a gate policy.
    ///
    /// Fails with [`QualityError::InvalidThreshold`] unless
    /// `approval_floor` is finite and in `[0, 1]`.
    pub fn new(min_answers: u64, approval_floor: f64, cooldown: u64) -> Result<Self, QualityError> {
        if !(approval_floor.is_finite() && (0.0..=1.0).contains(&approval_floor)) {
            return Err(QualityError::InvalidThreshold);
        }
        Ok(Self {
            min_answers,
            approval_floor,
            cooldown,
        })
    }

    /// The default spammer gate: judge after 12 graded answers,
    /// quarantine below a 0.62 posterior mean, re-admit after 50 pool
    /// questions. The floor sits between a spammer's asymptote (0.5) and
    /// the nominal prior mean (0.75), so honest workers never trip it
    /// while spammers reliably do once judged.
    pub fn spammer_default() -> Self {
        Self {
            min_answers: 12,
            approval_floor: 0.62,
            cooldown: 50,
        }
    }

    /// True when a worker with the given record should be quarantined.
    pub fn should_quarantine(&self, graded_answers: u64, posterior_mean: f64) -> bool {
        graded_answers >= self.min_answers && posterior_mean < self.approval_floor
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_thresholds_validated() {
        assert!(GateConfig::new(10, 0.6, 20).is_ok());
        for bad in [-0.1, 1.1, f64::NAN, f64::INFINITY] {
            assert_eq!(
                GateConfig::new(10, bad, 20).unwrap_err(),
                QualityError::InvalidThreshold,
                "floor {bad} must be rejected"
            );
        }
    }

    #[test]
    fn gate_judges_only_after_min_answers() {
        let g = GateConfig::new(10, 0.6, 20).expect("valid gate");
        assert!(!g.should_quarantine(9, 0.1), "unjudged workers pass");
        assert!(g.should_quarantine(10, 0.59));
        assert!(!g.should_quarantine(10, 0.6), "floor is exclusive");
        let d = GateConfig::spammer_default();
        assert!(d.should_quarantine(12, 0.5));
        assert!(!d.should_quarantine(12, 0.75));
    }
}
