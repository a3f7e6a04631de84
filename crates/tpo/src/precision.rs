//! Precision targets for the Monte-Carlo TPO builder.
//!
//! Historically every caller passed a magic `worlds` constant to
//! [`crate::build::build_mc`]; this module makes precision a first-class
//! knob of the stack instead (DESIGN.md §13):
//!
//! * [`PrecisionTarget::FixedWorlds`] — the compat mode: sample exactly
//!   `m` worlds, bit-identical to the historical fixed-M pipeline. The
//!   default is [`DEFAULT_WORLDS`], the single documented source of truth
//!   for the old `worlds = 10_000` knob.
//! * [`PrecisionTarget::Adaptive`] — grow the sample in geometric batches
//!   until an empirical-Bernstein sequential-sampling bound certifies that
//!   every path probability of the top-K posterior is within `epsilon` of
//!   its true value simultaneously, with confidence `1 − delta` — or skip
//!   sampling entirely (zero worlds) when the certain/possible bounds of
//!   [`ctk_prob::TopKBounds`] already pin the whole ordered prefix.
//!
//! Every build reports what actually happened in a [`PrecisionReport`]:
//! worlds drawn, the achieved half-width, and the [`StopReason`].

use crate::error::{Result, TpoError};

/// The historical fixed Monte-Carlo sample size — the one documented
/// source of truth for the old hard-coded `worlds = 10_000` knob. Every
/// example, bench and default routes through this constant.
pub const DEFAULT_WORLDS: usize = 10_000;

/// First batch size of the adaptive builder. Doubles each look.
pub(crate) const ADAPTIVE_INITIAL_BATCH: usize = 1024;

/// Hard cap on sampled worlds. An adaptive build hitting the cap stops
/// with [`StopReason::WorldCap`] and reports the (larger-than-requested)
/// half-width it actually achieved; a larger fixed budget is an invalid
/// spec ([`PrecisionTarget::validate`]).
pub const ADAPTIVE_MAX_WORLDS: usize = 1 << 19;

/// How precise the Monte-Carlo top-K posterior must be.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PrecisionTarget {
    /// Sample exactly this many worlds — bit-identical to the historical
    /// fixed-M pipeline (pinned by tests). No error guarantee is claimed.
    FixedWorlds(usize),
    /// Sample until every path probability is within `epsilon` of its
    /// true value with confidence `1 − delta` (simultaneously over the
    /// observed paths), or the certain bounds decide the query first.
    Adaptive {
        /// Maximum tolerated per-path probability error (0 < ε < 1).
        epsilon: f64,
        /// Tolerated failure probability of the guarantee (0 < δ < 1).
        delta: f64,
    },
}

impl Default for PrecisionTarget {
    fn default() -> Self {
        PrecisionTarget::FixedWorlds(DEFAULT_WORLDS)
    }
}

impl PrecisionTarget {
    /// Human-readable mode name.
    pub fn name(&self) -> &'static str {
        match self {
            PrecisionTarget::FixedWorlds(_) => "fixed",
            PrecisionTarget::Adaptive { .. } => "adaptive",
        }
    }

    /// Validates the target: a fixed budget outside
    /// `1..=`[`ADAPTIVE_MAX_WORLDS`] and out-of-range `(ε, δ)` are invalid
    /// specs (errors, not silent repairs). The cap keeps the `m × n`
    /// score and `m × k` prefix buffers of a fixed build from overflowing.
    pub fn validate(&self) -> Result<()> {
        match *self {
            PrecisionTarget::FixedWorlds(m) if m == 0 || m > ADAPTIVE_MAX_WORLDS => {
                Err(TpoError::InvalidWorlds)
            }
            PrecisionTarget::FixedWorlds(_) => Ok(()),
            PrecisionTarget::Adaptive { epsilon, delta } => {
                let ok = |x: f64| x > 0.0 && x < 1.0 && x.is_finite();
                if ok(epsilon) && ok(delta) {
                    Ok(())
                } else {
                    Err(TpoError::InvalidPrecision { epsilon, delta })
                }
            }
        }
    }
}

/// Why a Monte-Carlo build stopped sampling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The certain/possible bounds pinned the full ordered prefix; zero
    /// worlds were drawn.
    CertainOrder,
    /// The sequential bound cleared the requested `(ε, δ)`.
    Converged,
    /// [`ADAPTIVE_MAX_WORLDS`] was reached before convergence.
    WorldCap,
    /// A `FixedWorlds` build spent its fixed budget (compat mode).
    FixedBudget,
    /// The exact nested-quadrature engine ran; no sampling involved.
    Exact,
}

impl StopReason {
    /// Human-readable reason name.
    pub fn name(&self) -> &'static str {
        match self {
            StopReason::CertainOrder => "certain-order",
            StopReason::Converged => "converged",
            StopReason::WorldCap => "world-cap",
            StopReason::FixedBudget => "fixed-budget",
            StopReason::Exact => "exact",
        }
    }
}

/// What a build actually did: worlds drawn, achieved guarantee, and why
/// it stopped. Deterministic given the build inputs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrecisionReport {
    /// Possible worlds sampled by the build.
    pub worlds_drawn: usize,
    /// Achieved simultaneous half-width (`None` for modes that claim no
    /// guarantee: fixed budgets and the exact engine).
    pub epsilon: Option<f64>,
    /// The requested confidence parameter (`None` outside adaptive mode).
    pub delta: Option<f64>,
    /// Why sampling stopped.
    pub reason: StopReason,
}

impl PrecisionReport {
    /// The compat-mode report of a fixed `m`-world build.
    pub fn fixed(m: usize) -> Self {
        Self {
            worlds_drawn: m,
            epsilon: None,
            delta: None,
            reason: StopReason::FixedBudget,
        }
    }

    /// The exact engine's report: no sampling, no MC error.
    pub fn exact() -> Self {
        Self {
            worlds_drawn: 0,
            epsilon: None,
            delta: None,
            reason: StopReason::Exact,
        }
    }

    /// Bit-exact equality (floats compared by bits, so two deterministic
    /// replays can be asserted identical).
    pub fn same_outcome(&self, other: &Self) -> bool {
        let bits = |x: Option<f64>| x.map(f64::to_bits);
        self.worlds_drawn == other.worlds_drawn
            && bits(self.epsilon) == bits(other.epsilon)
            && bits(self.delta) == bits(other.delta)
            && self.reason == other.reason
    }
}

/// Simultaneous empirical-Bernstein half-width over the observed path
/// frequencies at sequential look `look` (1-based), with `m` worlds drawn
/// and per-path counts `counts`.
///
/// Per look the failure budget is `δ_t = δ / (t(t+1))` (which sums to at
/// most `δ` over all looks), split uniformly over the `L` observed paths
/// plus one collective unseen-mass term. Each observed path `j` with
/// `p̂_j = c_j / m` gets the Audibert–Munos–Szepesvári bound
///
/// ```text
/// eb_j = sqrt(2 · V̂_j · ln(3/δ′) / m) + 3 · ln(3/δ′) / (m − 1)
/// ```
///
/// with `V̂_j` the sample variance `p̂_j (1 − p̂_j) · m/(m−1)`. The unseen
/// term is the `p̂ = 0` case, whose half-width `3·ln(3/δ′)/(m−1)` is
/// dominated by every observed `eb_j`, so the returned maximum covers it.
/// Variance adaptivity is the whole point: on a mostly-decided table the
/// top path has `p̂ ≈ 1`, its variance term vanishes, and the bound clears
/// a 2% target thousands of worlds earlier than the distribution-free
/// `sqrt(ln/m)` rate would (DESIGN.md §13).
pub(crate) fn eb_half_width(counts: &[u64], m: usize, look: usize, delta: f64) -> f64 {
    debug_assert!(m >= 2 && look >= 1);
    let mf = m as f64;
    let delta_look = delta / ((look * (look + 1)) as f64);
    let delta_each = delta_look / (counts.len() + 1) as f64;
    let ln3 = (3.0 / delta_each).ln();
    let linear = 3.0 * ln3 / (mf - 1.0);
    counts
        .iter()
        .map(|&c| {
            let p = c as f64 / mf;
            let var = p * (1.0 - p) * mf / (mf - 1.0);
            (2.0 * var * ln3 / mf).sqrt() + linear
        })
        .fold(linear, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_routes_through_the_single_source_of_truth() {
        assert_eq!(
            PrecisionTarget::default(),
            PrecisionTarget::FixedWorlds(DEFAULT_WORLDS)
        );
        assert_eq!(PrecisionTarget::default().name(), "fixed");
        assert_eq!(
            PrecisionTarget::Adaptive {
                epsilon: 0.02,
                delta: 0.05
            }
            .name(),
            "adaptive"
        );
    }

    #[test]
    fn validation_rejects_bad_specs() {
        assert!(PrecisionTarget::FixedWorlds(1).validate().is_ok());
        assert!(PrecisionTarget::FixedWorlds(ADAPTIVE_MAX_WORLDS)
            .validate()
            .is_ok());
        for m in [0, ADAPTIVE_MAX_WORLDS + 1, (1 << 62) + 1, usize::MAX] {
            assert!(
                matches!(
                    PrecisionTarget::FixedWorlds(m).validate(),
                    Err(TpoError::InvalidWorlds)
                ),
                "FixedWorlds({m}) must be rejected"
            );
        }
        for (epsilon, delta) in [
            (0.0, 0.05),
            (1.0, 0.05),
            (0.02, 0.0),
            (0.02, 1.0),
            (f64::NAN, 0.05),
            (0.02, f64::INFINITY),
        ] {
            assert!(
                matches!(
                    PrecisionTarget::Adaptive { epsilon, delta }.validate(),
                    Err(TpoError::InvalidPrecision { .. })
                ),
                "({epsilon}, {delta}) must be rejected"
            );
        }
        assert!(PrecisionTarget::Adaptive {
            epsilon: 0.02,
            delta: 0.05
        }
        .validate()
        .is_ok());
    }

    #[test]
    fn stop_reasons_have_names() {
        for (r, name) in [
            (StopReason::CertainOrder, "certain-order"),
            (StopReason::Converged, "converged"),
            (StopReason::WorldCap, "world-cap"),
            (StopReason::FixedBudget, "fixed-budget"),
            (StopReason::Exact, "exact"),
        ] {
            assert_eq!(r.name(), name);
        }
    }

    #[test]
    fn report_same_outcome_is_bit_exact() {
        let a = PrecisionReport {
            worlds_drawn: 2048,
            epsilon: Some(0.013),
            delta: Some(0.05),
            reason: StopReason::Converged,
        };
        assert!(a.same_outcome(&a));
        let mut b = a;
        b.epsilon = Some(0.013 + 1e-19);
        assert!(a.same_outcome(&b), "same float value, same bits");
        b.epsilon = Some(0.014);
        assert!(!a.same_outcome(&b));
        assert!(!a.same_outcome(&PrecisionReport::fixed(2048)));
        assert_eq!(PrecisionReport::exact().reason, StopReason::Exact);
    }

    #[test]
    fn eb_half_width_shrinks_with_m_and_variance() {
        // Concentrated posterior (one dominant path) converges much
        // faster than an even split at the same look.
        let concentrated = eb_half_width(&[1990, 10], 2000, 2, 0.05);
        let even = eb_half_width(&[1000, 1000], 2000, 2, 0.05);
        assert!(concentrated < even, "{concentrated} vs {even}");
        // More worlds shrink the bound.
        let fewer = eb_half_width(&[995, 5], 1000, 1, 0.05);
        let more = eb_half_width(&[9950, 50], 10_000, 2, 0.05);
        assert!(more < fewer, "{more} vs {fewer}");
        // The bound is always positive and covers the unseen-mass term.
        assert!(eb_half_width(&[2000], 2000, 1, 0.05) > 0.0);
    }

    #[test]
    fn eb_look_budget_decays() {
        // Later looks pay a larger log factor at the same counts.
        let early = eb_half_width(&[1000, 1000], 2000, 1, 0.05);
        let late = eb_half_width(&[1000, 1000], 2000, 9, 0.05);
        assert!(late > early);
    }
}
