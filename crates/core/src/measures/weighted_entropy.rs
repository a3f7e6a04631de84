//! `U_Hw`: weighted combination of the entropies at the first `K` levels
//! of the TPO — unlike plain `U_H`, it accounts for the *structure* of the
//! tree: uncertainty near the top of the ranking (level 1) weighs more
//! than uncertainty at the bottom.

use super::UncertaintyMeasure;
use crate::residual::ClassEval;
use ctk_tpo::stats::level_distributions;
use ctk_tpo::PathSet;

/// Level-weighted entropy with weights `w_ℓ ∝ K - ℓ + 1` by default
/// (top ranks matter most), normalized to sum to one so the measure is
/// comparable to `U_H` and the `A*` information bound applies.
#[derive(Debug, Clone, Default)]
pub struct WeightedEntropy {
    /// Optional explicit per-level weights (1-based levels). When `None`,
    /// the default linear-decay weights are used.
    pub weights: Option<Vec<f64>>,
}

impl WeightedEntropy {
    /// Measure with explicit level weights (will be normalized).
    pub fn with_weights(weights: Vec<f64>) -> Self {
        Self {
            weights: Some(weights),
        }
    }

    /// The normalized weight of 0-based level `l` in a depth-`depth`
    /// tree. The normalizing total is summed once per call, in level
    /// order; nothing is allocated.
    fn level_weights(&self, depth: usize) -> impl Fn(usize) -> f64 + '_ {
        let raw = move |l: usize| match &self.weights {
            Some(w) => w.get(l).copied().unwrap_or(0.0).max(0.0),
            None => (depth - l) as f64,
        };
        let total: f64 = (0..depth).map(raw).sum();
        move |l| {
            if total <= 0.0 {
                // Degenerate explicit weights: fall back to uniform.
                1.0 / depth as f64
            } else {
                raw(l) / total
            }
        }
    }
}

impl UncertaintyMeasure for WeightedEntropy {
    fn name(&self) -> &'static str {
        "UHw"
    }

    fn uncertainty(&self, ps: &PathSet) -> f64 {
        let levels = level_distributions(ps);
        if levels.is_empty() {
            return 0.0;
        }
        let weight = self.level_weights(levels.len());
        levels
            .iter()
            .enumerate()
            .map(|(l, probs)| weight(l) * shannon(probs))
            .sum()
    }

    fn class_uncertainty(&self, class: &mut ClassEval<'_>) -> f64 {
        let depth = class.depth();
        if depth == 0 {
            return 0.0;
        }
        let weight = self.level_weights(depth);
        // `Iterator::sum` over the levels, unrolled: it folds from -0.0.
        let mut acc = -0.0;
        class.for_each_level(|l, probs| acc += weight(l) * shannon(probs));
        acc
    }

    fn level_entropy_weights(&self, depth: usize) -> Option<Vec<f64>> {
        // Normalized to sum 1, so each binary answer lowers the expected
        // measure by at most ln 2.
        Some((0..depth).map(self.level_weights(depth)).collect())
    }
}

fn shannon(probs: &[f64]) -> f64 {
    -probs
        .iter()
        .filter(|&&p| p > 0.0)
        .map(|&p| p * p.ln())
        .sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::super::test_util::{resolved_set, sample_set};
    use super::*;

    #[test]
    fn zero_on_certain_result() {
        assert_eq!(WeightedEntropy::default().uncertainty(&resolved_set()), 0.0);
    }

    #[test]
    fn combines_level_entropies() {
        let s = sample_set();
        // Level 1: {0: 0.7, 1: 0.3}; level 2: {0.5, 0.2, 0.3}.
        let h1 = -(0.7f64 * 0.7f64.ln() + 0.3 * 0.3f64.ln());
        let h2 = -(0.5f64 * 0.5f64.ln() + 0.2 * 0.2f64.ln() + 0.3 * 0.3f64.ln());
        // Default weights for depth 2: (2, 1)/3.
        let expect = (2.0 * h1 + 1.0 * h2) / 3.0;
        let got = WeightedEntropy::default().uncertainty(&s);
        assert!((got - expect).abs() < 1e-12, "{got} vs {expect}");
    }

    #[test]
    fn top_level_uncertainty_weighs_more() {
        // Same leaf entropy, different level-1 entropy.
        // A: uncertainty at the top (two distinct first elements).
        let top =
            ctk_tpo::PathSet::from_weighted(2, vec![(vec![0, 2], 0.5), (vec![1, 2], 0.5)]).unwrap();
        // B: uncertainty at the bottom (same first element).
        let bottom =
            ctk_tpo::PathSet::from_weighted(2, vec![(vec![0, 1], 0.5), (vec![0, 2], 0.5)]).unwrap();
        let m = WeightedEntropy::default();
        assert!(
            m.uncertainty(&top) > m.uncertainty(&bottom),
            "top-level ambiguity must weigh more: {} vs {}",
            m.uncertainty(&top),
            m.uncertainty(&bottom)
        );
        // Plain entropy cannot distinguish them.
        let e = super::super::Entropy;
        assert!((e.uncertainty(&top) - e.uncertainty(&bottom)).abs() < 1e-12);
    }

    #[test]
    fn explicit_weights_respected() {
        let s = sample_set();
        // All weight on level 1.
        let m = WeightedEntropy::with_weights(vec![1.0, 0.0]);
        let h1 = -(0.7f64 * 0.7f64.ln() + 0.3 * 0.3f64.ln());
        assert!((m.uncertainty(&s) - h1).abs() < 1e-12);
        // Degenerate all-zero weights: uniform fallback, still finite.
        let z = WeightedEntropy::with_weights(vec![0.0, 0.0]);
        assert!(z.uncertainty(&s).is_finite());
    }
}
