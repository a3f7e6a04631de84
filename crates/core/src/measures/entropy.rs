//! `U_H`: Shannon entropy of the ordering probabilities — the paper's
//! state-of-the-art baseline measure, “based only on the probabilities of
//! its leaves”.

use super::UncertaintyMeasure;
use crate::residual::ClassEval;
use ctk_tpo::PathSet;

/// Shannon entropy (nats) of the leaf distribution.
#[derive(Debug, Clone, Copy, Default)]
pub struct Entropy;

impl UncertaintyMeasure for Entropy {
    fn name(&self) -> &'static str {
        "UH"
    }

    fn uncertainty(&self, ps: &PathSet) -> f64 {
        ps.entropy()
    }

    fn class_uncertainty(&self, class: &mut ClassEval<'_>) -> f64 {
        // `PathSet::entropy`'s expression over the same values in the same
        // order.
        -class
            .probs()
            .filter(|&p| p > 0.0)
            .map(|p| p * p.ln())
            .sum::<f64>()
    }

    fn level_entropy_weights(&self, depth: usize) -> Option<Vec<f64>> {
        // Weight 1 on the leaf level: a `PathSet`'s paths are distinct
        // orderings, so the leaf level is the ordering distribution. One
        // binary answer then carries at most ln 2 nats:
        // E[H(Ω | A)] = H(Ω) - I(Ω; A) >= H(Ω) - H(A) >= H(Ω) - ln 2.
        let mut w = vec![0.0; depth];
        if let Some(leaf) = w.last_mut() {
            *leaf = 1.0;
        }
        Some(w)
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_util::{resolved_set, sample_set};
    use super::*;
    use ctk_tpo::prune::prune;

    #[test]
    fn matches_leaf_entropy() {
        let s = sample_set();
        let expect = -(0.5f64 * 0.5f64.ln() + 0.3 * 0.3f64.ln() + 0.2 * 0.2f64.ln());
        assert!((Entropy.uncertainty(&s) - expect).abs() < 1e-12);
        assert_eq!(Entropy.uncertainty(&resolved_set()), 0.0);
    }

    #[test]
    fn uniform_distribution_maximizes() {
        let uniform = PathSet::from_weighted(
            2,
            vec![(vec![0, 1], 1.0), (vec![1, 0], 1.0), (vec![0, 2], 1.0)],
        )
        .unwrap();
        let skewed = PathSet::from_weighted(
            2,
            vec![(vec![0, 1], 8.0), (vec![1, 0], 1.0), (vec![0, 2], 1.0)],
        )
        .unwrap();
        assert!(Entropy.uncertainty(&uniform) > Entropy.uncertainty(&skewed));
        assert!((Entropy.uncertainty(&uniform) - 3.0f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn expected_entropy_never_increases_under_conditioning() {
        // E over answers of H(pruned) <= H(original): verify on the sample.
        let s = sample_set();
        let h = Entropy.uncertainty(&s);
        // Question (0 vs 1): p_yes = 0.7 (membership semantics).
        let (yes, _) = prune(&s, 0, 1, true, 0.5).unwrap();
        let (no, _) = prune(&s, 0, 1, false, 0.5).unwrap();
        let expected = 0.7 * Entropy.uncertainty(&yes) + 0.3 * Entropy.uncertainty(&no);
        assert!(expected <= h + 1e-12, "expected {expected} vs prior {h}");
        // And the reduction is at most ln 2.
        assert!(h - expected <= std::f64::consts::LN_2 + 1e-12);
    }

    use ctk_tpo::PathSet;
}
