//! `U_MPO`: expected top-k distance of the orderings in `T_K` to the Most
//! Probable Ordering — the cheaper structural cousin of `U_ORA` (the MPO
//! needs no aggregation, just an argmax over leaf probabilities).

use super::UncertaintyMeasure;
use crate::metrics::expected_topk_distance;
use ctk_tpo::PathSet;

/// Expected normalized top-k Kendall distance to the MPO.
#[derive(Debug, Clone)]
pub struct MpoDistance {
    /// Fagin penalty parameter for the top-k distance.
    pub penalty: f64,
}

impl Default for MpoDistance {
    fn default() -> Self {
        Self { penalty: 0.5 }
    }
}

impl UncertaintyMeasure for MpoDistance {
    fn name(&self) -> &'static str {
        "UMPO"
    }

    fn uncertainty(&self, ps: &PathSet) -> f64 {
        if ps.is_resolved() {
            return 0.0;
        }
        expected_topk_distance(ps, &ps.most_probable().items, self.penalty)
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_util::{resolved_set, sample_set};
    use super::*;

    #[test]
    fn zero_on_certain_result() {
        assert_eq!(MpoDistance::default().uncertainty(&resolved_set()), 0.0);
    }

    #[test]
    fn mpo_contributes_zero_to_itself() {
        let s = sample_set();
        let m = MpoDistance::default();
        let u = m.uncertainty(&s);
        // Upper bound: total non-MPO mass (distance <= 1 each).
        let non_mpo: f64 = 1.0 - s.most_probable().prob;
        assert!(u > 0.0 && u <= non_mpo + 1e-12, "u = {u}, bound {non_mpo}");
    }

    #[test]
    fn concentrating_mass_reduces_uncertainty() {
        let spread = ctk_tpo::PathSet::from_weighted(
            2,
            vec![(vec![0, 1], 0.34), (vec![1, 0], 0.33), (vec![1, 2], 0.33)],
        )
        .unwrap();
        let focused = ctk_tpo::PathSet::from_weighted(
            2,
            vec![(vec![0, 1], 0.9), (vec![1, 0], 0.05), (vec![1, 2], 0.05)],
        )
        .unwrap();
        let m = MpoDistance::default();
        assert!(m.uncertainty(&focused) < m.uncertainty(&spread));
    }

    #[test]
    fn respects_penalty_parameter() {
        // Paths over disjoint tails: the penalty parameter affects both the
        // case-4 pair count and the normalizer, so different penalties give
        // different (but always bounded) values.
        let s =
            ctk_tpo::PathSet::from_weighted(3, vec![(vec![0, 1, 2], 0.6), (vec![0, 4, 5], 0.4)])
                .unwrap();
        let optimistic = MpoDistance { penalty: 0.0 }.uncertainty(&s);
        let neutral = MpoDistance { penalty: 0.5 }.uncertainty(&s);
        assert!((neutral - optimistic).abs() > 1e-6, "penalty must matter");
        for v in [optimistic, neutral] {
            assert!((0.0..=1.0).contains(&v), "out of bounds: {v}");
        }
        // Raw (unnormalized) distances do grow with the penalty:
        // d = 4 + 2p for these lists.
        use ctk_rank::topk::topk_kendall;
        let a = ctk_rank::RankList::new(vec![0, 1, 2]).unwrap();
        let b = ctk_rank::RankList::new(vec![0, 4, 5]).unwrap();
        assert!(topk_kendall(&a, &b, 0.5) > topk_kendall(&a, &b, 0.0));
    }
}
