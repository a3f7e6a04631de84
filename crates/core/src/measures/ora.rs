//! `U_ORA`: expected top-k distance of the orderings in `T_K` to the
//! Optimal Rank Aggregation — “a sort of median ordering in `T_K`”
//! (Soliman et al., SIGMOD'11).

use super::UncertaintyMeasure;
use ctk_rank::aggregate::optimal_rank_aggregation;
use ctk_rank::topk::topk_kendall_normalized;
use ctk_rank::Tournament;
use ctk_tpo::PathSet;

/// Expected normalized top-k Kendall distance to the ORA.
#[derive(Debug, Clone)]
pub struct OraDistance {
    /// Fagin penalty parameter for the top-k distance.
    pub penalty: f64,
}

impl Default for OraDistance {
    fn default() -> Self {
        Self { penalty: 0.5 }
    }
}

impl UncertaintyMeasure for OraDistance {
    fn name(&self) -> &'static str {
        "UORA"
    }

    fn uncertainty(&self, ps: &PathSet) -> f64 {
        if ps.is_resolved() {
            return 0.0;
        }
        let lists = ps.to_weighted_lists();
        let tournament = Tournament::from_weighted_lists(&lists);
        let Ok(agg) = optimal_rank_aggregation(&tournament) else {
            return 0.0;
        };
        // The ORA ranks every candidate tuple; compare against its top-k
        // prefix so path and reference have the same length scale.
        let ora_topk = agg.ordering.prefix(ps.k());
        lists
            .iter()
            .map(|(l, p)| p * topk_kendall_normalized(l, &ora_topk, self.penalty))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_util::{resolved_set, sample_set};
    use super::*;

    #[test]
    fn zero_on_certain_result() {
        assert_eq!(OraDistance::default().uncertainty(&resolved_set()), 0.0);
    }

    #[test]
    fn positive_on_disagreeing_orderings() {
        let u = OraDistance::default().uncertainty(&sample_set());
        assert!(u > 0.0 && u <= 1.0, "u = {u}");
    }

    #[test]
    fn near_consensus_is_small() {
        let consensus =
            ctk_tpo::PathSet::from_weighted(2, vec![(vec![0, 1], 0.95), (vec![1, 0], 0.05)])
                .unwrap();
        let split =
            ctk_tpo::PathSet::from_weighted(2, vec![(vec![0, 1], 0.5), (vec![1, 0], 0.5)]).unwrap();
        let m = OraDistance::default();
        assert!(
            m.uncertainty(&consensus) < m.uncertainty(&split),
            "consensus {} vs split {}",
            m.uncertainty(&consensus),
            m.uncertainty(&split)
        );
    }

    #[test]
    fn ora_center_minimizes_expected_distance() {
        // The measure evaluated at the ORA must not exceed the expected
        // distance to any single input ordering (ORA is the median).
        let s = sample_set();
        let m = OraDistance::default();
        let u = m.uncertainty(&s);
        for (center, _) in s.to_weighted_lists() {
            let alt: f64 = s
                .to_weighted_lists()
                .iter()
                .map(|(l, p)| p * topk_kendall_normalized(l, &center, 0.5))
                .sum();
            // Allow tiny numeric slack; ORA minimizes the *Kendall cost*,
            // whose normalized expectation this tracks closely.
            assert!(u <= alt + 0.05, "ORA {u} worse than center {center}: {alt}");
        }
    }
}
