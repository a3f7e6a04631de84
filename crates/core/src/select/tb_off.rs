//! `TB-off` (§III-A): for each relevant question, compute the expected
//! residual uncertainty `R_q(T_K)`; return the `B` questions achieving the
//! largest expected uncertainty *reduction* (equivalently, the lowest
//! expected residual).
//!
//! Note: the extended abstract's phrasing (“the set of B questions with
//! the highest `R_q`”) conflicts with its own goal statement (“causes the
//! largest amount of expected uncertainty reduction”); we implement the
//! reduction-maximizing reading (DESIGN.md §4). The strategy's weakness is
//! faithfully preserved either way: the `B` scores are computed
//! *independently*, so `TB-off` happily picks `B` redundant questions
//! about the same ambiguous region.

use super::common::{pick_scored, Decides, Scoring};
use super::{relevant_questions, OfflineSelector};
use crate::residual::{AnswerPartition, ResidualCtx};
use ctk_crowd::Question;
use ctk_tpo::PathSet;

/// Top-B by single-question expected residual.
#[derive(Debug, Clone, Default)]
pub struct TbOff;

impl TbOff {
    fn select_by(
        ps: &PathSet,
        budget: usize,
        ctx: &ResidualCtx<'_>,
        scoring: Scoring,
    ) -> Vec<Question> {
        let pool = relevant_questions(ps, ctx);
        // One root (and one prefix index) scores every candidate.
        let mut root = AnswerPartition::root(ps);
        let decides = Decides::Smallest(budget);
        pick_scored(&mut root, &pool, ctx, decides, scoring, |mut scored| {
            // Ascending residual = descending reduction; ties broken by the
            // canonical question order for determinism.
            scored.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
            scored.truncate(budget);
            scored.into_iter().map(|(_, q)| q).collect()
        })
    }

    /// [`OfflineSelector::select`] with every candidate scored exactly: the
    /// test-only reference for the decisive scan.
    #[cfg(test)]
    pub(crate) fn select_eager(
        ps: &PathSet,
        budget: usize,
        ctx: &ResidualCtx<'_>,
    ) -> Vec<Question> {
        Self::select_by(ps, budget, ctx, Scoring::Eager)
    }
}

impl OfflineSelector for TbOff {
    fn name(&self) -> &'static str {
        "TB-off"
    }

    fn select(&mut self, ps: &PathSet, budget: usize, ctx: &ResidualCtx<'_>) -> Vec<Question> {
        Self::select_by(ps, budget, ctx, Scoring::Decisive)
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_util::{assert_valid_selection, fixture, residual_of};
    use super::*;
    use crate::measures::{Entropy, WeightedEntropy};
    use crate::residual::expected_residual_single;
    use crate::select::{NaiveSelector, RandomSelector};

    #[test]
    fn selection_is_valid_and_deterministic() {
        let (_, pw, ps) = fixture();
        let ctx = ResidualCtx {
            measure: &Entropy,
            pairwise: &pw,
        };
        let a = TbOff.select(&ps, 5, &ctx);
        let b = TbOff.select(&ps, 5, &ctx);
        assert_eq!(a, b);
        assert_valid_selection(&a, &ps, 5);
        assert_eq!(TbOff.name(), "TB-off");
    }

    #[test]
    fn picks_the_single_best_question_first() {
        let (_, pw, ps) = fixture();
        let ctx = ResidualCtx {
            measure: &Entropy,
            pairwise: &pw,
        };
        let choice = TbOff.select(&ps, 1, &ctx);
        assert_eq!(choice.len(), 1);
        // Verify optimality of the single selection by brute force.
        let pool = relevant_questions(&ps, &ctx);
        let best = pool
            .iter()
            .map(|q| expected_residual_single(&ps, q, &ctx))
            .fold(f64::INFINITY, f64::min);
        let got = expected_residual_single(&ps, &choice[0], &ctx);
        assert!((got - best).abs() < 1e-12);
    }

    #[test]
    fn beats_baselines_in_expectation() {
        let (_, pw, ps) = fixture();
        let m = WeightedEntropy::default();
        let ctx = ResidualCtx {
            measure: &m,
            pairwise: &pw,
        };
        let b = 4;
        let tb = TbOff.select(&ps, b, &ctx);
        let tb_res = residual_of(&ps, &tb, &m, &pw);
        // Average the baselines over several seeds (they are stochastic).
        let mut naive_sum = 0.0;
        let mut rand_sum = 0.0;
        const RUNS: u64 = 8;
        for seed in 0..RUNS {
            naive_sum += residual_of(&ps, &NaiveSelector::new(seed).select(&ps, b, &ctx), &m, &pw);
            rand_sum += residual_of(
                &ps,
                &RandomSelector::new(seed).select(&ps, b, &ctx),
                &m,
                &pw,
            );
        }
        let naive_avg = naive_sum / RUNS as f64;
        let rand_avg = rand_sum / RUNS as f64;
        assert!(
            tb_res <= naive_avg + 1e-9,
            "TB-off {tb_res} should beat naive {naive_avg}"
        );
        assert!(
            tb_res <= rand_avg + 1e-9,
            "TB-off {tb_res} should beat random {rand_avg}"
        );
    }
}
