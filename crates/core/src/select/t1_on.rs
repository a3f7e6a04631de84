//! `T1-on` (§III-B): the greedy online strategy. At each round, select the
//! single question minimizing the expected residual uncertainty (budget
//! `B = 1`), ask it, prune/update the tree with the received answer, and
//! repeat. “Early termination may occur if all uncertainty is removed with
//! `|Q*| < B`.”

use super::common::{pick_scored, Decides, Scoring};
use super::{relevant_questions, OnlineSelector};
use crate::residual::{AnswerPartition, ResidualCtx};
use ctk_crowd::Question;
use ctk_tpo::PathSet;

/// Greedy one-step-lookahead online selection.
#[derive(Debug, Clone, Default)]
pub struct T1On;

impl T1On {
    fn next_by(ps: &PathSet, ctx: &ResidualCtx<'_>, scoring: Scoring) -> Option<Question> {
        if ps.is_resolved() {
            return None;
        }
        let pool = relevant_questions(ps, ctx);
        // One root (and one prefix index) scores every candidate.
        let mut root = AnswerPartition::root(ps);
        pick_scored(&mut root, &pool, ctx, Decides::Min, scoring, |scored| {
            scored
                .into_iter()
                .min_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)))
                .map(|(_, q)| q)
        })
    }

    /// [`OnlineSelector::next_question`] with every candidate scored
    /// exactly: the test-only reference for the decisive scan.
    #[cfg(test)]
    pub(crate) fn next_question_eager(ps: &PathSet, ctx: &ResidualCtx<'_>) -> Option<Question> {
        Self::next_by(ps, ctx, Scoring::Eager)
    }
}

impl OnlineSelector for T1On {
    fn name(&self) -> &'static str {
        "T1-on"
    }

    fn next_question(
        &mut self,
        ps: &PathSet,
        _remaining: usize,
        ctx: &ResidualCtx<'_>,
    ) -> Option<Question> {
        Self::next_by(ps, ctx, Scoring::Decisive)
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_util::fixture;
    use super::*;
    use crate::measures::Entropy;
    use crate::residual::expected_residual_single;
    use ctk_tpo::prune::prune;

    #[test]
    fn picks_the_globally_best_single_question() {
        let (_, pw, ps) = fixture();
        let ctx = ResidualCtx {
            measure: &Entropy,
            pairwise: &pw,
        };
        let q = T1On.next_question(&ps, 10, &ctx).unwrap();
        let pool = relevant_questions(&ps, &ctx);
        let best = pool
            .iter()
            .map(|c| expected_residual_single(&ps, c, &ctx))
            .fold(f64::INFINITY, f64::min);
        let got = expected_residual_single(&ps, &q, &ctx);
        assert!((got - best).abs() < 1e-12);
        assert_eq!(T1On.name(), "T1-on");
    }

    #[test]
    fn terminates_on_resolved_sets() {
        let (_, pw, _) = fixture();
        let ctx = ResidualCtx {
            measure: &Entropy,
            pairwise: &pw,
        };
        let resolved = ctk_tpo::PathSet::from_weighted(3, vec![(vec![4, 3, 2], 1.0)]).unwrap();
        assert!(T1On.next_question(&resolved, 10, &ctx).is_none());
    }

    #[test]
    fn interactive_loop_strictly_reduces_orderings_with_perfect_answers() {
        let (table, pw, mut ps) = fixture();
        let ctx = ResidualCtx {
            measure: &Entropy,
            pairwise: &pw,
        };
        // Perfect crowd following a fixed ground truth.
        let truth = ctk_crowd::GroundTruth::sample(&table, 123);
        let mut asked = 0;
        while let Some(q) = T1On.next_question(&ps, 50 - asked, &ctx) {
            let yes = truth.true_answer(&q);
            match prune(&ps, q.i, q.j, yes, ctx.prior(q.i, q.j)) {
                Ok((next, _)) => {
                    assert!(next.len() <= ps.len());
                    ps = next;
                }
                Err(_) => break, // MC tree may lack the true path; stop.
            }
            asked += 1;
            assert!(asked <= 50, "must terminate well within the pool size");
        }
        // After exhausting relevant questions the tree should be small.
        assert!(
            ps.len() <= 2,
            "greedy online should (nearly) resolve: {} left",
            ps.len()
        );
    }
}
