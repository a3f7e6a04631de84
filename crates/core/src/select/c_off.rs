//! `C-off` (§III-A): conditional greedy selection. The `(i+1)`-th question
//! is chosen to minimize the *joint* expected residual uncertainty
//! `R_{⟨q_1*, …, q_i*, q⟩}(T_K)` given all previously selected questions —
//! unlike `TB-off`, redundant questions score poorly because the
//! already-selected set has usually resolved their information.

use super::common::{pick_scored, Decides, Scoring, TIE_EPS};
use super::{relevant_questions, OfflineSelector};
use crate::residual::{AnswerPartition, ResidualCtx};
use ctk_crowd::Question;
use ctk_tpo::PathSet;

/// Conditional greedy offline selection.
///
/// The joint residual `R_{chosen ∪ {q}}` is evaluated incrementally: the
/// answer partition of the already-chosen set is maintained across rounds
/// and each candidate is scored with a one-step lookahead over its classes
/// — `O(|Q_K| · paths)` per round instead of re-partitioning from scratch
/// per candidate. Under the entropy measures, only the candidates whose
/// chain-rule estimate can decide the round are scored exactly.
#[derive(Debug, Clone, Default)]
pub struct COff;

impl COff {
    fn select_by(
        ps: &PathSet,
        budget: usize,
        ctx: &ResidualCtx<'_>,
        scoring: Scoring,
    ) -> Vec<Question> {
        let pool = relevant_questions(ps, ctx);
        let mut chosen: Vec<Question> = Vec::with_capacity(budget.min(pool.len()));
        let mut partition = AnswerPartition::root(ps);
        while chosen.len() < budget.min(pool.len()) {
            let candidates: Vec<Question> = pool
                .iter()
                .filter(|q| !chosen.contains(q))
                .copied()
                .collect();
            let best = pick_scored(
                &mut partition,
                &candidates,
                ctx,
                Decides::TieScan,
                scoring,
                |scored| {
                    let mut best: Option<(f64, Question)> = None;
                    for (r, q) in scored {
                        let better = match &best {
                            None => true,
                            Some((br, bq)) => {
                                r < *br - TIE_EPS || ((r - *br).abs() <= TIE_EPS && q < *bq)
                            }
                        };
                        if better {
                            best = Some((r, q));
                        }
                    }
                    best.map(|(_, q)| q)
                },
            );
            let Some(q) = best else { break };
            partition.refine(&q, ctx);
            chosen.push(q);
        }
        chosen
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

impl OfflineSelector for COff {
    fn name(&self) -> &'static str {
        "C-off"
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
    use crate::select::TbOff;

    #[test]
    fn selection_is_valid_and_deterministic() {
        let (_, pw, ps) = fixture();
        let ctx = ResidualCtx {
            measure: &Entropy,
            pairwise: &pw,
        };
        let a = COff.select(&ps, 4, &ctx);
        let b = COff.select(&ps, 4, &ctx);
        assert_eq!(a, b);
        assert_valid_selection(&a, &ps, 4);
        assert_eq!(COff.name(), "C-off");
    }

    #[test]
    fn first_question_matches_tb_off() {
        // With one question the conditional and unconditional criteria
        // coincide.
        let (_, pw, ps) = fixture();
        let ctx = ResidualCtx {
            measure: &Entropy,
            pairwise: &pw,
        };
        assert_eq!(COff.select(&ps, 1, &ctx), TbOff.select(&ps, 1, &ctx));
    }

    #[test]
    fn no_worse_than_tb_off_in_expectation() {
        let (_, pw, ps) = fixture();
        let m = WeightedEntropy::default();
        let ctx = ResidualCtx {
            measure: &m,
            pairwise: &pw,
        };
        for b in [2usize, 4, 6] {
            let c = COff.select(&ps, b, &ctx);
            let t = TbOff.select(&ps, b, &ctx);
            let rc = residual_of(&ps, &c, &m, &pw);
            let rt = residual_of(&ps, &t, &m, &pw);
            assert!(
                rc <= rt + 1e-9,
                "B={b}: C-off {rc} should not lose to TB-off {rt}"
            );
        }
    }

    #[test]
    fn greedy_extension_is_monotone() {
        // Adding budget must never increase the chosen set's residual.
        let (_, pw, ps) = fixture();
        let m = Entropy;
        let ctx = ResidualCtx {
            measure: &m,
            pairwise: &pw,
        };
        let mut prev = f64::INFINITY;
        for b in 1..=5 {
            let qs = COff.select(&ps, b, &ctx);
            let r = residual_of(&ps, &qs, &m, &pw);
            assert!(r <= prev + 1e-12, "B={b}: {r} > {prev}");
            prev = r;
        }
    }

    #[test]
    fn prefix_stability() {
        // Greedy selections are nested: the B-question set extends the
        // (B-1)-question set.
        let (_, pw, ps) = fixture();
        let ctx = ResidualCtx {
            measure: &Entropy,
            pairwise: &pw,
        };
        let q3 = COff.select(&ps, 3, &ctx);
        let q5 = COff.select(&ps, 5, &ctx);
        assert_eq!(&q5[..3], &q3[..]);
    }
}
