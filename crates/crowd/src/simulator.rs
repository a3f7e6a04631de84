//! The crowd interface and its simulator.
//!
//! [`Crowd`] is the narrow interface the question-selection engine sees: it
//! can ask a pairwise question and observe the (aggregated) answer, within
//! a budget. [`CrowdSimulator`] implements it with a ground truth and a
//! worker model — the substitute for a real crowdsourcing market
//! (documented in DESIGN.md §5): the algorithms' inputs and outputs are
//! identical to a live deployment, only the answer source differs.

use crate::aggregate::{majority_vote, VotePolicy};
use crate::error::CrowdError;
use crate::ledger::BudgetLedger;
use crate::oracle::GroundTruth;
use crate::question::{Answer, Question};
use crate::worker::AnswerModel;

/// A caller-supplied hint about how much an answer is worth: cheap
/// workers for wide-margin questions, experts for narrow ones. Backends
/// without worker tiers ignore the hint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RouteHint {
    /// No preference; the backend picks whoever is next.
    Any,
    /// The belief margin is wide — a cheap, lower-accuracy worker panel
    /// suffices.
    Cheap,
    /// The belief margin is narrow — route to the highest-posterior
    /// workers available.
    Expert,
}

/// What the selection engine may do with a crowd.
///
/// `Send` is a supertrait so a crowd (and any service built over one) can
/// be moved to, or mutated from, worker threads — the parallel
/// `ctk-service` round loop and multi-service benches rely on it.
pub trait Crowd: Send {
    /// Asks one question; returns `None` if the remaining budget cannot
    /// cover it, or if it names a tuple the crowd knows nothing about —
    /// then before any vote is drawn or any budget spent.
    fn ask(&mut self, q: Question) -> Option<Answer>;

    /// Questions still affordable (under replicated voting this is the
    /// remaining budget divided by the per-question vote cost).
    fn remaining(&self) -> usize;

    /// The nominal accuracy of one aggregated answer (1.0 for perfect
    /// workers) — consumed by the Bayesian update.
    fn answer_accuracy(&self) -> f64;

    /// Full history so far.
    fn history(&self) -> &[Answer];

    /// Asks one question with a routing hint. Backends with worker tiers
    /// may honor the hint; the default ignores it, so every existing
    /// crowd keeps its behavior.
    fn ask_routed(&mut self, q: Question, hint: RouteHint) -> Option<Answer> {
        let _ = hint;
        self.ask(q)
    }
}

/// Simulated crowd: ground truth + worker model + vote policy + budget.
#[derive(Debug, Clone)]
pub struct CrowdSimulator<M: AnswerModel> {
    truth: GroundTruth,
    model: M,
    policy: VotePolicy,
    ledger: BudgetLedger,
}

impl<M: AnswerModel> CrowdSimulator<M> {
    /// Creates a simulator with budget `b` **worker votes** — the paper's
    /// monetary denomination, where a `Majority(n)` answer costs `n`
    /// units. (Under `VotePolicy::Single` this is identical to a budget
    /// of `b` questions.)
    ///
    /// Fails with [`CrowdError::InvalidVotePolicy`] if the policy is
    /// malformed (an even or too-small majority count).
    pub fn new(
        truth: GroundTruth,
        model: M,
        policy: VotePolicy,
        b: usize,
    ) -> Result<Self, CrowdError> {
        policy.validate()?;
        Ok(Self {
            truth,
            model,
            policy,
            ledger: BudgetLedger::new(b),
        })
    }

    /// The hidden ground truth (used by evaluation metrics, never by the
    /// selection algorithms).
    pub fn ground_truth(&self) -> &GroundTruth {
        &self.truth
    }

    /// Budget ledger snapshot.
    pub fn ledger(&self) -> &BudgetLedger {
        &self.ledger
    }
}

impl<M: AnswerModel> Crowd for CrowdSimulator<M> {
    /// Draws one vote per panel seat through
    /// [`AnswerModel::answer_with_gap`] and aggregates them under the vote
    /// policy.
    fn ask(&mut self, q: Question) -> Option<Answer> {
        let cost = self.policy.votes_per_question();
        let (truth, gap) = self.truth.judge(&q)?;
        if !self.ledger.can_afford(cost) {
            // Regression guard for the budget denomination mismatch: a
            // majority question the remaining budget cannot pay in full
            // is refused outright, not sold at a one-unit discount.
            return None;
        }
        let votes: Vec<bool> = (0..cost)
            .map(|_| self.model.answer_with_gap(&q, truth, gap))
            .collect();
        let yes = match self.policy {
            VotePolicy::Single => votes[0],
            VotePolicy::Majority(_) => majority_vote(&votes),
        };
        let answer = Answer { question: q, yes };
        let recorded = self.ledger.record(answer, cost);
        debug_assert!(recorded, "affordability was checked above");
        Some(answer)
    }

    fn remaining(&self) -> usize {
        self.ledger
            .questions_affordable(self.policy.votes_per_question())
    }

    fn answer_accuracy(&self) -> f64 {
        self.policy.effective_accuracy(self.model.accuracy())
    }

    fn history(&self) -> &[Answer] {
        self.ledger.history()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worker::{NoisyWorker, PerfectWorker};

    fn truth() -> GroundTruth {
        GroundTruth::from_scores(vec![0.1, 0.9, 0.5])
    }

    #[test]
    fn perfect_crowd_tells_the_truth() {
        let mut c = CrowdSimulator::new(truth(), PerfectWorker, VotePolicy::Single, 10)
            .expect("valid vote policy");
        let a = c.ask(Question::new(1, 0)).unwrap();
        assert!(a.yes);
        let b = c.ask(Question::new(0, 2)).unwrap();
        assert!(!b.yes);
        assert_eq!(c.remaining(), 8);
        assert_eq!(c.history().len(), 2);
        assert_eq!(c.answer_accuracy(), 1.0);
    }

    #[test]
    fn budget_is_enforced() {
        let mut c = CrowdSimulator::new(truth(), PerfectWorker, VotePolicy::Single, 1)
            .expect("valid vote policy");
        assert!(c.ask(Question::new(0, 1)).is_some());
        assert!(c.ask(Question::new(1, 2)).is_none());
        assert_eq!(c.remaining(), 0);
    }

    #[test]
    fn majority_voting_collects_votes_and_raises_accuracy() {
        let mut c = CrowdSimulator::new(
            truth(),
            NoisyWorker::new(0.7, 42),
            VotePolicy::Majority(3),
            9,
        )
        .expect("valid vote policy");
        let _ = c.ask(Question::new(1, 0)).unwrap();
        assert_eq!(c.ledger().votes(), 3);
        assert_eq!(c.ledger().asked(), 1);
        assert!((c.answer_accuracy() - 0.784).abs() < 1e-9);
    }

    #[test]
    fn majority_budget_is_vote_denominated() {
        // Regression: `ask` under Majority(3) used to spend 3 worker
        // votes while charging the ledger one unit, so "budget B" bought
        // 3x the paper's priced work. Budget 7 votes now affords exactly
        // two majority-of-3 questions.
        let mut c = CrowdSimulator::new(truth(), PerfectWorker, VotePolicy::Majority(3), 7)
            .expect("valid vote policy");
        assert_eq!(c.remaining(), 2);
        assert!(c.ask(Question::new(1, 0)).is_some());
        assert!(c.ask(Question::new(2, 0)).is_some());
        assert_eq!(c.remaining(), 0, "one vote unit left cannot buy 3 votes");
        assert!(
            c.ask(Question::new(2, 1)).is_none(),
            "unaffordable ask refused"
        );
        assert_eq!(c.ledger().votes(), 6);
        assert_eq!(c.ledger().asked(), 2);
    }

    #[test]
    fn unknown_tuples_are_refused_untouched() {
        // A question naming a tuple outside the truth gets no answer, and
        // draws no vote, spends nothing and records nothing.
        let mut c = CrowdSimulator::new(
            truth(),
            NoisyWorker::new(0.7, 42),
            VotePolicy::Majority(3),
            9,
        )
        .expect("valid vote policy");
        let mut twin = c.clone();
        for q in [
            Question::new(9, 0),
            Question::new(0, 3),
            Question::new(5, 7),
        ] {
            assert!(c.ask(q).is_none(), "{q:?}");
        }
        assert_eq!((c.ledger().votes(), c.ledger().asked()), (0, 0));
        assert!(c.history().is_empty());
        assert_eq!(c.remaining(), 3);
        // The worker model's stream did not move either.
        let answers = |c: &mut CrowdSimulator<NoisyWorker>| -> Vec<bool> {
            (0..3)
                .map(|_| c.ask(Question::new(1, 0)).unwrap().yes)
                .collect()
        };
        assert_eq!(answers(&mut c), answers(&mut twin));
    }

    #[test]
    fn noisy_crowd_empirical_accuracy() {
        let mut c = CrowdSimulator::new(
            truth(),
            NoisyWorker::new(0.8, 7),
            VotePolicy::Single,
            20_000,
        )
        .expect("valid vote policy");
        let q = Question::new(1, 0); // true answer: yes
        let mut correct = 0;
        for _ in 0..20_000 {
            if c.ask(q).unwrap().yes {
                correct += 1;
            }
        }
        let rate = correct as f64 / 20_000.0;
        assert!((rate - 0.8).abs() < 0.01, "rate = {rate}");
    }

    #[test]
    fn ask_respects_budget_without_side_effects() {
        let mut c = CrowdSimulator::new(truth(), PerfectWorker, VotePolicy::Majority(3), 2)
            .expect("valid vote policy");
        assert!(c.ask(Question::new(1, 0)).is_none());
        assert_eq!(c.remaining(), 0);
        assert!(c.history().is_empty(), "refused ask leaves no trace");
    }

    #[test]
    fn default_routed_ask_ignores_hint() {
        let mut c = CrowdSimulator::new(truth(), PerfectWorker, VotePolicy::Single, 2)
            .expect("valid vote policy");
        let a = c
            .ask_routed(Question::new(1, 0), RouteHint::Expert)
            .unwrap();
        assert!(a.yes);
        let b = c.ask_routed(Question::new(1, 0), RouteHint::Cheap).unwrap();
        assert_eq!(a, b, "hints are advisory for hint-blind backends");
        assert_eq!(c.remaining(), 0);
    }

    #[test]
    fn invalid_policy_rejected() {
        let res = CrowdSimulator::new(truth(), PerfectWorker, VotePolicy::Majority(2), 5);
        assert_eq!(
            res.map(|_| ()).unwrap_err(),
            crate::error::CrowdError::InvalidVotePolicy { count: 2 }
        );
    }
}
