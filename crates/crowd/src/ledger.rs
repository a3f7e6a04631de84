//! Budget accounting: the paper's budget `B` bounds the crowd work a
//! session may buy. The ledger prices that work in one of two explicit
//! denominations — aggregated answers ([`CostModel::PerQuestion`]) or raw
//! worker votes ([`CostModel::PerVote`], where a majority-of-`n` answer
//! costs `n`) — and keeps the full question/answer history for reports.

use crate::question::Answer;

/// How a [`BudgetLedger`] prices crowd work.
///
/// The distinction only matters under replicated voting: a
/// `Majority(3)` answer engages three workers. Pricing it as one unit
/// (`PerQuestion`) makes "budget B" mean *B aggregated answers, whatever
/// they cost*; pricing it as three (`PerVote`) makes "budget B" mean *B
/// worker engagements* — the monetary denomination the paper's §III-C
/// majority analysis uses when it calls replication "triple the cost".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CostModel {
    /// Budget `B` buys `B` aggregated answers regardless of replication.
    #[default]
    PerQuestion,
    /// Budget `B` buys `B` worker votes: a `Majority(n)` answer costs `n`.
    PerVote,
}

/// Tracks budget consumption (in the configured [`CostModel`]) and
/// history.
#[derive(Debug, Clone)]
pub struct BudgetLedger {
    budget: usize,
    cost_model: CostModel,
    questions_asked: usize,
    votes_collected: usize,
    history: Vec<Answer>,
}

impl BudgetLedger {
    /// Creates a question-denominated ledger: budget `b` aggregated
    /// answers.
    pub fn new(b: usize) -> Self {
        Self::with_cost_model(b, CostModel::PerQuestion)
    }

    /// Creates a ledger with an explicit denomination.
    pub fn with_cost_model(b: usize, cost_model: CostModel) -> Self {
        Self {
            budget: b,
            cost_model,
            questions_asked: 0,
            votes_collected: 0,
            history: Vec::new(),
        }
    }

    /// The configured budget `B`, in units of the cost model.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// The denomination this ledger charges in.
    pub fn cost_model(&self) -> CostModel {
        self.cost_model
    }

    /// Questions asked so far.
    pub fn asked(&self) -> usize {
        self.questions_asked
    }

    /// Raw worker votes collected so far (>= questions when majority
    /// policies are used).
    pub fn votes(&self) -> usize {
        self.votes_collected
    }

    /// Budget units spent so far (questions or votes, per the model).
    pub fn spent(&self) -> usize {
        match self.cost_model {
            CostModel::PerQuestion => self.questions_asked,
            CostModel::PerVote => self.votes_collected,
        }
    }

    /// Budget units still unspent. Saturating: even if a ledger is ever
    /// driven past its budget (a bug elsewhere, or a deserialized
    /// snapshot), `remaining` reports 0 instead of underflowing to
    /// `usize::MAX` and unleashing an unbounded question spree.
    pub fn remaining(&self) -> usize {
        self.budget.saturating_sub(self.spent())
    }

    /// True when nothing more can be bought (not even a single-vote
    /// question).
    pub fn exhausted(&self) -> bool {
        self.spent() >= self.budget
    }

    /// What one question answered with `votes` worker votes costs under
    /// this ledger's denomination.
    fn question_cost(&self, votes: usize) -> usize {
        match self.cost_model {
            CostModel::PerQuestion => 1,
            CostModel::PerVote => votes,
        }
    }

    /// True when a question costing `votes` worker votes still fits in
    /// the remaining budget.
    pub fn can_afford(&self, votes: usize) -> bool {
        self.question_cost(votes).max(1) <= self.remaining()
    }

    /// How many more questions of `votes_per_question` votes each the
    /// remaining budget affords.
    pub fn questions_affordable(&self, votes_per_question: usize) -> usize {
        self.remaining() / self.question_cost(votes_per_question).max(1)
    }

    /// Records one asked question with its aggregated answer and the number
    /// of votes spent on it. Returns `false` (recording nothing) if the
    /// remaining budget cannot cover the question's cost.
    pub fn record(&mut self, answer: Answer, votes: usize) -> bool {
        if !self.can_afford(votes) {
            return false;
        }
        self.questions_asked += 1;
        self.votes_collected += votes;
        self.history.push(answer);
        #[cfg(feature = "debug-invariants")]
        assert!(
            self.spent() <= self.budget,
            "BudgetLedger overspent: spent {} of {} (cost model {:?})",
            self.spent(),
            self.budget,
            self.cost_model
        );
        true
    }

    /// Full answer history in ask order.
    pub fn history(&self) -> &[Answer] {
        &self.history
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::question::Question;

    fn ans(i: u32, j: u32, yes: bool) -> Answer {
        Answer {
            question: Question::new(i, j),
            yes,
        }
    }

    #[test]
    fn budget_lifecycle() {
        let mut l = BudgetLedger::new(2);
        assert_eq!(l.budget(), 2);
        assert_eq!(l.remaining(), 2);
        assert!(!l.exhausted());
        assert!(l.record(ans(0, 1, true), 1));
        assert!(l.record(ans(1, 2, false), 3));
        assert!(l.exhausted());
        assert!(!l.record(ans(2, 3, true), 1), "over-budget record refused");
        assert_eq!(l.asked(), 2);
        assert_eq!(l.votes(), 4);
        assert_eq!(l.history().len(), 2);
    }

    #[test]
    fn vote_denomination_charges_votes() {
        // Regression for the budget denomination mismatch: a majority-of-3
        // answer must cost 3 vote units, not 1, so "budget 7" affords two
        // majority questions plus nothing — the third no longer fits.
        let mut l = BudgetLedger::with_cost_model(7, CostModel::PerVote);
        assert_eq!(l.cost_model(), CostModel::PerVote);
        assert_eq!(l.question_cost(3), 3);
        assert_eq!(l.questions_affordable(3), 2);
        assert!(l.record(ans(0, 1, true), 3));
        assert!(l.record(ans(1, 2, false), 3));
        assert_eq!(l.spent(), 6);
        assert_eq!(l.remaining(), 1);
        assert!(!l.exhausted(), "one vote unit left");
        assert!(!l.can_afford(3), "but not three");
        assert!(!l.record(ans(2, 3, true), 3), "unaffordable record refused");
        assert!(l.record(ans(2, 3, true), 1), "a single-vote question fits");
        assert!(l.exhausted());
        assert_eq!(l.asked(), 3);
        assert_eq!(l.votes(), 7);
    }

    #[test]
    fn question_denomination_ignores_replication() {
        let mut l = BudgetLedger::with_cost_model(2, CostModel::PerQuestion);
        assert!(l.record(ans(0, 1, true), 5));
        assert_eq!(l.spent(), 1, "one question, whatever it cost in votes");
        assert_eq!(l.questions_affordable(5), 1);
        assert!(l.can_afford(5));
        assert!(l.record(ans(1, 2, true), 5));
        assert!(l.exhausted());
        assert_eq!(l.votes(), 10);
    }

    #[test]
    fn asking_past_the_budget_never_underflows_remaining() {
        // Regression: `remaining` used plain subtraction; a ledger whose
        // `questions_asked` ever exceeded `budget` would report
        // usize::MAX remaining questions. Hammer past the budget and
        // check the invariant after every attempt.
        let mut l = BudgetLedger::new(3);
        for attempt in 0..10 {
            l.record(ans(0, 1, attempt % 2 == 0), 1);
            assert!(
                l.remaining() <= l.budget(),
                "remaining {} escaped budget {} after attempt {attempt}",
                l.remaining(),
                l.budget()
            );
        }
        assert_eq!(l.asked(), 3);
        assert_eq!(l.remaining(), 0);
        assert!(l.exhausted());
    }

    #[test]
    fn zero_budget() {
        let mut l = BudgetLedger::new(0);
        assert!(l.exhausted());
        assert!(!l.record(ans(0, 1, true), 1));
        let mut v = BudgetLedger::with_cost_model(0, CostModel::PerVote);
        assert!(v.exhausted());
        assert!(!v.record(ans(0, 1, true), 1));
    }
}
