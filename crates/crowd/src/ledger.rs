//! Budget accounting: the paper's budget `B` bounds the crowd work a
//! session may buy. The ledger prices that work in worker votes — a
//! majority-of-`n` answer costs `n`, the "triple the cost" of the paper's
//! §III-C majority analysis — and keeps the full question/answer history
//! for reports.

use crate::question::Answer;

/// Tracks budget consumption, in worker votes, and history.
#[derive(Debug, Clone)]
pub struct BudgetLedger {
    budget: usize,
    questions_asked: usize,
    votes_collected: usize,
    history: Vec<Answer>,
}

impl BudgetLedger {
    /// Creates a ledger with a budget of `b` worker votes.
    pub fn new(b: usize) -> Self {
        Self {
            budget: b,
            questions_asked: 0,
            votes_collected: 0,
            history: Vec::new(),
        }
    }

    /// The configured budget `B`, in worker votes.
    pub fn budget(&self) -> usize {
        self.budget
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

    /// Budget spent so far: the votes collected.
    pub fn spent(&self) -> usize {
        self.votes_collected
    }

    /// Votes still unspent. Saturating: even if a ledger is ever
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

    /// True when a question costing `votes` worker votes still fits in
    /// the remaining budget.
    pub fn can_afford(&self, votes: usize) -> bool {
        votes.max(1) <= self.remaining()
    }

    /// How many more questions of `votes_per_question` votes each the
    /// remaining budget affords.
    pub fn questions_affordable(&self, votes_per_question: usize) -> usize {
        self.remaining() / votes_per_question.max(1)
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
            "BudgetLedger overspent: spent {} of {} votes",
            self.spent(),
            self.budget
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
        let mut l = BudgetLedger::new(4);
        assert_eq!(l.budget(), 4);
        assert_eq!(l.remaining(), 4);
        assert!(!l.exhausted());
        assert!(l.record(ans(0, 1, true), 1));
        assert!(l.record(ans(1, 2, false), 3));
        assert!(l.exhausted());
        assert!(!l.record(ans(2, 3, true), 1), "over-budget record refused");
        assert_eq!(l.asked(), 2);
        assert_eq!(l.votes(), 4);
        assert_eq!(l.spent(), 4);
        assert_eq!(l.history().len(), 2);
    }

    #[test]
    fn vote_denomination_charges_votes() {
        // Regression for the budget denomination mismatch: a majority-of-3
        // answer must cost 3 vote units, not 1, so "budget 7" affords two
        // majority questions plus nothing — the third no longer fits.
        let mut l = BudgetLedger::new(7);
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
        assert_eq!(l.questions_affordable(1), 0);
        assert!(!l.record(ans(0, 1, true), 1));
        assert!(l.history().is_empty());
    }
}
