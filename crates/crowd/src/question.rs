//! Crowd tasks: pairwise ranking questions and their answers.
//!
//! A question `q = (t_i ?≺ t_j)` shows two items to a worker and asks which
//! one ranks higher (§III: “crowd tasks expressed as questions of the form
//! `q = t_i ?≺ t_j`”).

use std::fmt;

/// “Does tuple `i` rank above tuple `j`?”
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Question {
    /// First compared tuple.
    pub i: u32,
    /// Second compared tuple.
    pub j: u32,
}

impl Question {
    /// Creates a question; `i` and `j` must differ.
    pub fn new(i: u32, j: u32) -> Self {
        assert_ne!(i, j, "a question must compare two distinct tuples");
        Self { i, j }
    }

    /// The same comparison with the smaller id first (questions `(i, j)`
    /// and `(j, i)` carry identical information; the canonical form is used
    /// for deduplication in question pools).
    pub fn canonical(self) -> Self {
        if self.i <= self.j {
            self
        } else {
            Self {
                i: self.j,
                j: self.i,
            }
        }
    }

    /// The reversed question.
    pub fn flipped(self) -> Self {
        Self {
            i: self.j,
            j: self.i,
        }
    }
}

impl fmt::Display for Question {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{} ?≺ t{}", self.i, self.j)
    }
}

/// A collected (possibly noisy, possibly aggregated) answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Answer {
    /// The question as it was asked.
    pub question: Question,
    /// `true` iff the crowd said `i` ranks above `j`.
    pub yes: bool,
}

impl Answer {
    /// The `(winner, loser)` pair asserted by this answer.
    fn implied_order(&self) -> (u32, u32) {
        if self.yes {
            (self.question.i, self.question.j)
        } else {
            (self.question.j, self.question.i)
        }
    }
}

impl fmt::Display for Answer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (w, l) = self.implied_order();
        write!(f, "t{w} ≺ t{l}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "distinct")]
    fn self_comparison_rejected() {
        Question::new(3, 3);
    }

    #[test]
    fn canonicalization() {
        assert_eq!(Question::new(5, 2).canonical(), Question::new(2, 5));
        assert_eq!(Question::new(2, 5).canonical(), Question::new(2, 5));
        assert_eq!(Question::new(2, 5).flipped(), Question::new(5, 2));
    }

    #[test]
    fn implied_order() {
        let q = Question::new(1, 4);
        assert_eq!(
            Answer {
                question: q,
                yes: true
            }
            .implied_order(),
            (1, 4)
        );
        assert_eq!(
            Answer {
                question: q,
                yes: false
            }
            .implied_order(),
            (4, 1)
        );
    }

    #[test]
    fn display() {
        assert_eq!(format!("{}", Question::new(0, 2)), "t0 ?≺ t2");
        let a = Answer {
            question: Question::new(0, 2),
            yes: false,
        };
        assert_eq!(format!("{a}"), "t2 ≺ t0");
    }
}
