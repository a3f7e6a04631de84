//! Error type for quality-layer configuration and input.

use ctk_crowd::Question;
use std::fmt;

/// Errors surfaced by the quality layer instead of panicking.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum QualityError {
    /// A quality crowd constructed without any workers.
    EmptyRoster,
    /// A vote panel that is even or zero (majorities need an odd count).
    InvalidPanel {
        /// The rejected panel size.
        size: usize,
    },
    /// A worker accuracy outside `[0, 1]` or non-finite.
    InvalidAccuracy,
    /// A gate threshold outside `[0, 1]` or non-finite.
    InvalidThreshold,
    /// A gold question naming a tuple the ground truth does not hold.
    UnknownTuple {
        /// The rejected question.
        question: Question,
        /// Tuples in the ground truth.
        tuples: usize,
    },
}

impl fmt::Display for QualityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QualityError::EmptyRoster => write!(f, "a quality crowd needs at least one worker"),
            QualityError::InvalidPanel { size } => {
                write!(f, "vote panel must be an odd positive count, got {size}")
            }
            QualityError::InvalidAccuracy => {
                write!(f, "worker accuracy must be a finite value in [0, 1]")
            }
            QualityError::InvalidThreshold => {
                write!(f, "thresholds must be finite and in [0, 1]")
            }
            QualityError::UnknownTuple { question, tuples } => write!(
                f,
                "gold question {question} names a tuple outside the {tuples}-tuple ground truth"
            ),
        }
    }
}

impl std::error::Error for QualityError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let msgs = [
            QualityError::EmptyRoster.to_string(),
            QualityError::InvalidPanel { size: 4 }.to_string(),
            QualityError::InvalidAccuracy.to_string(),
            QualityError::InvalidThreshold.to_string(),
        ];
        for m in msgs {
            assert!(!m.is_empty());
        }
        assert!(QualityError::InvalidPanel { size: 4 }
            .to_string()
            .contains('4'));
        let unknown = QualityError::UnknownTuple {
            question: Question::new(9, 0),
            tuples: 4,
        }
        .to_string();
        assert!(unknown.contains('9') && unknown.contains('4'), "{unknown}");
    }
}
