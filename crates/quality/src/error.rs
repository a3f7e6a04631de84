//! Error type for quality-layer configuration.

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
    /// A Beta prior with non-positive or non-finite pseudo-counts.
    InvalidPrior,
    /// A worker spec whose accuracy is outside `[0, 1]` or non-finite.
    InvalidAccuracy,
    /// A worker spec with a zero per-vote cost (free workers would make
    /// the cheapest-panel accounting degenerate).
    InvalidCost,
    /// An empty active window (`join >= leave`) or a zero-capacity vote
    /// log.
    InvalidWindow,
    /// A gate threshold outside `[0, 1]` or non-finite.
    InvalidThreshold,
}

impl fmt::Display for QualityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QualityError::EmptyRoster => write!(f, "a quality crowd needs at least one worker"),
            QualityError::InvalidPanel { size } => {
                write!(f, "vote panel must be an odd positive count, got {size}")
            }
            QualityError::InvalidPrior => {
                write!(f, "Beta prior pseudo-counts must be positive and finite")
            }
            QualityError::InvalidAccuracy => {
                write!(f, "worker accuracy must be a finite value in [0, 1]")
            }
            QualityError::InvalidCost => write!(f, "worker cost must be at least one unit"),
            QualityError::InvalidWindow => {
                write!(f, "active windows and log capacities must be non-empty")
            }
            QualityError::InvalidThreshold => {
                write!(f, "thresholds must be finite and in [0, 1]")
            }
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
            QualityError::InvalidPrior.to_string(),
            QualityError::InvalidAccuracy.to_string(),
            QualityError::InvalidCost.to_string(),
            QualityError::InvalidWindow.to_string(),
            QualityError::InvalidThreshold.to_string(),
        ];
        for m in msgs {
            assert!(!m.is_empty());
        }
        assert!(QualityError::InvalidPanel { size: 4 }
            .to_string()
            .contains('4'));
    }
}
