//! Error type for TPO construction and belief updates.

use ctk_prob::ProbError;
use std::fmt;

/// Errors raised by TPO construction, pruning and reweighting.
#[derive(Debug, Clone, PartialEq)]
pub enum TpoError {
    /// Underlying probability-engine error.
    Prob(ProbError),
    /// `k` must satisfy `1 <= k <= N`; for a world sample, `N` is the
    /// depth its worlds are kept to.
    InvalidK { k: usize, n: usize },
    /// A world sample kept to depth `k` does not rank this tuple: it (or
    /// an id past the table) never reaches the top `k` of a world.
    NotACandidate {
        /// The tuple asked about.
        tuple: u32,
    },
    /// A fixed world budget must satisfy
    /// `1 <= M <= `[`ADAPTIVE_MAX_WORLDS`](crate::precision::ADAPTIVE_MAX_WORLDS).
    /// Invalid specs are errors, not silent repairs.
    InvalidWorlds,
    /// An adaptive precision target needs `0 < epsilon < 1` and
    /// `0 < delta < 1`.
    InvalidPrecision {
        /// The rejected per-path error tolerance.
        epsilon: f64,
        /// The rejected failure probability.
        delta: f64,
    },
    /// The exact engine exceeded its configured path budget.
    PathExplosion { paths: usize, max: usize },
    /// An answer (or answer sequence) eliminated every ordering.
    ContradictoryAnswer,
    /// A path set ended up empty (no orderings).
    EmptyPathSet,
}

impl fmt::Display for TpoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TpoError::Prob(e) => write!(f, "probability engine: {e}"),
            TpoError::InvalidK { k, n } => {
                write!(f, "k = {k} out of range for a table of {n} tuples")
            }
            TpoError::NotACandidate { tuple } => write!(
                f,
                "tuple {tuple} cannot reach the sampled top-k, so the world sample does not rank it"
            ),
            TpoError::InvalidWorlds => write!(
                f,
                "a fixed world budget must be between 1 and {} worlds",
                crate::precision::ADAPTIVE_MAX_WORLDS
            ),
            TpoError::InvalidPrecision { epsilon, delta } => {
                write!(
                    f,
                    "adaptive precision target (epsilon = {epsilon}, delta = {delta}) \
                     must satisfy 0 < epsilon < 1 and 0 < delta < 1"
                )
            }
            TpoError::PathExplosion { paths, max } => {
                write!(
                    f,
                    "tree of possible orderings exceeded {max} paths ({paths} found)"
                )
            }
            TpoError::ContradictoryAnswer => {
                write!(f, "answer contradicts every remaining ordering")
            }
            TpoError::EmptyPathSet => write!(f, "path set contains no orderings"),
        }
    }
}

impl std::error::Error for TpoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TpoError::Prob(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ProbError> for TpoError {
    fn from(e: ProbError) -> Self {
        TpoError::Prob(e)
    }
}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, TpoError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        use std::error::Error;
        let e = TpoError::from(ProbError::EmptyTable);
        assert!(e.to_string().contains("probability engine"));
        assert!(e.source().is_some());
        assert!(TpoError::InvalidK { k: 9, n: 3 }.to_string().contains("9"));
        assert!(TpoError::InvalidWorlds.to_string().contains("world"));
        assert!(TpoError::InvalidPrecision {
            epsilon: 0.0,
            delta: 2.0
        }
        .to_string()
        .contains("epsilon"));
        assert!(TpoError::PathExplosion { paths: 10, max: 5 }
            .to_string()
            .contains("exceeded"));
        assert!(TpoError::ContradictoryAnswer.source().is_none());
        let _ = TpoError::EmptyPathSet.to_string();
    }
}
