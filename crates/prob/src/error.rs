//! Error type for distribution construction and numeric routines.

use std::fmt;

/// Errors raised when constructing or evaluating score distributions.
#[derive(Debug, Clone, PartialEq)]
pub enum ProbError {
    /// A distribution parameter was invalid (NaN, wrong sign, empty support…).
    InvalidParameter {
        /// Name of the offending parameter.
        param: &'static str,
        /// Human-readable description of the violation.
        reason: String,
    },
    /// A probability value fell outside `[0, 1]`.
    InvalidProbability(f64),
    /// Discrete, mixture or piecewise weights did not form a usable
    /// distribution.
    InvalidWeights(String),
    /// The operation requires a continuous distribution but got a discrete one.
    RequiresContinuous(&'static str),
    /// An empty table (no tuples) was supplied where at least one is needed.
    EmptyTable,
    /// A query depth `k` outside `1..=n` was requested.
    InvalidK {
        /// The requested depth.
        k: usize,
        /// The table size it was requested against.
        n: usize,
    },
}

impl fmt::Display for ProbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProbError::InvalidParameter { param, reason } => {
                write!(f, "invalid parameter `{param}`: {reason}")
            }
            ProbError::InvalidProbability(p) => {
                write!(f, "probability {p} outside [0, 1]")
            }
            ProbError::InvalidWeights(msg) => write!(f, "invalid weights: {msg}"),
            ProbError::RequiresContinuous(op) => {
                write!(f, "operation `{op}` requires continuous distributions")
            }
            ProbError::EmptyTable => write!(f, "uncertain table must contain at least one tuple"),
            ProbError::InvalidK { k, n } => {
                write!(
                    f,
                    "query depth k = {k} out of range for a table of {n} tuples"
                )
            }
        }
    }
}

impl std::error::Error for ProbError {}

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, ProbError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = ProbError::InvalidParameter {
            param: "sigma",
            reason: "must be positive".into(),
        };
        assert!(e.to_string().contains("sigma"));
        assert!(e.to_string().contains("positive"));

        let e = ProbError::InvalidProbability(1.5);
        assert!(e.to_string().contains("1.5"));

        let e = ProbError::RequiresContinuous("prefix_probability");
        assert!(e.to_string().contains("prefix_probability"));

        assert!(ProbError::EmptyTable.to_string().contains("tuple"));
        assert!(ProbError::InvalidK { k: 9, n: 3 }.to_string().contains("9"));
        assert!(ProbError::InvalidWeights("all zero".into())
            .to_string()
            .contains("all zero"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>(_: &E) {}
        assert_err(&ProbError::EmptyTable);
    }
}
