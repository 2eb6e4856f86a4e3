//! Error type for the Bayesian scoring layer.

use std::fmt;

/// Errors from constructing scoring parameters or state.
#[derive(Debug, Clone, PartialEq)]
pub enum BayesError {
    /// A model parameter was outside its valid range.
    InvalidParameter {
        /// Name of the parameter.
        name: &'static str,
        /// The offending value.
        value: f64,
        /// Human-readable description of the valid range.
        requirement: &'static str,
    },
    /// A probability or accuracy outside `[0, 1]` was supplied.
    InvalidProbability {
        /// What the probability described.
        what: &'static str,
        /// The offending value.
        value: f64,
    },
}

impl fmt::Display for BayesError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BayesError::InvalidParameter { name, value, requirement } => {
                write!(f, "invalid parameter {name} = {value}: must satisfy {requirement}")
            }
            BayesError::InvalidProbability { what, value } => {
                write!(f, "invalid probability for {what}: {value} is not in [0, 1]")
            }
        }
    }
}

impl std::error::Error for BayesError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = BayesError::InvalidParameter {
            name: "alpha",
            value: 0.7,
            requirement: "0 < alpha < 0.5",
        };
        assert!(e.to_string().contains("alpha"));
        assert!(e.to_string().contains("0.7"));
        let e = BayesError::InvalidProbability { what: "value probability", value: 1.5 };
        assert!(e.to_string().contains("1.5"));
    }
}
