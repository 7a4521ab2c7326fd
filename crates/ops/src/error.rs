//! Error types for the OPS5 front end and interpreter.

use std::fmt;

/// A parse error with line/column location.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseError {
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parse error at {}:{}: {}",
            self.line, self.col, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// A failure inside a [`crate::Matcher`] during the match phase.
///
/// Sequential matchers are infallible; the variants here describe ways a
/// *distributed* matcher (threads, message passing) can die mid-cycle.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum MatchError {
    /// A match-processor thread panicked (or otherwise exited) before the
    /// cycle's token cascade drained; the conflict set is unreliable.
    WorkerPanicked {
        /// Index of the first dead worker detected.
        worker: usize,
    },
    /// Every match-processor channel disconnected at once (the executor
    /// was already torn down when `process` was called).
    Disconnected,
}

impl fmt::Display for MatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatchError::WorkerPanicked { worker } => {
                write!(f, "match worker {worker} panicked mid-cycle")
            }
            MatchError::Disconnected => write!(f, "all match workers disconnected"),
        }
    }
}

impl std::error::Error for MatchError {}

/// Errors raised while building or running a production system.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum OpsError {
    /// Syntax error in textual OPS5 source.
    Parse(ParseError),
    /// A structurally invalid production (name, reason).
    InvalidProduction(String, String),
    /// Two productions share a name.
    DuplicateProduction(String),
    /// RHS referenced a variable with no LHS binding.
    UnboundVariable(String),
    /// RHS arithmetic failure (type mismatch, modulo by zero).
    Arithmetic(String),
    /// A `remove`/`modify` referred to a WME already gone this cycle.
    StaleWme(String),
    /// A `(call …)` named a function never registered on the interpreter.
    UnknownFunction(String),
    /// The matcher failed during the match phase (e.g. a worker thread of
    /// a parallel matcher died).
    Match(MatchError),
    /// Captured interpreter state that cannot be restored (e.g. a next
    /// time tag not beyond every live one).
    InvalidState(String),
}

impl fmt::Display for OpsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpsError::Parse(e) => write!(f, "{e}"),
            OpsError::InvalidProduction(name, msg) => {
                write!(f, "invalid production {name}: {msg}")
            }
            OpsError::DuplicateProduction(name) => {
                write!(f, "duplicate production name {name}")
            }
            OpsError::UnboundVariable(v) => write!(f, "unbound variable <{v}>"),
            OpsError::Arithmetic(msg) => write!(f, "arithmetic error: {msg}"),
            OpsError::StaleWme(msg) => write!(f, "stale working-memory reference: {msg}"),
            OpsError::UnknownFunction(name) => {
                write!(f, "(call {name}) but no such function is registered")
            }
            OpsError::Match(e) => write!(f, "match phase failed: {e}"),
            OpsError::InvalidState(msg) => write!(f, "invalid interpreter state: {msg}"),
        }
    }
}

impl std::error::Error for OpsError {}

impl From<ParseError> for OpsError {
    fn from(e: ParseError) -> Self {
        OpsError::Parse(e)
    }
}

impl From<MatchError> for OpsError {
    fn from(e: MatchError) -> Self {
        OpsError::Match(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_location() {
        let e = ParseError {
            line: 3,
            col: 14,
            message: "expected ')'".into(),
        };
        assert_eq!(e.to_string(), "parse error at 3:14: expected ')'");
    }

    #[test]
    fn match_error_display_and_wrap() {
        let e = MatchError::WorkerPanicked { worker: 3 };
        assert_eq!(e.to_string(), "match worker 3 panicked mid-cycle");
        let oe: OpsError = e.clone().into();
        assert_eq!(oe, OpsError::Match(e));
        assert!(oe.to_string().contains("match phase failed"));
    }

    #[test]
    fn ops_error_wraps_parse_error() {
        let pe = ParseError {
            line: 1,
            col: 1,
            message: "x".into(),
        };
        let oe: OpsError = pe.clone().into();
        assert_eq!(oe, OpsError::Parse(pe));
    }
}
