//! SPARQL error types.

use std::fmt;

use feo_rdf::governor::Exhausted;
use feo_rdf::syntax::SyntaxError;

/// An error raised while parsing or evaluating a SPARQL query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SparqlError {
    /// Syntax error with position information.
    Parse {
        message: String,
        line: usize,
        column: usize,
    },
    /// Semantic error discovered at evaluation time (e.g. aggregate used
    /// outside GROUP BY projection, unknown prefix).
    Eval(String),
    /// An execution budget (solutions, deadline, cancellation) tripped
    /// during evaluation under a [`feo_rdf::governor::Guard`].
    Exhausted(Exhausted),
}

impl SparqlError {
    pub fn parse(message: impl Into<String>, line: usize, column: usize) -> Self {
        SparqlError::Parse {
            message: message.into(),
            line,
            column,
        }
    }

    pub fn eval(message: impl Into<String>) -> Self {
        SparqlError::Eval(message.into())
    }

    /// The budget trip behind this error, if it is an `Exhausted`.
    pub fn as_exhausted(&self) -> Option<&Exhausted> {
        match self {
            SparqlError::Exhausted(e) => Some(e),
            _ => None,
        }
    }
}

impl fmt::Display for SparqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SparqlError::Parse {
                message,
                line,
                column,
            } => write!(f, "sparql parse error at {line}:{column}: {message}"),
            SparqlError::Eval(m) => write!(f, "sparql evaluation error: {m}"),
            SparqlError::Exhausted(e) => write!(f, "sparql evaluation stopped: {e}"),
        }
    }
}

impl std::error::Error for SparqlError {}

impl From<SyntaxError> for SparqlError {
    fn from(e: SyntaxError) -> Self {
        SparqlError::parse(e.message, e.line, e.column)
    }
}

impl From<Exhausted> for SparqlError {
    fn from(e: Exhausted) -> Self {
        SparqlError::Exhausted(e)
    }
}

pub type Result<T> = std::result::Result<T, SparqlError>;
