//! Frontend error types.

use std::error::Error;
use std::fmt;

use crate::span::Span;

/// The kind of a frontend diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RtlErrorKind {
    /// Lexical error (bad character, malformed literal).
    Lex,
    /// Syntax error.
    Parse,
    /// Semantic error (undeclared identifier, width mismatch, bad lvalue).
    Semantic,
    /// Elaboration error (unknown module, bad parameter, port mismatch).
    Elaborate,
    /// The construct is valid Verilog but outside the supported subset.
    Unsupported,
    /// The input exceeds a named frontend limit (such as
    /// [`crate::parser::MAX_EXPR_DEPTH`]) that keeps untrusted input from
    /// exhausting the process.
    Limit,
}

impl fmt::Display for RtlErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RtlErrorKind::Lex => "lexical error",
            RtlErrorKind::Parse => "syntax error",
            RtlErrorKind::Semantic => "semantic error",
            RtlErrorKind::Elaborate => "elaboration error",
            RtlErrorKind::Unsupported => "unsupported construct",
            RtlErrorKind::Limit => "input limit exceeded",
        };
        f.write_str(s)
    }
}

/// A diagnostic produced by the RTL frontend.
///
/// Implements [`std::error::Error`] and is `Send + Sync` so it composes
/// with downstream error handling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RtlError {
    /// What stage rejected the input.
    pub kind: RtlErrorKind,
    /// Human-readable message (lowercase, no trailing punctuation).
    pub message: String,
    /// Where in the source the problem is.
    pub span: Span,
}

impl RtlError {
    /// Creates a new diagnostic.
    #[must_use]
    pub fn new(kind: RtlErrorKind, message: impl Into<String>, span: Span) -> RtlError {
        RtlError {
            kind,
            message: message.into(),
            span,
        }
    }
}

impl fmt::Display for RtlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind, self.message)
    }
}

impl Error for RtlError {}

/// Convenience alias for frontend results.
pub type RtlResult<T> = Result<T, RtlError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_kind_and_message() {
        let e = RtlError::new(RtlErrorKind::Parse, "expected `;`", Span::dummy());
        assert_eq!(e.to_string(), "syntax error: expected `;`");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<RtlError>();
    }
}
