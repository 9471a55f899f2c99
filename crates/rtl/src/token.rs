//! Token definitions for the Verilog subset lexer.

use std::fmt;

use crate::span::Span;
use crate::value::LogicVec;

/// Verilog keywords recognized by the subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // each variant is the keyword it names
pub enum Keyword {
    Module,
    Endmodule,
    Input,
    Output,
    Inout,
    Wire,
    Reg,
    Integer,
    Parameter,
    Localparam,
    Assign,
    Always,
    Initial,
    Begin,
    End,
    If,
    Else,
    Case,
    Casez,
    Casex,
    Endcase,
    Default,
    Posedge,
    Negedge,
    Or,
    For,
    Signed,
}

impl Keyword {
    /// Looks up a keyword from its source spelling: the first letter
    /// picks at most five candidates, compared by spelling.
    #[must_use]
    pub fn lookup(s: &str) -> Option<Keyword> {
        use Keyword::*;
        let candidates: &[Keyword] = match s.as_bytes().first()? {
            b'a' => &[Assign, Always],
            b'b' => &[Begin],
            b'c' => &[Case, Casez, Casex],
            b'd' => &[Default],
            b'e' => &[End, Endmodule, Else, Endcase],
            b'f' => &[For],
            b'i' => &[Input, Inout, Integer, If, Initial],
            b'l' => &[Localparam],
            b'm' => &[Module],
            b'n' => &[Negedge],
            b'o' => &[Output, Or],
            b'p' => &[Parameter, Posedge],
            b'r' => &[Reg],
            b's' => &[Signed],
            b'w' => &[Wire],
            _ => return None,
        };
        candidates.iter().copied().find(|k| k.as_str() == s)
    }

    /// The source spelling of the keyword.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Keyword::Module => "module",
            Keyword::Endmodule => "endmodule",
            Keyword::Input => "input",
            Keyword::Output => "output",
            Keyword::Inout => "inout",
            Keyword::Wire => "wire",
            Keyword::Reg => "reg",
            Keyword::Integer => "integer",
            Keyword::Parameter => "parameter",
            Keyword::Localparam => "localparam",
            Keyword::Assign => "assign",
            Keyword::Always => "always",
            Keyword::Initial => "initial",
            Keyword::Begin => "begin",
            Keyword::End => "end",
            Keyword::If => "if",
            Keyword::Else => "else",
            Keyword::Case => "case",
            Keyword::Casez => "casez",
            Keyword::Casex => "casex",
            Keyword::Endcase => "endcase",
            Keyword::Default => "default",
            Keyword::Posedge => "posedge",
            Keyword::Negedge => "negedge",
            Keyword::Or => "or",
            Keyword::For => "for",
            Keyword::Signed => "signed",
        }
    }
}

/// Multi- and single-character punctuation/operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // each variant names its glyph
pub enum Punct {
    LParen,
    RParen,
    LBracket,
    RBracket,
    LBrace,
    RBrace,
    Semi,
    Comma,
    Colon,
    Dot,
    Hash,
    At,
    Question,
    Assign,    // =
    LtEq,      // <=  (also non-blocking assign)
    GtEq,      // >=
    Lt,        // <
    Gt,        // >
    EqEq,      // ==
    NotEq,     // !=
    CaseEq,    // ===
    CaseNotEq, // !==
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    Amp,        // &
    AmpAmp,     // &&
    Pipe,       // |
    PipePipe,   // ||
    Caret,      // ^
    Tilde,      // ~
    TildeCaret, // ~^ (xnor)
    Bang,       // !
    Shl,        // <<
    Shr,        // >>
    AShr,       // >>>
    Star2,      // ** (power; const contexts only)
    PlusColon,  // +: (indexed part-select)
    MinusColon, // -: (indexed part-select)
}

impl fmt::Display for Punct {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Punct::LParen => "(",
            Punct::RParen => ")",
            Punct::LBracket => "[",
            Punct::RBracket => "]",
            Punct::LBrace => "{",
            Punct::RBrace => "}",
            Punct::Semi => ";",
            Punct::Comma => ",",
            Punct::Colon => ":",
            Punct::Dot => ".",
            Punct::Hash => "#",
            Punct::At => "@",
            Punct::Question => "?",
            Punct::Assign => "=",
            Punct::LtEq => "<=",
            Punct::GtEq => ">=",
            Punct::Lt => "<",
            Punct::Gt => ">",
            Punct::EqEq => "==",
            Punct::NotEq => "!=",
            Punct::CaseEq => "===",
            Punct::CaseNotEq => "!==",
            Punct::Plus => "+",
            Punct::Minus => "-",
            Punct::Star => "*",
            Punct::Slash => "/",
            Punct::Percent => "%",
            Punct::Amp => "&",
            Punct::AmpAmp => "&&",
            Punct::Pipe => "|",
            Punct::PipePipe => "||",
            Punct::Caret => "^",
            Punct::Tilde => "~",
            Punct::TildeCaret => "~^",
            Punct::Bang => "!",
            Punct::Shl => "<<",
            Punct::Shr => ">>",
            Punct::AShr => ">>>",
            Punct::Star2 => "**",
            Punct::PlusColon => "+:",
            Punct::MinusColon => "-:",
        };
        f.write_str(s)
    }
}

/// What a token is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// A keyword such as `module`.
    Keyword(Keyword),
    /// An identifier (simple or escaped).
    Ident(String),
    /// A number literal. `sized` records whether an explicit width was
    /// written (`8'hFF`) as opposed to a bare decimal (`42`).
    Number {
        /// The literal's value; bare decimals are 32 bits wide.
        value: LogicVec,
        /// Whether the literal carried an explicit size.
        sized: bool,
    },
    /// Punctuation or operator.
    Punct(Punct),
    /// A string literal (used only in `$display`-style calls, kept for
    /// diagnostics; the subset has no string-valued expressions).
    Str(String),
    /// A system task/function name including the `$` (e.g. `$display`).
    SysName(String),
    /// End of input.
    Eof,
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Keyword(k) => write!(f, "`{}`", k.as_str()),
            TokenKind::Ident(s) => write!(f, "identifier `{s}`"),
            TokenKind::Number { value, .. } => write!(f, "number `{value}`"),
            TokenKind::Punct(p) => write!(f, "`{p}`"),
            TokenKind::Str(_) => write!(f, "string literal"),
            TokenKind::SysName(s) => write!(f, "`{s}`"),
            TokenKind::Eof => write!(f, "end of input"),
        }
    }
}

/// A lexed token with its source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// What the token is.
    pub kind: TokenKind,
    /// Where it came from.
    pub span: Span,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_round_trip() {
        use Keyword::*;
        for kw in [
            Module, Endmodule, Input, Output, Inout, Wire, Reg, Integer, Parameter, Localparam,
            Assign, Always, Initial, Begin, End, If, Else, Case, Casez, Casex, Endcase, Default,
            Posedge, Negedge, Or, For, Signed,
        ] {
            assert_eq!(Keyword::lookup(kw.as_str()), Some(kw));
        }
        for word in [
            "frobnicate",
            "",
            "e",
            "ends",
            "Module",
            "alway",
            "caseq",
            "_reg",
        ] {
            assert_eq!(Keyword::lookup(word), None, "{word:?}");
        }
    }

    #[test]
    fn display_is_nonempty() {
        assert_eq!(TokenKind::Punct(Punct::CaseEq).to_string(), "`===`");
        assert_eq!(TokenKind::Eof.to_string(), "end of input");
    }
}
