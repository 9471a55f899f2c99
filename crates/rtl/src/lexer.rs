//! Hand-written lexer for the Verilog subset.
//!
//! Handles line (`//`) and block (`/* */`) comments, based literals with
//! optional size (`8'hA5`, `'b1x0z`, `4'd12`), bare decimals, identifiers,
//! escaped identifiers (`\foo+bar `), strings, system names (`$display`)
//! and all subset operators with maximal-munch disambiguation
//! (`===` vs `==` vs `=`, `>>>` vs `>>`, `<=` etc).
//!
//! [`Lexer`] is a pull stream: the parser takes one token at a time and
//! moves it into the tree, so no token buffer is built. Only identifiers,
//! system names, strings and literals wider than 64 bits allocate.

use crate::error::{RtlError, RtlErrorKind, RtlResult};
use crate::span::{FileId, Span};
use crate::token::{Keyword, Punct, Token, TokenKind};
use crate::value::{Bit, LogicVec};

/// The widest literal the lexer builds, in bits: the width of the widest
/// net a declaration may have. A larger declared size, or binary, octal
/// or hex digits spelling more bits, is an [`RtlErrorKind::Limit`] error
/// raised before any of the literal's value is allocated: the 13-byte
/// literal `4294967295'h1` would otherwise ask for two 512 MiB planes.
pub const MAX_LITERAL_BITS: u32 = 1 << 20;

/// Lexes `text` (belonging to `file`) into a token stream terminated by
/// a single [`TokenKind::Eof`] token: [`Lexer`] collected.
///
/// # Errors
///
/// Returns an [`RtlError`] of kind [`RtlErrorKind::Lex`] on malformed
/// input (stray characters, unterminated comments/strings, bad digits
/// for the literal base, zero-width literals), or of kind
/// [`RtlErrorKind::Limit`] on a literal wider than [`MAX_LITERAL_BITS`].
pub fn lex(file: FileId, text: &str) -> RtlResult<Vec<Token>> {
    Lexer::new(file, text).collect()
}

/// The tokens of one source text, produced on demand.
///
/// As an [`Iterator`] it yields every token up to and including the
/// single [`TokenKind::Eof`], or up to the first error, and then ends.
#[derive(Debug)]
pub struct Lexer<'a> {
    file: FileId,
    text: &'a str,
    /// Byte offset of `text` in its file, added to every span.
    base: u32,
    pos: usize,
    /// Set once the iterator has yielded `Eof` or an error.
    done: bool,
}

impl Iterator for Lexer<'_> {
    type Item = RtlResult<Token>;

    fn next(&mut self) -> Option<RtlResult<Token>> {
        if self.done {
            return None;
        }
        let next = self.next_token();
        self.done = !matches!(&next, Ok(t) if t.kind != TokenKind::Eof);
        Some(next)
    }
}

impl<'a> Lexer<'a> {
    /// A stream over `text`, which belongs to `file`.
    #[must_use]
    pub fn new(file: FileId, text: &'a str) -> Lexer<'a> {
        Lexer::at(file, text, 0)
    }

    /// A stream over `text`, a slice of `file` that starts at byte
    /// `base`: every span it produces is in the file's coordinates.
    pub(crate) fn at(file: FileId, text: &'a str, base: u32) -> Lexer<'a> {
        Lexer {
            file,
            text,
            base,
            pos: 0,
            done: false,
        }
    }

    /// Lexes the next token: [`TokenKind::Eof`] at the end of input, and
    /// again on every later call. After an error the stream stops
    /// meaning anything; callers stop pulling.
    ///
    /// Never inlined, so the recursive parser frames that pull tokens do
    /// not carry the lexer's locals (see `parser::MAX_STMT_DEPTH`).
    ///
    /// # Errors
    ///
    /// As [`lex`].
    #[inline(never)]
    pub fn next_token(&mut self) -> RtlResult<Token> {
        self.skip_trivia()?;
        let start = self.pos;
        let kind = match self.peek() {
            None => TokenKind::Eof,
            Some(b'a'..=b'z' | b'A'..=b'Z' | b'_') => self.lex_word(start),
            Some(b'0'..=b'9') => self.lex_number(start)?,
            Some(b'\'') => self.lex_based_literal(start, None)?,
            Some(b'\\') => self.lex_escaped_ident(start)?,
            Some(b'"') => self.lex_string(start)?,
            Some(b'$') => self.lex_sysname(start),
            Some(_) => TokenKind::Punct(self.lex_punct(start)?),
        };
        Ok(Token {
            kind,
            span: self.span_from(start),
        })
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn peek_at(&self, off: usize) -> Option<u8> {
        self.text.as_bytes().get(self.pos + off).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn span_from(&self, start: usize) -> Span {
        Span::new(
            self.file,
            self.base + start as u32,
            self.base + self.pos as u32,
        )
    }

    fn err(&self, msg: impl Into<String>, start: usize) -> RtlError {
        RtlError::new(RtlErrorKind::Lex, msg, self.span_from(start))
    }

    /// Advances past bytes while `keep` holds.
    fn skip_while(&mut self, keep: impl Fn(u8) -> bool) {
        while self.peek().is_some_and(&keep) {
            self.pos += 1;
        }
    }

    fn skip_trivia(&mut self) -> RtlResult<()> {
        loop {
            match self.peek() {
                Some(b' ' | b'\t' | b'\r' | b'\n') => {
                    self.pos += 1;
                }
                // Line comments, and compiler directives (`timescale
                // etc.), which the subset does not interpret, run to end
                // of line.
                Some(b'/') if self.peek_at(1) == Some(b'/') => self.skip_while(|c| c != b'\n'),
                Some(b'`') => self.skip_while(|c| c != b'\n'),
                Some(b'/') if self.peek_at(1) == Some(b'*') => {
                    let start = self.pos;
                    self.pos += 2;
                    loop {
                        match (self.peek(), self.peek_at(1)) {
                            (Some(b'*'), Some(b'/')) => {
                                self.pos += 2;
                                break;
                            }
                            (Some(_), _) => self.pos += 1,
                            (None, _) => return Err(self.err("unterminated block comment", start)),
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn lex_word(&mut self, start: usize) -> TokenKind {
        self.skip_while(|c| c.is_ascii_alphanumeric() || c == b'_' || c == b'$');
        // ASCII at both ends, so the slice is on character boundaries.
        let word = &self.text[start..self.pos];
        match Keyword::lookup(word) {
            Some(kw) => TokenKind::Keyword(kw),
            None => TokenKind::Ident(word.to_owned()),
        }
    }

    fn lex_escaped_ident(&mut self, start: usize) -> RtlResult<TokenKind> {
        self.pos += 1; // backslash
        let id_start = self.pos;
        self.skip_while(|c| !c.is_ascii_whitespace());
        if self.pos == id_start {
            return Err(self.err("empty escaped identifier", start));
        }
        // Cut at ASCII bytes, so on character boundaries.
        Ok(TokenKind::Ident(self.text[id_start..self.pos].to_owned()))
    }

    fn lex_string(&mut self, start: usize) -> RtlResult<TokenKind> {
        self.pos += 1; // opening quote
        let mut out = String::new();
        loop {
            match self.bump() {
                Some(b'"') => break,
                Some(b'\\') => match self.bump() {
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(c) => out.push(c as char),
                    None => return Err(self.err("unterminated string", start)),
                },
                Some(c) => out.push(c as char),
                None => return Err(self.err("unterminated string", start)),
            }
        }
        Ok(TokenKind::Str(out))
    }

    fn lex_sysname(&mut self, start: usize) -> TokenKind {
        self.pos += 1; // $
        self.skip_while(|c| c.is_ascii_alphanumeric() || c == b'_');
        TokenKind::SysName(self.text[start..self.pos].to_owned())
    }

    fn lex_number(&mut self, start: usize) -> RtlResult<TokenKind> {
        // Leading decimal digits: either a bare decimal or the size of a
        // based literal. `None` once the value overflows 64 bits.
        let mut value = Some(0u64);
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => {
                    value = value
                        .and_then(|v| v.checked_mul(10))
                        .and_then(|v| v.checked_add(u64::from(c - b'0')));
                }
                b'_' => {}
                _ => break,
            }
            self.pos += 1;
        }
        // Allow whitespace between size and base per IEEE 1364.
        let save = self.pos;
        self.skip_while(|c| matches!(c, b' ' | b'\t'));
        if self.peek() == Some(b'\'') {
            let size = value
                .and_then(|v| u32::try_from(v).ok())
                .filter(|v| *v <= MAX_LITERAL_BITS)
                .ok_or_else(|| self.literal_limit(start))?;
            if size == 0 {
                return Err(self.err("zero-width literal", start));
            }
            return self.lex_based_literal(start, Some(size));
        }
        self.pos = save;
        let value =
            value.ok_or_else(|| self.err("decimal literal does not fit in 64 bits", start))?;
        // An unsized number is at least 32 bits (IEEE 1364-2005 §3.5.1); a
        // larger value keeps all its bits, so `{4294967297{a}}` counts
        // 4294967297 copies, not one.
        let width = if value > u64::from(u32::MAX) { 64 } else { 32 };
        Ok(TokenKind::Number {
            value: LogicVec::from_planes(width, value, 0),
            sized: false,
        })
    }

    fn lex_based_literal(&mut self, start: usize, size: Option<u32>) -> RtlResult<TokenKind> {
        self.pos += 1; // apostrophe
                       // Optional signedness marker, ignored (subset is unsigned).
        if matches!(self.peek(), Some(b's' | b'S')) {
            self.pos += 1;
        }
        let base = match self.bump() {
            Some(b'b' | b'B') => 2u32,
            Some(b'o' | b'O') => 8,
            Some(b'd' | b'D') => 10,
            Some(b'h' | b'H') => 16,
            _ => return Err(self.err("expected base after `'`", start)),
        };
        self.skip_while(|c| matches!(c, b' ' | b'\t'));
        let digits_start = self.pos;
        // Each digit of a binary, octal or hex literal spells `per` bits,
        // MSB first. They fold into the value and x/z planes while they
        // fit in 64 bits; a wider literal is rebuilt from its text below.
        let per = base.trailing_zeros();
        let (mut val, mut xz, mut nbits) = (0u64, 0u64, 0u32);
        let mut any = false;
        while let Some(c) = self.peek() {
            if c == b'_' {
                self.pos += 1;
                continue;
            }
            let Some((d, unknown)) = based_digit(c, base) else {
                break;
            };
            if base == 10 {
                val = val
                    .checked_mul(10)
                    .and_then(|v| v.checked_add(u64::from(d)))
                    .ok_or_else(|| self.err("decimal literal does not fit in 64 bits", start))?;
            } else {
                nbits = nbits.saturating_add(per);
                if nbits <= 64 {
                    let mask = (1u64 << per) - 1;
                    let (dv, dx) = match unknown {
                        None => (u64::from(d), 0),
                        Some(Bit::Z) => (mask, mask),
                        Some(_) => (0, mask),
                    };
                    val = (val << per) | dv;
                    xz = (xz << per) | dx;
                }
            }
            any = true;
            self.pos += 1;
        }
        if !any {
            return Err(self.err("based literal has no digits", digits_start));
        }
        if nbits > MAX_LITERAL_BITS {
            return Err(self.literal_limit(start));
        }
        let natural = if base == 10 {
            LogicVec::from_planes(64, val, 0)
        } else if nbits <= 64 {
            LogicVec::from_planes(nbits, val, xz)
        } else {
            self.wide_literal(digits_start, base, nbits)
        };
        let width = size.unwrap_or(32);
        // Per IEEE 1364, a literal narrower than its size is zero-extended
        // unless its MSB is x/z, in which case that state is extended.
        let mut value = natural.resize(width);
        if natural.width() < width {
            let msb = natural.bit(natural.width() - 1);
            if msb.is_unknown() {
                for i in natural.width()..width {
                    value.set_bit(i, msb);
                }
            }
        }
        Ok(TokenKind::Number {
            value,
            sized: size.is_some(),
        })
    }

    /// The error for a literal, starting at `start`, that is wider than
    /// [`MAX_LITERAL_BITS`].
    fn literal_limit(&self, start: usize) -> RtlError {
        RtlError::new(
            RtlErrorKind::Limit,
            format!("literal wider than {MAX_LITERAL_BITS} bits"),
            self.span_from(start),
        )
    }

    /// The `nbits`-bit value of the binary, octal or hex digits lexed
    /// since `digits_start`, built LSB first.
    fn wide_literal(&self, digits_start: usize, base: u32, nbits: u32) -> LogicVec {
        let per = base.trailing_zeros();
        let mut value = LogicVec::zeros(nbits);
        let mut at = 0;
        for &c in self.text.as_bytes()[digits_start..self.pos].iter().rev() {
            let Some((d, unknown)) = based_digit(c, base) else {
                continue; // `_`
            };
            for i in 0..per {
                value.set_bit(at + i, unknown.unwrap_or(Bit::from((d >> i) & 1 == 1)));
            }
            at += per;
        }
        value
    }

    fn lex_punct(&mut self, start: usize) -> RtlResult<Punct> {
        use Punct::*;
        let c = self.bump().expect("caller checked non-empty");
        let p = match c {
            b'(' => LParen,
            b')' => RParen,
            b'[' => LBracket,
            b']' => RBracket,
            b'{' => LBrace,
            b'}' => RBrace,
            b';' => Semi,
            b',' => Comma,
            b':' => Colon,
            b'.' => Dot,
            b'#' => Hash,
            b'@' => At,
            b'?' => Question,
            b'+' => {
                if self.peek() == Some(b':') {
                    self.pos += 1;
                    PlusColon
                } else {
                    Plus
                }
            }
            b'-' => {
                if self.peek() == Some(b':') {
                    self.pos += 1;
                    MinusColon
                } else {
                    Minus
                }
            }
            b'/' => Slash,
            b'%' => Percent,
            b'^' => Caret,
            b'*' => {
                if self.peek() == Some(b'*') {
                    self.pos += 1;
                    Star2
                } else {
                    Star
                }
            }
            b'~' => {
                if self.peek() == Some(b'^') {
                    self.pos += 1;
                    TildeCaret
                } else {
                    Tilde
                }
            }
            b'=' => {
                if self.peek() == Some(b'=') {
                    self.pos += 1;
                    if self.peek() == Some(b'=') {
                        self.pos += 1;
                        CaseEq
                    } else {
                        EqEq
                    }
                } else {
                    Assign
                }
            }
            b'!' => {
                if self.peek() == Some(b'=') {
                    self.pos += 1;
                    if self.peek() == Some(b'=') {
                        self.pos += 1;
                        CaseNotEq
                    } else {
                        NotEq
                    }
                } else {
                    Bang
                }
            }
            b'<' => {
                if self.peek() == Some(b'=') {
                    self.pos += 1;
                    LtEq
                } else if self.peek() == Some(b'<') {
                    self.pos += 1;
                    Shl
                } else {
                    Lt
                }
            }
            b'>' => {
                if self.peek() == Some(b'=') {
                    self.pos += 1;
                    GtEq
                } else if self.peek() == Some(b'>') {
                    self.pos += 1;
                    if self.peek() == Some(b'>') {
                        self.pos += 1;
                        AShr
                    } else {
                        Shr
                    }
                } else {
                    Gt
                }
            }
            b'&' => {
                if self.peek() == Some(b'&') {
                    self.pos += 1;
                    AmpAmp
                } else {
                    Amp
                }
            }
            b'|' => {
                if self.peek() == Some(b'|') {
                    self.pos += 1;
                    PipePipe
                } else {
                    Pipe
                }
            }
            _ => return Err(self.err(format!("unexpected character `{}`", c as char), start)),
        };
        Ok(p)
    }
}

/// One digit of a based literal in `base`: its value and, for `x`, `z`
/// and `?` (never decimal), the unknown state it spells. `None` if `c`
/// is not such a digit.
fn based_digit(c: u8, base: u32) -> Option<(u32, Option<Bit>)> {
    match c.to_ascii_lowercase() {
        b'x' if base != 10 => Some((0, Some(Bit::X))),
        b'z' | b'?' if base != 10 => Some((0, Some(Bit::Z))),
        c @ b'0'..=b'9' => Some(u32::from(c - b'0'))
            .filter(|&d| d < base)
            .map(|d| (d, None)),
        c @ b'a'..=b'f' => Some(u32::from(c - b'a') + 10)
            .filter(|&d| d < base)
            .map(|d| (d, None)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(FileId(0), src)
            .expect("lex ok")
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn keywords_and_idents() {
        let k = kinds("module foo; endmodule");
        assert_eq!(k[0], TokenKind::Keyword(Keyword::Module));
        assert_eq!(k[1], TokenKind::Ident("foo".into()));
        assert_eq!(k[2], TokenKind::Punct(Punct::Semi));
        assert_eq!(k[3], TokenKind::Keyword(Keyword::Endmodule));
        assert_eq!(k[4], TokenKind::Eof);
    }

    #[test]
    fn comments_skipped() {
        let k = kinds("a // line\n /* block\nmore */ b");
        assert_eq!(k.len(), 3);
        assert_eq!(k[0], TokenKind::Ident("a".into()));
        assert_eq!(k[1], TokenKind::Ident("b".into()));
    }

    #[test]
    fn unterminated_block_comment_errors() {
        assert!(lex(FileId(0), "/* oops").is_err());
    }

    #[test]
    fn directives_skipped() {
        let k = kinds("`timescale 1ns/1ps\nwire");
        assert_eq!(k[0], TokenKind::Keyword(Keyword::Wire));
    }

    #[test]
    fn sized_hex_literal() {
        let k = kinds("8'hA5");
        match &k[0] {
            TokenKind::Number { value, sized } => {
                assert!(sized);
                assert_eq!(value.width(), 8);
                assert_eq!(value.to_u64(), Some(0xA5));
            }
            other => panic!("expected number, got {other:?}"),
        }
    }

    #[test]
    fn binary_literal_with_xz() {
        let k = kinds("4'b1x0z");
        match &k[0] {
            TokenKind::Number { value, .. } => {
                assert_eq!(format!("{value:b}"), "1x0z");
            }
            other => panic!("expected number, got {other:?}"),
        }
    }

    #[test]
    fn x_extension_to_size() {
        // 8'bx → all bits x.
        let k = kinds("8'bx");
        match &k[0] {
            TokenKind::Number { value, .. } => assert!(value.is_all_x()),
            other => panic!("expected number, got {other:?}"),
        }
    }

    #[test]
    fn decimal_literals() {
        let k = kinds("42 10'd512");
        match &k[0] {
            TokenKind::Number { value, sized } => {
                assert!(!sized);
                assert_eq!(value.width(), 32);
                assert_eq!(value.to_u64(), Some(42));
            }
            other => panic!("{other:?}"),
        }
        match &k[1] {
            TokenKind::Number { value, sized } => {
                assert!(sized);
                assert_eq!(value.width(), 10);
                assert_eq!(value.to_u64(), Some(512));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn underscores_in_literals() {
        let k = kinds("16'hAB_CD 1_000");
        match &k[0] {
            TokenKind::Number { value, .. } => assert_eq!(value.to_u64(), Some(0xABCD)),
            other => panic!("{other:?}"),
        }
        match &k[1] {
            TokenKind::Number { value, .. } => assert_eq!(value.to_u64(), Some(1000)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn size_with_space_before_base() {
        let k = kinds("4 'b1010");
        match &k[0] {
            TokenKind::Number { value, .. } => assert_eq!(value.to_u64(), Some(0b1010)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn operators_maximal_munch() {
        let k = kinds("=== == = !== != ! <= < << >>> >> > && & || | ~^ ~ ** *");
        let expect = [
            Punct::CaseEq,
            Punct::EqEq,
            Punct::Assign,
            Punct::CaseNotEq,
            Punct::NotEq,
            Punct::Bang,
            Punct::LtEq,
            Punct::Lt,
            Punct::Shl,
            Punct::AShr,
            Punct::Shr,
            Punct::Gt,
            Punct::AmpAmp,
            Punct::Amp,
            Punct::PipePipe,
            Punct::Pipe,
            Punct::TildeCaret,
            Punct::Tilde,
            Punct::Star2,
            Punct::Star,
        ];
        for (i, p) in expect.iter().enumerate() {
            assert_eq!(k[i], TokenKind::Punct(*p), "token {i}");
        }
    }

    #[test]
    fn bad_character_errors() {
        let e = lex(FileId(0), "wire \x01;").expect_err("should fail");
        assert_eq!(e.kind, RtlErrorKind::Lex);
    }

    #[test]
    fn zero_width_literal_errors() {
        assert!(lex(FileId(0), "0'h0").is_err());
    }

    #[test]
    fn based_literal_without_digits_errors() {
        assert!(lex(FileId(0), "4'h").is_err());
    }

    #[test]
    fn string_and_sysname() {
        let k = kinds("$display(\"hi\\n\")");
        assert_eq!(k[0], TokenKind::SysName("$display".into()));
        assert_eq!(k[2], TokenKind::Str("hi\n".into()));
    }

    #[test]
    fn escaped_identifier() {
        let k = kinds("\\a+b module");
        assert_eq!(k[0], TokenKind::Ident("a+b".into()));
        assert_eq!(k[1], TokenKind::Keyword(Keyword::Module));
    }

    #[test]
    fn spans_are_accurate() {
        let toks = lex(FileId(0), "ab cd").expect("lex ok");
        assert_eq!(toks[0].span.start, 0);
        assert_eq!(toks[0].span.end, 2);
        assert_eq!(toks[1].span.start, 3);
        assert_eq!(toks[1].span.end, 5);
    }
}
