//! The workspace's one JSON layer: the string escaper, the streaming
//! [`Writer`] every JSON producer uses, and the strict reader [`Json`].
//! The reader rejects trailing garbage, trailing commas and unescaped
//! control characters, and refuses nesting deeper than [`MAX_DEPTH`]: it
//! recurses once per level, so a nesting bomb must not reach the stack.

use std::fmt::{self, Display, Write as _};

use crate::words;

/// Deepest array/object nesting [`Json::parse`] accepts (the same bound
/// as the Verilog parser's expression nesting).
pub const MAX_DEPTH: usize = 128;

/// Appends `s` as a quoted JSON string literal: `\"`, `\\`, `\n`, `\t`,
/// `\r` and `\u00xx` for the other control characters. Runs of bytes that
/// need no escape are copied as slices.
fn push_escaped(out: &mut String, s: &str) {
    out.reserve(s.len() + 2);
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\t' => "\\t",
            b'\r' => "\\r",
            0..=0x1f => "",
            _ => continue,
        };
        // Every escaped byte is ASCII, so `run..i` is on char boundaries.
        out.push_str(&s[run..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// A streaming JSON writer into a borrowed `String`, compact or pretty
/// (one element or field per line, 2-space indent). It builds no tree:
///
/// ```
/// let mut out = String::new();
/// let mut w = soccar_obs::json::Writer::pretty(&mut out);
/// w.begin_object().key("ids").begin_array().u64(7).end_array();
/// w.key("none").begin_object().end_object().end_object();
/// assert_eq!(out, "{\n  \"ids\": [\n    7\n  ],\n  \"none\": {}\n}");
/// ```
///
/// Top-level values are separated by a newline, so a compact writer
/// streams NDJSON.
#[derive(Debug)]
pub struct Writer<'a> {
    out: &'a mut String,
    pretty: bool,
    /// Containers currently open.
    depth: usize,
    /// No value has been written at the current level yet.
    first: bool,
    /// A key was just written: its value takes no separator.
    after_key: bool,
}

impl<'a> Writer<'a> {
    /// A writer emitting compact JSON (no whitespace).
    #[must_use]
    pub fn compact(out: &'a mut String) -> Writer<'a> {
        Writer {
            out,
            pretty: false,
            depth: 0,
            first: true,
            after_key: false,
        }
    }

    /// A writer emitting pretty-printed JSON.
    #[must_use]
    pub fn pretty(out: &'a mut String) -> Writer<'a> {
        Writer {
            pretty: true,
            ..Writer::compact(out)
        }
    }

    /// Writes what must precede the next value, and returns the output.
    fn separate(&mut self) -> &mut String {
        if !std::mem::take(&mut self.after_key) {
            if !std::mem::replace(&mut self.first, false) {
                self.out.push(if self.depth == 0 { '\n' } else { ',' });
            }
            if self.pretty && self.depth > 0 {
                self.newline_indent();
            }
        }
        self.out
    }

    fn newline_indent(&mut self) {
        self.out.push('\n');
        self.out.extend(std::iter::repeat("  ").take(self.depth));
    }

    fn scalar(&mut self, text: impl Display) -> &mut Self {
        let _ = write!(self.separate(), "{text}");
        self
    }

    fn open(&mut self, opener: char) -> &mut Self {
        self.separate().push(opener);
        self.depth += 1;
        self.first = true;
        self
    }

    fn close(&mut self, closer: char) -> &mut Self {
        self.depth = self.depth.checked_sub(1).expect("JSON close without open");
        if self.pretty && !self.first {
            self.newline_indent();
        }
        self.out.push(closer);
        self.first = false;
        self
    }

    /// Opens an object; follow with [`Writer::key`]/value pairs.
    pub fn begin_object(&mut self) -> &mut Self {
        self.open('{')
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) -> &mut Self {
        self.close('}')
    }

    /// Opens an array.
    pub fn begin_array(&mut self) -> &mut Self {
        self.open('[')
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) -> &mut Self {
        self.close(']')
    }

    /// Writes an object key; the next value written is its value.
    pub fn key(&mut self, key: &str) -> &mut Self {
        push_escaped(self.separate(), key);
        self.out.push_str(if self.pretty { ": " } else { ":" });
        self.after_key = true;
        self
    }

    /// Writes a string.
    pub fn string(&mut self, s: &str) -> &mut Self {
        push_escaped(self.separate(), s);
        self
    }

    /// Writes an unsigned integer.
    pub fn u64(&mut self, n: u64) -> &mut Self {
        self.scalar(n)
    }

    /// Writes a signed integer.
    pub fn i64(&mut self, n: i64) -> &mut Self {
        self.scalar(n)
    }

    /// Writes a number in Rust's shortest round-trip form; JSON has no
    /// NaN or infinity, so non-finite values are written as `null`.
    pub fn f64(&mut self, x: f64) -> &mut Self {
        if x.is_finite() {
            self.scalar(x)
        } else {
            self.null()
        }
    }

    /// Writes `true` or `false`.
    pub fn bool(&mut self, b: bool) -> &mut Self {
        self.scalar(b)
    }

    /// Writes `null`.
    pub fn null(&mut self) -> &mut Self {
        self.scalar("null")
    }
}

/// A parsed JSON value.
///
/// JSON has one numeric type, held two ways: an integer literal that
/// fits `u64` is read exactly into [`Json::Int`] (an `f64` holds
/// integers exactly only up to 2^53), and every other number into
/// [`Json::Num`]. An `Int` equals a `Num` when the integer rounds to
/// that `f64`, as a reader of `f64`s alone would read it: `Int(42)`
/// equals `Num(42.0)`, and an integral `f64` past 2^53, written in its
/// shortest digits, reads back equal to itself.
#[derive(Debug, Clone)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number written as digits alone whose value fits `u64`, exact.
    Int(u64),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in declaration order (duplicate keys keep the last).
    Obj(Vec<(String, Json)>),
}

impl PartialEq for Json {
    fn eq(&self, other: &Json) -> bool {
        match (self, other) {
            (Json::Null, Json::Null) => true,
            (Json::Bool(a), Json::Bool(b)) => a == b,
            (Json::Int(a), Json::Int(b)) => a == b,
            (Json::Num(a), Json::Num(b)) => a == b,
            (&Json::Int(n), &Json::Num(x)) | (&Json::Num(x), &Json::Int(n)) => n as f64 == x,
            (Json::Str(a), Json::Str(b)) => a == b,
            (Json::Arr(a), Json::Arr(b)) => a == b,
            (Json::Obj(a), Json::Obj(b)) => a == b,
            _ => false,
        }
    }
}

/// A parse failure, with the byte offset where it happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset into the input.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonParseError {}

impl Json {
    /// Parses one complete JSON document.
    ///
    /// # Errors
    ///
    /// On any syntax error, including trailing non-whitespace input, and
    /// on nesting deeper than [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Json, JsonParseError> {
        let mut p = Parser { text, pos: 0 };
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(p.err("trailing input after document"));
        }
        Ok(value)
    }

    /// Writes this value through `w`.
    pub fn write(&self, w: &mut Writer<'_>) {
        match self {
            Json::Null => w.null(),
            Json::Bool(b) => w.bool(*b),
            Json::Int(n) => w.u64(*n),
            Json::Num(n) => w.f64(*n),
            Json::Str(s) => w.string(s),
            Json::Arr(items) => {
                w.begin_array();
                items.iter().for_each(|item| item.write(w));
                w.end_array()
            }
            Json::Obj(fields) => {
                w.begin_object();
                fields.iter().for_each(|(k, v)| v.write(w.key(k)));
                w.end_object()
            }
        };
    }

    /// Object field lookup (`None` for non-objects and missing keys).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The integer, if this is an integer literal that fits `u64` (see
    /// [`Json::Int`]); never a value rounded through `f64`.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// `true` for `null`.
    #[must_use]
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Convenience: `get(key)` as a string, `None` when absent or null.
    #[must_use]
    pub fn str_field(&self, key: &str) -> Option<&str> {
        self.get(key).and_then(Json::as_str)
    }

    /// Convenience: `get(key)` as `u64`, `None` when absent or null.
    #[must_use]
    pub fn u64_field(&self, key: &str) -> Option<u64> {
        self.get(key).and_then(Json::as_u64)
    }

    /// Convenience: `get(key)` as bool, defaulting to `false`.
    #[must_use]
    pub fn bool_field(&self, key: &str) -> bool {
        self.get(key).and_then(Json::as_bool).unwrap_or(false)
    }

    /// Convenience: `get(key)` as a vector of strings (absent → empty;
    /// non-string items are skipped).
    #[must_use]
    pub fn str_list_field(&self, key: &str) -> Vec<String> {
        let items = self.get(key).and_then(Json::as_arr).unwrap_or_default();
        items
            .iter()
            .filter_map(Json::as_str)
            .map(str::to_owned)
            .collect()
    }
}

/// Compact JSON text.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut Writer::compact(&mut out));
        f.write_str(&out)
    }
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> JsonParseError {
        JsonParseError {
            at: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Skips whitespace, then consumes `word` if it comes next.
    fn eat(&mut self, word: &str) -> bool {
        self.skip_ws();
        let found = self.text.as_bytes()[self.pos..].starts_with(word.as_bytes());
        if found {
            self.pos += word.len();
        }
        found
    }

    fn expect(&mut self, word: &str) -> Result<(), JsonParseError> {
        if self.eat(word) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    /// Parses one value inside `depth` containers, skipping the
    /// whitespace before it.
    fn value(&mut self, depth: usize) -> Result<Json, JsonParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.expect("null").map(|()| Json::Null),
            Some(b't') => self.expect("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.expect("false").map(|()| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.container("]", depth),
            Some(b'{') => self.container("}", depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected byte `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parses an array (`close` is `]`) or an object (`}`) inside `depth`
    /// containers, refusing to pass [`MAX_DEPTH`].
    fn container(&mut self, close: &str, depth: usize) -> Result<Json, JsonParseError> {
        if depth == MAX_DEPTH {
            return Err(self.err(format!(
                "input limit exceeded: JSON nesting deeper than {MAX_DEPTH} levels"
            )));
        }
        self.pos += 1;
        let (mut items, mut fields) = (Vec::new(), Vec::new());
        let mut more = !self.eat(close);
        while more {
            if close == "}" {
                let key = self.string()?;
                self.expect(":")?;
                fields.push((key, self.value(depth + 1)?));
            } else {
                items.push(self.value(depth + 1)?);
            }
            more = self.eat(",");
            if !more {
                self.expect(close)?;
            }
        }
        Ok(if close == "}" {
            Json::Obj(fields)
        } else {
            Json::Arr(items)
        })
    }

    /// Parses a number: digits alone that fit `u64` exactly as
    /// [`Json::Int`], anything else as [`Json::Num`]. The scan is loose;
    /// `f64`'s parser then rejects malformed text such as `1e` or `--1`.
    fn number(&mut self) -> Result<Json, JsonParseError> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        if text.bytes().all(|b| b.is_ascii_digit()) {
            if let Ok(n) = text.parse() {
                return Ok(Json::Int(n));
            }
        }
        text.parse()
            .map(Json::Num)
            .map_err(|_| self.err(format!("invalid number `{text}`")))
    }

    /// Parses a string, skipping the whitespace before it.
    fn string(&mut self) -> Result<String, JsonParseError> {
        self.expect("\"")?;
        let mut out = String::new();
        loop {
            // Copy up to the next quote, backslash or control byte as one
            // slice; those bytes are ASCII, so the run ends on a boundary.
            let run = string_run(&self.text.as_bytes()[self.pos..]);
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            let c = match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => self.escape()?,
                Some(_) => return Err(self.err("unescaped control character")),
            };
            out.push(c);
        }
    }

    /// Decodes one escape sequence at the backslash, advancing past it.
    fn escape(&mut self) -> Result<char, JsonParseError> {
        self.pos += 2;
        Ok(match self.text.as_bytes().get(self.pos - 1) {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                let mut code = self.hex4()?;
                // A high surrogate pairs with a following `\uXXXX` low one;
                // `from_u32` rejects any surrogate left unpaired.
                if (0xD800..0xDC00).contains(&code)
                    && self.text.as_bytes()[self.pos..].starts_with(b"\\u")
                {
                    self.pos += 2;
                    let low = self.hex4()?;
                    if (0xDC00..0xE000).contains(&low) {
                        code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                    }
                }
                char::from_u32(code).ok_or_else(|| self.err("unpaired surrogate"))?
            }
            _ => return Err(self.err("invalid escape")),
        })
    }

    /// Reads exactly four hex digits, advancing past them.
    fn hex4(&mut self) -> Result<u32, JsonParseError> {
        let digits = self
            .text
            .get(self.pos..self.pos + 4)
            .filter(|d| d.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(u32::from_str_radix(digits, 16).expect("four hex digits"))
    }
}

/// Whether a string's byte ends a run of bytes copied verbatim: a
/// quote, a backslash or a control byte.
fn ends_run(b: u8) -> bool {
    b == b'"' || b == b'\\' || b < 0x20
}

/// The length of the run at the start of `bytes` that a string copies
/// verbatim: the index of the first byte [`ends_run`] accepts, or the
/// length. Tests eight bytes per step, then the tail bytewise.
fn string_run(bytes: &[u8]) -> usize {
    let mut chunks = bytes.chunks_exact(8);
    let mut at = 0;
    for word in &mut chunks {
        let x = words::load(word);
        let ends = words::bytes_equal(x, b'"')
            | words::bytes_equal(x, b'\\')
            | words::bytes_below(x, 0x20);
        if ends != 0 {
            return at + words::first(ends);
        }
        at += 8;
    }
    let tail = chunks.remainder();
    at + tail.iter().position(|&b| ends_run(b)).unwrap_or(tail.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Text weighted towards what ends a run or straddles a word:
    /// quotes, backslashes, control characters, and characters of two,
    /// three and four UTF-8 bytes, beside plain ASCII.
    fn string_text() -> impl Strategy<Value = String> {
        let code = prop_oneof![
            0x22u32..=0x22,
            0x5C..=0x5C,
            0..=0x1F,
            0x20..=0x7F,
            0x80..=0x7FF,
            0x800..=0xFFFF,
            0x1_0000..=0x10_FFFF,
        ];
        proptest::collection::vec(code, 0..40)
            .prop_map(|codes| codes.into_iter().filter_map(char::from_u32).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The word scan finds what the bytewise scan finds, from every
        /// start offset (so every alignment mod 8) to every end.
        #[test]
        fn string_run_matches_the_bytewise_scan(text in string_text()) {
            let bytes = text.as_bytes();
            for start in 0..=bytes.len() {
                for end in start..=bytes.len() {
                    let slice = &bytes[start..end];
                    let want = slice.iter().position(|&b| ends_run(b)).unwrap_or(slice.len());
                    prop_assert_eq!(string_run(slice), want, "{:02x?}", slice);
                }
            }
        }

        /// Strings of random characters, raw or escaped, decode the same
        /// as the writer's input, and every truncation of the literal is
        /// an error, never a panic.
        #[test]
        fn strings_decode_and_truncations_fail(text in string_text()) {
            let mut literal = String::new();
            push_escaped(&mut literal, &text);
            prop_assert_eq!(Json::parse(&literal), Ok(Json::Str(text.clone())));
            for end in (0..literal.len()).filter(|&end| literal.is_char_boundary(end)) {
                prop_assert!(Json::parse(&literal[..end]).is_err(), "{:?}", &literal[..end]);
            }
        }
    }

    #[test]
    fn integers_are_read_exactly() {
        for (text, want) in [
            ("0", Json::Int(0)),
            ("9007199254740993", Json::Int(9_007_199_254_740_993)),
            ("18446744073709551615", Json::Int(u64::MAX)),
            (
                "18446744073709551616",
                Json::Num(18_446_744_073_709_551_616.0),
            ),
            ("-1", Json::Num(-1.0)),
            ("2.5", Json::Num(2.5)),
            ("1e3", Json::Num(1000.0)),
        ] {
            // `Debug` tells `Int` from `Num`; equality does not.
            let parsed = Json::parse(text).expect("parses");
            assert_eq!(format!("{parsed:?}"), format!("{want:?}"), "{text}");
        }
        assert_eq!(Json::Int(42), Json::Num(42.0));
        assert_ne!(Json::Int(0), Json::Num(0.5));
        // The writer spells this `f64` 1008696009362851100, which is not
        // its exact value; it still reads back equal.
        let x = Json::Num(1.008_696_009_362_851_1e18);
        assert_eq!(x.to_string(), "1008696009362851100");
        assert_eq!(Json::parse(&x.to_string()), Ok(x));
        assert_eq!(Json::Num(18_446_744_073_709_551_616.0).as_u64(), None);
    }

    fn nested(levels: usize) -> String {
        format!("{}{}", "[".repeat(levels), "]".repeat(levels))
    }

    #[test]
    fn nesting_is_accepted_up_to_max_depth_and_refused_past_it() {
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let deep_object = format!("{}1{}", "{\"k\":".repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
        assert!(Json::parse(&deep_object).is_ok());

        let err = Json::parse(&nested(MAX_DEPTH + 1)).expect_err("one level too deep");
        assert_eq!(err.at, MAX_DEPTH);
        assert!(
            err.message.contains("JSON nesting deeper than 128 levels"),
            "{err}"
        );
        let err = Json::parse(&format!("{{\"k\":{}}}", nested(MAX_DEPTH))).expect_err("too deep");
        assert!(err.message.contains("nesting"), "{err}");
    }

    #[test]
    fn escaper_uses_short_escapes_and_lowercase_hex() {
        let mut out = String::new();
        push_escaped(&mut out, "a\"b\\c\nd\te\rf\u{1}g\u{1f}h😀");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\te\\rf\\u0001g\\u001fh😀\"");
    }
}
