//! Source positions and the source map.
//!
//! Every AST node carries a [`Span`] so diagnostics from any later stage
//! (parser, elaborator, CFG extractor, concolic engine) can point back into
//! the original Verilog text.

use std::fmt;

use soccar_obs::words;

/// Identifies a file registered in a [`SourceMap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileId(pub u32);

/// A half-open byte range `[start, end)` within one source file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Span {
    /// File the range points into.
    pub file: FileId,
    /// Byte offset of the first character.
    pub start: u32,
    /// Byte offset one past the last character.
    pub end: u32,
}

impl Span {
    /// Creates a span covering `[start, end)` in `file`.
    #[must_use]
    pub fn new(file: FileId, start: u32, end: u32) -> Span {
        Span { file, start, end }
    }

    /// A zero-length placeholder span (file 0, offset 0), used for
    /// synthesized nodes such as elaboration-generated port connections.
    #[must_use]
    pub fn dummy() -> Span {
        Span::new(FileId(0), 0, 0)
    }

    /// The smallest span covering both `self` and `other`.
    ///
    /// # Panics
    ///
    /// Panics if the spans are in different files.
    #[must_use]
    pub fn to(self, other: Span) -> Span {
        assert_eq!(self.file, other.file, "cannot join spans across files");
        Span::new(
            self.file,
            self.start.min(other.start),
            self.end.max(other.end),
        )
    }
}

/// A line/column pair, both 1-based, for human-readable diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineCol {
    /// 1-based line number.
    pub line: u32,
    /// 1-based column (byte) number.
    pub col: u32,
}

impl fmt::Display for LineCol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

struct SourceFile {
    name: String,
    text: String,
    /// Byte offsets of the start of each line.
    line_starts: Vec<u32>,
}

/// Owns all source text for a design and resolves [`Span`]s to
/// line/column positions.
///
/// # Examples
///
/// ```
/// use soccar_rtl::span::SourceMap;
///
/// let mut map = SourceMap::new();
/// let file = map.add_file("top.v", "module t;\nendmodule\n");
/// let span = soccar_rtl::span::Span::new(file, 10, 19);
/// assert_eq!(map.line_col(span).line, 2);
/// ```
#[derive(Default)]
pub struct SourceMap {
    files: Vec<SourceFile>,
}

impl SourceMap {
    /// Creates an empty source map.
    #[must_use]
    pub fn new() -> SourceMap {
        SourceMap::default()
    }

    /// Registers a file and returns its id.
    pub fn add_file(&mut self, name: impl Into<String>, text: impl Into<String>) -> FileId {
        let text = text.into();
        self.files.push(SourceFile {
            name: name.into(),
            line_starts: line_starts(text.as_bytes()),
            text,
        });
        FileId(self.files.len() as u32 - 1)
    }

    /// The registered name of `file`.
    ///
    /// # Panics
    ///
    /// Panics if `file` was not produced by this map.
    #[must_use]
    pub fn file_name(&self, file: FileId) -> &str {
        &self.files[file.0 as usize].name
    }

    /// The full text of `file`.
    ///
    /// # Panics
    ///
    /// Panics if `file` was not produced by this map.
    #[must_use]
    pub fn file_text(&self, file: FileId) -> &str {
        &self.files[file.0 as usize].text
    }

    /// The source text covered by `span`.
    ///
    /// # Panics
    ///
    /// Panics if the span is out of range for its file.
    #[must_use]
    pub fn snippet(&self, span: Span) -> &str {
        &self.files[span.file.0 as usize].text[span.start as usize..span.end as usize]
    }

    /// Line/column of the start of `span` (1-based).
    ///
    /// # Panics
    ///
    /// Panics if `span.file` was not produced by this map.
    #[must_use]
    pub fn line_col(&self, span: Span) -> LineCol {
        let f = &self.files[span.file.0 as usize];
        let line_idx = match f.line_starts.binary_search(&span.start) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        LineCol {
            line: line_idx as u32 + 1,
            col: span.start - f.line_starts[line_idx] + 1,
        }
    }

    /// Formats `span` as `file:line:col` for diagnostics.
    ///
    /// # Panics
    ///
    /// Panics if `span.file` was not produced by this map.
    #[must_use]
    pub fn describe(&self, span: Span) -> String {
        let lc = self.line_col(span);
        format!("{}:{}", self.file_name(span.file), lc)
    }
}

/// The byte offset of the start of each line of `text`: 0, and one
/// past each newline. Tests eight bytes per step, then the tail
/// bytewise.
fn line_starts(text: &[u8]) -> Vec<u32> {
    let mut starts = vec![0];
    let mut chunks = text.chunks_exact(8);
    let mut at = 0;
    for word in &mut chunks {
        let mut newlines = words::bytes_equal(words::load(word), b'\n');
        while newlines != 0 {
            starts.push(at + words::first(newlines) as u32 + 1);
            newlines &= newlines - 1;
        }
        at += 8;
    }
    for (i, &b) in chunks.remainder().iter().enumerate() {
        if b == b'\n' {
            starts.push(at + i as u32 + 1);
        }
    }
    starts
}

impl fmt::Debug for SourceMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SourceMap")
            .field("files", &self.files.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The word scan finds the newlines the bytewise scan finds, from
        /// every start offset (so every alignment mod 8) to every end, in
        /// bytes weighted towards `\n`, its neighbouring values and the
        /// high bytes of multi-byte UTF-8.
        #[test]
        fn line_starts_match_the_bytewise_scan(
            bytes in proptest::collection::vec(
                prop_oneof![0x0Au8..=0x0A, 0x09..=0x0B, 0..=0x7F, 0x80..=0xFF],
                0..48,
            ),
        ) {
            for start in 0..=bytes.len() {
                for end in start..=bytes.len() {
                    let slice = &bytes[start..end];
                    let mut want = vec![0];
                    want.extend(
                        (0..slice.len()).filter(|&i| slice[i] == b'\n').map(|i| i as u32 + 1),
                    );
                    prop_assert_eq!(line_starts(slice), want, "{:02x?}", slice);
                }
            }
        }
    }

    #[test]
    fn line_col_lookup() {
        let mut map = SourceMap::new();
        let f = map.add_file("a.v", "abc\ndef\nghi");
        assert_eq!(
            map.line_col(Span::new(f, 0, 1)),
            LineCol { line: 1, col: 1 }
        );
        assert_eq!(
            map.line_col(Span::new(f, 4, 5)),
            LineCol { line: 2, col: 1 }
        );
        assert_eq!(
            map.line_col(Span::new(f, 6, 7)),
            LineCol { line: 2, col: 3 }
        );
        assert_eq!(
            map.line_col(Span::new(f, 8, 9)),
            LineCol { line: 3, col: 1 }
        );
        assert_eq!(map.describe(Span::new(f, 6, 7)), "a.v:2:3");
    }

    #[test]
    fn snippet_and_join() {
        let mut map = SourceMap::new();
        let f = map.add_file("a.v", "module top;");
        let a = Span::new(f, 0, 6);
        let b = Span::new(f, 7, 10);
        assert_eq!(map.snippet(a), "module");
        assert_eq!(map.snippet(a.to(b)), "module top");
    }

    #[test]
    fn multiple_files() {
        let mut map = SourceMap::new();
        let a = map.add_file("a.v", "aaa");
        let b = map.add_file("b.v", "bbb");
        assert_ne!(a, b);
        assert_eq!(map.file_name(a), "a.v");
        assert_eq!(map.file_name(b), "b.v");
        assert_eq!(map.file_text(b), "bbb");
    }
}
