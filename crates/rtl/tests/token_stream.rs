//! The parser pulls its tokens one at a time from [`Lexer`] instead of
//! a lexed buffer. These properties hold the stream to the buffer that
//! `lex` collects, on the bundled SoCs and generated designs, edited at
//! random: the same token kinds and spans in the same order, the same
//! first error, every token counted in `rtl.tokens`, and a lexical error
//! reported before any error the parser meets first.

use std::sync::OnceLock;

use proptest::prelude::*;
use soccar_rtl::error::{RtlError, RtlErrorKind};
use soccar_rtl::lexer::{lex, Lexer};
use soccar_rtl::parser::parse_traced;
use soccar_rtl::span::{FileId, Span};
use soccar_rtl::token::TokenKind;

/// The clean and variant ClusterSoC and AutoSoC sources, and three
/// generated designs.
fn corpus() -> &'static [String] {
    static CORPUS: OnceLock<Vec<String>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let mut sources = Vec::new();
        for model in [
            soccar_soc::SocModel::ClusterSoc,
            soccar_soc::SocModel::AutoSoc,
        ] {
            sources.push(soccar_soc::generate(model, None).source);
        }
        for spec in soccar_soc::variants() {
            sources.push(soccar_soc::generate(spec.soc, Some(spec.number)).source);
        }
        for name in ["gen:3:1", "gen:5:2", "gen:2:3"] {
            let spec = soccar_soc::GenSpec::parse(name).expect("generator spec");
            sources.push(soccar_soc::generate::generate(&spec).source);
        }
        sources
    })
}

/// Text spliced into a corpus file: nothing, lexical errors, tokens
/// that break the grammar, and literals on either side of 64 bits.
const SPLICES: &[&str] = &[
    "",
    "",
    "\u{1}",
    "(",
    ")",
    ";",
    "begin",
    "end",
    "'",
    "8'h",
    "0'h1",
    "\"",
    "/*",
    "`define",
    "\\",
    "$x",
    "12'sd5",
    "4 'b10x?",
    "70'hx",
    "128'hdead_beef",
    "99999999999999999999",
    "18446744073709551615",
    "{{",
    "module",
    "+:",
];

/// What the parser's stream yields, pulled the way the parser pulls it:
/// each token's kind and span, up to `Eof` or the first error.
fn pulled(text: &str) -> Result<Vec<(TokenKind, Span)>, RtlError> {
    let mut lexer = Lexer::new(FileId(0), text);
    let mut tokens = Vec::new();
    loop {
        let token = lexer.next_token()?;
        let eof = token.kind == TokenKind::Eof;
        tokens.push((token.kind, token.span));
        if eof {
            return Ok(tokens);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn the_parser_stream_matches_the_collected_tokens(
        doc in 0usize..64,
        at in 0usize..1 << 20,
        splice in 0usize..SPLICES.len(),
        cut in 0usize..3,
    ) {
        let source = &corpus()[doc % corpus().len()];
        let mut at = at % source.len();
        while !source.is_char_boundary(at) {
            at -= 1;
        }
        // Delete `cut` bytes at `at` (on a character boundary), then
        // splice.
        let mut end = (at + cut).min(source.len());
        while !source.is_char_boundary(end) {
            end += 1;
        }
        let text = format!("{}{}{}", &source[..at], SPLICES[splice], &source[end..]);

        let collected = lex(FileId(0), &text)
            .map(|tokens| tokens.into_iter().map(|t| (t.kind, t.span)).collect::<Vec<_>>());
        prop_assert_eq!(&collected, &pulled(&text));

        let recorder = soccar_obs::Recorder::enabled();
        let parsed = parse_traced(FileId(0), &text, &recorder);
        match collected {
            Err(lex_error) => {
                prop_assert_eq!(parsed.expect_err("a lexical error fails the parse"), lex_error);
                prop_assert_eq!(recorder.counter_value("rtl.tokens"), 0);
            }
            Ok(tokens) => {
                if let Err(e) = parsed {
                    prop_assert_ne!(e.kind, RtlErrorKind::Lex);
                }
                prop_assert_eq!(recorder.counter_value("rtl.tokens"), tokens.len() as u64);
            }
        }
    }
}
