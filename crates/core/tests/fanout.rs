//! The frontend's module fan-out gives one parse and one lint report at
//! any job count: on the bundled and generated designs, and on a
//! concatenation past `MIN_FANOUT_BYTES`, the chunked parse equals the
//! whole-file parse under derived `PartialEq` (spans included), with the
//! same token count, and `soccar lint --json` is byte-identical at jobs
//! 1, 2 and 4. A syntax or lexical error in any module gives the
//! whole-file parse's error, and an unsplittable source takes the
//! whole-file parse.

use soccar::json::to_json_pretty;
use soccar_lint::Linter;
use soccar_obs::Recorder;
use soccar_rtl::fingerprint::{fanout_jobs, split_modules, MIN_FANOUT_BYTES};
use soccar_rtl::parser::{parse, parse_jobs};
use soccar_rtl::span::FileId;
use soccar_soc::generate::{generate, GenSpec};
use soccar_soc::SocModel;

const JOBS: [usize; 3] = [1, 2, 4];

fn generated(seed: u64, scale: u32) -> String {
    generate(&GenSpec { seed, scale }).source
}

/// `(name, source)` for ClusterSoC and AutoSoC, clean and every variant,
/// `gen:3:1`, `gen:5:2`, `gen:11:15`, and the bundled designs end to end.
fn corpus() -> Vec<(String, String)> {
    let mut designs = Vec::new();
    for model in [SocModel::ClusterSoc, SocModel::AutoSoc] {
        let variants = soccar_soc::variants()
            .into_iter()
            .filter(|v| v.soc == model)
            .map(|v| Some(v.number));
        for variant in std::iter::once(None).chain(variants) {
            let design = soccar_soc::generate(model, variant);
            designs.push((design.name, design.source));
        }
    }
    let bundled: String = designs.iter().map(|(_, source)| source.as_str()).collect();
    for (seed, scale) in [(3, 1), (5, 2), (11, 15)] {
        designs.push((format!("gen:{seed}:{scale}"), generated(seed, scale)));
    }
    designs.push(("bundled designs concatenated".to_owned(), bundled));
    designs
}

/// The `rtl.tokens` counter of one traced parse.
fn tokens(recorder: &Recorder) -> u64 {
    recorder.counter_value("rtl.tokens")
}

#[test]
fn fanned_out_parse_and_lint_equal_the_whole_file_path() {
    let corpus = corpus();
    // The fan-out is exercised: x10 and the concatenation are past the
    // constant and split, and the small designs are not.
    let fanning: Vec<&str> = corpus
        .iter()
        .filter(|(_, src)| fanout_jobs(src.len(), 2) > 1 && split_modules(src).is_some())
        .map(|(name, _)| name.as_str())
        .collect();
    assert_eq!(fanning, ["gen:11:15", "bundled designs concatenated"]);

    for (name, source) in &corpus {
        let whole_trace = Recorder::enabled();
        let whole = parse_jobs(FileId(0), source, 1, &whole_trace)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(whole, parse(FileId(0), source).expect("parses"), "{name}");
        let lint = to_json_pretty(
            &Linter::new()
                .lint_source("soc.v", source.as_str())
                .expect("lints"),
        )
        .expect("serializes");
        for jobs in JOBS {
            let trace = Recorder::enabled();
            let unit = parse_jobs(FileId(0), source, jobs, &trace).expect("parses");
            assert!(unit == whole, "{name}: the parse at jobs {jobs} differs");
            assert_eq!(tokens(&trace), tokens(&whole_trace), "{name}, jobs {jobs}");
            let report = Linter::new()
                .with_jobs(jobs)
                .lint_source("soc.v", source.as_str())
                .expect("lints");
            assert!(
                to_json_pretty(&report).expect("serializes") == lint,
                "{name}: the lint JSON at jobs {jobs} differs"
            );
        }
    }
}

/// x10 with module `k` altered by `edit` (applied to the text after the
/// module's name).
fn x10_with_broken_module(k: usize, edit: impl Fn(&str) -> String) -> String {
    let source = generated(11, 15);
    let chunks = split_modules(&source).expect("x10 splits");
    let chunk = chunks[k];
    let body_at = chunk.offset as usize + "module ".len() + chunk.name.len();
    format!("{}{}", &source[..body_at], edit(&source[body_at..]))
}

/// A named edit of the text after a module's name.
type Edit = (&'static str, fn(&str) -> String);

#[test]
fn an_error_in_any_module_is_the_whole_file_parse_error() {
    let modules = split_modules(&generated(11, 15)).expect("x10 splits").len();
    let edits: [Edit; 2] = [
        // A syntax error: the header's first `(` doubled.
        ("syntax", |rest| rest.replacen('(', "((", 1)),
        // A lexical error: a byte outside the subset's alphabet.
        ("lexical", |rest| rest.replacen(';', "; §", 1)),
    ];
    for k in [0, 1, modules / 2, modules - 1] {
        for (kind, edit) in &edits {
            let source = x10_with_broken_module(k, edit);
            let whole = parse(FileId(0), &source).expect_err("the edit breaks the file");
            for jobs in JOBS {
                let err = parse_jobs(FileId(0), &source, jobs, &Recorder::disabled())
                    .expect_err("the edit breaks the file");
                assert_eq!(err, whole, "{kind} error in module {k}, jobs {jobs}");
                let lint = Linter::new()
                    .with_jobs(jobs)
                    .lint_source("soc.v", source.as_str())
                    .expect_err("lint reports the parse error");
                assert_eq!(lint, whole.to_string());
            }
        }
    }
}

#[test]
fn an_unsplittable_source_takes_the_whole_file_parse() {
    let source = format!("`timescale 1ns/1ps\n{}", generated(11, 15));
    assert!(source.len() >= MIN_FANOUT_BYTES);
    assert!(split_modules(&source).is_none(), "a top-level directive");
    let whole = parse(FileId(0), &source).expect("the lexer skips directives");
    for jobs in JOBS {
        let unit = parse_jobs(FileId(0), &source, jobs, &Recorder::disabled()).expect("parses");
        assert!(unit == whole, "jobs {jobs}");
    }
}

/// Text spliced into the bundled designs end to end: nothing, lexical
/// errors, tokens that break the grammar, and what the chunk scanner
/// keys on (comments, strings, escaped names, `module`, directives).
const SPLICES: &[&str] = &[
    "",
    "\u{1}",
    "(",
    ";",
    "begin",
    "\"",
    "\"endmodule\"",
    "/*",
    "*/",
    "// endmodule\n",
    "/* module m; endmodule */",
    "`timescale 1ns/1ps\n",
    "\\esc ",
    "$x",
    "module",
    "endmodule",
    "endmodule module n(); ",
];

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

    /// Any edit of a source past the constant: the fanned-out parse gives
    /// the whole-file result, error or unit, and the same token count.
    #[test]
    fn an_edited_source_parses_alike_at_two_jobs(
        at in 0usize..1 << 20,
        splice in 0usize..SPLICES.len(),
        cut in 0usize..3,
    ) {
        static BUNDLED: std::sync::OnceLock<String> = std::sync::OnceLock::new();
        let source = BUNDLED.get_or_init(|| {
            corpus()
                .into_iter()
                .find(|(name, _)| name == "bundled designs concatenated")
                .expect("in the corpus")
                .1
        });
        let mut at = at % source.len();
        while !source.is_char_boundary(at) {
            at -= 1;
        }
        let mut end = (at + cut).min(source.len());
        while !source.is_char_boundary(end) {
            end += 1;
        }
        let text = format!("{}{}{}", &source[..at], SPLICES[splice], &source[end..]);
        let whole_trace = Recorder::enabled();
        let whole = parse_jobs(FileId(0), &text, 1, &whole_trace);
        let trace = Recorder::enabled();
        let fanned = parse_jobs(FileId(0), &text, 2, &trace);
        proptest::prop_assert!(fanned == whole);
        proptest::prop_assert_eq!(
            trace.counter_value("rtl.tokens"),
            whole_trace.counter_value("rtl.tokens")
        );
    }
}
