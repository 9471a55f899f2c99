//! Linting a subset of modules gives exactly the full lint's findings
//! in those modules: rules read design-wide facts from the context but
//! emit findings only for the modules they are run on.

use soccar_lint::{Diagnostic, LintReport, Linter};
use soccar_rtl::ast::SourceUnit;
use soccar_rtl::span::SourceMap;

/// The full lint's findings whose span lies inside one of `modules`.
fn full_findings_in(full: &LintReport, unit: &SourceUnit, modules: &[usize]) -> Vec<Diagnostic> {
    full.diagnostics
        .iter()
        .filter(|d| {
            modules.iter().any(|&i| {
                let span = unit.modules[i].span;
                span.start <= d.span.start && d.span.end <= span.end
            })
        })
        .cloned()
        .collect()
}

fn assert_subsets_match(name: &str, variant: Option<u32>) {
    let soc = soccar_soc::resolve(name, variant).expect("catalog design");
    let mut map = SourceMap::new();
    let file = map.add_file(&soc.file_name, &soc.source);
    let unit = soccar_rtl::parser::parse(file, &soc.source).expect("parses");
    let linter = Linter::new();
    let full = linter.lint_unit(&unit, &map);
    assert!(
        !full.diagnostics.is_empty(),
        "{name}: the check needs findings"
    );

    let facts = linter.facts(&unit);
    let ctx = linter.context(&unit, &facts);
    let n = unit.modules.len();
    let mut subsets: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
    subsets.push((0..n).step_by(3).collect());
    subsets.push((0..n).rev().step_by(2).collect());
    subsets.push((0..n).collect());
    let mut seen = 0;
    for subset in &subsets {
        let part = LintReport::finish(linter.check_modules(&ctx, subset.iter().copied()), &map);
        let expected = full_findings_in(&full, &unit, subset);
        assert_eq!(part.diagnostics, expected, "{name}: modules {subset:?}");
        if subset.len() == 1 {
            seen += part.diagnostics.len();
        }
    }
    assert_eq!(
        seen,
        full.diagnostics.len(),
        "{name}: every finding lies in exactly one module"
    );
}

#[test]
fn subsets_match_the_full_lint_on_clustersoc() {
    assert_subsets_match("clustersoc", Some(1));
}

#[test]
fn subsets_match_the_full_lint_on_autosoc() {
    assert_subsets_match("autosoc", Some(2));
}

#[test]
fn subsets_match_the_full_lint_on_gen_5_2() {
    assert_subsets_match("gen:5:2", None);
}

#[test]
fn subsets_match_the_full_lint_on_gen_11_15() {
    assert_subsets_match("gen:11:15", None);
}
