//! # soccar-lint
//!
//! Rule-based static analysis over the elaborated design and per-module
//! AR_CFGs — a fast pre-pass that runs before (or instead of) concolic
//! testing and flags reset-domain hazards purely structurally.
//!
//! Concolic testing (Algorithm 3) proves behaviors by simulating them;
//! that is precise but costs simulation rounds and solver calls. Many of
//! the paper's Table III bug classes, however, are visible in the RTL
//! *structure* alone: an operational arm assigning registers the reset arm
//! never clears, an always block governed by a reset it never tests, a
//! reset woven out of combinational logic. The linter catches those in
//! milliseconds and — crucially — catches the implicit-governor construct
//! that defeats the Explicit extraction (Section V-C), so the blind spot
//! is at least *reported* even when the concolic stage would miss it.
//!
//! Rules implement the [`LintRule`] trait and live in a registry
//! ([`Linter`]) with per-rule allow/deny configuration; external crates
//! can plug their own rules in via [`Linter::with_rule`].
//!
//! # Examples
//!
//! ```
//! use soccar_lint::Linter;
//!
//! let report = Linter::new()
//!     .lint_source("t.v", "
//!       module sha(input clk, input rst_n, input [7:0] pt, output reg [7:0] ct);
//!         always @(negedge rst_n)
//!           if (clk) ct <= pt;   // implicit governor: Explicit analysis is blind
//!       endmodule")
//!     .expect("parses");
//! assert!(report
//!     .diagnostics
//!     .iter()
//!     .any(|d| d.rule == "implicit-governor" && d.module == "sha"));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod context;
pub mod diagnostic;
pub mod rules;

use serde::{ser::SerializeStruct as _, Serialize, Serializer};
use soccar_cfg::ResetNaming;
use soccar_rtl::ast::SourceUnit;
use soccar_rtl::span::SourceMap;

pub use context::{DesignFacts, LintContext, ModuleView};
pub use diagnostic::{Diagnostic, Severity};
pub use rules::{default_rules, LintRule};

/// Per-rule enable/deny configuration.
#[derive(Debug, Clone, Default)]
pub struct LintConfig {
    /// Rule ids to disable entirely.
    pub allow: Vec<String>,
    /// Rule ids whose findings are escalated to [`Severity::Error`].
    pub deny: Vec<String>,
}

/// The lint rule registry and runner.
pub struct Linter {
    rules: Vec<Box<dyn LintRule>>,
    naming: ResetNaming,
    config: LintConfig,
}

impl std::fmt::Debug for Linter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Linter")
            .field("rules", &self.rules.len())
            .field("config", &self.config)
            .finish()
    }
}

impl Default for Linter {
    fn default() -> Linter {
        Linter::new()
    }
}

impl Linter {
    /// A linter with the built-in rule set and default configuration.
    #[must_use]
    pub fn new() -> Linter {
        Linter {
            rules: default_rules(),
            naming: ResetNaming::new(),
            config: LintConfig::default(),
        }
    }

    /// Replaces the allow/deny configuration.
    #[must_use]
    pub fn with_config(mut self, config: LintConfig) -> Linter {
        self.config = config;
        self
    }

    /// Replaces the reset naming convention.
    #[must_use]
    pub fn with_naming(mut self, naming: ResetNaming) -> Linter {
        self.naming = naming;
        self
    }

    /// Registers an additional rule (external rules plug in here).
    #[must_use]
    pub fn with_rule(mut self, rule: Box<dyn LintRule>) -> Linter {
        self.rules.push(rule);
        self
    }

    /// The registered rules, in registration order.
    pub fn rules(&self) -> impl Iterator<Item = &dyn LintRule> {
        self.rules.iter().map(Box::as_ref)
    }

    /// `true` if `id` names a registered rule.
    #[must_use]
    pub fn is_known_rule(&self, id: &str) -> bool {
        self.rules.iter().any(|r| r.id() == id)
    }

    /// Parses `source` and lints it.
    ///
    /// # Errors
    ///
    /// Returns the parser's message if `source` is not valid input.
    pub fn lint_source(&self, file_name: &str, source: &str) -> Result<LintReport, String> {
        let mut map = SourceMap::new();
        let file = map.add_file(file_name, source);
        let unit = soccar_rtl::parser::parse(file, source).map_err(|e| e.to_string())?;
        Ok(self.lint_unit(&unit, &map))
    }

    /// Lints an already-parsed unit, resolving spans against `map`: the
    /// three steps below, over every module.
    #[must_use]
    pub fn lint_unit(&self, unit: &SourceUnit, map: &SourceMap) -> LintReport {
        let facts = self.facts(unit);
        let ctx = self.context(unit, &facts);
        LintReport::finish(self.check_modules(&ctx, 0..unit.modules.len()), map)
    }

    /// Step 1a: the design-wide facts of `unit` under this linter's
    /// naming convention. They depend only on the unit's structure.
    #[must_use]
    pub fn facts(&self, unit: &SourceUnit) -> DesignFacts {
        DesignFacts::build(unit, &self.naming)
    }

    /// Step 1b: the context the rules read, over facts from
    /// [`Linter::facts`] for a unit of the same structure.
    #[must_use]
    pub fn context<'a>(&'a self, unit: &'a SourceUnit, facts: &'a DesignFacts) -> LintContext<'a> {
        LintContext {
            unit,
            naming: &self.naming,
            facts,
        }
    }

    /// Step 2: runs the enabled rules over the modules at `modules`
    /// (indices into the unit), applying `deny`. The findings are
    /// neither described nor sorted (see [`LintReport::finish`]); a
    /// module's findings do not depend on which other modules are
    /// checked.
    #[must_use]
    pub fn check_modules(
        &self,
        ctx: &LintContext<'_>,
        modules: impl IntoIterator<Item = usize>,
    ) -> Vec<Diagnostic> {
        let rules: Vec<(&dyn LintRule, bool)> = self
            .rules
            .iter()
            .filter(|rule| !self.config.allow.iter().any(|a| a == rule.id()))
            .map(|rule| {
                let denied = self.config.deny.iter().any(|d| d == rule.id());
                (rule.as_ref(), denied)
            })
            .collect();
        let mut diagnostics = Vec::new();
        for index in modules {
            let view = ctx.view(index);
            for &(rule, denied) in &rules {
                let before = diagnostics.len();
                rule.check(ctx, &view, &mut diagnostics);
                if denied {
                    for diag in &mut diagnostics[before..] {
                        diag.severity = Severity::Error;
                    }
                }
            }
        }
        diagnostics
    }
}

/// The outcome of one lint run: diagnostics sorted most severe first.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// Findings, sorted by severity (descending), module, position.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// Step 3: resolves each finding's location against `map` and sorts
    /// the findings into the canonical order: severity (descending),
    /// module, position, rule.
    #[must_use]
    pub fn finish(mut diagnostics: Vec<Diagnostic>, map: &SourceMap) -> LintReport {
        for diag in &mut diagnostics {
            diag.location = map.describe(diag.span);
        }
        diagnostics.sort_by(|a, b| {
            b.severity
                .cmp(&a.severity)
                .then_with(|| a.module.cmp(&b.module))
                .then_with(|| a.span.start.cmp(&b.span.start))
                .then_with(|| a.rule.cmp(b.rule))
        });
        LintReport { diagnostics }
    }

    fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// Number of error-level findings.
    #[must_use]
    pub fn errors(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Number of warning-level findings.
    #[must_use]
    pub fn warnings(&self) -> usize {
        self.count(Severity::Warning)
    }

    /// Number of info-level findings.
    #[must_use]
    pub fn infos(&self) -> usize {
        self.count(Severity::Info)
    }

    /// The most severe finding, if any.
    #[must_use]
    pub fn worst(&self) -> Option<Severity> {
        self.diagnostics.iter().map(|d| d.severity).max()
    }

    /// One-line `N error(s), N warning(s), N info` summary.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "{} error(s), {} warning(s), {} info",
            self.errors(),
            self.warnings(),
            self.infos()
        )
    }
}

impl Serialize for LintReport {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut s = serializer.serialize_struct("LintReport", 4)?;
        s.serialize_field("errors", &self.errors())?;
        s.serialize_field("warnings", &self.warnings())?;
        s.serialize_field("infos", &self.infos())?;
        s.serialize_field("diagnostics", &self.diagnostics)?;
        s.end()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const IMPLICIT: &str =
        "module sha(input clk, input rst_n, input [7:0] pt, output reg [7:0] ct);
        always @(negedge rst_n)
          if (clk) ct <= pt;
      endmodule";

    #[test]
    fn registry_reports_and_sorts() {
        let report = Linter::new().lint_source("t.v", IMPLICIT).expect("parse");
        assert!(!report.diagnostics.is_empty());
        // Sorted most severe first.
        for pair in report.diagnostics.windows(2) {
            assert!(pair[0].severity >= pair[1].severity);
        }
        // Every diagnostic has a resolved location.
        assert!(report
            .diagnostics
            .iter()
            .all(|d| d.location.contains("t.v:")));
    }

    #[test]
    fn allow_disables_a_rule() {
        let config = LintConfig {
            allow: vec!["implicit-governor".into()],
            deny: vec![],
        };
        let report = Linter::new()
            .with_config(config)
            .lint_source("t.v", IMPLICIT)
            .expect("parse");
        assert!(report
            .diagnostics
            .iter()
            .all(|d| d.rule != "implicit-governor"));
    }

    #[test]
    fn deny_escalates_to_error() {
        let config = LintConfig {
            allow: vec![],
            deny: vec!["implicit-governor".into()],
        };
        let report = Linter::new()
            .with_config(config)
            .lint_source("t.v", IMPLICIT)
            .expect("parse");
        let diag = report
            .diagnostics
            .iter()
            .find(|d| d.rule == "implicit-governor")
            .expect("fires");
        assert_eq!(diag.severity, Severity::Error);
    }

    #[test]
    fn external_rules_plug_in() {
        struct ModuleCounter;
        impl LintRule for ModuleCounter {
            fn id(&self) -> &'static str {
                "module-counter"
            }
            fn description(&self) -> &'static str {
                "test rule: one info per module"
            }
            fn default_severity(&self) -> Severity {
                Severity::Info
            }
            fn check(&self, _: &LintContext<'_>, view: &ModuleView<'_>, out: &mut Vec<Diagnostic>) {
                out.push(Diagnostic::new(
                    self.id(),
                    self.default_severity(),
                    &view.module.name,
                    view.module.span,
                    "module seen",
                ));
            }
        }
        let linter = Linter::new().with_rule(Box::new(ModuleCounter));
        assert!(linter.is_known_rule("module-counter"));
        let report = linter.lint_source("t.v", IMPLICIT).expect("parse");
        assert_eq!(
            report
                .diagnostics
                .iter()
                .filter(|d| d.rule == "module-counter")
                .count(),
            1
        );
    }

    #[test]
    fn parse_errors_surface() {
        assert!(Linter::new().lint_source("t.v", "module broken(").is_err());
    }
}
