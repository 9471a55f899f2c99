//! The red-team/blue-team evaluation harness (Section V-C).
//!
//! The red team's artifacts live in `soccar-soc` (benchmark generation and
//! bug insertion); the blue team's tool is the [`crate::Soccar`] pipeline.
//! The only shared information is the *security regression* — the checks
//! shipped with the base SoCs — exactly as the paper stipulates ("no
//! communication was made between the red to blue team regarding the
//! description of bugs").
//!
//! Detection scoring happens post-hoc: a bug counts as detected when at
//! least one of its expected detector checks produced an invalidation
//! message.

use std::time::Duration;

use serde::Serialize;
use soccar_concolic::{PropertyKind, SecurityProperty};
use soccar_obs::json::Writer;
use soccar_rtl::LogicVec;
use soccar_soc::generate::violation_token;
use soccar_soc::{
    expected_detectors, security_checks, symbolic_inputs, CheckKind, CheckSpec, SocModel,
    VariantSpec,
};

use crate::error::SoccarError;
use crate::pipeline::{AnalysisReport, Soccar, SoccarConfig};

/// Converts a neutral [`CheckSpec`] into a concolic [`SecurityProperty`].
#[must_use]
pub fn property_of(check: &CheckSpec) -> SecurityProperty {
    let kind = match &check.kind {
        CheckKind::SecretCleared { signal, width } => PropertyKind::ClearedAfterReset {
            domain: check.domain.clone(),
            signal: signal.clone(),
            expected: LogicVec::zeros(*width),
            window: 0,
        },
        CheckKind::GuardArmed { signal } => PropertyKind::AssertedAfterReset {
            domain: check.domain.clone(),
            signal: signal.clone(),
            window: 0,
        },
        CheckKind::LegalValues {
            signal,
            width,
            allowed,
        } => PropertyKind::AlwaysOneOf {
            signal: signal.clone(),
            allowed: allowed
                .iter()
                .map(|v| LogicVec::from_u64(*width, *v))
                .collect(),
        },
        CheckKind::NeverFlagged { signal } => PropertyKind::AlwaysOneOf {
            signal: signal.clone(),
            allowed: vec![LogicVec::zeros(1)],
        },
    };
    SecurityProperty {
        name: check.name.clone(),
        module: check.module.clone(),
        kind,
    }
}

/// The outcome for one inserted bug.
#[derive(Debug, Clone, Serialize)]
pub struct BugOutcome {
    /// Violation class (Table III wording).
    pub violation: String,
    /// Target IP.
    pub ip: String,
    /// Whether the implicit-governor construct was used.
    pub implicit: bool,
    /// Whether any expected detector fired.
    pub detected: bool,
    /// The detector checks that fired.
    pub fired: Vec<String>,
}

/// The evaluation of one SoC variant.
#[derive(Debug)]
pub struct VariantEvaluation {
    /// Variant display name.
    pub variant: String,
    /// Per-bug outcomes.
    pub outcomes: Vec<BugOutcome>,
    /// Violations that map to no inserted bug (false alarms).
    pub false_alarms: Vec<String>,
    /// The underlying pipeline report.
    pub report: AnalysisReport,
}

impl VariantEvaluation {
    /// Bugs detected.
    #[must_use]
    pub fn detected(&self) -> usize {
        self.outcomes.iter().filter(|o| o.detected).count()
    }

    /// Bugs missed.
    #[must_use]
    pub fn missed(&self) -> usize {
        self.outcomes.len() - self.detected()
    }

    /// Verification wall-clock time.
    #[must_use]
    pub fn verification_time(&self) -> Duration {
        self.report.total
    }
}

/// Runs the blue-team tool on one red-team variant and scores detection.
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn evaluate_variant(
    spec: &VariantSpec,
    config: SoccarConfig,
) -> Result<VariantEvaluation, SoccarError> {
    let design = soccar_soc::generate(spec.soc, Some(spec.number));
    let checks = security_checks(spec.soc);
    let properties: Vec<SecurityProperty> = checks.iter().map(property_of).collect();
    let mut config = config;
    config.concolic.symbolic_inputs = symbolic_inputs(spec.soc);
    let soccar = Soccar::new(config);
    let report = soccar.analyze("soc.v", &design.source, &design.top, properties)?;
    Ok(score(spec, report))
}

/// Scores a finished report against the variant's bug list.
#[must_use]
pub fn score(spec: &VariantSpec, report: AnalysisReport) -> VariantEvaluation {
    let fired: Vec<String> = report
        .concolic
        .violations
        .iter()
        .map(|v| v.property.clone())
        .collect();
    let mut outcomes = Vec::new();
    let mut explained: Vec<String> = Vec::new();
    for bug in &spec.bugs {
        let detectors = expected_detectors(spec.soc, bug);
        let hit: Vec<String> = detectors
            .iter()
            .filter(|d| fired.contains(d))
            .cloned()
            .collect();
        explained.extend(detectors.iter().cloned());
        outcomes.push(BugOutcome {
            violation: bug.violation.to_string(),
            ip: bug.ip.clone(),
            implicit: bug.implicit,
            detected: !hit.is_empty(),
            fired: hit,
        });
    }
    let false_alarms = fired
        .into_iter()
        .filter(|f| !explained.contains(f))
        .collect();
    VariantEvaluation {
        variant: spec.name(),
        outcomes,
        false_alarms,
        report,
    }
}

/// Convenience: the clean baseline must produce zero violations.
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn evaluate_clean(
    model: SocModel,
    config: SoccarConfig,
) -> Result<AnalysisReport, SoccarError> {
    let design = soccar_soc::generate(model, None);
    let checks = security_checks(model);
    let properties: Vec<SecurityProperty> = checks.iter().map(property_of).collect();
    let mut config = config;
    config.concolic.symbolic_inputs = symbolic_inputs(model);
    let soccar = Soccar::new(config);
    soccar.analyze("soc.v", &design.source, &design.top, properties)
}

/// Recall scoring of a generated design against its ground-truth
/// manifest (the stress tier's oracle).
#[derive(Debug, Clone, Serialize)]
pub struct GeneratedRecall {
    /// Bugs in the manifest.
    pub total: usize,
    /// Bugs whose expected stage reported them.
    pub detected: usize,
    /// Rendered manifest entries of missed bugs, ready for a test
    /// failure message (each carries the seed for reproduction).
    pub missed: Vec<String>,
    /// Violations that map to no manifest detector.
    pub false_alarms: usize,
}

/// One generated-design evaluation: the report plus its recall score.
#[derive(Debug)]
pub struct GeneratedEvaluation {
    /// Ground truth.
    pub manifest: soccar_soc::Manifest,
    /// Recall against the manifest.
    pub recall: GeneratedRecall,
    /// The underlying pipeline report.
    pub report: AnalysisReport,
}

/// Scores a finished report against a generated design's manifest.
///
/// A bug counts as detected when one of its expected detector checks
/// was violated, or — for `lint`-stage (implicit-governor) bugs — when
/// the lint pre-pass flagged its module.
#[must_use]
pub fn score_generated(
    manifest: &soccar_soc::Manifest,
    report: &AnalysisReport,
) -> GeneratedRecall {
    let fired: Vec<&str> = report
        .concolic
        .violations
        .iter()
        .map(|v| v.property.as_str())
        .collect();
    let lint_flagged: Vec<&str> = report
        .lint
        .diagnostics
        .iter()
        .filter(|d| d.rule == "implicit-governor")
        .map(|d| d.module.as_str())
        .collect();
    let mut detected = 0;
    let mut missed = Vec::new();
    let mut explained: Vec<&str> = Vec::new();
    for bug in &manifest.bugs {
        explained.extend(bug.detectors.iter().map(String::as_str));
        let hit = bug.detectors.iter().any(|d| fired.contains(&d.as_str()))
            || (bug.stage == soccar_soc::DetectionStage::Lint
                && lint_flagged.contains(&bug.module.as_str()));
        if hit {
            detected += 1;
        } else {
            missed.push(format!(
                "{} (seed {}): {}",
                manifest.name,
                manifest.seed,
                bug.describe()
            ));
        }
    }
    let false_alarms = fired.iter().filter(|f| !explained.contains(f)).count();
    GeneratedRecall {
        total: manifest.bugs.len(),
        detected,
        missed,
        false_alarms,
    }
}

/// Runs the pipeline on a generated design and scores recall against
/// its manifest.
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn evaluate_generated(
    spec: &soccar_soc::GenSpec,
    config: SoccarConfig,
) -> Result<GeneratedEvaluation, SoccarError> {
    evaluate_generated_traced(spec, config, soccar_obs::Recorder::disabled())
}

/// [`evaluate_generated`] with an observability recorder attached, so
/// callers (the bench stress tier) can gate on the pipeline's span and
/// counter stream — e.g. `smt.queries` counts every real solver call,
/// including a solved chunk's results after the consumed flip, which the
/// report's `solver_calls` field does not count.
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn evaluate_generated_traced(
    spec: &soccar_soc::GenSpec,
    config: SoccarConfig,
    recorder: soccar_obs::Recorder,
) -> Result<GeneratedEvaluation, SoccarError> {
    let gen = soccar_soc::generate::generate(spec);
    let properties: Vec<SecurityProperty> = gen.checks.iter().map(property_of).collect();
    let mut config = config;
    config.concolic.symbolic_inputs = gen.symbolic.clone();
    let soccar = Soccar::new(config).with_recorder(recorder);
    let file_name = format!("{}.v", gen.slug);
    let report = soccar.analyze(&file_name, &gen.source, &gen.top, properties)?;
    let recall = score_generated(&gen.manifest, &report);
    Ok(GeneratedEvaluation {
        manifest: gen.manifest,
        recall,
        report,
    })
}

/// A generated design's manifest as pretty JSON with one trailing
/// newline — the file `soccar gen --manifest` writes.
#[must_use]
pub fn manifest_json(manifest: &soccar_soc::Manifest) -> String {
    let mut out = String::new();
    let mut w = Writer::pretty(&mut out);
    w.begin_object().key("name").string(&manifest.name);
    w.key("seed").u64(manifest.seed);
    w.key("scale").u64(manifest.scale.into());
    w.key("modules").u64(manifest.modules.into());
    w.key("reset_domains").u64(manifest.reset_domains.into());
    w.key("bugs").begin_array();
    for bug in &manifest.bugs {
        w.begin_object().key("cluster").u64(bug.cluster.into());
        w.key("violation").string(violation_token(bug.violation));
        w.key("module").string(&bug.module);
        w.key("instance").string(&bug.instance);
        w.key("implicit").bool(bug.implicit);
        w.key("stage").string(bug.stage.token());
        w.key("detectors").begin_array();
        for detector in &bug.detectors {
            w.string(detector);
        }
        w.end_array().end_object();
    }
    w.end_array().end_object();
    out.push('\n');
    out
}

/// Sanity helper for tests: a bug outcome table as text.
#[must_use]
pub fn render_outcomes(eval: &VariantEvaluation) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{}", eval.variant);
    for o in &eval.outcomes {
        let _ = writeln!(
            out,
            "  [{}] {} @ {}{} — fired: {}",
            if o.detected { "DETECTED" } else { "MISSED" },
            o.violation,
            o.ip,
            if o.implicit { " (implicit)" } else { "" },
            if o.fired.is_empty() {
                "-".to_owned()
            } else {
                o.fired.join(", ")
            }
        );
    }
    if !eval.false_alarms.is_empty() {
        let _ = writeln!(out, "  false alarms: {}", eval.false_alarms.join(", "));
    }
    out
}

/// A bug outcome list for an entire evaluation campaign.
#[derive(Debug, Default, Serialize)]
pub struct Campaign {
    /// Variant name → (detected, total, seconds).
    pub rows: Vec<CampaignRow>,
}

/// One row of the detection-results table.
#[derive(Debug, Clone, Serialize)]
pub struct CampaignRow {
    /// Variant name.
    pub variant: String,
    /// Bugs detected.
    pub detected: usize,
    /// Bugs inserted.
    pub total: usize,
    /// False alarms.
    pub false_alarms: usize,
    /// Verification seconds.
    pub seconds: f64,
}

impl Campaign {
    /// Adds one evaluation.
    pub fn push(&mut self, eval: &VariantEvaluation) {
        self.rows.push(CampaignRow {
            variant: eval.variant.clone(),
            detected: eval.detected(),
            total: eval.outcomes.len(),
            false_alarms: eval.false_alarms.len(),
            seconds: eval.verification_time().as_secs_f64(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soccar_cfg::GovernorAnalysis;
    use soccar_concolic::ConcolicConfig;
    use soccar_sim::InitPolicy;

    fn fast_config(analysis: GovernorAnalysis) -> SoccarConfig {
        SoccarConfig {
            analysis,
            concolic: ConcolicConfig {
                cycles: 10,
                max_rounds: 3,
                sweep_stride: 3,
                init: InitPolicy::Ones,
                ..ConcolicConfig::default()
            },
            ..SoccarConfig::default()
        }
    }

    #[test]
    fn property_conversion_shapes() {
        let checks = security_checks(SocModel::ClusterSoc);
        for c in &checks {
            let p = property_of(c);
            assert_eq!(p.name, c.name);
            assert_eq!(p.module, c.module);
        }
    }

    #[test]
    fn cluster_variant2_detects_both_bugs() {
        let spec = soccar_soc::variant(SocModel::ClusterSoc, 2).expect("variant");
        let eval =
            evaluate_variant(&spec, fast_config(GovernorAnalysis::Explicit)).expect("evaluate");
        assert_eq!(eval.outcomes.len(), 2);
        assert_eq!(eval.detected(), 2, "{}", render_outcomes(&eval));
        assert!(eval.false_alarms.is_empty(), "{}", render_outcomes(&eval));
    }

    #[test]
    fn manifest_json_is_stable_and_parsable_shape() {
        let gen = soccar_soc::generate::generate(&soccar_soc::GenSpec { seed: 3, scale: 1 });
        let json = manifest_json(&gen.manifest);
        assert!(json.starts_with("{\n  \"name\": \"gen:3:1\",\n  \"seed\": 3,"));
        assert!(json.ends_with("\n}\n") && !json.ends_with("\n\n"));
        let doc = soccar_obs::json::Json::parse(&json).expect("manifest parses");
        assert_eq!(doc.u64_field("modules"), Some(gen.manifest.modules.into()));
        let bugs = doc
            .get("bugs")
            .and_then(soccar_obs::json::Json::as_arr)
            .expect("bugs array");
        assert_eq!(bugs.len(), gen.manifest.bugs.len());
        for (bug, expected) in bugs.iter().zip(&gen.manifest.bugs) {
            assert_eq!(bug.str_field("instance"), Some(expected.instance.as_str()));
            assert_eq!(bug.str_list_field("detectors"), expected.detectors);
        }
    }

    #[test]
    fn generated_design_bugs_are_recalled() {
        let spec = soccar_soc::GenSpec { seed: 29, scale: 2 };
        let eval =
            evaluate_generated(&spec, fast_config(GovernorAnalysis::Explicit)).expect("evaluate");
        assert!(eval.recall.total >= 1, "sweep designs always carry a bug");
        assert_eq!(
            eval.recall.detected, eval.recall.total,
            "missed: {:#?}",
            eval.recall.missed
        );
        assert_eq!(eval.recall.false_alarms, 0);
    }

    #[test]
    fn clean_cluster_produces_no_violations() {
        let report = evaluate_clean(
            SocModel::ClusterSoc,
            fast_config(GovernorAnalysis::Explicit),
        )
        .expect("clean");
        assert!(
            report.violations().is_empty(),
            "violations: {:?}",
            report.violations()
        );
    }
}
