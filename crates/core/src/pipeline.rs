//! The SoCCAR pipeline — the paper's **Figure 1** workflow.
//!
//! The three published stages, preceded by a fast static pre-pass:
//!
//! 0. **Lint** ([`soccar_lint`]) — rule-based structural checks over the
//!    parsed design; catches reset-domain hazards (including the
//!    Section V-C implicit-governor blind spot) in milliseconds, before
//!    any simulation;
//! 1. **AR_CFG generation** (Algorithm 1) — per-module extraction of
//!    reset-governed events;
//! 2. **Module connection profile & composition** (Algorithm 2) — the
//!    SoC-level `AR(S)` with reset-domain analysis, bound onto the
//!    elaborated design;
//! 3. **Concolic testing** (Algorithm 3) — systematic exploration of the
//!    extracted design space with security-property checking.

use std::time::Duration;

use serde::Serialize;
use soccar_cfg::bind::BoundEvent;
use soccar_cfg::{
    bind_events_traced, compose_soc_resilient, GovernorAnalysis, ResetNaming, SocArCfg,
};
use soccar_concolic::{ConcolicConfig, ConcolicEngine, ConcolicReport, SecurityProperty};
use soccar_lint::{LintConfig, LintReport, Linter};
use soccar_rtl::ast::SourceUnit;
use soccar_rtl::{elaborate::elaborate_traced, parser::parse_jobs, span::SourceMap, Design};

use crate::error::SoccarError;

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct SoccarConfig {
    /// Governor-analysis level (Explicit = the published tool).
    pub analysis: GovernorAnalysis,
    /// Reset naming convention.
    pub naming: ResetNaming,
    /// Concolic engine parameters.
    pub concolic: ConcolicConfig,
    /// Per-rule allow/deny configuration for the lint pre-pass.
    pub lint: LintConfig,
    /// Worker threads for the parallel stages (the frontend's per-module
    /// parse and lint and the AR_CFG extraction fan-out, on a source of
    /// at least [`soccar_rtl::fingerprint::MIN_FANOUT_BYTES`], and the
    /// concolic reset sweep). `0` resolves via
    /// [`soccar_exec::resolve_jobs`]: the `SOCCAR_JOBS` environment
    /// variable, then the machine's available parallelism. The resolved
    /// value also overwrites [`ConcolicConfig::jobs`] for the run.
    ///
    /// Reports are bit-identical across job counts — parallel stages
    /// merge by stable keys, never completion order — so this knob trades
    /// only wall-clock time, never results.
    pub jobs: usize,
    /// Degrade instead of aborting when an extraction task or a flip
    /// solve panics: both run under
    /// [`soccar_exec::FailurePolicy::KeepGoing`], failed tasks become
    /// per-stage [`Health::Degraded`] reasons, and the analysis finishes
    /// with whatever survived. Off (fail-fast) by default.
    pub keep_going: bool,
    /// Deterministic fault-injection plan for chaos testing (see
    /// [`soccar_exec::FaultPlan`]). The default empty plan injects
    /// nothing. The CLI fills it from the `SOCCAR_FAULTS` environment
    /// variable.
    pub fault_plan: soccar_exec::FaultPlan,
}

impl Default for SoccarConfig {
    fn default() -> SoccarConfig {
        SoccarConfig {
            analysis: GovernorAnalysis::Explicit,
            naming: ResetNaming::new(),
            concolic: ConcolicConfig::default(),
            lint: LintConfig::default(),
            jobs: 0,
            keep_going: false,
            fault_plan: soccar_exec::FaultPlan::default(),
        }
    }
}

/// Health of one pipeline stage (or of the run as a whole): either
/// everything ran, or parts were skipped/lost and the report explains
/// what and why. Degradation never hides detected violations — it means
/// *coverage* may be lower than a healthy run, not that results are
/// wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Health {
    /// The stage ran in full.
    Ok,
    /// The stage lost work; each reason names what was skipped.
    Degraded(Vec<String>),
}

impl Health {
    /// Builds a health value from collected degradation reasons.
    #[must_use]
    pub fn from_reasons(reasons: Vec<String>) -> Health {
        if reasons.is_empty() {
            Health::Ok
        } else {
            Health::Degraded(reasons)
        }
    }

    /// `true` for [`Health::Degraded`].
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        matches!(self, Health::Degraded(_))
    }

    /// The degradation reasons (empty when healthy).
    #[must_use]
    pub fn reasons(&self) -> &[String] {
        match self {
            Health::Ok => &[],
            Health::Degraded(reasons) => reasons,
        }
    }
}

impl Serialize for Health {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::ser::SerializeStruct;
        match self {
            Health::Ok => {
                let mut s = serializer.serialize_struct("Health", 1)?;
                s.serialize_field("status", "ok")?;
                s.end()
            }
            Health::Degraded(reasons) => {
                let mut s = serializer.serialize_struct("Health", 2)?;
                s.serialize_field("status", "degraded")?;
                s.serialize_field("reasons", reasons)?;
                s.end()
            }
        }
    }
}

/// Worker-pool utilization of one parallel stage, for the stage report.
/// Wall-clock measurements: excluded from [`AnalysisReport::canonical_json`].
#[derive(Debug, Clone, Serialize)]
pub struct ExecSummary {
    /// Workers the stage ran with.
    pub jobs: usize,
    /// Tasks fanned out.
    pub tasks: usize,
    /// Summed task execution time across workers, in seconds.
    pub busy_secs: f64,
    /// Mean worker utilization in `[0, 1]`.
    pub utilization: f64,
}

impl From<&soccar_exec::PoolStats> for ExecSummary {
    fn from(stats: &soccar_exec::PoolStats) -> ExecSummary {
        ExecSummary {
            jobs: stats.jobs,
            tasks: stats.tasks,
            busy_secs: stats.busy.as_secs_f64(),
            utilization: stats.utilization(),
        }
    }
}

/// Timing of one pipeline stage (for the Figure 1 report).
#[derive(Debug, Clone, Serialize)]
pub struct StageReport {
    /// Stage name.
    pub stage: String,
    /// Wall-clock duration.
    #[serde(with = "duration_secs")]
    pub elapsed: Duration,
    /// One-line summary.
    pub detail: String,
    /// Worker-pool counters, for stages that fanned out.
    pub exec: Option<ExecSummary>,
    /// Whether the stage ran in full or lost work.
    pub health: Health,
}

mod duration_secs {
    use serde::Serializer;
    use std::time::Duration;

    pub fn serialize<S: Serializer>(d: &Duration, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_f64(d.as_secs_f64())
    }
}

/// Summary of the extraction stages.
#[derive(Debug, Clone, Serialize)]
pub struct ExtractionSummary {
    /// Modules in the source.
    pub modules: usize,
    /// Instances after composition.
    pub instances: usize,
    /// Reset-governed events in `AR(S)`.
    pub ar_events: usize,
    /// Reset domains found.
    pub reset_domains: usize,
    /// Events bound onto the elaborated design.
    pub bound_events: usize,
}

/// The complete result of one SoCCAR run.
#[derive(Debug, Clone)]
pub struct AnalysisReport {
    /// Per-stage timing (Figure 1).
    pub stages: Vec<StageReport>,
    /// Static lint findings from the pre-pass.
    pub lint: LintReport,
    /// Extraction summary.
    pub extraction: ExtractionSummary,
    /// Concolic testing outcome (violations, coverage, witnesses).
    pub concolic: ConcolicReport,
    /// Total wall-clock time.
    pub total: Duration,
}

impl AnalysisReport {
    /// All invalidation messages.
    #[must_use]
    pub fn violations(&self) -> &[soccar_concolic::Violation] {
        &self.concolic.violations
    }

    /// Aggregated health of the run: [`Health::Ok`] when every stage ran
    /// in full, otherwise the union of all stage reasons, each prefixed
    /// with its stage name.
    #[must_use]
    pub fn health(&self) -> Health {
        Health::from_reasons(
            self.stages
                .iter()
                .flat_map(|s| {
                    s.health
                        .reasons()
                        .iter()
                        .map(move |r| format!("{}: {r}", s.stage))
                })
                .collect(),
        )
    }

    /// `true` if any stage degraded.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        self.stages.iter().any(|s| s.health.is_degraded())
    }

    /// The deterministic view of this report: every analysis result, but
    /// no wall-clock timing and no worker-pool counters. Two runs of the
    /// same design with the same configuration produce identical
    /// canonical views regardless of `jobs`.
    #[must_use]
    pub fn canonical(&self) -> CanonicalReport<'_> {
        CanonicalReport {
            stages: self
                .stages
                .iter()
                .map(|s| CanonicalStage {
                    stage: &s.stage,
                    detail: &s.detail,
                    health: &s.health,
                })
                .collect(),
            lint: &self.lint,
            extraction: &self.extraction,
            concolic: CanonicalConcolic {
                rounds: self.concolic.rounds,
                targets_total: self.concolic.targets_total,
                targets_covered: self.concolic.targets_covered,
                targets_unreachable: self.concolic.targets_unreachable,
                solver_calls: self.concolic.solver_calls,
                solver_sat: self.concolic.solver_sat,
                solver_unknown: self.concolic.solver_unknown,
                flips_failed: self.concolic.flips_failed,
                degraded_rounds: self.concolic.degraded_rounds,
                first_violation_round: self.concolic.first_violation_round,
                violations: self
                    .concolic
                    .violations
                    .iter()
                    .map(|v| CanonicalViolation {
                        property: &v.property,
                        module: &v.module,
                        cycle: v.cycle,
                        details: &v.details,
                    })
                    .collect(),
                witnesses: self
                    .concolic
                    .witnesses
                    .iter()
                    .map(|w| CanonicalWitness {
                        property: &w.property,
                        round: w.round,
                        schedule: w.schedule.summary(),
                    })
                    .collect(),
            },
        }
    }

    /// Canonical pretty-printed JSON (via [`crate::json`]) — byte-identical
    /// across runs and job counts for the same design and configuration.
    ///
    /// # Errors
    ///
    /// Propagates serialization failures.
    pub fn canonical_json(&self) -> Result<String, crate::json::JsonError> {
        crate::json::to_json_pretty(&self.canonical())
    }
}

/// Timing-free view of an [`AnalysisReport`] (see
/// [`AnalysisReport::canonical`]).
#[derive(Debug, Serialize)]
pub struct CanonicalReport<'a> {
    /// Stage names and one-line summaries, in pipeline order.
    pub stages: Vec<CanonicalStage<'a>>,
    /// Static lint findings.
    pub lint: &'a LintReport,
    /// Extraction summary.
    pub extraction: &'a ExtractionSummary,
    /// Concolic outcome, minus timing.
    pub concolic: CanonicalConcolic<'a>,
}

/// One stage of a [`CanonicalReport`]: name and summary, no timing.
#[derive(Debug, Serialize)]
pub struct CanonicalStage<'a> {
    /// Stage name.
    pub stage: &'a str,
    /// One-line summary.
    pub detail: &'a str,
    /// Stage health (degradation reasons are deterministic, so they
    /// belong to the canonical view).
    pub health: &'a Health,
}

/// Timing-free view of a [`ConcolicReport`].
#[derive(Debug, Serialize)]
pub struct CanonicalConcolic<'a> {
    /// Rounds executed.
    pub rounds: usize,
    /// Total coverage targets.
    pub targets_total: usize,
    /// Targets covered.
    pub targets_covered: usize,
    /// Targets proven unreachable.
    pub targets_unreachable: usize,
    /// Solver invocations (job-count invariant).
    pub solver_calls: usize,
    /// Of which SAT.
    pub solver_sat: usize,
    /// Flip solves abandoned on budget exhaustion (or injected faults).
    pub solver_unknown: usize,
    /// Flip tasks lost to worker panics under keep-going.
    pub flips_failed: usize,
    /// Rounds that lost at least one flip, hit a cap, or timed out.
    pub degraded_rounds: usize,
    /// Round of the first violation, if any.
    pub first_violation_round: Option<usize>,
    /// All distinct invalidation messages.
    pub violations: Vec<CanonicalViolation<'a>>,
    /// One witness per violated property.
    pub witnesses: Vec<CanonicalWitness<'a>>,
}

/// One violation of a [`CanonicalReport`].
#[derive(Debug, Serialize)]
pub struct CanonicalViolation<'a> {
    /// Violated property name.
    pub property: &'a str,
    /// Module blamed.
    pub module: &'a str,
    /// Cycle at which the violation was observed.
    pub cycle: u64,
    /// Human-readable details.
    pub details: &'a str,
}

/// One witness of a [`CanonicalReport`].
#[derive(Debug, Serialize)]
pub struct CanonicalWitness<'a> {
    /// Violated property name.
    pub property: &'a str,
    /// Round (1-based) of first observation.
    pub round: usize,
    /// Rendered reproducing schedule.
    pub schedule: String,
}

/// The SoCCAR framework facade.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use soccar::{Soccar, SoccarConfig};
/// use soccar_concolic::{PropertyKind, SecurityProperty};
/// use soccar_rtl::LogicVec;
///
/// let src = "
///   module ip(input clk, input rst_n, output reg [7:0] key);
///     always @(posedge clk or negedge rst_n)
///       if (!rst_n) key <= 8'd0;   // correct: reset scrubs the key
///       else key <= 8'hA5;
///   endmodule
///   module top(input clk, input sec_rst_n);
///     ip u (.clk(clk), .rst_n(sec_rst_n));
///   endmodule";
/// let property = SecurityProperty {
///     name: "key-cleared".into(),
///     module: "ip".into(),
///     kind: PropertyKind::ClearedAfterReset {
///         domain: "top.sec_rst_n".into(),
///         signal: "top.u.key".into(),
///         expected: LogicVec::zeros(8),
///         window: 0,
///     },
/// };
/// let soccar = Soccar::new(SoccarConfig::default());
/// let report = soccar.analyze("t.v", src, "top", vec![property])?;
/// assert!(report.violations().is_empty());
/// assert_eq!(report.extraction.reset_domains, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct Soccar {
    config: SoccarConfig,
    recorder: soccar_obs::Recorder,
}

impl Soccar {
    /// Creates the framework with the given configuration.
    #[must_use]
    pub fn new(config: SoccarConfig) -> Soccar {
        Soccar {
            config,
            recorder: soccar_obs::Recorder::disabled(),
        }
    }

    /// Attaches an observability recorder: every stage of
    /// [`Soccar::analyze`] opens a span under `pipeline.analyze`, the
    /// traced variants of the stage entry points feed their counters and
    /// histograms, and worker-pool utilization lands in gauges. Snapshot
    /// the recorder after the run for the `--verbose` tree or the
    /// `--trace-out` NDJSON stream (see `docs/OBSERVABILITY.md`).
    #[must_use]
    pub fn with_recorder(mut self, recorder: soccar_obs::Recorder) -> Soccar {
        self.recorder = recorder;
        self
    }

    /// The attached recorder ([`soccar_obs::Recorder::disabled`] unless
    /// [`Soccar::with_recorder`] was called).
    #[must_use]
    pub fn recorder(&self) -> &soccar_obs::Recorder {
        &self.recorder
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &SoccarConfig {
        &self.config
    }

    /// Runs the full pipeline on Verilog source text.
    ///
    /// # Errors
    ///
    /// Propagates frontend, composition, binding, engine-setup and
    /// simulation failures.
    pub fn analyze(
        &self,
        file_name: &str,
        source: &str,
        top: &str,
        properties: Vec<SecurityProperty>,
    ) -> Result<AnalysisReport, SoccarError> {
        let stages = Stages::new(&self.config, &self.recorder);
        let analyze_span = stages.analyze_span(file_name, top);

        let frontend = stages.open("frontend");
        let mut map = SourceMap::new();
        let file = map.add_file(file_name, source);
        let unit = parse_jobs(file, source, stages.jobs(), &self.recorder)?;
        // Lint reads only the parsed unit, so at two or more jobs it runs
        // beside elaboration; its stage then times the wait for it. An
        // elaboration error drops the handle, and with it whatever lint
        // did.
        let linter = stages.linter();
        soccar_exec::with_deferred(
            stages.jobs(),
            || linter.lint_unit(&unit, &map),
            |lint| {
                let design = elaborate_traced(&unit, top, &self.recorder)?;
                let frontend = frontend.frontend(&unit, &design);

                let (lint, lint_stage) = stages.lint_with(|| lint.join());
                let (composed, ar_cfg_stage) = stages.ar_cfg(&unit, &design, top)?;
                let (concolic, concolic_stage) =
                    stages.concolic(&design, &composed.bound, properties)?;
                Ok(AnalysisReport {
                    stages: vec![frontend, lint_stage, ar_cfg_stage, concolic_stage],
                    lint,
                    extraction: composed.summary(unit.modules.len()),
                    concolic,
                    total: analyze_span.close(),
                })
            },
        )
    }
}

/// The pipeline's four stages — frontend, lint, ar_cfg, concolic — for
/// one configuration and recorder. [`Soccar::analyze`] runs them in
/// order; the incremental session runs the same stages on a cache miss
/// and rebuilds their reports from the cached products on a hit.
///
/// Stage timing and the trace share one code path: every stage is a
/// `pipeline.<stage>` span, and `SpanGuard::close` returns the
/// wall-clock duration even when the recorder is disabled, so
/// [`StageReport::elapsed`] is the span's duration by construction.
pub(crate) struct Stages<'a> {
    config: &'a SoccarConfig,
    recorder: &'a soccar_obs::Recorder,
    /// The resolved worker count ([`SoccarConfig::jobs`] after
    /// [`soccar_exec::resolve_jobs`]).
    jobs: usize,
}

impl<'a> Stages<'a> {
    pub(crate) fn new(config: &'a SoccarConfig, recorder: &'a soccar_obs::Recorder) -> Stages<'a> {
        Stages {
            config,
            recorder,
            jobs: soccar_exec::resolve_jobs(Some(config.jobs)),
        }
    }

    /// The resolved worker count.
    pub(crate) fn jobs(&self) -> usize {
        self.jobs
    }

    /// Opens the `pipeline.analyze` span every stage nests under.
    pub(crate) fn analyze_span(&self, file_name: &str, top: &str) -> soccar_obs::SpanGuard {
        soccar_obs::span!(
            self.recorder,
            "pipeline.analyze",
            file = file_name,
            top = top,
            jobs = self.jobs
        )
    }

    /// Opens the `pipeline.<name>` span of one stage.
    pub(crate) fn open(&self, name: &'static str) -> Stage {
        Stage {
            name,
            span: self.recorder.span(&format!("pipeline.{name}")),
        }
    }

    /// The configured [`Linter`] of stage 0, the static lint pre-pass
    /// (structural reset-domain checks).
    pub(crate) fn linter(&self) -> Linter {
        Linter::new()
            .with_naming(self.config.naming.clone())
            .with_config(self.config.lint.clone())
            .with_jobs(self.jobs)
    }

    /// The lint stage around `run`, which yields the [`Stages::linter`]
    /// findings: [`Soccar::analyze`] joins the lint it started beside
    /// elaboration, and the incremental session lints only what its lint
    /// tier cannot supply.
    pub(crate) fn lint_with(&self, run: impl FnOnce() -> LintReport) -> (LintReport, StageReport) {
        let stage = self.open("lint");
        let lint = run();
        self.recorder
            .counter_add("lint.diagnostics", lint.diagnostics.len() as u64);
        let report = stage.finish(lint.summary(), None, Health::Ok);
        (lint, report)
    }

    /// Stages 1+2: AR_CFG generation and composition (Algorithms 1–2),
    /// then binding onto the elaborated design. Per-module extraction
    /// fans out across the worker pool (keep-going aware); the compose
    /// step stays serial and consumes modules in source order.
    pub(crate) fn ar_cfg(
        &self,
        unit: &SourceUnit,
        design: &Design,
        top: &str,
    ) -> Result<(ComposedSoc, StageReport), SoccarError> {
        let stage = self.open("ar_cfg");
        let policy = if self.config.keep_going {
            soccar_exec::FailurePolicy::KeepGoing
        } else {
            soccar_exec::FailurePolicy::FailFast
        };
        let (soc, extract, degraded) = compose_soc_resilient(
            unit,
            top,
            &self.config.naming,
            self.config.analysis,
            self.jobs,
            policy,
            &self.config.fault_plan,
            self.recorder,
        )
        .map_err(SoccarError::Cfg)?;
        let bound = bind_events_traced(design, &soc, self.recorder)
            .map_err(|e| SoccarError::Cfg(e.to_string()))?;
        self.record_pool_stats("exec.extract", &extract);
        let composed = ComposedSoc {
            soc,
            bound,
            extract,
            degraded,
        };
        let report = stage.ar_cfg(&composed);
        Ok((composed, report))
    }

    /// Stage 3: concolic testing (Algorithm 3). The one place the
    /// pipeline-level `jobs`, `keep_going` and `fault_plan` merge into
    /// the engine's [`ConcolicConfig`].
    pub(crate) fn concolic(
        &self,
        design: &Design,
        bound: &[BoundEvent],
        properties: Vec<SecurityProperty>,
    ) -> Result<(ConcolicReport, StageReport), SoccarError> {
        let stage = self.open("concolic");
        let mut config = self.config.concolic.clone();
        config.jobs = self.jobs;
        if self.config.keep_going {
            config.failure_policy = soccar_exec::FailurePolicy::KeepGoing;
        }
        if config.fault_plan.is_empty() {
            config.fault_plan = self.config.fault_plan.clone();
        }
        let mut engine = ConcolicEngine::new(design, bound, properties, config)
            .map_err(SoccarError::Config)?
            .with_recorder(self.recorder.clone());
        let concolic = engine.run()?;
        self.record_pool_stats("exec.flips", &concolic.flip_exec);
        self.record_pool_stats("exec.sweep", &concolic.sweep_exec);
        let report = stage.concolic(&concolic);
        Ok((concolic, report))
    }

    /// Records one parallel stage's pool counters. Task counts are
    /// deterministic (the fan-out never depends on worker count) and go
    /// into a counter; the worker count and wall-clock-derived values are
    /// gauges, which every canonical serialization drops.
    fn record_pool_stats(&self, prefix: &str, stats: &soccar_exec::PoolStats) {
        self.recorder
            .counter_add(&format!("{prefix}.tasks"), stats.tasks as u64);
        self.recorder
            .gauge_set(&format!("{prefix}.jobs"), stats.jobs as f64);
        self.recorder
            .gauge_set(&format!("{prefix}.busy_secs"), stats.busy.as_secs_f64());
        self.recorder
            .gauge_set(&format!("{prefix}.utilization"), stats.utilization());
    }
}

/// One pipeline stage in flight (see [`Stages::open`]). Each finishing
/// method closes the span and builds that stage's report from the
/// stage's product, whether just computed or cached.
pub(crate) struct Stage {
    name: &'static str,
    span: soccar_obs::SpanGuard,
}

impl Stage {
    fn finish(self, detail: String, exec: Option<ExecSummary>, health: Health) -> StageReport {
        StageReport {
            stage: self.name.into(),
            elapsed: self.span.close(),
            detail,
            exec,
            health,
        }
    }

    pub(crate) fn frontend(self, unit: &SourceUnit, design: &Design) -> StageReport {
        let detail = format!("{} modules; {}", unit.modules.len(), design.stats());
        self.finish(detail, None, Health::Ok)
    }

    pub(crate) fn ar_cfg(self, composed: &ComposedSoc) -> StageReport {
        let soc = &composed.soc;
        let detail = format!(
            "{} reset-governed events across {} instances; {} reset domains",
            soc.event_count(),
            soc.instances.len(),
            soc.reset_domains.len()
        );
        self.finish(
            detail,
            Some(ExecSummary::from(&composed.extract)),
            Health::from_reasons(composed.degraded.clone()),
        )
    }

    pub(crate) fn concolic(self, concolic: &ConcolicReport) -> StageReport {
        let detail = format!(
            "{} rounds, {}/{} targets covered, {} violations",
            concolic.rounds,
            concolic.targets_covered,
            concolic.targets_total,
            concolic.violations.len()
        );
        self.finish(
            detail,
            Some(ExecSummary::from(&concolic.sweep_exec)),
            Health::from_reasons(concolic.degraded_reasons.clone()),
        )
    }
}

/// The ar_cfg stage's product: the composed SoC AR_CFG, its events bound
/// onto the elaborated design, and the extraction pool's counters and
/// lost modules.
#[derive(Debug)]
pub(crate) struct ComposedSoc {
    pub(crate) soc: SocArCfg,
    pub(crate) bound: Vec<BoundEvent>,
    extract: soccar_exec::PoolStats,
    degraded: Vec<String>,
}

impl ComposedSoc {
    /// The report's extraction summary for a source of `modules` modules.
    pub(crate) fn summary(&self, modules: usize) -> ExtractionSummary {
        ExtractionSummary {
            modules,
            instances: self.soc.instances.len(),
            ar_events: self.soc.event_count(),
            reset_domains: self.soc.reset_domains.len(),
            bound_events: self.bound.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soccar_concolic::{PropertyKind, SecurityProperty};
    use soccar_rtl::LogicVec;

    const LEAKY: &str = "
        module ip(input clk, input rst_n, output reg [7:0] key);
          always @(posedge clk or negedge rst_n)
            if (!rst_n) key <= key;   // BUG: not scrubbed
            else key <= 8'hA5;
        endmodule
        module top(input clk, input sec_rst_n);
          ip u (.clk(clk), .rst_n(sec_rst_n));
        endmodule";

    fn key_property() -> SecurityProperty {
        SecurityProperty {
            name: "key-cleared".into(),
            module: "ip".into(),
            kind: PropertyKind::ClearedAfterReset {
                domain: "top.sec_rst_n".into(),
                signal: "top.u.key".into(),
                expected: LogicVec::zeros(8),
                window: 0,
            },
        }
    }

    #[test]
    fn pipeline_detects_and_reports_stages() {
        let soccar = Soccar::new(SoccarConfig::default());
        let report = soccar
            .analyze("t.v", LEAKY, "top", vec![key_property()])
            .expect("analyze");
        assert_eq!(report.stages.len(), 4);
        assert_eq!(report.stages[0].stage, "frontend");
        assert_eq!(report.stages[1].stage, "lint");
        assert_eq!(report.stages[2].stage, "ar_cfg");
        assert_eq!(report.stages[3].stage, "concolic");
        assert_eq!(report.extraction.ar_events, 1);
        assert_eq!(report.extraction.reset_domains, 1);
        assert_eq!(report.violations().len(), 1);
        assert_eq!(report.violations()[0].module, "ip");
        assert!(report.total >= report.stages[3].elapsed);
    }

    #[test]
    fn lint_pre_pass_flags_the_unscrubbed_key() {
        // The LEAKY design's reset arm re-assigns `key` to itself, so the
        // partial-reset-domain structural diff stays silent; the Info-level
        // secondary check and the pipeline plumbing are what we assert here.
        let soccar = Soccar::new(SoccarConfig::default());
        let report = soccar
            .analyze("t.v", LEAKY, "top", vec![key_property()])
            .expect("analyze");
        let stage = report
            .stages
            .iter()
            .find(|s| s.stage == "lint")
            .expect("lint stage present");
        assert_eq!(stage.detail, report.lint.summary());
    }

    #[test]
    fn lint_config_flows_through_the_pipeline() {
        let mut config = SoccarConfig::default();
        config.lint.allow = vec![
            "async-reset-unsynchronized".into(),
            "combinational-reset-gen".into(),
            "implicit-governor".into(),
            "partial-reset-domain".into(),
            "reset-crosses-domains".into(),
            "reset-name-shadowing".into(),
        ];
        let report = Soccar::new(config)
            .analyze("t.v", LEAKY, "top", vec![key_property()])
            .expect("analyze");
        assert!(report.lint.diagnostics.is_empty());
    }

    #[test]
    fn parallel_stages_report_exec_counters() {
        let config = SoccarConfig {
            jobs: 2,
            ..SoccarConfig::default()
        };
        let report = Soccar::new(config)
            .analyze("t.v", LEAKY, "top", vec![key_property()])
            .expect("analyze");
        assert!(report.stages[0].exec.is_none());
        assert!(report.stages[1].exec.is_none());
        let extract = report.stages[2].exec.as_ref().expect("ar_cfg exec");
        // A design below `MIN_FANOUT_BYTES` is extracted inline.
        assert_eq!(extract.jobs, 1);
        assert_eq!(extract.tasks, 2); // ip + top modules

        // The concolic stage's one fan-out is the sweep: one task per
        // pulse position of the single domain.
        let sweep = report.stages[3].exec.as_ref().expect("concolic exec");
        let cycles = SoccarConfig::default().concolic.cycles as usize;
        assert_eq!(sweep.tasks, cycles - 1);
        assert_eq!(sweep.jobs, 2);
        assert_eq!(sweep.tasks, report.concolic.sweep_exec.tasks);
    }

    #[test]
    fn canonical_json_is_job_count_invariant() {
        let run = |jobs: usize| {
            let config = SoccarConfig {
                jobs,
                ..SoccarConfig::default()
            };
            Soccar::new(config)
                .analyze("t.v", LEAKY, "top", vec![key_property()])
                .expect("analyze")
                .canonical_json()
                .expect("canonical json")
        };
        let serial = run(1);
        assert_eq!(serial, run(4));
        // The canonical view carries results but no wall-clock fields.
        assert!(serial.contains("\"violations\""));
        assert!(!serial.contains("elapsed"));
        assert!(!serial.contains("busy_secs"));
    }

    #[test]
    fn healthy_run_reports_ok_everywhere() {
        let report = Soccar::new(SoccarConfig::default())
            .analyze("t.v", LEAKY, "top", vec![key_property()])
            .expect("analyze");
        assert!(!report.is_degraded());
        assert_eq!(report.health(), Health::Ok);
        assert!(report.stages.iter().all(|s| s.health == Health::Ok));
        let json = report.canonical_json().expect("json");
        assert!(json.contains("\"status\": \"ok\""));
        assert!(!json.contains("\"status\": \"degraded\""));
    }

    /// LEAKY with a data-guarded branch in the reset arm, so the engine
    /// has flip candidates for the fault plan's `solver_unknown` point.
    const LEAKY_GUARDED: &str = "
        module ip(input clk, input rst_n, input [7:0] magic, output reg [7:0] key);
          always @(posedge clk or negedge rst_n)
            if (!rst_n) begin
              if (magic == 8'h5A) key <= key;   // BUG: not scrubbed
            end else key <= 8'hA5;
        endmodule
        module top(input clk, input sec_rst_n, input [7:0] magic);
          ip u (.clk(clk), .rst_n(sec_rst_n), .magic(magic));
        endmodule";

    #[test]
    fn injected_faults_degrade_health_without_losing_the_bug() {
        let config = SoccarConfig {
            keep_going: true,
            fault_plan: soccar_exec::FaultPlan::parse("solver_unknown@1").expect("plan"),
            concolic: ConcolicConfig {
                symbolic_inputs: vec!["top.magic".into()],
                ..ConcolicConfig::default()
            },
            ..SoccarConfig::default()
        };
        let report = Soccar::new(config)
            .analyze("t.v", LEAKY_GUARDED, "top", vec![key_property()])
            .expect("analyze");
        assert!(report.is_degraded(), "stages: {:?}", report.stages);
        let health = report.health();
        assert!(health
            .reasons()
            .iter()
            .any(|r| r.starts_with("concolic: ") && r.contains("solver_unknown@1")));
        // Degradation loses coverage, never detections.
        assert_eq!(report.violations().len(), 1);
        let json = report.canonical_json().expect("json");
        assert!(json.contains("\"status\": \"degraded\""));
        assert!(json.contains("solver_unknown@1"));
    }

    #[test]
    fn extraction_faults_keep_going_and_degrade_ar_cfg_stage() {
        let config = SoccarConfig {
            keep_going: true,
            // Module index 1 is `ip` — the only reset-governed module.
            fault_plan: soccar_exec::FaultPlan::parse("task_panic@extract:1").expect("plan"),
            ..SoccarConfig::default()
        };
        let report = Soccar::new(config)
            .analyze("t.v", LEAKY, "top", vec![key_property()])
            .expect("analyze");
        let ar_cfg = report
            .stages
            .iter()
            .find(|s| s.stage == "ar_cfg")
            .expect("ar_cfg stage");
        assert!(ar_cfg.health.is_degraded(), "stages: {:?}", report.stages);
        assert!(ar_cfg.health.reasons()[0].contains("module `ip`"));
        // The dropped module contributed nothing, so no targets exist —
        // degraded coverage, not an abort.
        assert_eq!(report.extraction.ar_events, 0);
    }

    #[test]
    fn pipeline_errors_are_typed() {
        let soccar = Soccar::new(SoccarConfig::default());
        assert!(matches!(
            soccar.analyze("t.v", "module broken(", "broken", vec![]),
            Err(SoccarError::Rtl(_))
        ));
        assert!(matches!(
            soccar.analyze("t.v", "module a(input x); endmodule", "missing", vec![]),
            Err(SoccarError::Rtl(_))
        ));
    }
}
