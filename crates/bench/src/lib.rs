//! # soccar-bench
//!
//! The benchmark harness: one binary per table/figure of the SoCCAR paper
//! (see DESIGN.md §4 for the experiment index), shared configuration
//! helpers, and the random-fuzzing baseline used by the ablation bench.
//!
//! Run `cargo run --release -p soccar-bench --bin <target>` with target one
//! of: `table1`, `table2`, `table3`, `table4`, `detection`, `figure1`,
//! `figure2`, `ablation_governor`, `ablation_init`, `ablation_baseline`.

#![warn(missing_docs)]

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use soccar::evaluation::VariantEvaluation;
use soccar::{Soccar, SoccarConfig};
use soccar_concolic::{ConcolicConfig, PropertyMonitor, SecurityProperty, Violation};
use soccar_lint::{Diagnostic, Linter};
use soccar_rtl::value::LogicVec;
use soccar_sim::{InitPolicy, Simulator};
use soccar_soc::GenSpec;
use soccar_soc::{SocDesign, SocModel};

/// The evaluation configuration used by all detection benches: paper
/// policy (all-ones registers), a 16-cycle horizon, a full sweep.
#[must_use]
pub fn paper_config() -> SoccarConfig {
    SoccarConfig {
        concolic: ConcolicConfig {
            cycles: 16,
            max_rounds: 6,
            sweep_stride: 1,
            init: InitPolicy::Ones,
            ..ConcolicConfig::default()
        },
        ..SoccarConfig::default()
    }
}

/// The reduced-rounds configuration of the CI `bench-smoke` job: a
/// shorter horizon and a strided sweep, tuned so the full variant matrix
/// finishes in seconds while still detecting every bug the full
/// configuration detects. Deterministic like every other configuration,
/// so smoke-mode `BENCH_*.json` counters can be gated exactly against
/// the baselines in `crates/bench/baselines/`.
#[must_use]
pub fn smoke_config() -> SoccarConfig {
    SoccarConfig {
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

/// The pinned configuration of the `stress` bench binary: the
/// generated-corpus recall oracle and scale records run under one fixed
/// configuration — independent of smoke/full mode — so the
/// `BENCH_gen_*.json` counters are one fixed point across every
/// invocation. Matches the reduced-rounds smoke budget (the generated
/// designs are bigger than the bundled SoCs; the budget already
/// detects every seeded bug, see `tests/gen_recall.rs`).
#[must_use]
pub fn stress_config() -> SoccarConfig {
    SoccarConfig {
        analysis: soccar_cfg::GovernorAnalysis::Explicit,
        concolic: ConcolicConfig {
            cycles: 10,
            max_rounds: 3,
            sweep_stride: 3,
            init: InitPolicy::Ones,
            ..ConcolicConfig::default()
        },
        jobs: 1,
        ..SoccarConfig::default()
    }
}

/// The ~10x stress point: scale 15 ⇒ 11·15 + 4 = 169 generated modules,
/// more than ten times ClusterSoC's 16. Analyzed in full by the stress
/// tier with detection recall gated against the ground-truth manifest.
pub const STRESS_X10: GenSpec = GenSpec {
    seed: 11,
    scale: 15,
};

/// The ~50x stress point: scale 73 ⇒ 11·73 + 4 = 807 generated modules.
/// Too large for a full concolic sweep in CI budget — the stress tier
/// runs the lint pre-pass (implicit-bug recall gated) on it instead.
pub const STRESS_X50: GenSpec = GenSpec {
    seed: 11,
    scale: 73,
};

/// Evaluates one generated design and folds the outcome into a bench
/// variant: manifest recall (`bugs`, `detected`, `missed`,
/// `false_alarms`), topology facts (`gen.modules`, `gen.clusters`,
/// `gen.reset_domains`, `gen.bugs`), and the usual concolic counters —
/// all gated. The quantized wall-clock rides along as `seconds_q`
/// (reported, never gated).
///
/// # Panics
///
/// Panics if the generated design fails to evaluate (generated designs
/// always elaborate — that is a library invariant, not a bench knob).
#[must_use]
pub fn gen_recall_variant(spec: &GenSpec, config: &SoccarConfig) -> soccar_obs::BenchVariant {
    let recorder = soccar_obs::Recorder::enabled();
    let (eval, elapsed) = recorder.time("bench.gen_recall", || {
        soccar::evaluate_generated_traced(spec, config.clone(), recorder.clone())
            .expect("generated designs always evaluate")
    });
    let snap = recorder.snapshot();
    let trace = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    let c = &eval.report.concolic;
    let mut counters = std::collections::BTreeMap::new();
    for (name, value) in [
        ("bugs", eval.recall.total as u64),
        ("detected", eval.recall.detected as u64),
        ("missed", eval.recall.missed.len() as u64),
        ("false_alarms", eval.recall.false_alarms as u64),
        ("gen.modules", u64::from(eval.manifest.modules)),
        ("gen.clusters", u64::from(spec.scale)),
        ("gen.reset_domains", u64::from(eval.manifest.reset_domains)),
        ("gen.bugs", eval.manifest.bugs.len() as u64),
        ("rounds", c.rounds as u64),
        ("solver_calls", c.solver_calls as u64),
        ("solver_sat", c.solver_sat as u64),
        ("targets_covered", c.targets_covered as u64),
        ("targets_total", c.targets_total as u64),
        // The trace-level solver counters ride along with the report's
        // own `solver_calls` (every issued flip query): `smt.queries`
        // counts the actual SAT invocations the solver front-end saw.
        ("smt.queries", trace("smt.queries")),
        ("smt.sat", trace("smt.sat")),
        ("flip_candidates", trace("concolic.flip_candidates")),
    ] {
        counters.insert(name.to_owned(), value);
    }
    soccar_obs::BenchVariant {
        variant: spec.name(),
        counters,
        timings_q: std::collections::BTreeMap::new(),
        seconds_q: soccar_obs::quantize_seconds(elapsed.as_secs_f64()),
    }
}

/// The pinned-sweep recall report (`BENCH_gen_sweep.json`): one gated
/// record per [`soccar_soc::generate::pinned_sweep`] design. A recall
/// regression shows up as a `detected`/`missed` counter diff naming the
/// exact `gen:<seed>:<scale>` design to reproduce.
///
/// # Panics
///
/// Panics if any sweep design misses a manifest bug or raises a false
/// alarm — the stress tier must fail loudly even before the baseline
/// diff runs.
#[must_use]
pub fn gen_sweep_report(config: &SoccarConfig) -> soccar_obs::BenchReport {
    let mut variants = Vec::new();
    for spec in soccar_soc::generate::pinned_sweep() {
        let v = gen_recall_variant(&spec, config);
        assert_eq!(
            v.counters["missed"],
            0,
            "{}: manifest bugs went undetected (recall gate)",
            spec.name()
        );
        assert_eq!(
            v.counters["false_alarms"],
            0,
            "{}: violations outside the manifest's detector set",
            spec.name()
        );
        variants.push(v);
    }
    soccar_obs::BenchReport {
        soc: "gen_sweep".to_owned(),
        mode: "stress".to_owned(),
        variants,
    }
}

/// The 10x-scale report (`BENCH_gen_x10.json`): [`STRESS_X10`] analyzed
/// in full. Gated like the sweep, plus an acceptance floor asserted
/// directly: ≥160 modules and at least one real solver call per
/// concolic round.
///
/// # Panics
///
/// Panics on a recall miss, a false alarm, fewer than 160 modules, or a
/// round that drove no solver call.
#[must_use]
pub fn gen_x10_report(config: &SoccarConfig) -> soccar_obs::BenchReport {
    let v = gen_recall_variant(&STRESS_X10, config);
    assert!(
        v.counters["gen.modules"] >= 160,
        "the 10x stress design shrank below 10x ClusterSoC ({} modules)",
        v.counters["gen.modules"]
    );
    assert_eq!(v.counters["missed"], 0, "10x recall gate");
    assert_eq!(v.counters["false_alarms"], 0, "10x false-alarm gate");
    // ≥1 real solver call per concolic (flip-planning) round. The
    // report's `solver_calls` now counts every issued flip query
    // (consumed or speculative), so the gate reads it directly.
    let flip_rounds = config.concolic.max_rounds as u64;
    assert!(
        v.counters["solver_calls"] >= flip_rounds && v.counters["flip_candidates"] > 0,
        "the 10x design must drive ≥1 real solver call per round \
         ({} calls / {} candidates over {} flip rounds)",
        v.counters["solver_calls"],
        v.counters["flip_candidates"],
        flip_rounds
    );
    soccar_obs::BenchReport {
        soc: "gen_x10".to_owned(),
        mode: "stress".to_owned(),
        variants: vec![v],
    }
}

/// The 50x-scale report (`BENCH_gen_x50.json`): one `lint_recall`
/// record on [`STRESS_X50`] — the lint pre-pass over all ~800 modules,
/// with the manifest's implicit (lint-stage) bugs gated fully flagged.
///
/// # Panics
///
/// Panics if a manifest lint-stage bug goes unflagged.
#[must_use]
pub fn gen_x50_report() -> soccar_obs::BenchReport {
    let soc = soccar_soc::generate::generate(&STRESS_X50);
    let recorder = soccar_obs::Recorder::disabled();

    // Lint recall over the whole generated corpus at 50x.
    let (diagnostics, lint_elapsed) =
        recorder.time("bench.gen_x50.lint", || lint_soc("gen_x50.v", &soc.source));
    let flagged: BTreeSet<&str> = diagnostics
        .iter()
        .filter(|d| d.rule == "implicit-governor")
        .map(|d| d.module.as_str())
        .collect();
    let implicit: Vec<_> = soc.manifest.bugs.iter().filter(|b| b.implicit).collect();
    for bug in &implicit {
        assert!(
            flagged.contains(bug.module.as_str()),
            "{}: implicit bug in `{}` not flagged by implicit-governor",
            soc.name,
            bug.module
        );
    }
    let mut lint_counters = std::collections::BTreeMap::new();
    lint_counters.insert("gen.modules".to_owned(), u64::from(soc.manifest.modules));
    lint_counters.insert("lint.implicit_bugs".to_owned(), implicit.len() as u64);
    lint_counters.insert(
        "lint.implicit_flagged".to_owned(),
        implicit
            .iter()
            .filter(|b| flagged.contains(b.module.as_str()))
            .count() as u64,
    );
    lint_counters.insert("lint.diagnostics".to_owned(), diagnostics.len() as u64);
    let lint_variant = soccar_obs::BenchVariant {
        variant: format!("{} lint_recall", soc.name),
        counters: lint_counters,
        timings_q: std::collections::BTreeMap::new(),
        seconds_q: soccar_obs::quantize_seconds(lint_elapsed.as_secs_f64()),
    };

    soccar_obs::BenchReport {
        soc: "gen_x50".to_owned(),
        mode: "stress".to_owned(),
        variants: vec![lint_variant],
    }
}

/// Generates a benchmark SoC (the clean baseline when `variant` is
/// `None`) and compiles it to an elaborated design — the boilerplate
/// shared by every bench binary.
///
/// # Panics
///
/// Panics if the design fails to compile (the bundled benchmarks always
/// compile; bench binaries are driver code, not a library API).
#[must_use]
pub fn compile_soc(model: SocModel, variant: Option<u32>) -> (SocDesign, soccar_rtl::Design) {
    let soc = soccar_soc::generate(model, variant);
    let (design, _) =
        soccar_rtl::compile("soc.v", &soc.source, &soc.top).expect("benchmark SoCs always compile");
    (soc, design)
}

/// Lints generated SoC source.
///
/// # Panics
///
/// Panics on parse failure (the bundled benchmarks always parse).
#[must_use]
pub fn lint_soc(name: &str, source: &str) -> Vec<Diagnostic> {
    Linter::new()
        .lint_source(name, source)
        .expect("benchmark SoCs always parse")
        .diagnostics
}

/// A diagnostic's identity for clean/seeded diffing, ignoring location
/// (line numbers shift when bugs are seeded).
#[must_use]
pub fn diagnostic_key(d: &Diagnostic) -> (String, String, String) {
    (d.rule.to_owned(), d.module.clone(), d.message.clone())
}

/// Lints a bug-seeded variant *differentially*: the clean baseline of
/// the same SoC is linted too, and only diagnostics absent from the
/// baseline are returned. Some rules intentionally fire on idioms the
/// clean benchmarks contain (e.g. the never-reset `pt_shadow` monitors);
/// the diff isolates what the seeded bugs themselves introduce.
#[must_use]
pub fn differential_lint(model: SocModel, variant: u32) -> Vec<Diagnostic> {
    let clean = soccar_soc::generate(model, None);
    let seeded = soccar_soc::generate(model, Some(variant));
    let baseline: BTreeSet<_> = lint_soc("clean.v", &clean.source)
        .iter()
        .map(diagnostic_key)
        .collect();
    lint_soc("seeded.v", &seeded.source)
        .into_iter()
        .filter(|d| !baseline.contains(&diagnostic_key(d)))
        .collect()
}

/// Evaluates every bug-seeded benchmark variant under [`paper_config`],
/// fanning the independent runs across `jobs` workers (`0` = auto, see
/// [`soccar_exec::resolve_jobs`]). Each run keeps its inner pipeline
/// serial — the parallelism budget is spent at the variant level, where
/// the work units are largest. Results come back in
/// [`soccar_soc::variants`] order for every job count.
///
/// # Panics
///
/// Panics if a benchmark variant fails to evaluate.
#[must_use]
pub fn evaluate_all_variants(jobs: usize) -> (Vec<VariantEvaluation>, soccar_exec::PoolStats) {
    evaluate_all_variants_config(jobs, &paper_config())
}

/// [`evaluate_all_variants`] under an explicit configuration (the smoke
/// mode of the CI bench job passes [`smoke_config`]).
///
/// # Panics
///
/// Panics if a benchmark variant fails to evaluate.
#[must_use]
pub fn evaluate_all_variants_config(
    jobs: usize,
    config: &SoccarConfig,
) -> (Vec<VariantEvaluation>, soccar_exec::PoolStats) {
    let specs = soccar_soc::variants();
    soccar_exec::parallel_map_stats(jobs, &specs, |spec| {
        let mut config = config.clone();
        config.jobs = 1;
        soccar::evaluate_variant(spec, config).expect("benchmark variants always evaluate")
    })
}

/// Folds a variant sweep into one [`soccar_obs::BenchReport`] per SoC
/// model, in model order, with the per-variant detection counters the CI
/// gate compares exactly: `detected`, `bugs`, `false_alarms`, `rounds`,
/// `solver_calls`, `solver_sat`, `targets_covered`, `targets_total`, and
/// the resilience counters `resilience.solver_unknown`,
/// `resilience.flips_failed`, `resilience.degraded_rounds` (all zero on
/// a healthy run — the gate catches a build that silently starts
/// degrading). The quantized verification time rides along as
/// `seconds_q` (reported, never gated).
///
/// `evals` must be in [`soccar_soc::variants`] order (what
/// [`evaluate_all_variants`] returns).
#[must_use]
pub fn bench_reports(evals: &[VariantEvaluation], mode: &str) -> Vec<soccar_obs::BenchReport> {
    let specs = soccar_soc::variants();
    assert_eq!(specs.len(), evals.len(), "one evaluation per variant spec");
    let mut reports: Vec<soccar_obs::BenchReport> = Vec::new();
    for (spec, eval) in specs.iter().zip(evals) {
        let soc = format!("{:?}", spec.soc).to_lowercase();
        if reports.last().map(|r| r.soc.as_str()) != Some(soc.as_str()) {
            reports.push(soccar_obs::BenchReport {
                soc,
                mode: mode.to_owned(),
                variants: Vec::new(),
            });
        }
        let mut counters = std::collections::BTreeMap::new();
        let c = &eval.report.concolic;
        for (name, value) in [
            ("detected", eval.detected() as u64),
            ("bugs", eval.outcomes.len() as u64),
            ("false_alarms", eval.false_alarms.len() as u64),
            ("rounds", c.rounds as u64),
            ("solver_calls", c.solver_calls as u64),
            ("solver_sat", c.solver_sat as u64),
            ("targets_covered", c.targets_covered as u64),
            ("targets_total", c.targets_total as u64),
            ("resilience.solver_unknown", c.solver_unknown as u64),
            ("resilience.flips_failed", c.flips_failed as u64),
            ("resilience.degraded_rounds", c.degraded_rounds as u64),
        ] {
            counters.insert(name.to_owned(), value);
        }
        reports
            .last_mut()
            .expect("pushed above")
            .variants
            .push(soccar_obs::BenchVariant {
                variant: eval.variant.clone(),
                counters,
                timings_q: std::collections::BTreeMap::new(),
                seconds_q: soccar_obs::quantize_seconds(eval.verification_time().as_secs_f64()),
            });
    }
    reports
}

/// Builds the frozen one-round [`soccar_concolic::FlipWorkload`] for a
/// bundled SoC under `config` — the input of the `flip_solving`
/// benchmark.
///
/// # Panics
///
/// Panics if the bundled SoC fails to compile or simulate (bench driver
/// code, not a library API).
#[must_use]
pub fn flip_workload(model: SocModel, config: &SoccarConfig) -> soccar_concolic::FlipWorkload {
    let soc = soccar_soc::generate(model, None);
    let unit = soccar_rtl::parser::parse(soccar_rtl::span::FileId(0), &soc.source)
        .expect("benchmark SoCs always parse");
    let design =
        soccar_rtl::elaborate::elaborate(&unit, &soc.top).expect("benchmark SoCs always elaborate");
    let arcfg = soccar_cfg::compose_soc(
        &unit,
        &soc.top,
        &soccar_cfg::ResetNaming::new(),
        config.analysis,
    )
    .expect("benchmark SoCs always compose");
    let bound = soccar_cfg::bind_events(&design, &arcfg).expect("benchmark SoCs always bind");
    let mut concolic = config.concolic.clone();
    concolic.symbolic_inputs = soccar_soc::symbolic_inputs(model);
    let engine = soccar_concolic::ConcolicEngine::new(&design, &bound, Vec::new(), concolic)
        .expect("benchmark SoCs always build an engine");
    engine
        .flip_workload()
        .expect("benchmark SoCs always simulate")
}

/// Outcome of one `flip_solving` run: the synthetic bench variant
/// recorded into `BENCH_<soc>.json` plus the raw (unquantized) timing.
#[derive(Debug, Clone)]
pub struct FlipSolvingRecord {
    /// The `flip_solving` record appended to the SoC's bench report:
    /// the deterministic counters `flip_candidates` and `flip_sat` are
    /// gated; the `flip_oneshot_q` timing is reported only.
    pub variant: soccar_obs::BenchVariant,
    /// Wall-clock of one pass over the candidates (best of five).
    pub oneshot: std::time::Duration,
}

/// How many flip candidates the `flip_solving` benchmark solves per SoC.
/// Large enough that the shared path prefix dominates and the window
/// spans gate-bearing branch conditions (comparisons, not just 1-bit
/// guards), small enough to stay in benchmark budget.
pub const FLIP_SOLVING_CAP: usize = 256;

/// Runs the `flip_solving` record for one SoC model: solves the frozen
/// flip candidates of the SoC's first round, one one-shot query each,
/// and returns the bench record.
///
/// # Panics
///
/// Panics if two passes over the same candidates disagree on the SAT
/// count (flip solving must be deterministic).
#[must_use]
pub fn flip_solving_record(model: SocModel, config: &SoccarConfig) -> FlipSolvingRecord {
    let workload = flip_workload(model, config);
    let cap = FLIP_SOLVING_CAP;
    // Criterion-style timing: one warm-up pass, then the best of a few
    // runs (the timing is reported, never gated, so "best" beats "one
    // noisy sample"). The span API is the one timing code path (see
    // `detection.rs`).
    let recorder = soccar_obs::Recorder::disabled();
    let solve = || workload.solve(cap, &recorder);
    let (sat, mut oneshot) = recorder.time("bench.flip_solving.warmup", solve);
    for _ in 0..4 {
        let (again, t) = recorder.time("bench.flip_solving.run", solve);
        assert_eq!(sat, again, "{model:?}: flip solving is not deterministic");
        oneshot = oneshot.min(t);
    }
    let mut counters = std::collections::BTreeMap::new();
    counters.insert(
        "flip_candidates".to_owned(),
        workload.candidates(cap) as u64,
    );
    counters.insert("flip_sat".to_owned(), sat as u64);
    let mut timings_q = std::collections::BTreeMap::new();
    timings_q.insert(
        "flip_oneshot_q".to_owned(),
        soccar_obs::quantize_seconds(oneshot.as_secs_f64()),
    );
    FlipSolvingRecord {
        variant: soccar_obs::BenchVariant {
            variant: format!("{model:?} flip_solving"),
            counters,
            timings_q,
            seconds_q: soccar_obs::quantize_seconds(oneshot.as_secs_f64()),
        },
        oneshot,
    }
}

/// Outcome of one `incremental_reanalysis` comparison: the bench variant
/// recorded into `BENCH_<soc>.json` plus the raw timings for speedup
/// reporting.
#[derive(Debug, Clone)]
pub struct ReanalysisRecord {
    /// The record appended to the SoC's bench report. Gated counters:
    /// `modules_total`, `modules_reparsed` (exactly 1 after the
    /// single-module edit), `modules_reextracted` (all modules: the edit
    /// misses the design tier), `repeat_report_hit`,
    /// `repeat_targets_rerun` (0). Timings (`cold_q`, `warm_q`,
    /// `repeat_q`) are reported only.
    pub variant: soccar_obs::BenchVariant,
    /// Wall-clock of the cold batch analysis of the edited source.
    pub cold: std::time::Duration,
    /// Wall-clock of the warm incremental re-analysis after the edit.
    pub warm: std::time::Duration,
    /// Wall-clock of repeating the identical request (report-tier hit).
    pub repeat: std::time::Duration,
}

impl ReanalysisRecord {
    /// Cold time over warm time after the edit. Bounded by the
    /// structural-tier savings: a semantic edit re-runs concolic in full
    /// (a selective re-run could not stay byte-identical to the batch
    /// pipeline — its round and solver counters are global), so expect
    /// modest wins here and the dramatic one from [`Self::repeat_speedup`].
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.cold.as_secs_f64() / self.warm.as_secs_f64().max(1e-9)
    }

    /// Cold time over repeat time — the cached-serving win.
    #[must_use]
    pub fn repeat_speedup(&self) -> f64 {
        self.cold.as_secs_f64() / self.repeat.as_secs_f64().max(1e-9)
    }
}

/// Applies the bench's canonical single-module edit: an inert driven
/// wire appended to the **first** module of `source`. Comments would not
/// change the structural fingerprint (they must not — that is what the
/// session's design tier keys on), so the edit adds real structure
/// while leaving behaviour untouched.
#[must_use]
pub fn single_module_edit(source: &str) -> String {
    source.replacen(
        "endmodule",
        "  wire bench_probe_unused;\n  assign bench_probe_unused = 1'b0;\nendmodule",
        1,
    )
}

/// Runs the `incremental_reanalysis` comparison for one SoC model: a
/// warm [`soccar::AnalysisSession`] re-analyzes the SoC after a
/// single-module edit, against a cold batch run of the same edited
/// source. The warm pass must re-parse exactly **one** module, extract
/// all of them on the design-tier miss (both gated) and produce a
/// byte-identical canonical report (asserted); the cold/warm timings are
/// reported, never gated.
///
/// # Panics
///
/// Panics if the warm report diverges from the cold batch report, or if
/// the edit fails to localize to one module.
#[must_use]
pub fn incremental_reanalysis_record(model: SocModel, config: &SoccarConfig) -> ReanalysisRecord {
    let soc = soccar_soc::generate(model, None);
    let edited = single_module_edit(&soc.source);
    assert_ne!(edited, soc.source, "the edit must land");
    let properties: Vec<SecurityProperty> = soccar_soc::security_checks(model)
        .iter()
        .map(soccar::property_of)
        .collect();
    let mut config = config.clone();
    config.concolic.symbolic_inputs = soccar_soc::symbolic_inputs(model);
    config.jobs = 1;
    let file = format!("{model:?}.v").to_lowercase();

    let recorder = soccar_obs::Recorder::disabled();
    // Criterion-style: best of a few runs for both sides (the timings
    // are reported, never gated, so "best" beats "one noisy sample").
    const RUNS: usize = 3;
    // Cold: the batch pipeline on the edited source, from nothing.
    let (cold_report, mut cold) = recorder.time("bench.reanalysis.cold", || {
        Soccar::new(config.clone())
            .analyze(&file, &edited, &soc.top, properties.clone())
            .expect("benchmark SoCs always analyze")
    });
    for _ in 1..RUNS {
        let (_, t) = recorder.time("bench.reanalysis.cold", || {
            Soccar::new(config.clone())
                .analyze(&file, &edited, &soc.top, properties.clone())
                .expect("benchmark SoCs always analyze")
        });
        cold = cold.min(t);
    }
    // Warm: a session primed with the pre-edit design re-analyzes. Each
    // run primes a fresh session (untimed) so the timed request always
    // sees warm structural tiers but no cached result for the edit.
    let mut best: Option<(
        (soccar::AnalysisReport, soccar::RequestStats),
        std::time::Duration,
        soccar::AnalysisSession,
    )> = None;
    for _ in 0..RUNS {
        let mut session = soccar::AnalysisSession::new(config.clone());
        session
            .analyze_with_config(&file, &soc.source, &soc.top, properties.clone(), &config)
            .expect("benchmark SoCs always analyze");
        let (outcome, t) = recorder.time("bench.reanalysis.warm", || {
            session
                .analyze_with_config(&file, &edited, &soc.top, properties.clone(), &config)
                .expect("benchmark SoCs always analyze")
        });
        if best.as_ref().map_or(true, |(_, b, _)| t < *b) {
            best = Some((outcome, t, session));
        }
    }
    let ((warm_report, stats), warm, mut session) = best.expect("RUNS > 0");
    assert_eq!(
        stats.modules_reparsed, 1,
        "{model:?}: the single-module edit must re-parse exactly one module"
    );
    assert_eq!(
        stats.modules_reextracted, stats.modules_total,
        "{model:?}: the design-tier miss must extract every module"
    );
    assert_eq!(
        warm_report.canonical_json().expect("canonical json"),
        cold_report.canonical_json().expect("canonical json"),
        "{model:?}: warm incremental re-analysis diverged from the cold batch"
    );
    // Repeat: the identical request again is a pure report-tier hit.
    let ((_, repeat_stats), repeat) = recorder.time("bench.reanalysis.repeat", || {
        session
            .analyze_with_config(&file, &edited, &soc.top, properties.clone(), &config)
            .expect("benchmark SoCs always analyze")
    });
    let mut counters = std::collections::BTreeMap::new();
    counters.insert("modules_total".to_owned(), stats.modules_total as u64);
    counters.insert("modules_reparsed".to_owned(), stats.modules_reparsed as u64);
    counters.insert(
        "modules_reextracted".to_owned(),
        stats.modules_reextracted as u64,
    );
    counters.insert(
        "repeat_report_hit".to_owned(),
        u64::from(repeat_stats.report_cache_hit),
    );
    counters.insert(
        "repeat_targets_rerun".to_owned(),
        repeat_stats.targets_rerun as u64,
    );
    let mut timings_q = std::collections::BTreeMap::new();
    timings_q.insert(
        "cold_q".to_owned(),
        soccar_obs::quantize_seconds(cold.as_secs_f64()),
    );
    timings_q.insert(
        "warm_q".to_owned(),
        soccar_obs::quantize_seconds(warm.as_secs_f64()),
    );
    timings_q.insert(
        "repeat_q".to_owned(),
        soccar_obs::quantize_seconds(repeat.as_secs_f64()),
    );
    ReanalysisRecord {
        variant: soccar_obs::BenchVariant {
            variant: format!("{model:?} incremental_reanalysis"),
            counters,
            timings_q,
            seconds_q: soccar_obs::quantize_seconds((cold + warm).as_secs_f64()),
        },
        cold,
        warm,
        repeat,
    }
}

/// Appends the serving-oriented `incremental_reanalysis` record to every
/// SoC's bench report. Returns the records for speedup reporting.
pub fn append_serving_records(
    reports: &mut [soccar_obs::BenchReport],
    config: &SoccarConfig,
) -> Vec<(SocModel, ReanalysisRecord)> {
    let mut out = Vec::new();
    for report in reports {
        let model = match report.soc.as_str() {
            "clustersoc" => SocModel::ClusterSoc,
            "autosoc" => SocModel::AutoSoc,
            other => panic!("no bundled SoC model for bench report `{other}`"),
        };
        let record = incremental_reanalysis_record(model, config);
        report.variants.push(record.variant.clone());
        out.push((model, record));
    }
    out
}

/// Appends one `flip_solving` variant to every SoC's bench report and
/// returns the records (for speedup reporting). `reports` must cover
/// each SoC at most once (what [`bench_reports`] produces).
pub fn append_flip_solving(
    reports: &mut [soccar_obs::BenchReport],
    config: &SoccarConfig,
) -> Vec<(SocModel, FlipSolvingRecord)> {
    let mut out = Vec::new();
    for report in reports {
        let model = match report.soc.as_str() {
            "clustersoc" => SocModel::ClusterSoc,
            "autosoc" => SocModel::AutoSoc,
            other => panic!("no bundled SoC model for bench report `{other}`"),
        };
        let record = flip_solving_record(model, config);
        report.variants.push(record.variant.clone());
        out.push((model, record));
    }
    out
}

/// Writes every report into `dir` (created if absent) and returns the
/// written paths.
///
/// # Errors
///
/// Propagates filesystem errors, prefixed with the offending path.
pub fn write_bench_reports(
    dir: &std::path::Path,
    reports: &[soccar_obs::BenchReport],
) -> Result<Vec<std::path::PathBuf>, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths = Vec::new();
    for report in reports {
        let path = dir.join(report.file_name());
        std::fs::write(&path, report.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
        paths.push(path);
    }
    Ok(paths)
}

/// Gates freshly generated reports against the checked-in baselines in
/// `dir`: every counter must match exactly (`_q` timings are skipped, see
/// [`soccar_obs::diff_against_baseline`]). Returns all mismatch descriptions —
/// empty means the gate passes. A missing baseline file is itself a
/// mismatch, so adding a SoC model forces a baseline refresh.
#[must_use]
pub fn check_bench_baselines(
    dir: &std::path::Path,
    reports: &[soccar_obs::BenchReport],
) -> Vec<String> {
    let mut problems = Vec::new();
    for report in reports {
        let path = dir.join(report.file_name());
        match std::fs::read_to_string(&path) {
            Err(e) => problems.push(format!("{}: {e}", path.display())),
            Ok(baseline) => problems.extend(
                soccar_obs::diff_against_baseline(&report.to_json(), &baseline)
                    .into_iter()
                    .map(|d| format!("{}: {d}", path.display())),
            ),
        }
    }
    problems
}

/// Common bench-binary flags.
#[derive(Debug, Clone, Default)]
pub struct BenchArgs {
    /// `--jobs <n>`: worker threads (`0` = auto).
    pub jobs: usize,
    /// `--compare-jobs`: run the sweep serial then parallel and report
    /// the speedup.
    pub compare_jobs: bool,
    /// `--smoke`: run the reduced-rounds CI configuration
    /// ([`smoke_config`]) instead of [`paper_config`]. Binaries without a
    /// config knob (e.g. `table1`) accept and ignore it, so the CI job
    /// can pass one flag set to every bench.
    pub smoke: bool,
    /// `--bench-out <dir>`: where `BENCH_<soc>.json` files are written
    /// (default: the current directory).
    pub bench_out: Option<String>,
    /// `--check-baseline <dir>`: diff the generated `BENCH_*.json`
    /// counters against the baselines in `<dir>` and exit non-zero on any
    /// mismatch.
    pub check_baseline: Option<String>,
}

impl BenchArgs {
    /// The evaluation configuration this invocation asked for.
    #[must_use]
    pub fn config(&self) -> SoccarConfig {
        if self.smoke {
            smoke_config()
        } else {
            paper_config()
        }
    }

    /// The mode slug recorded in emitted `BENCH_*.json` files.
    #[must_use]
    pub fn mode(&self) -> &'static str {
        if self.smoke {
            "smoke"
        } else {
            "full"
        }
    }
}

/// Parses the common bench flags from `std::env::args`.
///
/// # Panics
///
/// Panics on a malformed or unknown argument.
#[must_use]
pub fn bench_args() -> BenchArgs {
    let mut out = BenchArgs::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--jobs" => {
                let v = args.next().expect("--jobs needs a value");
                out.jobs = v.parse().expect("--jobs takes a number");
            }
            "--compare-jobs" => out.compare_jobs = true,
            "--smoke" => out.smoke = true,
            "--bench-out" => out.bench_out = Some(args.next().expect("--bench-out needs a value")),
            "--check-baseline" => {
                out.check_baseline = Some(args.next().expect("--check-baseline needs a value"));
            }
            other => panic!(
                "unexpected argument `{other}` (options: --jobs <n>, --compare-jobs, \
                 --smoke, --bench-out <dir>, --check-baseline <dir>)"
            ),
        }
    }
    out
}

/// Renders a text table with aligned columns.
#[must_use]
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| {
        let mut line = String::from("| ");
        for (i, c) in cells.iter().enumerate() {
            let pad = widths.get(i).copied().unwrap_or(0);
            line.push_str(&format!("{c:<pad$} | "));
        }
        line.trim_end().to_owned()
    };
    let hdr: Vec<String> = headers.iter().map(|h| (*h).to_owned()).collect();
    out.push_str(&fmt_row(&hdr, &widths));
    out.push('\n');
    out.push('|');
    for w in &widths {
        out.push_str(&"-".repeat(w + 2));
        out.push('|');
    }
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// The **random reset-fuzzing baseline** of the `ablation_baseline` bench:
/// no AR_CFG, no solver, no systematic sweep — just random asynchronous
/// reset pulses and random data inputs for the same cycle budget, with the
/// same security monitors. This is the "dynamic validation" strawman of
/// Section III ("it is clearly prohibitive to comprehensively exercise all
/// possible reset combinations").
///
/// Returns the distinct violated property names.
///
/// # Panics
///
/// Panics if the design fails to compile or stimulate (baseline runs are
/// driver code, not a library API).
#[must_use]
pub fn random_baseline(
    model: SocModel,
    variant: u32,
    rounds: u32,
    cycles: u64,
    seed: u64,
) -> Vec<String> {
    let (_, d) = compile_soc(model, Some(variant));
    let checks = soccar_soc::security_checks(model);
    let properties: Vec<SecurityProperty> = checks.iter().map(soccar::property_of).collect();
    // Discover reset inputs and clock by name, like a fuzzing harness would.
    let naming = soccar_cfg::ResetNaming::new();
    let mut resets = Vec::new();
    let mut clocks = Vec::new();
    let mut data = Vec::new();
    for net in d.top_inputs() {
        let info = d.net(net);
        if naming.is_clock_name(&info.local_name) {
            clocks.push(net);
        } else if info.local_name.contains("rst") {
            resets.push((net, info.local_name.ends_with("_n")));
        } else {
            data.push((net, info.width));
        }
    }
    let domains: Vec<(String, bool)> = resets
        .iter()
        .map(|(n, al)| (d.net(*n).name.clone(), *al))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut violated: Vec<String> = Vec::new();
    for _ in 0..rounds {
        let mut sim = Simulator::concrete(&d, InitPolicy::Ones);
        let mut monitors: Vec<PropertyMonitor> = properties
            .iter()
            .filter_map(|p| PropertyMonitor::resolve(&d, p.clone(), &domains).ok())
            .collect();
        for (net, active_low) in &resets {
            sim.write_input(*net, LogicVec::from_u64(1, u64::from(*active_low)))
                .expect("reset");
        }
        for clk in &clocks {
            sim.write_input(*clk, LogicVec::from_u64(1, 0))
                .expect("clk");
        }
        for (net, w) in &data {
            sim.write_input(*net, LogicVec::zeros(*w)).expect("data");
        }
        sim.settle().expect("settle");
        let mut fresh: Vec<Violation> = Vec::new();
        for cycle in 0..cycles {
            // Random asynchronous pulses: each reset flips with p=1/8.
            for (net, active_low) in &resets {
                if rng.gen_ratio(1, 8) {
                    let assert_now = rng.gen_bool(0.5);
                    let v = u64::from(assert_now != *active_low);
                    sim.write_input(*net, LogicVec::from_u64(1, v))
                        .expect("reset");
                }
            }
            for (net, w) in &data {
                let mut v = LogicVec::zeros(*w);
                for i in 0..*w {
                    if rng.gen_bool(0.5) {
                        v.set_bit(i, soccar_rtl::Bit::One);
                    }
                }
                sim.write_input(*net, v).expect("data");
            }
            sim.settle().expect("settle");
            for clk in &clocks {
                sim.write_input(*clk, LogicVec::from_u64(1, 1))
                    .expect("clk");
            }
            sim.settle().expect("settle");
            // Sub-cycle glitch: occasionally flip a reset while the clock
            // is high (the timing window of the implicit-governor bug).
            for (net, active_low) in &resets {
                if rng.gen_ratio(1, 16) {
                    let assert_now = rng.gen_bool(0.5);
                    let v = u64::from(assert_now != *active_low);
                    sim.write_input(*net, LogicVec::from_u64(1, v))
                        .expect("reset");
                    sim.settle().expect("settle");
                }
            }
            for clk in &clocks {
                sim.write_input(*clk, LogicVec::from_u64(1, 0))
                    .expect("clk");
            }
            sim.settle().expect("settle");
            for mon in &mut monitors {
                fresh.extend(mon.check_cycle(&sim, cycle).expect("resolved monitor"));
            }
        }
        for v in fresh {
            if !violated.contains(&v.property) {
                violated.push(v.property);
            }
        }
    }
    violated.sort();
    violated
}

/// Runs the random fuzzer round by round until `property` fires, up to
/// `cap` rounds. Returns the (1-based) detecting round.
///
/// # Panics
///
/// Panics if the design fails to compile or stimulate.
#[must_use]
pub fn fuzzer_rounds_to_detect(
    model: SocModel,
    variant: u32,
    property: &str,
    cycles: u64,
    seed: u64,
    cap: u32,
) -> Option<u32> {
    for round in 1..=cap {
        // Re-run with an increasing budget; the RNG stream is a function
        // of (seed, round) so each round is fresh but reproducible.
        let v = random_baseline(
            model,
            variant,
            1,
            cycles,
            seed.wrapping_mul(0x9E37_79B9)
                .wrapping_add(u64::from(round)),
        );
        if v.iter().any(|p| p == property) {
            return Some(round);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renderer_aligns() {
        let t = render_table(
            &["A", "Column"],
            &[
                vec!["x".into(), "1".into()],
                vec!["longer".into(), "22".into()],
            ],
        );
        assert!(t.contains("| A      | Column |"));
        assert!(t.contains("| longer | 22     |"));
    }

    #[test]
    fn compile_soc_builds_the_clean_baseline() {
        let (soc, design) = compile_soc(SocModel::ClusterSoc, None);
        assert!(soc.variant.is_none());
        assert!(design.top_inputs().count() > 0);
    }

    #[test]
    fn differential_lint_drops_every_baseline_diagnostic() {
        let baseline: BTreeSet<_> = lint_soc(
            "clean.v",
            &soccar_soc::generate(SocModel::ClusterSoc, None).source,
        )
        .iter()
        .map(diagnostic_key)
        .collect();
        assert!(!baseline.is_empty(), "clean SoC lints to some diagnostics");
        for d in differential_lint(SocModel::ClusterSoc, 1) {
            assert!(!baseline.contains(&diagnostic_key(&d)));
        }
    }

    #[test]
    fn single_module_edit_changes_exactly_one_structural_fingerprint() {
        let source = soccar_soc::generate(SocModel::ClusterSoc, None).source;
        let edited = single_module_edit(&source);
        assert_ne!(edited, source);
        let fp = |src: &str| -> Vec<u64> {
            soccar_rtl::parser::parse(soccar_rtl::span::FileId(0), src)
                .expect("parse")
                .modules
                .iter()
                .map(soccar_rtl::fingerprint::module_fingerprint)
                .collect()
        };
        let before = fp(&source);
        let after = fp(&edited);
        assert_eq!(before.len(), after.len());
        let changed = before.iter().zip(&after).filter(|(a, b)| a != b).count();
        assert_eq!(changed, 1, "the bench edit must localize to one module");
    }

    #[test]
    fn stress_scales_hit_their_module_floors() {
        // Pure string generation — cheap even in debug builds.
        let x10 = soccar_soc::generate::generate(&STRESS_X10);
        assert!(
            x10.manifest.modules >= 160,
            "10x point must stay ≥10x ClusterSoC's 16 modules"
        );
        let x50 = soccar_soc::generate::generate(&STRESS_X50);
        assert!(x50.manifest.modules >= 800, "50x point shrank");
        assert!(
            x50.manifest.bugs.iter().any(|b| b.implicit),
            "the 50x lint-recall record needs at least one implicit bug"
        );
    }

    #[test]
    fn baseline_runs_and_reports() {
        // One short random round on ClusterSoC #2. The contract here is
        // only "runs and returns sorted distinct names".
        let v = random_baseline(SocModel::ClusterSoc, 2, 1, 6, 42);
        let mut sorted = v.clone();
        sorted.sort();
        assert_eq!(v, sorted);
    }
}
