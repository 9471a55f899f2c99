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
use soccar::SoccarConfig;
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
/// all gated.
///
/// # Panics
///
/// Panics if the generated design fails to evaluate (generated designs
/// always elaborate — that is a library invariant, not a bench knob).
#[must_use]
pub fn gen_recall_variant(spec: &GenSpec, config: &SoccarConfig) -> soccar_obs::BenchVariant {
    let recorder = soccar_obs::Recorder::enabled();
    let eval = soccar::evaluate_generated_traced(spec, config.clone(), recorder.clone())
        .expect("generated designs always evaluate");
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
        // own `solver_calls` (the flip queries the decision walk read):
        // `smt.queries` counts the actual SAT invocations the solver
        // front-end saw, whole solved chunks included.
        ("smt.queries", trace("smt.queries")),
        ("smt.sat", trace("smt.sat")),
        ("flip_candidates", trace("concolic.flip_candidates")),
    ] {
        counters.insert(name.to_owned(), value);
    }
    soccar_obs::BenchVariant {
        variant: spec.name(),
        counters,
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
/// directly: ≥160 modules, flip candidates in the analysis, and — on
/// the design's first-round [`soccar_concolic::FlipWorkload`] — at least
/// one real solver query per concolic round, at least one of them Sat.
///
/// # Panics
///
/// Panics on a recall miss, a false alarm, fewer than 160 modules, or a
/// missed solver floor.
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
    // The analysis solves only the flips its decision walk reads, and at
    // x10 the walk pulses before it reaches a site target with
    // candidates, so the report's `solver_calls` reads 0. The solver
    // floor is asserted on real solves of the same design instead: the
    // engine's first round, every candidate solved.
    let flip_rounds = config.concolic.max_rounds as u64;
    let gen = soccar_soc::generate::generate(&STRESS_X10);
    let workload = flip_workload_of(&gen.source, &gen.top, gen.symbolic, config);
    let recorder = soccar_obs::Recorder::enabled();
    let sat = workload.solve(FLIP_SOLVING_CAP, &recorder);
    let queries = recorder.counter_value("smt.queries");
    assert!(
        queries >= flip_rounds && sat >= 1 && v.counters["flip_candidates"] > 0,
        "the 10x design must drive ≥1 real solver query per round, one of them Sat \
         ({queries} queries / {sat} Sat for {} flip rounds, {} candidates)",
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

    // Lint recall over the whole generated corpus at 50x.
    let diagnostics = lint_soc("gen_x50.v", &soc.source);
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
/// degrading).
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
            });
    }
    reports
}

/// How many first-round flip candidates the x10 solver floor of
/// [`gen_x10_report`] solves: large enough that the shared path prefix
/// dominates and the window spans gate-bearing branch conditions
/// (comparisons, not just 1-bit guards), small enough to stay in the
/// stress tier's budget.
pub const FLIP_SOLVING_CAP: usize = 256;

/// Builds the frozen one-round [`soccar_concolic::FlipWorkload`] of a
/// benchmark design under `config`: its Verilog `source`, top module and
/// symbolic inputs.
///
/// # Panics
///
/// Panics if the design fails to compile or simulate (bench driver code,
/// not a library API).
fn flip_workload_of(
    source: &str,
    top: &str,
    symbolic_inputs: Vec<String>,
    config: &SoccarConfig,
) -> soccar_concolic::FlipWorkload {
    let unit = soccar_rtl::parser::parse(soccar_rtl::span::FileId(0), source)
        .expect("benchmark SoCs always parse");
    let design =
        soccar_rtl::elaborate::elaborate(&unit, top).expect("benchmark SoCs always elaborate");
    let arcfg =
        soccar_cfg::compose_soc(&unit, top, &soccar_cfg::ResetNaming::new(), config.analysis)
            .expect("benchmark SoCs always compose");
    let bound = soccar_cfg::bind_events(&design, &arcfg).expect("benchmark SoCs always bind");
    let mut concolic = config.concolic.clone();
    concolic.symbolic_inputs = symbolic_inputs;
    let engine = soccar_concolic::ConcolicEngine::new(&design, &bound, Vec::new(), concolic)
        .expect("benchmark SoCs always build an engine");
    engine
        .flip_workload()
        .expect("benchmark SoCs always simulate")
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
/// `dir`: every counter must match exactly (see
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
            "--smoke" => out.smoke = true,
            "--bench-out" => out.bench_out = Some(args.next().expect("--bench-out needs a value")),
            "--check-baseline" => {
                out.check_baseline = Some(args.next().expect("--check-baseline needs a value"));
            }
            other => panic!(
                "unexpected argument `{other}` (options: --jobs <n>, --smoke, \
                 --bench-out <dir>, --check-baseline <dir>)"
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
