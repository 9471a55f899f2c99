//! The `sweep` and `flip` workloads: one client thread calling
//! `Soccar::analyze` back to back, each result checked.
//!
//! The traced variant makes the same call with the program's own
//! `soccar_obs::Recorder` attached and copies the recorder's span tree
//! into the benchmark's ledger.

use std::collections::BTreeMap;
use std::time::Instant;

use soccar::{AnalysisReport, Soccar, SoccarConfig};
use soccar_concolic::{ConcolicConfig, ConcolicEngine, SecurityProperty};
use soccar_obs::{Recorder, Value};
use soccar_sim::InitPolicy;
use soccar_soc::{GenSpec, Manifest, SocModel, VariantSpec};

use crate::ledger::Ledger;
use crate::stats::{median, ms};

/// Worker threads per analysis: the 2-vCPU reference host's core count.
pub const JOBS: usize = 2;

/// The `flip` workload's generated design, `gen:3:1`.
const FLIP_GEN_SEED: u64 = 3;

/// Flip candidates solved by the `smt.flip_solve_ms` probe.
const FLIP_SOLVE_CAP: usize = 256;

/// Ground truth an analysis is scored against.
enum Oracle {
    /// Every Table IV bug of the variant must be detected.
    TableIv(VariantSpec),
    /// Full manifest recall with no false alarms.
    Manifest(Manifest),
}

/// One workload's analysis input, produced from the seed.
pub struct Input {
    file_name: String,
    source: String,
    top: String,
    properties: Vec<SecurityProperty>,
    config: SoccarConfig,
    oracle: Oracle,
    /// Operation `i` runs with concolic seed `op_seed(seed, i)` instead
    /// of the workload seed, and is checked against the oracle only.
    seed_per_op: bool,
}

/// The concolic seed of operation `op` (splitmix64 of the pair).
fn op_seed(seed: u64, op: u64) -> u64 {
    let mut z = seed ^ op.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `sweep`: ClusterSoC Table IV Variant #3 at the paper's evaluation
/// configuration; the seed is the concolic seed.
pub fn sweep_input(seed: u64) -> Input {
    let spec = soccar_soc::variant(SocModel::ClusterSoc, 3).expect("ClusterSoC has variant #3");
    let design = soccar_soc::generate(SocModel::ClusterSoc, Some(3));
    Input {
        file_name: "soc.v".to_owned(),
        source: design.source,
        top: design.top,
        properties: soccar_soc::security_checks(SocModel::ClusterSoc)
            .iter()
            .map(soccar::property_of)
            .collect(),
        config: config(ConcolicConfig {
            cycles: 16,
            max_rounds: 6,
            sweep_stride: 1,
            init: InitPolicy::Ones,
            seed,
            symbolic_inputs: soccar_soc::symbolic_inputs(SocModel::ClusterSoc),
            ..ConcolicConfig::default()
        }),
        oracle: Oracle::TableIv(spec),
        seed_per_op: false,
    }
}

/// `flip`: a generated one-cluster SoC at a short horizon with a coarse
/// sweep, so coverage rounds (flip planning and solving) dominate. Every
/// operation draws its own concolic seed from the workload seed: the
/// schedule a seed produces changes how many rounds and flips an
/// analysis takes, so a run samples that distribution instead of
/// timing one point of it.
pub fn flip_input(seed: u64) -> Input {
    let gen = soccar_soc::generate::generate(&GenSpec {
        seed: FLIP_GEN_SEED,
        scale: 1,
    });
    Input {
        file_name: format!("{}.v", gen.slug),
        source: gen.source,
        top: gen.top,
        properties: gen.checks.iter().map(soccar::property_of).collect(),
        config: config(ConcolicConfig {
            cycles: 10,
            max_rounds: 3,
            sweep_stride: 9,
            init: InitPolicy::Ones,
            seed,
            symbolic_inputs: gen.symbolic,
            ..ConcolicConfig::default()
        }),
        oracle: Oracle::Manifest(gen.manifest),
        seed_per_op: true,
    }
}

fn config(concolic: ConcolicConfig) -> SoccarConfig {
    SoccarConfig {
        concolic,
        jobs: JOBS,
        ..SoccarConfig::default()
    }
}

/// The crate a `soccar_obs` recorder span times, by the span's name.
fn layer_of(span: &str) -> &'static str {
    match span {
        "pipeline.frontend" => "soccar-rtl",
        "pipeline.lint" => "soccar-lint",
        "pipeline.ar_cfg" => "soccar-cfg",
        "pipeline.concolic" => "soccar-concolic",
        _ if span.starts_with("rtl.") => "soccar-rtl",
        _ if span.starts_with("cfg.") => "soccar-cfg",
        _ if span.starts_with("concolic.") => "soccar-concolic",
        _ => "soccar",
    }
}

impl Input {
    /// The configuration operation `op` runs with.
    fn config_for(&self, op: u64) -> SoccarConfig {
        let mut config = self.config.clone();
        if self.seed_per_op {
            config.concolic.seed = op_seed(config.concolic.seed, op);
        }
        config
    }

    fn analyze(&self, soccar: Soccar) -> Result<AnalysisReport, String> {
        soccar
            .analyze(
                &self.file_name,
                &self.source,
                &self.top,
                self.properties.clone(),
            )
            .map_err(|e| e.to_string())
    }

    fn score(&self, report: &AnalysisReport) -> Result<(), String> {
        if report.is_degraded() {
            return Err(format!("degraded run: {:?}", report.health().reasons()));
        }
        match &self.oracle {
            Oracle::TableIv(spec) => {
                let eval = soccar::evaluation::score(spec, report.clone());
                if eval.missed() > 0 {
                    return Err(format!(
                        "{}: {} of {} Table IV bugs missed",
                        eval.variant,
                        eval.missed(),
                        eval.outcomes.len()
                    ));
                }
            }
            Oracle::Manifest(manifest) => {
                let recall = soccar::score_generated(manifest, report);
                if recall.detected != recall.total || recall.false_alarms > 0 {
                    return Err(format!(
                        "{}: recall {}/{}, {} false alarm(s), missed {:?}",
                        manifest.name,
                        recall.detected,
                        recall.total,
                        recall.false_alarms,
                        recall.missed
                    ));
                }
            }
        }
        Ok(())
    }

    /// The reference operation, analyzed and scored during set-up: its
    /// canonical report, which every later operation must repeat (unless
    /// each operation draws its own seed).
    pub fn reference(&self) -> Result<String, String> {
        let report = self.analyze(Soccar::new(self.config_for(0)))?;
        self.score(&report)?;
        report.canonical_json().map_err(|e| e.to_string())
    }

    /// Checks one operation's report against the oracle and the
    /// reference.
    fn check(&self, report: &AnalysisReport, reference: &str) -> Result<(), String> {
        self.score(report)?;
        if !self.seed_per_op && report.canonical_json().map_err(|e| e.to_string())? != reference {
            return Err("canonical report differs from the first operation's".to_owned());
        }
        Ok(())
    }

    /// One untraced operation, checked.
    pub fn op(&self, op: u64, reference: &str) -> Result<(), String> {
        let report = self.analyze(Soccar::new(self.config_for(op)))?;
        self.check(&report, reference)
    }

    /// One traced operation: the same `Soccar::analyze` call with the
    /// program's own recorder attached, checked like an untraced one. The
    /// recorder's span tree (pipeline stages, parse, elaborate, extract,
    /// compose, bind, concolic rounds and sweeps) is copied into the
    /// ledger under one root span, and per-operation layer samples are
    /// pushed to `samples`.
    pub fn traced_op(
        &self,
        op: u64,
        reference: &str,
        ledger: &mut Ledger,
        samples: &mut BTreeMap<&'static str, Vec<f64>>,
    ) -> Result<(), String> {
        let recorder = Recorder::enabled();
        let origin = Instant::now();
        let root = ledger.open("soccar.analyze", "soccar", op);
        let report = self.analyze(Soccar::new(self.config_for(op)).with_recorder(recorder.clone()));
        ledger.close(root);
        let report = report?;
        let snap = recorder.snapshot();
        ledger.import(&snap, origin, op, Some(root), layer_of);
        self.check(&report, reference)?;

        let span_ms = |names: &[&str]| -> f64 {
            snap.spans
                .iter()
                .filter(|s| names.contains(&s.name.as_str()))
                .filter_map(|s| s.elapsed)
                .map(ms)
                .sum()
        };
        let sweep_rounds: u64 = snap
            .spans
            .iter()
            .filter(|s| s.name.starts_with("concolic.sweep"))
            .filter_map(|s| {
                s.fields.iter().find_map(|(k, v)| match (k.as_str(), v) {
                    ("rounds", Value::U64(n)) => Some(*n),
                    ("rounds", Value::I64(n)) => u64::try_from(*n).ok(),
                    _ => None,
                })
            })
            .sum();
        let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0) as f64;
        let hist_sum = |name: &str| snap.histograms.get(name).map_or(0.0, |h| h.sum as f64);
        let hist_mean = |name: &str| {
            snap.histograms
                .get(name)
                .map_or(0.0, |h| h.sum as f64 / h.count.max(1) as f64)
        };
        let run_ms = span_ms(&["pipeline.concolic"]);
        let sweep_ms = span_ms(&["concolic.sweep", "concolic.sweep_high"]);
        let c = &report.concolic;
        let sim_cycles = c.rounds as f64 * self.config.concolic.cycles as f64;
        let mut push = |name: &'static str, v: f64| samples.entry(name).or_default().push(v);
        push("rtl.parse_ms", span_ms(&["rtl.parse"]));
        push("rtl.elaborate_ms", span_ms(&["rtl.elaborate"]));
        push("rtl.tokens", counter("rtl.tokens"));
        push("rtl.nets", counter("rtl.nets"));
        push("lint.lint_ms", span_ms(&["pipeline.lint"]));
        push("lint.diagnostics", report.lint.diagnostics.len() as f64);
        push("cfg.compose_ms", span_ms(&["cfg.extract", "cfg.compose"]));
        push("cfg.bind_ms", span_ms(&["cfg.bind"]));
        push("cfg.ar_events", report.extraction.ar_events as f64);
        push("concolic.run_ms", run_ms);
        push("concolic.coverage_ms", span_ms(&["concolic.round"]));
        push("concolic.sweep_ms", sweep_ms);
        push("concolic.rounds", c.rounds as f64);
        push("concolic.sweep_rounds", sweep_rounds as f64);
        push(
            "concolic.flip_candidates",
            counter("concolic.flip_candidates"),
        );
        push("concolic.flip_consumed", counter("concolic.flip_consumed"));
        push("sim.cycles", sim_cycles);
        push("sim.cycles_per_s", sim_cycles / (run_ms / 1e3));
        if sweep_rounds > 0 {
            push("sim.sweep_round_ms", sweep_ms / sweep_rounds as f64);
        }
        push("smt.queries", counter("smt.queries"));
        push("smt.sat", counter("smt.sat"));
        push("smt.conflicts", hist_sum("smt.conflicts"));
        push("smt.propagations", hist_sum("smt.propagations"));
        push("smt.sat_clauses", hist_mean("smt.sat_clauses"));
        push("smt.clauses_reused", counter("smt.clauses_reused"));
        push("smt.eliminated_vars", counter("smt.eliminated_vars"));
        push("smt.trail_reused", counter("smt.trail_reused"));
        push("exec.flips_busy_ms", ms(c.flip_exec.busy));
        push("exec.flips_utilization", c.flip_exec.utilization());
        push("exec.flips_tasks", c.flip_exec.tasks as f64);
        Ok(())
    }

    /// Timed from outside, median of `reps` each: `ConcolicEngine::new`
    /// on the design, and the design's frozen first-round flip workload
    /// solved incrementally. Returns `(engine_new_ms, flip_solve_ms)`.
    pub fn engine_probes(&self, reps: usize) -> Result<(f64, f64), String> {
        let unit = soccar_rtl::parser::parse(soccar_rtl::span::FileId(0), &self.source)
            .map_err(|e| e.to_string())?;
        let design =
            soccar_rtl::elaborate::elaborate(&unit, &self.top).map_err(|e| e.to_string())?;
        let soc =
            soccar_cfg::compose_soc(&unit, &self.top, &self.config.naming, self.config.analysis)?;
        let bound = soccar_cfg::bind_events(&design, &soc).map_err(|e| e.to_string())?;
        let engine = || {
            ConcolicEngine::new(
                &design,
                &bound,
                self.properties.clone(),
                self.config.concolic.clone(),
            )
        };
        let mut new_times = Vec::new();
        for _ in 0..reps.max(1) {
            let t = Instant::now();
            std::hint::black_box(engine()?);
            new_times.push(ms(t.elapsed()));
        }
        let workload = engine()?.flip_workload().map_err(|e| e.to_string())?;
        let disabled = Recorder::disabled();
        let solve_times: Vec<f64> = (0..reps.max(1))
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(workload.solve_incremental(FLIP_SOLVE_CAP, &disabled));
                ms(t.elapsed())
            })
            .collect();
        Ok((median(&new_times), median(&solve_times)))
    }
}
