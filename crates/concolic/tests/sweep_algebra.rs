//! Round-level differential tests of the reset sweep.
//!
//! Sweep rounds differ from a from-scratch co-simulation round in two
//! ways, and each must be invisible in what a round yields: the same
//! branch coverage, the same set of processes that ran, the same
//! violations and the same degradation list.
//!
//! - **The algebra.** Sweep rounds run on the concrete
//!   [`CoverageAlgebra`] instead of the co-simulation [`CoAlgebra`]. The
//!   two differ in one place: `CoAlgebra::changed` also wakes
//!   level-sensitive processes when only a symbolic term changed. Those
//!   extra evaluations see the same concrete values.
//! - **The fork.** Every domain's round at one pulse position is finished
//!   from a clone of one shared prefix simulation
//!   ([`ConcolicEngine::fork_sweep_position`]) instead of being run from
//!   time zero.
//!
//! These tests run every sweep round of four configurations forked, and
//! from scratch on both algebras, and compare them.

use std::collections::BTreeSet;

use soccar_cfg::{bind_events, compose_soc, GovernorAnalysis, ResetNaming};
use soccar_concolic::{
    BranchCoverage, CoAlgebra, ConcolicConfig, ConcolicEngine, ConcolicReport, CoverageAlgebra,
    RoundAlgebra, RoundRun, SecurityProperty, Violation, Witness,
};
use soccar_rtl::parser::parse;
use soccar_rtl::span::FileId;
use soccar_soc::{GenSpec, SocModel};

struct Case {
    source: String,
    top: String,
    analysis: GovernorAnalysis,
    properties: Vec<SecurityProperty>,
    symbolic_inputs: Vec<String>,
    cycles: u64,
    stride: u64,
}

impl Case {
    fn bundled(model: SocModel, variant: u32, analysis: GovernorAnalysis, cycles: u64) -> Case {
        let design = soccar_soc::generate(model, Some(variant));
        Case {
            source: design.source,
            top: design.top,
            analysis,
            properties: soccar_soc::security_checks(model)
                .iter()
                .map(soccar::property_of)
                .collect(),
            symbolic_inputs: soccar_soc::symbolic_inputs(model),
            cycles,
            stride: 1,
        }
    }

    fn generated(seed: u64, cycles: u64) -> Case {
        let gen = soccar_soc::generate::generate(&GenSpec { seed, scale: 1 });
        Case {
            source: gen.source,
            top: gen.top,
            analysis: GovernorAnalysis::Explicit,
            properties: gen.checks.iter().map(soccar::property_of).collect(),
            symbolic_inputs: gen.symbolic,
            cycles,
            stride: 1,
        }
    }
}

/// What a round yields to the sweep merge.
#[derive(Debug, PartialEq)]
struct Outcome {
    coverage: BranchCoverage,
    ran: Vec<bool>,
    violations: Vec<Violation>,
    degraded: Vec<String>,
}

impl Outcome {
    fn of<A: RoundAlgebra>(run: &RoundRun<'_, A>) -> Outcome {
        Outcome {
            coverage: run.sim.algebra().coverage().clone(),
            ran: run
                .sim
                .process_run_counts()
                .iter()
                .map(|r| *r > 0)
                .collect(),
            violations: run.violations.clone(),
            degraded: run.degraded.clone(),
        }
    }
}

/// Runs every sweep round of `case` forked, and from scratch on both
/// algebras, and compares them round by round. Returns `(sweep rounds,
/// phases seen, violations)`.
fn compare_rounds(case: &Case) -> (usize, Vec<&'static str>, usize) {
    let unit = parse(FileId(0), &case.source).expect("parse");
    let design = soccar_rtl::elaborate::elaborate(&unit, &case.top).expect("elaborate");
    let soc = compose_soc(&unit, &case.top, &ResetNaming::new(), case.analysis).expect("compose");
    let bound = bind_events(&design, &soc).expect("bind");
    let config = ConcolicConfig {
        cycles: case.cycles,
        sweep_stride: case.stride,
        symbolic_inputs: case.symbolic_inputs.clone(),
        ..ConcolicConfig::default()
    };
    let engine =
        ConcolicEngine::new(&design, &bound, case.properties.clone(), config).expect("engine");
    let (mut rounds, mut phases, mut violations) = (0, Vec::new(), 0);
    for high in [false, true] {
        for pos in engine.sweep_positions(high) {
            if !phases.contains(&pos.phase()) {
                phases.push(pos.phase());
            }
            let forked = engine.fork_sweep_position(&pos, |run| Outcome::of(&run));
            assert_eq!(forked.len(), pos.domains.len());
            for (&domain, forked) in pos.domains.iter().zip(forked) {
                let at = format!("{} domain {domain} pulse {}", pos.phase(), pos.at);
                let schedule = pos.schedule(domain);
                let co = engine
                    .execute_round::<CoAlgebra>(&schedule)
                    .expect("co-simulation round");
                let concrete = engine
                    .execute_round::<CoverageAlgebra>(&schedule)
                    .expect("coverage round");
                let forked = forked.expect("forked round");
                let (co, concrete) = (Outcome::of(&co), Outcome::of(&concrete));
                assert_eq!(
                    co.coverage, concrete.coverage,
                    "branch coverage differs at {at}"
                );
                assert_eq!(co.ran, concrete.ran, "processes that ran differ at {at}");
                assert_eq!(
                    co.violations, concrete.violations,
                    "violations differ at {at}"
                );
                assert_eq!(
                    co.degraded, concrete.degraded,
                    "degradation differs at {at}"
                );
                assert_eq!(forked, concrete, "the forked round differs at {at}");
                rounds += 1;
                violations += co.violations.len();
            }
        }
    }
    (rounds, phases, violations)
}

#[test]
fn cluster_soc_variant3_sweep_agrees_on_both_algebras() {
    // The paper's configuration: 16 cycles, a pulse at every cycle.
    let case = Case::bundled(SocModel::ClusterSoc, 3, GovernorAnalysis::Explicit, 16);
    let (rounds, phases, violations) = compare_rounds(&case);
    assert_eq!(rounds, 4 * 15, "four domains, fifteen pulse positions");
    assert_eq!(phases, vec!["concolic.sweep"]);
    assert!(violations > 0, "the sweep must excite Variant #3's bugs");
}

#[test]
fn refined_auto_soc_variant2_high_phase_sweep_agrees_on_both_algebras() {
    // Only the Refined analysis schedules the `sweep_high` batch, and only
    // that batch excites the SHA256 core's implicit-governor bug.
    let case = Case::bundled(SocModel::AutoSoc, 2, GovernorAnalysis::Refined, 12);
    let (rounds, phases, violations) = compare_rounds(&case);
    assert!(rounds > 0);
    assert_eq!(phases, vec!["concolic.sweep", "concolic.sweep_high"]);
    assert!(violations > 0);
}

#[test]
fn generated_soc_sweep_agrees_on_both_algebras() {
    let (rounds, phases, _) = compare_rounds(&Case::generated(3, 10));
    assert!(rounds > 0);
    assert_eq!(phases, vec!["concolic.sweep"]);
}

#[test]
fn strided_sweep_forks_agree_with_scratch_rounds() {
    let case = Case {
        stride: 4,
        ..Case::bundled(SocModel::ClusterSoc, 3, GovernorAnalysis::Explicit, 16)
    };
    let (rounds, phases, _) = compare_rounds(&case);
    assert_eq!(
        rounds,
        4 * 4,
        "four domains, pulses at cycles 1, 5, 9 and 13"
    );
    assert_eq!(phases, vec!["concolic.sweep"]);
}

/// The deterministic fields of a report, everything but its timing.
fn canonical(report: &ConcolicReport) -> String {
    format!(
        "{:?}",
        (
            report.rounds,
            report.targets_total,
            report.targets_covered,
            report.targets_unreachable,
            &report.violations,
            report.first_violation_round,
            &report.witnesses,
            (
                report.solver_calls,
                report.solver_sat,
                report.solver_unknown
            ),
            (report.flips_failed, report.degraded_rounds),
            &report.degraded_reasons,
            report.sweep_exec.tasks,
        )
    )
}

#[test]
fn sweep_beside_a_multi_round_coverage_loop_merges_as_if_run_after_it() {
    // Refined AutoSoC #2: a coverage loop of several rounds, and both
    // sweep phases, the high one holding the SHA256 leak.
    let case = Case::bundled(SocModel::AutoSoc, 2, GovernorAnalysis::Refined, 12);
    let unit = parse(FileId(0), &case.source).expect("parse");
    let design = soccar_rtl::elaborate::elaborate(&unit, &case.top).expect("elaborate");
    let soc = compose_soc(&unit, &case.top, &ResetNaming::new(), case.analysis).expect("compose");
    let bound = bind_events(&design, &soc).expect("bind");
    let config = |jobs: usize, skip_sweep: bool| ConcolicConfig {
        cycles: case.cycles,
        max_rounds: 6,
        symbolic_inputs: case.symbolic_inputs.clone(),
        jobs,
        skip_sweep,
        ..ConcolicConfig::default()
    };
    let engine = |config| {
        ConcolicEngine::new(&design, &bound, case.properties.clone(), config).expect("engine")
    };
    let runs: Vec<ConcolicReport> = [1, 2, 4]
        .into_iter()
        .map(|jobs| engine(config(jobs, false)).run().expect("run"))
        .collect();
    for (jobs, report) in [2, 4].iter().zip(&runs[1..]) {
        assert_eq!(canonical(report), canonical(&runs[0]), "jobs {jobs}");
    }

    // The coverage rounds alone, then every position's forked rounds
    // merged after them in `(domain, cycle)` order, phase by phase.
    let mut serial = engine(config(1, true));
    let coverage = serial.run().expect("coverage rounds");
    assert!(coverage.rounds > 1, "the coverage loop must take rounds");
    let mut rounds = coverage.rounds;
    let mut violations = coverage.violations.clone();
    let mut witnesses = coverage.witnesses.clone();
    let mut first_violation_round = coverage.first_violation_round;
    let mut degraded: BTreeSet<String> = coverage.degraded_reasons.iter().cloned().collect();
    let mut tasks = 0;
    for high in [false, true] {
        let positions = serial.sweep_positions(high);
        tasks += positions.len();
        let mut forked: Vec<_> = positions
            .iter()
            .map(|pos| serial.fork_sweep_position(pos, |run| run).into_iter())
            .collect();
        let Some(first) = positions.first() else {
            continue;
        };
        for &domain in &first.domains {
            for (pos, at) in positions.iter().zip(&mut forked) {
                let run = at.next().expect("one round per domain").expect("round");
                rounds += 1;
                degraded.extend(run.degraded);
                for v in run.violations {
                    if violations.iter().any(|e| e.property == v.property) {
                        continue;
                    }
                    witnesses.push(Witness {
                        property: v.property.clone(),
                        schedule: pos.schedule(domain),
                        round: rounds,
                    });
                    violations.push(v);
                }
                if first_violation_round.is_none() && !violations.is_empty() {
                    first_violation_round = Some(rounds);
                }
            }
        }
    }
    let report = &runs[0];
    assert_eq!(report.rounds, rounds);
    assert_eq!(report.violations, violations);
    assert_eq!(report.witnesses, witnesses);
    assert_eq!(report.first_violation_round, first_violation_round);
    assert_eq!(
        report.degraded_reasons,
        degraded.into_iter().collect::<Vec<_>>()
    );
    assert_eq!(report.sweep_exec.tasks, tasks);
    assert!(report.targets_covered >= coverage.targets_covered);
    assert!(!serial.sweep_positions(true).is_empty(), "no high phase");
    assert!(
        report.violations.len() > coverage.violations.len(),
        "the sweep must excite Variant #2's bugs: {report:?}"
    );
}
