//! Round-level differential test of the reset sweep's algebra.
//!
//! Sweep rounds run on the concrete [`CoverageAlgebra`] instead of the
//! co-simulation [`CoAlgebra`]. The two differ in one place:
//! `CoAlgebra::changed` also wakes level-sensitive processes when only a
//! symbolic term changed. Those extra evaluations see the same concrete
//! values, so every sweep schedule must give the same branch coverage,
//! the same set of processes that ran, and the same violations on both.
//! This test runs every sweep schedule of three designs on both algebras
//! and checks exactly that.

use soccar_cfg::{bind_events, compose_soc, GovernorAnalysis, ResetNaming};
use soccar_concolic::{
    CoAlgebra, ConcolicConfig, ConcolicEngine, CoverageAlgebra, RoundAlgebra, SecurityProperty,
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
        }
    }
}

/// Runs every sweep schedule of `case` on both algebras and compares
/// them round by round. Returns `(sweep rounds, phases seen, violations)`.
fn compare_algebras(case: &Case) -> (usize, Vec<&'static str>, usize) {
    let unit = parse(FileId(0), &case.source).expect("parse");
    let design = soccar_rtl::elaborate::elaborate(&unit, &case.top).expect("elaborate");
    let soc = compose_soc(&unit, &case.top, &ResetNaming::new(), case.analysis).expect("compose");
    let bound = bind_events(&design, &soc).expect("bind");
    let config = ConcolicConfig {
        cycles: case.cycles,
        sweep_stride: 1,
        symbolic_inputs: case.symbolic_inputs.clone(),
        ..ConcolicConfig::default()
    };
    let engine =
        ConcolicEngine::new(&design, &bound, case.properties.clone(), config).expect("engine");
    let ran = |runs: &[u64]| runs.iter().map(|r| *r > 0).collect::<Vec<bool>>();
    let (mut rounds, mut phases, mut violations) = (0, Vec::new(), 0);
    for batch in engine.sweep_batches() {
        if !phases.contains(&batch.phase) {
            phases.push(batch.phase);
        }
        for (i, schedule) in batch.schedules.iter().enumerate() {
            let at = format!("{} domain {} pulse {}", batch.phase, batch.domain, i + 1);
            let co = engine
                .execute_round::<CoAlgebra>(schedule)
                .expect("co-simulation round");
            let concrete = engine
                .execute_round::<CoverageAlgebra>(schedule)
                .expect("coverage round");
            assert_eq!(
                co.sim.algebra().coverage(),
                concrete.sim.algebra().coverage(),
                "branch coverage differs at {at}"
            );
            assert_eq!(
                ran(co.sim.process_run_counts()),
                ran(concrete.sim.process_run_counts()),
                "processes that ran differ at {at}"
            );
            assert_eq!(
                co.violations, concrete.violations,
                "violations differ at {at}"
            );
            assert_eq!(
                co.degraded, concrete.degraded,
                "degradation differs at {at}"
            );
            rounds += 1;
            violations += co.violations.len();
        }
    }
    (rounds, phases, violations)
}

#[test]
fn cluster_soc_variant3_sweep_agrees_on_both_algebras() {
    // The paper's configuration: 16 cycles, a pulse at every cycle.
    let case = Case::bundled(SocModel::ClusterSoc, 3, GovernorAnalysis::Explicit, 16);
    let (rounds, phases, violations) = compare_algebras(&case);
    assert_eq!(rounds, 4 * 15, "four domains, fifteen pulse positions");
    assert_eq!(phases, vec!["concolic.sweep"]);
    assert!(violations > 0, "the sweep must excite Variant #3's bugs");
}

#[test]
fn refined_auto_soc_variant2_high_phase_sweep_agrees_on_both_algebras() {
    // Only the Refined analysis schedules the `sweep_high` batch, and only
    // that batch excites the SHA256 core's implicit-governor bug.
    let case = Case::bundled(SocModel::AutoSoc, 2, GovernorAnalysis::Refined, 12);
    let (rounds, phases, violations) = compare_algebras(&case);
    assert!(rounds > 0);
    assert_eq!(phases, vec!["concolic.sweep", "concolic.sweep_high"]);
    assert!(violations > 0);
}

#[test]
fn generated_soc_sweep_agrees_on_both_algebras() {
    let (rounds, phases, _) = compare_algebras(&Case::generated(3, 10));
    assert!(rounds > 0);
    assert_eq!(phases, vec!["concolic.sweep"]);
}
