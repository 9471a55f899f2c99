//! Determinism regression: the parallel stages (AR_CFG extraction
//! fan-out, chunked flip solving, the reset sweep's forked pulse
//! positions, variant sweeps) must merge by stable keys, never completion
//! order, so the full pipeline produces a byte-identical canonical report
//! for every job count. These tests run the complete pipeline — frontend,
//! lint, extraction, composition, binding, concolic testing — on both
//! bundled SoCs at `--jobs 1` and `--jobs 4` and compare the serialized
//! `AnalysisReport` JSON.

use proptest::prelude::*;
use soccar::evaluation::evaluate_generated;
use soccar::evaluation::evaluate_variant;
use soccar::SoccarConfig;
use soccar_cfg::GovernorAnalysis;
use soccar_soc::{GenSpec, SocModel};

/// Full-pipeline canonical JSON for one bug-seeded variant at `jobs`.
fn canonical_json(model: SocModel, number: u32, jobs: usize) -> String {
    canonical_json_faulted(model, number, jobs, "")
}

/// Same, but with a `SOCCAR_FAULTS`-style plan injected and `keep_going`
/// set so the injected faults degrade rather than abort.
fn canonical_json_faulted(model: SocModel, number: u32, jobs: usize, faults: &str) -> String {
    let spec = soccar_soc::variant(model, number).expect("bundled variant exists");
    let mut config = SoccarConfig::default();
    config.concolic.cycles = 12;
    config.concolic.max_rounds = 4;
    config.jobs = jobs;
    if !faults.is_empty() {
        config.keep_going = true;
        config.fault_plan = soccar_exec::FaultPlan::parse(faults).expect("valid fault plan");
    }
    let eval = evaluate_variant(&spec, config).expect("benchmark variants always evaluate");
    eval.report
        .canonical_json()
        .expect("canonical report serializes")
}

#[test]
fn cluster_soc_report_is_byte_identical_across_job_counts() {
    let serial = canonical_json(SocModel::ClusterSoc, 1, 1);
    let parallel = canonical_json(SocModel::ClusterSoc, 1, 4);
    assert_eq!(serial, parallel);
    // The run exercised the parallel stages on real work, not a trivial
    // empty report.
    assert!(serial.contains("\"ar_events\""));
    assert!(serial.contains("\"solver_calls\""));
}

#[test]
fn auto_soc_report_is_byte_identical_across_job_counts() {
    let serial = canonical_json(SocModel::AutoSoc, 2, 1);
    let parallel = canonical_json(SocModel::AutoSoc, 2, 4);
    assert_eq!(serial, parallel);
    assert!(serial.contains("\"violations\""));
}

#[test]
fn refined_high_phase_sweep_is_byte_identical_across_job_counts() {
    // The Refined analysis of AutoSoC Variant #2 flags the SHA256 core's
    // clock-composed implicit governor, so its domain gets the
    // `sweep_high` phase — the only phase that excites that bug.
    let run = |jobs: usize| {
        let spec = soccar_soc::variant(SocModel::AutoSoc, 2).expect("bundled variant exists");
        let mut config = SoccarConfig {
            analysis: GovernorAnalysis::Refined,
            jobs,
            ..SoccarConfig::default()
        };
        config.concolic.cycles = 12;
        config.concolic.max_rounds = 4;
        config.concolic.sweep_stride = 1;
        let eval = evaluate_variant(&spec, config).expect("benchmark variants always evaluate");
        let sha_detected = eval.outcomes.iter().any(|o| o.implicit && o.detected);
        let json = eval
            .report
            .canonical_json()
            .expect("canonical report serializes");
        (json, sha_detected)
    };
    let (serial, serial_detected) = run(1);
    let (parallel, parallel_detected) = run(4);
    assert_eq!(serial, parallel);
    assert!(serial_detected && parallel_detected);
    assert!(serial.contains("\"sha256-no-leak\""));
}

#[test]
fn faulted_cluster_soc_report_is_byte_identical_across_job_counts() {
    // A fixed fault plan degrades the same stages by the same reasons no
    // matter how many workers race: injection points are keyed on serial
    // per-item indices, never completion order.
    let faults = "solver_unknown@1,task_panic@extract:2";
    let serial = canonical_json_faulted(SocModel::ClusterSoc, 1, 1, faults);
    let parallel = canonical_json_faulted(SocModel::ClusterSoc, 1, 4, faults);
    assert_eq!(serial, parallel);
    // The faults actually landed: the report is degraded, not pristine.
    assert!(
        serial.contains("\"status\": \"degraded\""),
        "expected degraded health in:\n{serial}"
    );
    assert!(serial.contains("injected fault: solver_unknown@1"));
    assert!(serial.contains("injected fault: task_panic@extract:2"));
}

/// Full-pipeline canonical JSON for a *generated* design at a given
/// job count (what `SOCCAR_JOBS` selects via the environment, set
/// directly on the config so every job count runs in one process).
fn generated_canonical_json(spec: &GenSpec, jobs: usize) -> String {
    let mut config = SoccarConfig::default();
    config.concolic.cycles = 10;
    config.concolic.max_rounds = 3;
    config.concolic.sweep_stride = 3;
    config.jobs = jobs;
    let eval = evaluate_generated(spec, config).expect("generated designs always evaluate");
    eval.report
        .canonical_json()
        .expect("canonical report serializes")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The determinism contract extended beyond the two hand-built
    /// SoCs: any seeded topology produces one canonical report across
    /// `SOCCAR_JOBS={1,2,4}`.
    #[test]
    fn generated_soc_reports_are_byte_identical_across_job_counts(
        seed in 0u64..4096,
        scale in 1u32..3,
    ) {
        let spec = GenSpec { seed, scale };
        let baseline = generated_canonical_json(&spec, 1);
        for jobs in [2, 4] {
            let other = generated_canonical_json(&spec, jobs);
            prop_assert_eq!(
                &baseline,
                &other,
                "gen:{}:{} diverged at jobs={}",
                seed,
                scale,
                jobs
            );
        }
        // Real work happened: the report carries solver and sweep fields.
        prop_assert!(baseline.contains("\"solver_calls\""));
        prop_assert!(baseline.contains("\"violations\""));
    }
}

#[test]
fn canonical_report_carries_no_wall_clock_fields() {
    let json = canonical_json(SocModel::ClusterSoc, 2, 2);
    for timing in ["elapsed", "busy_secs", "utilization", "\"jobs\""] {
        assert!(!json.contains(timing), "canonical JSON leaks `{timing}`");
    }
}
