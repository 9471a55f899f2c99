//! Chaos tests: deterministic fault injection through the real CLI.
//!
//! `SOCCAR_FAULTS` (see `docs/RESILIENCE.md`) injects solver Unknowns and
//! worker panics at fixed, scheduling-independent points. Under
//! `--keep-going` the pipeline must absorb every injected fault into
//! per-stage degraded health — same exit code, same detections, and
//! byte-identical output for every job count — instead of aborting.

use std::process::Command;

/// The canned fault plan used throughout: one flip solve comes back
/// Unknown (flip candidate #1) and one extraction worker panics (module
/// index 2 of the generated ClusterSoC source).
const FAULTS: &str = "solver_unknown@1,task_panic@extract:2";

struct ChaosRun {
    stdout: String,
    code: i32,
}

fn run_chaos(args: &[&str], faults: &str, jobs: &str) -> ChaosRun {
    let dir = std::env::temp_dir().join(format!("soccar-chaos-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_soccar"))
        .args(args)
        .current_dir(&dir)
        .env("SOCCAR_FAULTS", faults)
        .env("SOCCAR_JOBS", jobs)
        .output()
        .expect("run soccar");
    ChaosRun {
        stdout: String::from_utf8(out.stdout).expect("utf-8 output"),
        code: out.status.code().expect("exit code"),
    }
}

/// Replaces every `<digits>.<digits>s` wall-clock token with `#.###s`.
fn normalize_timing(s: &str) -> String {
    let mut out = String::new();
    for line in s.lines() {
        let mut rebuilt = String::new();
        for (i, word) in line.split(' ').enumerate() {
            if i > 0 {
                rebuilt.push(' ');
            }
            let is_timing = word.strip_suffix('s').is_some_and(|w| {
                w.split_once('.')
                    .is_some_and(|(a, b)| !a.is_empty() && !b.is_empty())
                    && w.chars().all(|c| c.is_ascii_digit() || c == '.')
            });
            rebuilt.push_str(if is_timing { "#.###s" } else { word });
        }
        out.push_str(&rebuilt);
        out.push('\n');
    }
    out
}

const CHAOS_ARGS: &[&str] = &[
    "--soc",
    "clustersoc",
    "--keep-going",
    "--cycles",
    "12",
    "--rounds",
    "4",
];

#[test]
fn injected_faults_degrade_health_but_exit_zero() {
    let run = run_chaos(CHAOS_ARGS, FAULTS, "2");
    assert_eq!(
        run.code, 0,
        "degraded clean run must still exit 0:\n{}",
        run.stdout
    );
    // Both injected faults surface as named degradation reasons.
    assert!(
        run.stdout
            .contains("degraded: module `rv32e_core`: extraction failed"),
        "missing extraction reason:\n{}",
        run.stdout
    );
    assert!(
        run.stdout
            .contains("degraded: round 1: flip 1 skipped: injected fault: solver_unknown@1"),
        "missing solver reason:\n{}",
        run.stdout
    );
    assert!(
        run.stdout.contains("HEALTH: degraded (2 reason(s)"),
        "missing health summary:\n{}",
        run.stdout
    );
    // The sweep still finished and reported its (reduced) coverage.
    assert!(
        run.stdout.contains("RESULT: no violations"),
        "{}",
        run.stdout
    );
}

#[test]
fn chaos_runs_are_byte_identical_across_runs_and_job_counts() {
    let first = normalize_timing(&run_chaos(CHAOS_ARGS, FAULTS, "1").stdout);
    let again = normalize_timing(&run_chaos(CHAOS_ARGS, FAULTS, "1").stdout);
    let parallel = normalize_timing(&run_chaos(CHAOS_ARGS, FAULTS, "4").stdout);
    assert_eq!(first, again, "same plan, same output");
    assert_eq!(first, parallel, "fault injection must not depend on jobs");
}

#[test]
fn faulted_run_still_reports_every_detected_bug() {
    let mut args = CHAOS_ARGS.to_vec();
    args.extend(["--variant", "1"]);
    let run = run_chaos(&args, FAULTS, "2");
    assert_eq!(
        run.code, 1,
        "violations still fail the run:\n{}",
        run.stdout
    );
    assert!(run.stdout.contains("HEALTH: degraded"), "{}", run.stdout);
    // Degradation reduces *coverage*; the detections that did fire are
    // all reported alongside it.
    let invalid = run
        .stdout
        .lines()
        .filter(|l| l.starts_with("INVALID"))
        .count();
    assert!(
        invalid >= 1,
        "expected detections to survive:\n{}",
        run.stdout
    );
    assert!(
        run.stdout
            .contains(&format!("RESULT: {invalid} violation(s)")),
        "result line must count every reported violation:\n{}",
        run.stdout
    );
}

#[test]
fn healthy_runs_print_no_health_lines() {
    let run = run_chaos(CHAOS_ARGS, "", "2");
    assert_eq!(run.code, 0);
    assert!(!run.stdout.contains("degraded"), "{}", run.stdout);
    assert!(!run.stdout.contains("HEALTH"), "{}", run.stdout);
}

#[test]
fn malformed_fault_plan_is_a_usage_error() {
    // A bad occurrence, and points that are no longer registered: a
    // removed point must fail loudly, not silently inject nothing.
    for faults in [
        "solver_unknown@zero",
        "conn_drop@respond:1",
        "round_timeout@1",
    ] {
        let run = run_chaos(CHAOS_ARGS, faults, "1");
        assert_eq!(
            run.code, 2,
            "bad SOCCAR_FAULTS `{faults}` must exit 2:\n{}",
            run.stdout
        );
    }
    // A removed flag is a usage error too.
    let args = [CHAOS_ARGS, &["--round-deadline-ms", "5"]].concat();
    let run = run_chaos(&args, "", "1");
    assert_eq!(run.code, 2, "a removed flag must exit 2:\n{}", run.stdout);
}

#[test]
fn chaos_smoke_for_ci() {
    // The CI `chaos-smoke` job runs exactly this binaryless assertion
    // set: a canned plan, a clean SoC, exit 0, degraded health. Keeping
    // it as a named test lets CI invoke `--test chaos chaos_smoke_for_ci`
    // without shell scripting the CLI.
    let run = run_chaos(CHAOS_ARGS, FAULTS, "2");
    assert_eq!(run.code, 0);
    assert!(run.stdout.contains("HEALTH: degraded"));
}
