//! Trace-sink tests for `soccar analyze --trace-out`: a golden snapshot
//! of the ClusterSoC event stream with timing stripped (the canonical
//! form), a schema-shape check over both bundled SoCs, and the
//! determinism contract — counter and histogram lines are byte-identical
//! whatever the worker count.
//!
//! To update the snapshot after an intentional trace change:
//!
//! ```sh
//! SOCCAR_BLESS=1 cargo test -p soccar-serve --test trace
//! ```

use std::path::{Path, PathBuf};
use std::process::Command;

/// Per-test scratch directory for the CLI to write its trace into.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("soccar-trace-{}-{test}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs the CLI with `--trace-out` in `dir` and returns the NDJSON
/// trace. `jobs` is the `SOCCAR_JOBS` value (`None` removes it so the
/// `--jobs` flag in `args` governs); `envs` are extra variables for the
/// child. `SOCCAR_FAULTS` is cleared first so an ambient fault plan
/// never leaks into a test.
fn run_traced_env(dir: &Path, args: &[&str], jobs: Option<&str>, envs: &[(&str, &str)]) -> String {
    let trace = dir.join("trace.jsonl");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_soccar"));
    cmd.arg("analyze")
        .args(args)
        .arg("--trace-out")
        .arg(&trace)
        .current_dir(dir)
        .env_remove("SOCCAR_FAULTS");
    match jobs {
        Some(n) => cmd.env("SOCCAR_JOBS", n),
        None => cmd.env_remove("SOCCAR_JOBS"),
    };
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("run soccar");
    assert!(
        out.stderr.is_empty(),
        "soccar wrote to stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::read_to_string(&trace).expect("read trace file")
}

/// [`run_traced_env`] with no extra environment.
fn run_traced(dir: &Path, args: &[&str], jobs: Option<&str>) -> String {
    run_traced_env(dir, args, jobs, &[])
}

/// Reduces a trace to its canonical form, mirroring the
/// `to_ndjson_canonical` sink: span timing fields (`start_us`,
/// `elapsed_us`) are dropped, and gauge lines — which carry wall-clock
/// values — are dropped entirely. Everything that survives is
/// deterministic for a pinned `--jobs`.
fn canonicalize(trace: &str) -> String {
    let mut out = String::new();
    for line in trace.lines() {
        if line.starts_with("{\"type\":\"gauge\"") {
            continue;
        }
        // Timing fields are serialized last on span lines, so stripping
        // is a truncation at the first timing key.
        if let Some(cut) = line.find(",\"start_us\":") {
            out.push_str(&line[..cut]);
            out.push('}');
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    out
}

/// Keeps only the metric lines whose values the determinism contract
/// guarantees across worker counts (span `jobs` fields legitimately
/// differ, and gauges carry wall-clock values).
fn metric_lines(trace: &str) -> String {
    trace
        .lines()
        .filter(|l| {
            l.starts_with("{\"type\":\"counter\"") || l.starts_with("{\"type\":\"histogram\"")
        })
        .map(|l| format!("{l}\n"))
        .collect()
}

/// Compares `actual` against the stored snapshot, or rewrites the
/// snapshot when `SOCCAR_BLESS` is set.
fn check_golden(name: &str, actual: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("SOCCAR_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().expect("snapshot dir")).expect("mkdir");
        std::fs::write(&path, actual).expect("write snapshot");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing snapshot {}; run with SOCCAR_BLESS=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        expected, actual,
        "`{name}` drifted from its snapshot; if the change is intentional, \
         rerun with SOCCAR_BLESS=1 to update"
    );
}

const SMOKE: &[&str] = &["--cycles", "8", "--rounds", "2"];

/// The chaos-smoke horizon on ClusterSoC: unlike [`SMOKE`], its decision
/// walk reaches a site target with flip candidates, so it solves
/// candidates 1 to 4 (flip solving is lazy: a smoke run whose walk
/// pulses first solves nothing).
const SOLVING: &[&str] = &["--soc", "clustersoc", "--cycles", "12", "--rounds", "4"];

#[test]
fn trace_canonical_cluster_soc_matches_snapshot() {
    // `--jobs` is pinned because the span field that records it is part
    // of the snapshot; determinism across job counts is the separate
    // test below.
    let dir = scratch("golden-cluster");
    let mut args = vec!["--soc", "clustersoc", "--jobs", "2"];
    args.extend_from_slice(SMOKE);
    let trace = run_traced(&dir, &args, None);
    check_golden("cluster_trace.jsonl", &canonicalize(&trace));
}

#[test]
fn trace_covers_pipeline_stages_on_both_socs() {
    for soc in ["clustersoc", "autosoc"] {
        let dir = scratch(&format!("shape-{soc}"));
        let mut args = vec!["--soc", soc, "--jobs", "2"];
        args.extend_from_slice(SMOKE);
        let trace = run_traced(&dir, &args, None);

        let lines: Vec<&str> = trace.lines().collect();
        assert!(!lines.is_empty(), "{soc}: empty trace");
        assert!(
            lines[0].starts_with("{\"type\":\"meta\",\"schema\":1,"),
            "{soc}: first line must be the schema-versioned meta line, got: {}",
            lines[0]
        );
        for line in &lines {
            assert!(
                line.starts_with("{\"type\":\"") && line.ends_with('}'),
                "{soc}: malformed NDJSON line: {line}"
            );
        }

        // The acceptance contract: parse, extract, compose and round
        // activity must all be visible in one analyze trace (solving is
        // checked on a run that solves, below).
        for span in [
            "\"name\":\"pipeline.analyze\"",
            "\"name\":\"rtl.parse\"",
            "\"name\":\"rtl.elaborate\"",
            "\"name\":\"cfg.extract\"",
            "\"name\":\"cfg.compose\"",
            "\"name\":\"cfg.bind\"",
            "\"name\":\"concolic.round\"",
            "\"name\":\"concolic.simulate\"",
            "\"name\":\"concolic.plan\"",
        ] {
            assert!(
                lines
                    .iter()
                    .any(|l| l.starts_with("{\"type\":\"span\"") && l.contains(span)),
                "{soc}: trace is missing span {span}"
            );
        }
        assert!(
            lines.iter().any(|l| l.starts_with("{\"type\":\"counter\"")
                && l.contains("\"name\":\"concolic.rounds\"")),
            "{soc}: trace is missing counter concolic.rounds"
        );
    }

    // Solve activity, on an analyze whose decision walk solves.
    let mut args = SOLVING.to_vec();
    args.extend(["--jobs", "2"]);
    let trace = run_traced(&scratch("shape-solving"), &args, None);
    assert!(
        trace
            .lines()
            .any(|l| l.starts_with("{\"type\":\"counter\"")
                && l.contains("\"name\":\"smt.queries\"")),
        "solving run: trace is missing counter smt.queries"
    );
    assert!(
        trace
            .lines()
            .any(|l| l.starts_with("{\"type\":\"histogram\"")
                && l.contains("\"name\":\"smt.sat_vars\"")),
        "solving run: trace is missing the smt.sat_vars histogram"
    );
}

#[test]
fn trace_metrics_identical_across_job_counts() {
    // No `--jobs` flag: the worker count comes from SOCCAR_JOBS, which
    // is the knob CI varies. Counters and histograms must not notice.
    let args = {
        let mut a = vec!["--soc", "clustersoc"];
        a.extend_from_slice(SMOKE);
        a
    };
    let serial = run_traced(&scratch("determinism-j1"), &args, Some("1"));
    let parallel = run_traced(&scratch("determinism-j4"), &args, Some("4"));
    assert_eq!(
        metric_lines(&serial),
        metric_lines(&parallel),
        "metric lines must be byte-identical at SOCCAR_JOBS=1 vs 4"
    );
}

#[test]
fn trace_metrics_identical_across_job_counts_under_faults() {
    // An injected solver Unknown lands on flip candidate #2 regardless
    // of which worker picks it up, so the degraded metric stream must
    // stay byte-identical across job counts too. The run must be one
    // whose decision walk solves candidate #2.
    let args = {
        let mut a = SOLVING.to_vec();
        a.push("--keep-going");
        a
    };
    let envs = &[("SOCCAR_FAULTS", "solver_unknown@2")];
    let serial = run_traced_env(&scratch("determinism-fault-j1"), &args, Some("1"), envs);
    let parallel = run_traced_env(&scratch("determinism-fault-j4"), &args, Some("4"), envs);
    let serial_metrics = metric_lines(&serial);
    assert_eq!(
        serial_metrics,
        metric_lines(&parallel),
        "metric lines must be byte-identical at SOCCAR_JOBS=1 vs 4 under SOCCAR_FAULTS"
    );
    assert!(
        serial_metrics.contains("\"name\":\"resilience.solver_unknown\""),
        "the injected Unknown must surface in the resilience counters"
    );
}
