//! **Detection results** — the Section V-C evaluation: SoCCAR run on all
//! five bug-seeded variants, scored red-team/blue-team style.
//!
//! Paper outcome being reproduced: every bug detected in every ClusterSoC
//! variant; in AutoSoC all bugs except the SHA256 information-leakage bug
//! of Variant #2; verification time "a few seconds".
//!
//! The five runs are independent and fan out across the worker pool
//! (`--jobs <n>`, default `$SOCCAR_JOBS` or all cores); the table is
//! identical for every job count, but for its Seconds column.
//!
//! Every run also writes one `BENCH_<soc>.json` counter record per SoC
//! model (see docs/OBSERVABILITY.md for the schema): `--bench-out <dir>`
//! picks the directory (default: the current one), `--smoke` switches to
//! the CI reduced-rounds configuration, and `--check-baseline <dir>`
//! gates the counters against checked-in baselines, exiting non-zero on
//! drift.

use std::process::ExitCode;

use soccar::evaluation::render_outcomes;
use soccar_bench::{
    bench_args, bench_reports, check_bench_baselines, evaluate_all_variants_config, render_table,
    write_bench_reports,
};

fn main() -> ExitCode {
    let args = bench_args();
    let jobs = soccar_exec::resolve_jobs(Some(args.jobs));

    // The span API is the one timing code path (its guard times even on a
    // disabled recorder), so bench timing and pipeline timing can never
    // drift apart.
    let recorder = soccar_obs::Recorder::disabled();
    let ((evals, stats), elapsed) = recorder.time("bench.detection.sweep", || {
        evaluate_all_variants_config(jobs, &args.config())
    });

    let mut rows = Vec::new();
    let mut details = String::new();
    for eval in &evals {
        details.push_str(&render_outcomes(eval));
        details.push('\n');
        rows.push(vec![
            eval.variant.clone(),
            format!("{}/{}", eval.detected(), eval.outcomes.len()),
            eval.false_alarms.len().to_string(),
            format!("{:.2}", eval.verification_time().as_secs_f64()),
            expected(&eval.variant),
        ]);
    }
    println!(
        "Detection results (Section V-C, Explicit governor analysis, {} mode)",
        args.mode()
    );
    println!(
        "{}",
        render_table(
            &[
                "Variant",
                "Detected",
                "False alarms",
                "Seconds",
                "Paper expectation"
            ],
            &rows
        )
    );
    println!("{details}");
    println!(
        "sweep: {} variants in {:.2}s with {} jobs ({:.0}% pool utilization)",
        stats.tasks,
        elapsed.as_secs_f64(),
        stats.jobs,
        stats.utilization() * 100.0
    );

    // Machine-readable counter records (and, in CI, the regression gate).
    let reports = bench_reports(&evals, args.mode());
    let out_dir = std::path::Path::new(args.bench_out.as_deref().unwrap_or("."));
    match write_bench_reports(out_dir, &reports) {
        Ok(paths) => {
            for p in paths {
                println!("bench record written to {}", p.display());
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    }
    if let Some(dir) = &args.check_baseline {
        let problems = check_bench_baselines(std::path::Path::new(dir), &reports);
        if !problems.is_empty() {
            for p in &problems {
                eprintln!("baseline mismatch: {p}");
            }
            eprintln!(
                "{} mismatch(es) against {dir}; regenerate with \
                 `cargo run --release -p soccar-bench --bin detection -- --smoke --bench-out {dir}` \
                 if the change is intended",
                problems.len()
            );
            return ExitCode::FAILURE;
        }
        println!("bench counters match the baselines in {dir}");
    }
    ExitCode::SUCCESS
}

fn expected(variant: &str) -> String {
    if variant == "AutoSoC Variant #2" {
        "all but the SHA256 leak".to_owned()
    } else {
        "all detected".to_owned()
    }
}
