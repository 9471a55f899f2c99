//! **Detection results** — the Section V-C evaluation: SoCCAR run on all
//! five bug-seeded variants, scored red-team/blue-team style.
//!
//! Paper outcome being reproduced: every bug detected in every ClusterSoC
//! variant; in AutoSoC all bugs except the SHA256 information-leakage bug
//! of Variant #2; verification time "a few seconds".
//!
//! The five runs are independent and fan out across the worker pool
//! (`--jobs <n>`, default `$SOCCAR_JOBS` or all cores); the table is
//! identical for every job count. `--compare-jobs` additionally runs the
//! sweep serially first and reports the parallel speedup.
//!
//! Every run also writes one `BENCH_<soc>.json` per SoC model (see
//! docs/OBSERVABILITY.md for the schema): `--bench-out <dir>` picks the
//! directory (default: the current one), `--smoke` switches to the CI
//! reduced-rounds configuration, and `--check-baseline <dir>` gates the
//! counters against checked-in baselines, exiting non-zero on drift.

use std::process::ExitCode;
use std::time::Duration;

use soccar::evaluation::{render_outcomes, VariantEvaluation};
use soccar_bench::{
    append_flip_solving, append_serving_records, bench_args, bench_reports, check_bench_baselines,
    evaluate_all_variants_config, render_table, write_bench_reports, BenchArgs,
};

fn main() -> ExitCode {
    let args = bench_args();
    let jobs = soccar_exec::resolve_jobs(Some(args.jobs));

    let serial = args.compare_jobs.then(|| timed(1, &args));
    let (evals, stats, elapsed) = timed(jobs, &args);

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
    if let Some((serial_evals, _, serial_elapsed)) = serial {
        assert_eq!(
            serial_evals.len(),
            evals.len(),
            "serial and parallel sweeps cover the same variants"
        );
        println!(
            "compare: serial {:.2}s vs {} jobs {:.2}s — {:.2}x speedup",
            serial_elapsed.as_secs_f64(),
            jobs,
            elapsed.as_secs_f64(),
            serial_elapsed.as_secs_f64() / elapsed.as_secs_f64().max(1e-9)
        );
    }

    // Machine-readable perf records (and, in CI, the regression gate).
    let mut reports = bench_reports(&evals, args.mode());
    // The flip_solving record: the frozen first-round candidates solved
    // one query each; counters are gated, the timing is reported.
    for (model, record) in append_flip_solving(&mut reports, &args.config()) {
        println!(
            "flip_solving {model:?}: {} candidates, {} sat, {:.1}ms",
            record.variant.counters["flip_candidates"],
            record.variant.counters["flip_sat"],
            record.oneshot.as_secs_f64() * 1e3
        );
    }
    // Serving records: the warm-session reanalysis win (timings reported,
    // module re-parse and extraction counts gated).
    for (model, record) in append_serving_records(&mut reports, &args.config()) {
        println!(
            "incremental_reanalysis {model:?}: cold {:.1}ms, warm after 1-module edit {:.1}ms \
             ({:.2}x), cached repeat {:.3}ms ({:.0}x)",
            record.cold.as_secs_f64() * 1e3,
            record.warm.as_secs_f64() * 1e3,
            record.speedup(),
            record.repeat.as_secs_f64() * 1e3,
            record.repeat_speedup()
        );
    }
    let reports = reports;
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

fn timed(
    jobs: usize,
    args: &BenchArgs,
) -> (Vec<VariantEvaluation>, soccar_exec::PoolStats, Duration) {
    // The span API is the one timing code path (its guard times even on a
    // disabled recorder), so bench timing and pipeline timing can never
    // drift apart.
    let recorder = soccar_obs::Recorder::disabled();
    let ((evals, stats), elapsed) = recorder.time("bench.detection.sweep", || {
        evaluate_all_variants_config(jobs, &args.config())
    });
    (evals, stats, elapsed)
}

fn expected(variant: &str) -> String {
    if variant == "AutoSoC Variant #2" {
        "all but the SHA256 leak".to_owned()
    } else {
        "all detected".to_owned()
    }
}
