//! `perfbench`: the repository benchmark. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload <sweep|flip|serve_repeat|serve_edit|serve_lint>
//!           --seed <n> --seconds <s> --trace <0|1>
//!           [--soccar <path to the soccar binary>] [--ops <cap>]
//! ```
//!
//! Prints diagnostics on stderr and, as the last line of stdout, one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Traced runs write their span files and per-layer tables
//! to `.bench_out/`.

mod analysis;
mod ledger;
mod serve;
mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use ledger::Ledger;
use stats::{median, Budget, Metrics, Tally};

const WORKLOADS: &[&str] = &["sweep", "flip", "serve_repeat", "serve_edit", "serve_lint"];

/// End-to-end metrics (`--trace 0`), with units.
const END_TO_END: &[(&str, &str)] = &[("latency_p50_ms", "ms"), ("setup_s", "s")];

/// Per-layer metrics (`--trace 1`), with units. A layer a workload does
/// not exercise reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("rtl.parse_ms", "ms"),
    ("rtl.elaborate_ms", "ms"),
    ("rtl.tokens", "count"),
    ("rtl.nets", "count"),
    ("lint.lint_ms", "ms"),
    ("lint.diagnostics", "count"),
    ("cfg.compose_ms", "ms"),
    ("cfg.bind_ms", "ms"),
    ("cfg.ar_events", "count"),
    ("concolic.engine_new_ms", "ms"),
    ("concolic.run_ms", "ms"),
    ("concolic.coverage_ms", "ms"),
    ("concolic.sweep_ms", "ms"),
    ("concolic.rounds", "count"),
    ("concolic.sweep_rounds", "count"),
    ("concolic.flip_candidates", "count"),
    ("concolic.flip_consumed", "count"),
    ("concolic.flip_useful_ratio", "ratio"),
    ("sim.cycles", "count"),
    ("sim.cycles_per_s", "1/s"),
    ("sim.sweep_round_ms", "ms"),
    ("smt.flip_solve_ms", "ms"),
    ("smt.queries", "count"),
    ("smt.sat", "count"),
    ("smt.conflicts", "count"),
    ("smt.propagations", "count"),
    ("smt.sat_clauses", "count"),
    ("smt.clauses_reused", "count"),
    ("smt.eliminated_vars", "count"),
    ("smt.trail_reused", "count"),
    ("exec.flips_busy_ms", "ms"),
    ("exec.flips_utilization", "ratio"),
    ("exec.flips_tasks", "count"),
    ("incremental.repeat_ms", "ms"),
    ("incremental.edit_ms", "ms"),
    ("incremental.modules_reparsed", "count"),
    ("incremental.modules_reextracted", "count"),
    ("incremental.report_hits", "count"),
    ("incremental.design_hits", "count"),
    ("incremental.concolic_hits", "count"),
    ("incremental.evictions", "count"),
    ("serve.repeat_overhead_ms", "ms"),
    ("serve.edit_overhead_ms", "ms"),
    ("serve.lint_overhead_ms", "ms"),
    ("serve.request_kb", "KB"),
    ("serve.response_kb", "KB"),
    ("serve.connections", "count"),
    ("serve.shed", "count"),
    ("soc.generate_ms", "ms"),
    ("mem.peak_rss_mb", "MB"),
    ("trace.overhead_pct", "%"),
];

/// Where traced runs write their span files and per-layer tables, and
/// the `serve_*` workloads the design file they lint.
const OUT_DIR: &str = ".bench_out";

/// Set-ups per `sweep`/`flip` run; `setup_s` is their median. A set-up
/// produces the inputs and makes the scored reference analysis. Input
/// production alone takes about 40 µs, and at that size its time in one
/// process sits in one of two modes 30% apart, so it is timed together
/// with the first analyses, where work moved out of the timed loop
/// would also show.
const SETUP_REPS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    ops: Option<u64>,
    soccar: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        ops: None,
        soccar: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value != "0",
            "--ops" => args.ops = Some(value.parse().map_err(|e| bad(&e))?),
            "--soccar" => args.soccar = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?} (got `{}`)",
            args.workload
        ));
    }
    Ok(args)
}

/// `sweep` and `flip`: analyses in a closed loop; traced runs split the
/// budget between untraced and traced operations.
fn run_analysis(
    args: &Args,
    budget: Budget,
    tally: &mut Tally,
    metrics: &mut Metrics,
    ledger: &mut Ledger,
) -> Result<(), String> {
    let make = |seed| match args.workload.as_str() {
        "sweep" => analysis::sweep_input(seed),
        _ => analysis::flip_input(seed),
    };
    // Set-up, several times: produce the inputs and make the reference
    // analysis, each timing scaled by a host-speed probe taken just
    // before. The last set-up's input and reference are used.
    let mut setups = Vec::new();
    let mut generate_ms = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        let speed = stats::PROBE_REF_MS / stats::probe_ms();
        let t = Instant::now();
        let input = make(args.seed);
        generate_ms.push(stats::ms(t.elapsed()) * speed);
        let reference = input.reference()?;
        setups.push(t.elapsed().as_secs_f64() * speed);
        prepared = Some((input, reference));
    }
    let (input, reference) = prepared.expect("at least one set-up");
    metrics.set("setup_s", median(&setups), "s");
    metrics.set("soc.generate_ms", median(&generate_ms), "ms");

    let share = if args.trace { 0.45 } else { 1.0 };
    let plain = budget.share(share).run(1, |i| {
        let t = Instant::now();
        let outcome = input.op(i, &reference);
        let ok = outcome.is_ok();
        tally.record(outcome);
        ok.then(|| stats::ms(t.elapsed()))
    });
    stats::report(&format!("{} untraced", args.workload), &plain);
    let plain = stats::norm(&plain);
    metrics.set("latency_p50_ms", median(&plain), "ms");
    if !args.trace {
        return Ok(());
    }

    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let traced = budget.share(0.45).run(1, |i| {
        let t = Instant::now();
        let outcome = input.traced_op(i, &reference, ledger, &mut samples);
        let ok = outcome.is_ok();
        tally.record(outcome);
        ok.then(|| stats::ms(t.elapsed()))
    });
    stats::report(&format!("{} traced", args.workload), &traced);
    let traced = stats::norm(&traced);
    metrics.set(
        "trace.overhead_pct",
        100.0 * (median(&traced) / median(&plain) - 1.0),
        "%",
    );
    metrics.set("mem.peak_rss_mb", stats::peak_rss_mb(None), "MB");
    let (engine_new_ms, flip_solve_ms) = input.engine_probes(5)?;
    metrics.set("concolic.engine_new_ms", engine_new_ms, "ms");
    metrics.set("smt.flip_solve_ms", flip_solve_ms, "ms");
    for (name, values) in &samples {
        metrics.set(name, median(values), unit_of(name));
    }
    let total = |name: &str| samples.get(name).map_or(0.0, |v| v.iter().sum::<f64>());
    metrics.set(
        "concolic.flip_useful_ratio",
        total("concolic.flip_consumed") / total("concolic.flip_candidates").max(1.0),
        "ratio",
    );
    Ok(())
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map_or("count", |(_, unit)| unit)
}

fn run(args: &Args) -> Result<(Metrics, Tally), String> {
    let out = std::path::Path::new(OUT_DIR);
    std::fs::create_dir_all(out).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let budget = Budget {
        seconds: args.seconds,
        max_ops: args.ops,
    };
    let mut tally = Tally::default();
    let mut metrics = Metrics::default();
    let mut ledger = Ledger::new();
    if let Some(class) = args.workload.strip_prefix("serve_") {
        let soccar = args
            .soccar
            .as_deref()
            .ok_or("the serve workloads need --soccar <path to the soccar binary>")?;
        serve::run(
            class,
            args.seed,
            budget,
            args.trace,
            soccar,
            out,
            &mut tally,
            &mut metrics,
            &mut ledger,
        )?;
    } else {
        run_analysis(args, budget, &mut tally, &mut metrics, &mut ledger)?;
    }
    if !args.trace {
        return Ok((metrics.select(END_TO_END), tally));
    }
    let stem = out.join(format!("{}-{}", args.workload, args.seed));
    let table = ledger.table();
    for (ext, text) in [
        ("spans.ndjson", ledger.to_ndjson()),
        ("layers.txt", table.clone()),
    ] {
        let path = stem.with_extension(ext);
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    eprintln!(
        "perfbench: per-layer self time ({} workload, seed {}):",
        args.workload, args.seed
    );
    eprint!("{table}");
    Ok((metrics.select(PER_LAYER), tally))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((metrics, tally)) => {
            println!("{}", metrics.result_line(&tally));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
