//! The `soccar` command-line tool: run the pipeline on a Verilog file.
//!
//! ```sh
//! soccar design.v --top my_soc \
//!   --property cleared:key-scrub:aes:my_soc.crypto_rst_n:my_soc.u_aes.key_reg:32 \
//!   --property armed:guard:sram:my_soc.mem_rst_n:my_soc.u_sram.prot_en \
//!   --symbolic my_soc.test_data \
//!   --refined --cycles 24 --rounds 12
//! ```
//!
//! With no `--property`, the tool still extracts and reports the AR_CFG
//! and reset domains (`--list-domains` prints them and exits).
//!
//! The default mode can also be spelled `soccar analyze …`, and instead
//! of a file the bundled evaluation SoCs can be named directly — with
//! their catalog security properties and symbolic inputs pre-loaded:
//!
//! ```sh
//! soccar analyze --soc clustersoc --trace-out trace.jsonl
//! soccar analyze --soc autosoc --variant 2 --refined --verbose
//! soccar analyze --soc gen:7:4 --json       # seeded generated topology
//! ```
//!
//! The `gen` subcommand materializes a generated design without
//! analyzing it — the ground-truth manifest goes to stdout and `--rtl`
//! dumps the Verilog:
//!
//! ```sh
//! soccar gen gen:7:4 --rtl gen_7_4.v
//! ```
//!
//! `--trace-out <path>` writes the run's span/metric stream as NDJSON
//! (schema in docs/OBSERVABILITY.md); `--verbose` prints the span tree.
//!
//! The `lint` subcommand runs only the static pre-pass:
//!
//! ```sh
//! soccar lint design.v                 # human-readable diagnostics
//! soccar lint design.v --json          # machine-readable report
//! soccar lint design.v --deny implicit-governor
//! soccar lint --list-rules
//! ```
//!
//! Property specs (colon-separated):
//!
//! * `cleared:<name>:<module>:<domain>:<signal>:<width>` — signal must be
//!   zero while the domain reset is asserted;
//! * `armed:<name>:<module>:<domain>:<signal>` — signal must be non-zero
//!   while the domain reset is asserted;
//! * `oneof:<name>:<module>:<signal>:<width>:<v1|v2|…>` — signal must
//!   always hold one of the listed values (decimal or 0x-hex);
//! * `neverflag:<name>:<module>:<signal>` — a 1-bit observation point
//!   that must never read 1.

use std::io::Write as _;
use std::process::ExitCode;

use soccar::Soccar;
use soccar_cfg::{compose_soc, ResetNaming};
use soccar_lint::{LintConfig, Linter, Severity};
use soccar_serve::{resolve_request, Client, Request, Server, ServerOptions};

/// `print!` for the commands' stdout. A reader that closes the pipe
/// early (`soccar lint --json x.v | head -1`) has taken all the output it
/// wants, so a broken pipe ends the output quietly and the command keeps
/// its own exit status; any other write error is the command's error.
macro_rules! out {
    ($($arg:tt)*) => {
        write_stdout(format_args!($($arg)*))
    };
}

/// `println!` counterpart of [`out!`].
macro_rules! outln {
    ($($arg:tt)*) => {
        write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

fn write_stdout(args: std::fmt::Arguments<'_>) -> Result<(), String> {
    match std::io::stdout().write_fmt(args) {
        Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => Err(format!("stdout: {e}")),
        _ => Ok(()),
    }
}

struct Args {
    file: String,
    /// The design flags, resolved exactly like a daemon request.
    request: Request,
    list_domains: bool,
    verbose: bool,
    json: bool,
    vcd: Option<String>,
    trace_out: Option<String>,
    jobs: usize,
}

const USAGE: &str = "usage: soccar [analyze] <file.v> --top <module> [options]
       soccar [analyze] --soc <name> [--variant <n>] [options]
       soccar gen <gen:seed:scale> [options]   dump a generated SoC
       soccar serve [options]      run the persistent analysis daemon
       soccar client [options]     drive a running daemon (CI mode)
options:
  --property <spec>   add a security property (repeatable); see --help-properties
  --symbolic <net>    treat a top-level input as symbolic (repeatable)
  --soc <name>        analyze a catalog SoC: `clustersoc`, `autosoc`, or a
                      seeded generated topology `gen:<seed>:<scale>`
                      (catalog properties and symbolic inputs pre-loaded)
  --variant <n>       bug-seeded variant of a bundled SoC (default: clean;
                      generated designs draw bugs from the seed instead)
  --refined           use the refined (implicit-governor) analysis
  --cycles <n>        simulation horizon per round (default 24, at most 1024)
  --rounds <n>        max concolic rounds before the sweep (default 12)
  --list-domains      print reset domains / AR_CFG summary and exit
  --verbose           print witness schedules and the trace span tree
  --json              print the canonical report JSON instead of the
                      human-readable summary (byte-identical across runs
                      and job counts; diagnostics go to stderr)
  --vcd <path>        replay the first witness and write a VCD waveform
  --trace-out <path>  write the span/metric stream as NDJSON
  --jobs <n>          worker threads for the parallel stages
                      (default: $SOCCAR_JOBS, else all cores; results are
                      identical for every value)
  --keep-going        degrade instead of aborting when a worker panics;
                      lost work is reported as per-stage health reasons
  --solver-budget <n> cap each flip solve at <n> SAT conflicts; exhausted
                      solves are skipped (reported, never fatal)
environment:
  SOCCAR_FAULTS       deterministic fault-injection plan for chaos
                      testing, e.g. solver_unknown@3,task_panic@extract:1
                      (see docs/RESILIENCE.md)";

/// Applies one design flag — `--soc`, `--variant`, `--top`,
/// `--property`, `--symbolic`, `--refined`, `--cycles`, `--rounds`,
/// `--solver-budget` or `--keep-going` — to `req`, taking its value from
/// `args`. Returns `Ok(false)` for any other argument. `soccar analyze`
/// and `soccar client analyze` both parse their design flags here, so a
/// flag means the same in batch and served runs.
fn parse_design_flag(
    req: &mut Request,
    flag: &str,
    args: &mut dyn Iterator<Item = String>,
) -> Result<bool, String> {
    fn value(args: &mut dyn Iterator<Item = String>, flag: &str) -> Result<String, String> {
        args.next().ok_or_else(|| format!("{flag} needs a value"))
    }
    fn number<T: std::str::FromStr>(
        args: &mut dyn Iterator<Item = String>,
        flag: &str,
    ) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        value(args, flag)?
            .parse()
            .map_err(|e| format!("{flag}: {e}"))
    }
    match flag {
        "--soc" => req.soc = value(args, flag)?,
        "--variant" => req.variant = Some(number(args, flag)?),
        "--top" => req.top = value(args, flag)?,
        "--property" => req.properties.push(value(args, flag)?),
        "--symbolic" => req.symbolic.push(value(args, flag)?),
        "--refined" => req.refined = true,
        "--cycles" => req.cycles = Some(number(args, flag)?),
        "--rounds" => req.rounds = Some(number(args, flag)?),
        "--solver-budget" => req.solver_budget = Some(number(args, flag)?),
        "--keep-going" => req.keep_going = true,
        _ => return Ok(false),
    }
    Ok(true)
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = args;
    let mut out = Args {
        file: String::new(),
        request: Request::new("analyze"),
        list_domains: false,
        verbose: false,
        json: false,
        vcd: None,
        trace_out: None,
        jobs: 0,
    };
    let next = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = args.next() {
        if parse_design_flag(&mut out.request, &arg, &mut args)? {
            continue;
        }
        match arg.as_str() {
            "--jobs" => {
                out.jobs = next(&mut args, "--jobs")?
                    .parse()
                    .map_err(|e| format!("--jobs: {e}"))?;
            }
            "--list-domains" => out.list_domains = true,
            "--vcd" => out.vcd = Some(next(&mut args, "--vcd")?),
            "--trace-out" => out.trace_out = Some(next(&mut args, "--trace-out")?),
            "--verbose" => out.verbose = true,
            "--json" => out.json = true,
            "--help" | "-h" => {
                outln!("{USAGE}")?;
                std::process::exit(0);
            }
            other if out.file.is_empty() && !other.starts_with('-') => {
                out.file = other.to_owned();
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    if !out.request.soc.is_empty() {
        if !out.file.is_empty() {
            return Err("--soc and a file argument are mutually exclusive".to_owned());
        }
    } else if out.file.is_empty() || out.request.top.is_empty() {
        return Err(USAGE.to_owned());
    }
    Ok(out)
}

fn run(args: &Args) -> Result<bool, String> {
    // Resolve the design through the daemon's resolver: a file on disk,
    // or a catalog SoC (which brings its properties and symbolic inputs
    // along).
    let mut request = args.request.clone();
    if !args.file.is_empty() {
        request.source =
            std::fs::read_to_string(&args.file).map_err(|e| format!("{}: {e}", args.file))?;
        request.file_name = args.file.clone();
    }
    let (file_name, source, top, properties, mut config) = resolve_request(&request)?;

    if args.list_domains {
        let unit = soccar_rtl::parser::parse(soccar_rtl::span::FileId(0), &source)
            .map_err(|e| e.to_string())?;
        let soc = compose_soc(&unit, &top, &config.naming, config.analysis)?;
        outln!(
            "{}: {} instances, {} reset-governed events",
            top,
            soc.instances.len(),
            soc.event_count()
        )?;
        for d in &soc.reset_domains {
            outln!(
                "domain {} ({}, active-{}): {} members, {} events",
                d.source,
                if d.top_level { "top input" } else { "internal" },
                if d.active_low { "low" } else { "high" },
                d.members.len(),
                d.events.len()
            )?;
        }
        return Ok(true);
    }

    config.jobs = args.jobs;
    config.fault_plan = soccar_exec::FaultPlan::from_env()?;
    // Recording costs a little, so the recorder stays disabled unless a
    // sink will consume it.
    let recorder = if args.trace_out.is_some() || args.verbose {
        soccar_obs::Recorder::enabled()
    } else {
        soccar_obs::Recorder::disabled()
    };
    let report = Soccar::new(config)
        .with_recorder(recorder.clone())
        .analyze(&file_name, &source, &top, properties)
        .map_err(|e| e.to_string())?;
    if let Some(path) = &args.trace_out {
        std::fs::write(path, soccar_obs::to_ndjson(&recorder.snapshot()))
            .map_err(|e| format!("{path}: {e}"))?;
        if args.json {
            eprintln!("trace written to {path}");
        } else {
            outln!("trace written to {path}")?;
        }
    }
    if args.verbose {
        let tree = soccar_obs::render_tree(&recorder.snapshot());
        if args.json {
            eprint!("{tree}");
        } else {
            out!("{tree}")?;
        }
    }
    if args.json {
        // The canonical report is the machine interface: stdout carries
        // exactly the JSON a `soccar client analyze` body carries.
        outln!("{}", report.canonical_json().map_err(|e| e.to_string())?)?;
        return Ok(report.violations().is_empty());
    }

    for stage in &report.stages {
        outln!(
            "[{}] {:.3}s  {}",
            stage.stage,
            stage.elapsed.as_secs_f64(),
            stage.detail
        )?;
        // Only degraded runs print health lines, so healthy output (and
        // its golden snapshots) is byte-for-byte what it always was.
        for reason in stage.health.reasons() {
            outln!("  degraded: {reason}")?;
        }
        if args.verbose {
            if let Some(exec) = &stage.exec {
                outln!(
                    "  pool: {} jobs, {} tasks, {:.0}% utilization",
                    exec.jobs,
                    exec.tasks,
                    exec.utilization * 100.0
                )?;
            }
        }
    }
    if report.is_degraded() {
        outln!(
            "HEALTH: degraded ({} reason(s); coverage may be incomplete)",
            report.health().reasons().len()
        )?;
    }
    outln!(
        "coverage: {}/{} AR_CFG targets ({} unreachable); solver {} calls / {} sat",
        report.concolic.targets_covered,
        report.concolic.targets_total,
        report.concolic.targets_unreachable,
        report.concolic.solver_calls,
        report.concolic.solver_sat,
    )?;
    if report.violations().is_empty() {
        outln!("RESULT: no violations")?;
        Ok(true)
    } else {
        for v in report.violations() {
            outln!("{v}")?;
        }
        if args.verbose {
            for w in &report.concolic.witnesses {
                outln!(
                    "  witness [{}] round {}: {}",
                    w.property,
                    w.round,
                    w.schedule.summary()
                )?;
            }
        }
        if let Some(path) = &args.vcd {
            if let Some(w) = report.concolic.witnesses.first() {
                // Recompile to replay (the pipeline consumed nothing mutable,
                // but the design lives inside the analysis scope).
                let (design, _) =
                    soccar_rtl::compile(&file_name, &source, &top).map_err(|e| e.to_string())?;
                let naming = ResetNaming::new();
                let clocks: Vec<_> = design
                    .top_inputs()
                    .filter(|n| naming.is_clock_name(&design.net(*n).local_name))
                    .collect();
                let sim = w
                    .schedule
                    .replay_concrete(&design, &clocks)
                    .map_err(|e| e.to_string())?;
                let vcd = soccar_sim::vcd::write_vcd(&design, sim.trace(), &[]);
                std::fs::write(path, vcd).map_err(|e| e.to_string())?;
                outln!("witness [{}] waveform written to {path}", w.property)?;
            }
        }
        outln!("RESULT: {} violation(s)", report.violations().len())?;
        Ok(false)
    }
}

const LINT_USAGE: &str = "usage: soccar lint <file.v> [options]
options:
  --json              emit the report as JSON instead of text
  --allow <rule>      disable a rule (repeatable)
  --deny <rule>       escalate a rule's findings to errors (repeatable)
  --list-rules        print the registered rules and exit
exit status: 0 = no error-level findings, 1 = errors found, 2 = bad input";

struct LintArgs {
    file: String,
    json: bool,
    config: LintConfig,
    list_rules: bool,
}

fn parse_lint_args(args: impl Iterator<Item = String>) -> Result<LintArgs, String> {
    let mut args = args.peekable();
    let mut out = LintArgs {
        file: String::new(),
        json: false,
        config: LintConfig::default(),
        list_rules: false,
    };
    let next = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => out.json = true,
            "--allow" => out.config.allow.push(next(&mut args, "--allow")?),
            "--deny" => out.config.deny.push(next(&mut args, "--deny")?),
            "--list-rules" => out.list_rules = true,
            "--help" | "-h" => {
                outln!("{LINT_USAGE}")?;
                std::process::exit(0);
            }
            other if out.file.is_empty() && !other.starts_with('-') => {
                out.file = other.to_owned();
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    if out.file.is_empty() && !out.list_rules {
        return Err(LINT_USAGE.to_owned());
    }
    Ok(out)
}

fn run_lint(args: &LintArgs) -> Result<bool, String> {
    let linter = Linter::new().with_config(args.config.clone());
    if args.list_rules {
        for rule in linter.rules() {
            outln!(
                "{:<28} {:<8} {}",
                rule.id(),
                rule.default_severity().label(),
                rule.description()
            )?;
        }
        return Ok(true);
    }
    for id in args.config.allow.iter().chain(&args.config.deny) {
        if !linter.is_known_rule(id) {
            return Err(format!("unknown rule `{id}` (see --list-rules)"));
        }
    }
    let source = std::fs::read_to_string(&args.file).map_err(|e| format!("{}: {e}", args.file))?;
    let report = linter.lint_source(&args.file, source)?;
    if args.json {
        outln!(
            "{}",
            soccar::json::to_json_pretty(&report).map_err(|e| e.to_string())?
        )?;
    } else {
        for diag in &report.diagnostics {
            outln!("{diag}")?;
        }
        outln!("{}", report.summary())?;
    }
    Ok(report.worst() != Some(Severity::Error))
}

const GEN_USAGE: &str = "usage: soccar gen <gen:seed:scale> [options]
materialize a seeded generated SoC from the catalog: the ground-truth
bug manifest (JSON) goes to stdout, and the design can be analyzed with
`soccar analyze --soc gen:<seed>:<scale>` (see docs/GENERATOR.md)
options:
  --rtl <path>        also write the generated Verilog to <path>
  --manifest <path>   write the manifest to <path> instead of stdout
  --summary           print a one-line topology summary instead of the
                      manifest JSON";

struct GenArgs {
    name: String,
    rtl: Option<String>,
    manifest: Option<String>,
    summary: bool,
}

fn parse_gen_args(args: impl Iterator<Item = String>) -> Result<GenArgs, String> {
    let mut args = args;
    let mut out = GenArgs {
        name: String::new(),
        rtl: None,
        manifest: None,
        summary: false,
    };
    let next = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--rtl" => out.rtl = Some(next(&mut args, "--rtl")?),
            "--manifest" => out.manifest = Some(next(&mut args, "--manifest")?),
            "--summary" => out.summary = true,
            "--help" | "-h" => {
                outln!("{GEN_USAGE}")?;
                std::process::exit(0);
            }
            other if out.name.is_empty() && !other.starts_with('-') => {
                out.name = other.to_owned();
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    if out.name.is_empty() {
        return Err(GEN_USAGE.to_owned());
    }
    Ok(out)
}

fn run_gen(args: &GenArgs) -> Result<(), String> {
    let spec = soccar_soc::GenSpec::parse(&args.name)?;
    let soc = soccar_soc::generate::generate(&spec);
    if let Some(path) = &args.rtl {
        std::fs::write(path, &soc.source).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("{}: RTL written to {path}", soc.name);
    }
    let manifest_json = soccar::manifest_json(&soc.manifest);
    if let Some(path) = &args.manifest {
        std::fs::write(path, &manifest_json).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("{}: manifest written to {path}", soc.name);
    }
    if args.summary {
        outln!(
            "{}: {} modules, {} reset domains, {} seeded bug(s), {} checks, top {}",
            soc.name,
            soc.manifest.modules,
            soc.manifest.reset_domains,
            soc.manifest.bugs.len(),
            soc.checks.len(),
            soc.top
        )?;
    } else if args.manifest.is_none() {
        out!("{manifest_json}")?;
    }
    Ok(())
}

const SERVE_USAGE: &str = "usage: soccar serve [options]
options:
  --listen <addr>        bind address (default 127.0.0.1:0)
  --port-file <path>     write the bound address to <path> once listening
  --trace-out <path>     write the server's span/metric stream as NDJSON
                         on shutdown (includes the server.* counters)
  --max-connections <n>  concurrent connections admitted (default 4);
                         connections beyond this queue briefly, then are
                         shed with a structured `busy` envelope
  --jobs <n>             worker threads per request (default: $SOCCAR_JOBS,
                         else all cores; results identical for every value)
  --idle-timeout-ms <n>  close connections silent for <n> ms between
                         frames (default: never)
  --frame-deadline-ms <n>
                         abort connections whose started frame does not
                         arrive in full within <n> ms — the slow-loris
                         guard (default: never)
  --write-timeout-ms <n> per-connection socket write deadline
                         (default: blocking)
  --admission-wait-ms <n>
                         how long a connection may queue for admission
                         before being shed (default 500)
environment:
  SOCCAR_FAULTS          serve-layer chaos point (shed@admission:N; see
                         docs/RESILIENCE.md)
runs until a client sends `shutdown`, then exits 0 (see docs/SERVER.md)";

struct ServeArgs {
    listen: String,
    port_file: Option<String>,
    trace_out: Option<String>,
    max_connections: usize,
    jobs: usize,
    idle_timeout_ms: Option<u64>,
    frame_deadline_ms: Option<u64>,
    write_timeout_ms: Option<u64>,
    admission_wait_ms: u64,
}

fn parse_serve_args(args: impl Iterator<Item = String>) -> Result<ServeArgs, String> {
    let mut args = args;
    let mut out = ServeArgs {
        listen: "127.0.0.1:0".to_owned(),
        port_file: None,
        trace_out: None,
        max_connections: 4,
        jobs: 0,
        idle_timeout_ms: None,
        frame_deadline_ms: None,
        write_timeout_ms: None,
        admission_wait_ms: 500,
    };
    let next = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    let ms = |args: &mut dyn Iterator<Item = String>, flag: &str| -> Result<u64, String> {
        args.next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .parse()
            .map_err(|e| format!("{flag}: {e}"))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--listen" => out.listen = next(&mut args, "--listen")?,
            "--port-file" => out.port_file = Some(next(&mut args, "--port-file")?),
            "--trace-out" => out.trace_out = Some(next(&mut args, "--trace-out")?),
            "--max-connections" => {
                out.max_connections = next(&mut args, "--max-connections")?
                    .parse()
                    .map_err(|e| format!("--max-connections: {e}"))?;
            }
            "--jobs" => {
                out.jobs = next(&mut args, "--jobs")?
                    .parse()
                    .map_err(|e| format!("--jobs: {e}"))?;
            }
            "--idle-timeout-ms" => {
                out.idle_timeout_ms = Some(ms(&mut args, "--idle-timeout-ms")?);
            }
            "--frame-deadline-ms" => {
                out.frame_deadline_ms = Some(ms(&mut args, "--frame-deadline-ms")?);
            }
            "--write-timeout-ms" => {
                out.write_timeout_ms = Some(ms(&mut args, "--write-timeout-ms")?);
            }
            "--admission-wait-ms" => {
                out.admission_wait_ms = ms(&mut args, "--admission-wait-ms")?;
            }
            "--help" | "-h" => {
                outln!("{SERVE_USAGE}")?;
                std::process::exit(0);
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    Ok(out)
}

/// Keeps the daemon's freed heap mapped for the next request. glibc
/// returns free memory at the top of the heap to the OS once it passes
/// the trim threshold, and maps each allocation above the mmap threshold
/// on its own; both start low (128 KiB), so every request would fault
/// its working set back in page by page. Pinned, up to 64 MiB of free
/// heap stays mapped and only allocations of 4 MiB or more get their own
/// mapping (see docs/SERVER.md).
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn keep_heap_warm() {
    use std::os::raw::c_int;
    extern "C" {
        fn mallopt(param: c_int, value: c_int) -> c_int;
    }
    // glibc's <malloc.h> parameter numbers.
    const M_TRIM_THRESHOLD: c_int = -1;
    const M_MMAP_THRESHOLD: c_int = -3;
    // SAFETY: `mallopt` is glibc's, reads only its two integer arguments
    // and takes the allocator's own lock; both parameters exist in every
    // glibc and both values are within their ranges (the mmap threshold
    // may be at most 32 MiB on 64-bit targets). A rejected setting
    // returns 0 and leaves the allocator as it was.
    unsafe {
        mallopt(M_TRIM_THRESHOLD, 64 << 20);
        mallopt(M_MMAP_THRESHOLD, 4 << 20);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn keep_heap_warm() {}

fn run_serve(args: &ServeArgs) -> Result<(), String> {
    keep_heap_warm();
    let recorder = if args.trace_out.is_some() {
        soccar_obs::Recorder::enabled()
    } else {
        soccar_obs::Recorder::disabled()
    };
    let fault_plan = soccar_exec::FaultPlan::from_env()?;
    let defaults = ServerOptions::default();
    let options = ServerOptions {
        listen: args.listen.clone(),
        max_connections: args.max_connections,
        jobs: args.jobs,
        fault_plan,
        idle_timeout: args.idle_timeout_ms.map(std::time::Duration::from_millis),
        frame_deadline: args.frame_deadline_ms.map(std::time::Duration::from_millis),
        write_timeout: args.write_timeout_ms.map(std::time::Duration::from_millis),
        admission_wait: std::time::Duration::from_millis(args.admission_wait_ms),
        ..defaults
    };
    let server = Server::bind_with_recorder(&options, recorder.clone())
        .map_err(|e| format!("bind {}: {e}", args.listen))?;
    let addr = server.local_addr();
    // Flush eagerly: supervisors and tests read this line (or the port
    // file) to learn the ephemeral port before connecting. A supervisor
    // may close our stdout after reading it — a daemon must keep serving
    // (and shut down cleanly) without a console, so never panic on it.
    let _ = writeln!(std::io::stdout(), "soccar-serve listening on {addr}");
    std::io::stdout().flush().ok();
    if let Some(path) = &args.port_file {
        std::fs::write(path, format!("{addr}\n")).map_err(|e| format!("{path}: {e}"))?;
    }
    let served = server.run().map_err(|e| format!("serve: {e}"))?;
    if let Some(path) = &args.trace_out {
        std::fs::write(path, soccar_obs::to_ndjson(&recorder.snapshot()))
            .map_err(|e| format!("{path}: {e}"))?;
    }
    let _ = writeln!(
        std::io::stdout(),
        "soccar-serve shut down cleanly after {served} request(s)"
    );
    Ok(())
}

const CLIENT_USAGE: &str =
    "usage: soccar client [--connect <addr> | --port-file <path>] <command> [options]
commands:
  analyze <file.v> --top <module> [analyze options]
  analyze --soc <name> [--variant <n>] [analyze options]
         (<name>: clustersoc, autosoc, or gen:<seed>:<scale>)
  lint <file.v> [--allow <rule>] [--deny <rule>]
  status
  shutdown
a --port-file that does not exist yet is polled with bounded backoff (the
daemon may still be starting), so `soccar client` can be launched
concurrently with `soccar serve`
analyze options mirror the batch CLI (--property --symbolic --refined
--cycles --rounds --solver-budget --keep-going);
`analyze` prints the canonical report JSON, byte-identical to
`soccar analyze --json`; `lint` prints the lint report JSON,
byte-identical to `soccar lint --json`
exit status: 0 = clean, 1 = violations/errors found, 2 = failure";

struct ClientArgs {
    addr: String,
    port_file: Option<String>,
    request: Request,
}

fn parse_client_args(args: impl Iterator<Item = String>) -> Result<ClientArgs, String> {
    let mut args = args;
    let mut addr = String::new();
    let mut port_file = None;
    let mut request: Option<Request> = None;
    let mut file = String::new();
    let next = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--connect" => addr = next(&mut args, "--connect")?,
            "--port-file" => port_file = Some(next(&mut args, "--port-file")?),
            "--help" | "-h" => {
                outln!("{CLIENT_USAGE}")?;
                std::process::exit(0);
            }
            "analyze" | "lint" | "status" | "shutdown" if request.is_none() => {
                request = Some(Request::new(&arg));
            }
            other => {
                let req = request
                    .as_mut()
                    .ok_or_else(|| format!("expected a command before `{other}`"))?;
                if parse_design_flag(req, other, &mut args)? {
                    continue;
                }
                match other {
                    "--allow" => req.allow.push(next(&mut args, "--allow")?),
                    "--deny" => req.deny.push(next(&mut args, "--deny")?),
                    path if !path.starts_with('-') && file.is_empty() => {
                        file = path.to_owned();
                    }
                    _ => return Err(format!("unexpected argument `{other}`")),
                }
            }
        }
    }
    let mut request = request.ok_or_else(|| CLIENT_USAGE.to_owned())?;
    if !file.is_empty() {
        request.source = std::fs::read_to_string(&file).map_err(|e| format!("{file}: {e}"))?;
        request.file_name = file;
    }
    if addr.is_empty() && port_file.is_none() {
        return Err("need --connect <addr> or --port-file <path>".to_owned());
    }
    Ok(ClientArgs {
        addr,
        port_file,
        request,
    })
}

/// Reads the daemon's address from its `--port-file`, polling with
/// bounded backoff: a client launched concurrently with `soccar serve`
/// must not lose the race against the daemon's port-file write. Gives
/// up (naming the path) after ~10 s.
fn read_port_file(path: &str) -> Result<String, String> {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let mut delay = std::time::Duration::from_millis(20);
    loop {
        match std::fs::read_to_string(path) {
            Ok(text) if !text.trim().is_empty() => return Ok(text.trim().to_owned()),
            // Missing or still-empty: the daemon is starting up.
            Ok(_) | Err(_) if std::time::Instant::now() < deadline => {
                std::thread::sleep(delay);
                delay = (delay * 2).min(std::time::Duration::from_millis(500));
            }
            Ok(_) => return Err(format!("{path}: still empty after waiting for the daemon")),
            Err(e) => return Err(format!("{path}: {e} (daemon never wrote its port file)")),
        }
    }
}

fn run_client(args: &ClientArgs) -> Result<bool, String> {
    let addr = if args.addr.is_empty() {
        read_port_file(args.port_file.as_deref().expect("checked at parse"))?
    } else {
        args.addr.clone()
    };
    let (envelope, body) = Client::connect(&addr)
        .map_err(|e| format!("connect {addr}: {e}"))?
        .roundtrip(&args.request)?;
    if !envelope.ok {
        return Err(envelope.error);
    }
    if !body.is_empty() {
        let text = String::from_utf8(body).map_err(|_| "response body is not utf-8".to_owned())?;
        outln!("{text}")?;
    }
    for reason in &envelope.degraded_reasons {
        eprintln!("degraded: {reason}");
    }
    Ok(envelope.violations == 0)
}

fn main() -> ExitCode {
    match std::env::args().nth(1).as_deref() {
        // The daemon and its CI driver.
        Some("serve") => {
            return match parse_serve_args(std::env::args().skip(2)) {
                Ok(args) => match run_serve(&args) {
                    Ok(()) => ExitCode::SUCCESS,
                    Err(e) => {
                        eprintln!("error: {e}");
                        ExitCode::from(2)
                    }
                },
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::from(2)
                }
            };
        }
        Some("client") => {
            return match parse_client_args(std::env::args().skip(2)) {
                Ok(args) => match run_client(&args) {
                    Ok(true) => ExitCode::SUCCESS,
                    Ok(false) => ExitCode::FAILURE,
                    Err(e) => {
                        eprintln!("error: {e}");
                        ExitCode::from(2)
                    }
                },
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::from(2)
                }
            };
        }
        _ => {}
    }
    // `gen` materializes a generated design without analyzing it.
    if std::env::args().nth(1).as_deref() == Some("gen") {
        return match parse_gen_args(std::env::args().skip(2)) {
            Ok(args) => match run_gen(&args) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::from(2)
                }
            },
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(2)
            }
        };
    }
    // `lint` runs only the static pre-pass and has its own flag set.
    if std::env::args().nth(1).as_deref() == Some("lint") {
        return match parse_lint_args(std::env::args().skip(2)) {
            Ok(args) => match run_lint(&args) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::FAILURE,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::from(2)
                }
            },
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(2)
            }
        };
    }
    // `analyze` is an optional alias for the default mode.
    let skip = if std::env::args().nth(1).as_deref() == Some("analyze") {
        2
    } else {
        1
    };
    let args = match parse_args(std::env::args().skip(skip)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
