//! The `serve_*` workloads: a `soccar serve --jobs 2` daemon on loopback
//! and one closed-loop client that opens a fresh connection per request
//! (as `soccar client` does) and sends one request class on a generated
//! x10 SoC. The three workloads share set-up (design, daemon, priming)
//! and differ in the class:
//!
//! - `serve_repeat`: the identical analyze request, answered by the
//!   report tier;
//! - `serve_edit`: a comment-only edit inside one module body that moves
//!   no line (`/* rev N */` before its `endmodule`, N increasing), so
//!   exactly one module is re-parsed and every structural tier and the
//!   concolic tier hit;
//! - `serve_lint`: a lint request for the base source (uncached: full
//!   frontend and lint).
//!
//! Analyze requests carry the source text at the minimal horizon
//! (`cycles 1`, `rounds 0`): the concolic cost is what `sweep` and `flip`
//! measure.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, BufWriter};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use soccar::incremental::AnalysisSession;
use soccar::{Soccar, SoccarConfig};
use soccar_serve::{read_frame, resolve_request, write_frame, Json, Request};
use soccar_soc::GenSpec;

use crate::analysis::JOBS;
use crate::ledger::Ledger;
use crate::stats::{
    self, median, ms, peak_rss_mb, probe_ms, Budget, Metrics, Sample, Tally, PROBE_REF_MS,
};

/// The ROADMAP's x10 stress design: 11 × 15 + 4 = 169 modules, 312 KB.
const DESIGN: GenSpec = GenSpec {
    seed: 11,
    scale: 15,
};
/// Daemon set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Per-request socket deadline: a wedged daemon fails the request
/// instead of hanging the benchmark.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// Requests after which the daemon's peak RSS is read: every edit adds
/// cache entries, so reading at a fixed request count keeps the figure
/// independent of how many requests fit in a run.
const RSS_PROBE_AT: u64 = 150;
/// Untimed edits before the timed ones. Every edit adds a report-tier
/// entry and the tier evicts past 64 entries, so edit latency climbs
/// over the first hundred-odd edits; warming past that keeps the timed
/// edits in the steady state, however many of them fit in a run.
const EDIT_WARM_UP: u64 = 96;
/// Requests per host-speed probe: about one probe per 80–100 ms of
/// requests.
fn probe_every(class: &str) -> u64 {
    if class == "repeat" {
        32
    } else {
        4
    }
}

/// The generated design, its requests and the expected response bodies.
struct Inputs {
    file_name: String,
    source: String,
    top: String,
    /// Byte offset of the edited module's `endmodule`.
    edit_at: usize,
    repeat_payload: Vec<u8>,
    lint_payload: Vec<u8>,
    analyze_body: Vec<u8>,
    lint_body: Vec<u8>,
}

impl Inputs {
    fn analyze_request(&self, source: String) -> Request {
        let mut req = Request::new("analyze");
        req.file_name = self.file_name.clone();
        req.source = source;
        req.top = self.top.clone();
        req.cycles = Some(1);
        req.rounds = Some(0);
        req
    }

    fn edited_source(&self, rev: u64) -> String {
        let (head, tail) = self.source.split_at(self.edit_at);
        format!("{head}/* rev {rev} */ {tail}")
    }

    /// The next request of `class`; edits advance `rev`.
    fn payload(&self, class: &str, rev: &mut u64) -> Cow<'_, [u8]> {
        match class {
            "repeat" => Cow::Borrowed(&self.repeat_payload),
            "edit" => {
                *rev += 1;
                Cow::Owned(to_payload(&self.analyze_request(self.edited_source(*rev))))
            }
            _ => Cow::Borrowed(&self.lint_payload),
        }
    }
}

fn to_payload(req: &Request) -> Vec<u8> {
    req.to_json()
        .expect("requests always serialize")
        .into_bytes()
}

/// Generates the design and the request payloads (the timed part of
/// set-up). The workload seed picks the module the edits touch: every
/// choice re-parses one module and re-lints the whole unit, so the seed
/// varies the input without changing how much work a request is.
fn generate(seed: u64, out: &Path) -> Result<(Inputs, f64), String> {
    let t = Instant::now();
    let gen = soccar_soc::generate::generate(&DESIGN);
    let generate_ms = ms(t.elapsed());
    let file_name = out
        .join(format!("{}.v", gen.slug))
        .to_string_lossy()
        .into_owned();
    let starts: Vec<usize> = gen
        .source
        .match_indices("\nmodule ")
        .map(|(i, _)| i)
        .collect();
    let start = usize::try_from(seed)
        .ok()
        .and_then(|seed| starts.get(seed % starts.len().max(1)))
        .ok_or("generated source has no modules")?;
    let edit_at = gen.source[*start..]
        .find("endmodule")
        .map(|i| start + i)
        .ok_or("module without endmodule")?;
    let mut inputs = Inputs {
        file_name,
        source: gen.source,
        top: gen.top,
        edit_at,
        repeat_payload: Vec::new(),
        lint_payload: Vec::new(),
        analyze_body: Vec::new(),
        lint_body: Vec::new(),
    };
    inputs.repeat_payload = to_payload(&inputs.analyze_request(inputs.source.clone()));
    let mut lint = Request::new("lint");
    lint.file_name = inputs.file_name.clone();
    lint.source = inputs.source.clone();
    inputs.lint_payload = to_payload(&lint);
    Ok((inputs, generate_ms))
}

/// Expected bodies: analyze from an in-process batch run, lint from the
/// `soccar lint --json` CLI on the same file. Not part of `setup_s`.
fn build_references(inputs: &mut Inputs, soccar: &Path) -> Result<(), String> {
    let batch = |source: String| -> Result<Vec<u8>, String> {
        let (file_name, source, top, properties, mut config) =
            resolve_request(&inputs.analyze_request(source))?;
        config.jobs = JOBS;
        let report = Soccar::new(config)
            .analyze(&file_name, &source, &top, properties)
            .map_err(|e| e.to_string())?;
        Ok(report
            .canonical_json()
            .map_err(|e| e.to_string())?
            .into_bytes())
    };
    let analyze_body = batch(inputs.source.clone())?;
    // The edit is comment-only and moves no line, so its batch report
    // must equal the base report: every edit response is checked
    // against this one body.
    if batch(inputs.edited_source(0))? != analyze_body {
        return Err("a comment-only edit changes the batch report".to_owned());
    }
    inputs.analyze_body = analyze_body;
    std::fs::write(&inputs.file_name, &inputs.source)
        .map_err(|e| format!("{}: {e}", inputs.file_name))?;
    let lint = Command::new(soccar)
        .args(["lint", "--json", &inputs.file_name])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{}: {e}", soccar.display()))?;
    let mut body = lint.stdout;
    if body.last() == Some(&b'\n') {
        body.pop();
    }
    if body.is_empty() {
        return Err(format!(
            "`soccar lint --json` printed nothing ({})",
            lint.status
        ));
    }
    inputs.lint_body = body;
    Ok(())
}

/// One response: the envelope (parsed) and the body, plus wire sizes.
struct Reply {
    envelope: Json,
    response_bytes: usize,
    body: Vec<u8>,
}

fn roundtrip(addr: &str, payload: &[u8]) -> Result<Reply, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).ok();
    stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .map_err(|e| e.to_string())?;
    stream
        .set_write_timeout(Some(IO_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let mut writer = BufWriter::new(stream.try_clone().map_err(|e| e.to_string())?);
    write_frame(&mut writer, payload).map_err(|e| format!("send: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut frame = || -> Result<Vec<u8>, String> {
        read_frame(&mut reader)
            .map_err(|e| format!("receive: {e}"))?
            .ok_or_else(|| "daemon closed the connection early".to_owned())
    };
    let envelope = frame()?;
    let body = frame()?;
    let text = std::str::from_utf8(&envelope).map_err(|_| "envelope is not utf-8")?;
    Ok(Reply {
        envelope: Json::parse(text).map_err(|e| e.to_string())?,
        response_bytes: envelope.len() + body.len() + 8,
        body,
    })
}

/// A running `soccar serve` subprocess. Its stdout and stderr are read to
/// the end on helper threads; dropping it kills and reaps the process.
struct Daemon {
    child: Option<Child>,
    addr: String,
    drains: Vec<JoinHandle<()>>,
}

impl Daemon {
    fn start(soccar: &Path, trace_out: Option<&Path>) -> Result<Daemon, String> {
        let mut cmd = Command::new(soccar);
        cmd.args([
            "serve",
            "--jobs",
            &JOBS.to_string(),
            "--listen",
            "127.0.0.1:0",
        ]);
        if let Some(path) = trace_out {
            cmd.arg("--trace-out").arg(path);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("{}: {e}", soccar.display()))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let mut drains = vec![std::thread::spawn(move || {
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                eprintln!("soccar serve: {line}");
            }
        })];
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut banner = String::new();
        let _ = stdout.read_line(&mut banner);
        drains.push(std::thread::spawn(move || {
            let _ = std::io::copy(&mut stdout, &mut std::io::sink());
        }));
        let mut daemon = Daemon {
            child: Some(child),
            addr: String::new(),
            drains,
        };
        daemon.addr = banner
            .trim()
            .strip_prefix("soccar-serve listening on ")
            .ok_or_else(|| format!("unexpected daemon banner `{}`", banner.trim()))?
            .to_owned();
        Ok(daemon)
    }

    fn pid(&self) -> Option<u32> {
        self.child.as_ref().map(Child::id)
    }

    fn status(&self) -> Result<Json, String> {
        let reply = roundtrip(&self.addr, &to_payload(&Request::new("status")))?;
        let text = std::str::from_utf8(&reply.body).map_err(|_| "status body is not utf-8")?;
        Json::parse(text).map_err(|e| e.to_string())
    }

    /// Asks the daemon to drain and exit, and waits for it.
    fn shutdown(mut self) -> Result<(), String> {
        let acked = roundtrip(&self.addr, &to_payload(&Request::new("shutdown")));
        let mut child = self.child.take().expect("daemon is running");
        let deadline = Instant::now() + Duration::from_secs(30);
        let status = loop {
            match child.try_wait().map_err(|e| e.to_string())? {
                Some(status) => break status,
                None if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(5)),
                None => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("daemon ignored shutdown".to_owned());
                }
            }
        };
        for drain in self.drains.drain(..) {
            let _ = drain.join();
        }
        acked?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("daemon exited with {status}"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        for drain in self.drains.drain(..) {
            let _ = drain.join();
        }
    }
}

/// Starts a daemon and primes it with the base analyze and a lint.
fn start_primed(
    soccar: &Path,
    inputs: &Inputs,
    trace_out: Option<&Path>,
) -> Result<Daemon, String> {
    let daemon = Daemon::start(soccar, trace_out)?;
    for payload in [&inputs.repeat_payload, &inputs.lint_payload] {
        let reply = roundtrip(&daemon.addr, payload)?;
        if reply.envelope.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(format!(
                "priming failed: {:?}",
                reply.envelope.str_field("error")
            ));
        }
    }
    Ok(daemon)
}

/// Wire latencies and traffic of one closed-loop phase.
#[derive(Default)]
struct Phase {
    latencies: Vec<Sample>,
    request_bytes: usize,
    response_bytes: usize,
    requests: usize,
    /// Daemon peak RSS after `RSS_PROBE_AT` requests, MiB.
    rss_mb: Option<f64>,
}

impl Phase {
    /// Median of the normalized latencies.
    fn p50(&self) -> f64 {
        median(&stats::norm(&self.latencies))
    }
}

/// Checks one response against its class's expectation.
fn check(class: &str, inputs: &Inputs, reply: &Reply) -> Result<(), String> {
    let env = &reply.envelope;
    if env.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!(
            "{class}: {} envelope: {}",
            env.str_field("kind").unwrap_or("?"),
            env.str_field("error").unwrap_or("")
        ));
    }
    let expected = if class == "lint" {
        &inputs.lint_body
    } else {
        &inputs.analyze_body
    };
    if reply.body != *expected {
        return Err(format!(
            "{class}: response body differs from the batch reference"
        ));
    }
    let stats = env.get("stats");
    let flag = |key: &str| stats.is_some_and(|s| s.bool_field(key));
    let count = |key: &str| stats.and_then(|s| s.u64_field(key));
    match class {
        "repeat" if !flag("report_cache_hit") => Err("repeat: report tier missed".to_owned()),
        "edit"
            if flag("report_cache_hit")
                || count("modules_reparsed") != Some(1)
                || !flag("design_cache_hit")
                || !flag("concolic_cache_hit") =>
        {
            Err(format!("edit: unexpected tier use {:?}", env.get("stats")))
        }
        _ => Ok(()),
    }
}

/// Closed loop of `class` requests over the daemon for one budget, after
/// an untimed warm-up for edits that the budget pays for; `ledger`
/// (traced phase) gets one root span per timed request.
fn wire_phase(
    class: &'static str,
    daemon: &Daemon,
    inputs: &Inputs,
    budget: Budget,
    rev: &mut u64,
    tally: &mut Tally,
    mut ledger: Option<&mut Ledger>,
) -> Phase {
    let start = Instant::now();
    let warm_up = if class == "edit" { EDIT_WARM_UP } else { 0 };
    for _ in 0..warm_up {
        let outcome = roundtrip(&daemon.addr, &inputs.payload(class, rev))
            .and_then(|reply| check(class, inputs, &reply));
        tally.record(outcome.map_err(|e| format!("warm-up {class}: {e}")));
    }
    let budget = Budget {
        seconds: budget.seconds - start.elapsed().as_secs_f64(),
        ..budget
    };
    let mut phase = Phase::default();
    phase.latencies = budget.run(probe_every(class), |i| {
        let payload = inputs.payload(class, rev);
        let span = ledger
            .as_deref_mut()
            .map(|l| l.open(&format!("wire.{class}"), "soccar-serve", i));
        let t = Instant::now();
        let reply = roundtrip(&daemon.addr, &payload);
        let latency = ms(t.elapsed());
        if let (Some(l), Some(span)) = (ledger.as_deref_mut(), span) {
            l.close(span);
        }
        phase.requests += 1;
        phase.request_bytes += payload.len() + 4;
        let ok = match reply {
            Ok(reply) => {
                phase.response_bytes += reply.response_bytes;
                let outcome = check(class, inputs, &reply);
                let ok = outcome.is_ok();
                tally.record(outcome);
                ok
            }
            Err(e) => {
                tally.record(Err(format!("{class}: {e}")));
                false
            }
        };
        if i + 1 == RSS_PROBE_AT {
            phase.rss_mb = Some(peak_rss_mb(daemon.pid()));
        }
        ok.then_some(latency)
    });
    phase
}

/// The same requests through an in-process session (the daemon's engine
/// without the wire), with the session's stage timings as child spans.
/// Returns the in-process latencies.
fn in_process_phase(
    class: &'static str,
    inputs: &Inputs,
    budget: Budget,
    tally: &mut Tally,
    ledger: &mut Ledger,
    samples: &mut BTreeMap<&'static str, Vec<f64>>,
) -> Result<Vec<Sample>, String> {
    let mut session = AnalysisSession::new(SoccarConfig::default());
    let resolve = |source: String| -> Result<_, String> {
        let (file_name, source, top, properties, mut config) =
            resolve_request(&inputs.analyze_request(source))?;
        config.jobs = JOBS;
        Ok((file_name, source, top, properties, config))
    };
    // Primed with the base source, then warmed up as the wire phase is.
    let mut prime = |source: String| -> Result<(), String> {
        let (file_name, source, top, properties, config) = resolve(source)?;
        session
            .analyze_with_config(&file_name, &source, &top, properties, &config)
            .map_err(|e| e.to_string())?;
        Ok(())
    };
    prime(inputs.source.clone())?;
    let mut rev = 0u64;
    if class == "edit" {
        for _ in 0..EDIT_WARM_UP {
            rev += 1;
            prime(inputs.edited_source(rev))?;
        }
    }
    let stage_spans = [
        ("frontend", "session.frontend", "soccar-rtl"),
        ("lint", "lint.lint_unit", "soccar-lint"),
        ("ar_cfg", "cfg.ar_cfg", "soccar-cfg"),
        ("concolic", "concolic.cached", "soccar-concolic"),
    ];
    let latencies = budget.run(probe_every(class), |i| {
        let outcome = (|| -> Result<f64, String> {
            if class == "lint" {
                let rec = soccar_obs::Recorder::enabled();
                let root = ledger.open("inproc.lint", "soccar-lint", i);
                let mut map = soccar_rtl::span::SourceMap::new();
                let file = map.add_file(&inputs.file_name, &inputs.source);
                let unit = ledger
                    .time("rtl.parse", "soccar-rtl", i, || {
                        soccar_rtl::parser::parse_traced(file, &inputs.source, &rec)
                    })
                    .map_err(|e| e.to_string())?;
                let report = ledger.time("lint.lint_unit", "soccar-lint", i, || {
                    soccar_lint::Linter::new().lint_unit(&unit, &map)
                });
                let body = ledger.time("json.lint", "soccar", i, || {
                    soccar::json::to_json_pretty(&report)
                });
                let latency = ms(ledger.close(root));
                if body.map_err(|e| e.to_string())?.into_bytes() != inputs.lint_body {
                    return Err("in-process lint differs from `soccar lint --json`".to_owned());
                }
                samples
                    .entry("rtl.tokens")
                    .or_default()
                    .push(rec.counter_value("rtl.tokens") as f64);
                samples
                    .entry("lint.diagnostics")
                    .or_default()
                    .push(report.diagnostics.len() as f64);
                return Ok(latency);
            }
            let source = if class == "edit" {
                rev += 1;
                inputs.edited_source(rev)
            } else {
                inputs.source.clone()
            };
            let (file_name, source, top, properties, config) = resolve(source)?;
            let root = ledger.open(&format!("inproc.{class}"), "soccar", i);
            let session_span = ledger.open("session.analyze", "soccar", i);
            let t0 = Instant::now();
            let (report, stats) = session
                .analyze_with_config(&file_name, &source, &top, properties, &config)
                .map_err(|e| e.to_string())?;
            if !stats.report_cache_hit {
                let mut at = t0;
                for stage in &report.stages {
                    if let Some((_, name, layer)) = stage_spans.iter().find(|s| s.0 == stage.stage)
                    {
                        ledger.insert(name, layer, i, at, stage.elapsed);
                    }
                    at += stage.elapsed;
                }
            }
            ledger.close(session_span);
            let body = ledger.time("json.canonical", "soccar", i, || report.canonical_json());
            let latency = ms(ledger.close(root));
            if body.map_err(|e| e.to_string())?.into_bytes() != inputs.analyze_body {
                return Err(format!(
                    "in-process {class} differs from the batch reference"
                ));
            }
            if class == "edit" {
                samples
                    .entry("incremental.modules_reparsed")
                    .or_default()
                    .push(stats.modules_reparsed as f64);
                samples
                    .entry("incremental.modules_reextracted")
                    .or_default()
                    .push(stats.modules_reextracted as f64);
                samples
                    .entry("cfg.ar_events")
                    .or_default()
                    .push(report.extraction.ar_events as f64);
            }
            let mut hit = |name: &'static str, yes: bool| {
                samples
                    .entry(name)
                    .or_default()
                    .push(f64::from(u8::from(yes)));
            };
            hit("incremental.report_hits", stats.report_cache_hit);
            hit("incremental.design_hits", stats.design_cache_hit);
            hit("incremental.concolic_hits", stats.concolic_cache_hit);
            Ok(latency)
        })();
        match outcome {
            Ok(latency) => {
                tally.record(Ok(()));
                Some(latency)
            }
            Err(e) => {
                tally.record(Err(e));
                None
            }
        }
    });
    samples
        .entry("incremental.evictions")
        .or_default()
        .push(session.counters().evictions as f64);
    Ok(latencies)
}

/// A counter from the daemon's `--trace-out` NDJSON stream.
fn trace_counter(ndjson: &str, name: &str) -> f64 {
    ndjson
        .lines()
        .filter_map(|l| Json::parse(l).ok())
        .find(|v| v.str_field("type") == Some("counter") && v.str_field("name") == Some(name))
        .and_then(|v| v.u64_field("value"))
        .map_or(0.0, |v| v as f64)
}

/// Reads the daemon's `shed` count; any shed request is a failure.
fn check_shed(daemon: &Daemon, tally: &mut Tally) -> Result<(), String> {
    let shed = daemon.status()?.u64_field("shed").unwrap_or(0);
    if shed > 0 {
        tally.record(Err(format!("daemon shed {shed} connection(s)")));
    }
    Ok(())
}

/// Runs the `serve_<class>` workload. With `trace`, the budget splits into an untraced
/// wire phase, a traced wire phase (client spans, daemon `--trace-out`)
/// and an in-process phase, and the per-layer metrics are filled in.
#[allow(clippy::too_many_arguments)]
pub fn run(
    class: &str,
    seed: u64,
    budget: Budget,
    trace: bool,
    soccar: &Path,
    out: &Path,
    tally: &mut Tally,
    metrics: &mut Metrics,
    ledger: &mut Ledger,
) -> Result<(), String> {
    // The expected bodies are check machinery, built once up front and
    // not part of set-up.
    let (mut expected, _) = generate(seed, out)?;
    build_references(&mut expected, soccar)?;
    // Set-up, several times: generate the inputs, start the daemon and
    // prime it, each timing scaled by a host-speed probe taken just
    // before. The last daemon stays up for the measurement.
    let mut setups = Vec::new();
    let mut generate_ms = Vec::new();
    let mut current: Option<(Daemon, Inputs)> = None;
    for _ in 0..SETUP_REPS {
        if let Some((daemon, _)) = current.take() {
            daemon.shutdown()?;
        }
        let speed = PROBE_REF_MS / probe_ms();
        let t = Instant::now();
        let (mut inputs, gen_ms) = generate(seed, out)?;
        let produced = t.elapsed();
        inputs.analyze_body.clone_from(&expected.analyze_body);
        inputs.lint_body.clone_from(&expected.lint_body);
        let t = Instant::now();
        let daemon = start_primed(soccar, &inputs, None)?;
        setups.push((produced + t.elapsed()).as_secs_f64() * speed);
        generate_ms.push(gen_ms * speed);
        current = Some((daemon, inputs));
    }
    let (daemon, inputs) = current.expect("at least one set-up");
    metrics.set("setup_s", median(&setups), "s");
    metrics.set("soc.generate_ms", median(&generate_ms), "ms");

    let class = match class {
        "repeat" => "repeat",
        "edit" => "edit",
        "lint" => "lint",
        _ => return Err(format!("unknown request class `{class}`")),
    };
    let mut rev = 0u64;
    let share = if trace { 0.4 } else { 1.0 };
    let plain = wire_phase(
        class,
        &daemon,
        &inputs,
        budget.share(share),
        &mut rev,
        tally,
        None,
    );
    stats::report(&format!("serve_{class} untraced"), &plain.latencies);
    metrics.set("latency_p50_ms", plain.p50(), "ms");
    let rss = plain.rss_mb.unwrap_or_else(|| peak_rss_mb(daemon.pid()));
    metrics.set("mem.peak_rss_mb", rss, "MB");
    check_shed(&daemon, tally)?;
    daemon.shutdown()?;
    if !trace {
        return Ok(());
    }

    let trace_path = out.join(format!("serve_{class}-{seed}-daemon.ndjson"));
    let daemon = start_primed(soccar, &inputs, Some(&trace_path))?;
    let traced = wire_phase(
        class,
        &daemon,
        &inputs,
        budget.share(0.4),
        &mut rev,
        tally,
        Some(ledger),
    );
    stats::report(&format!("serve_{class} traced"), &traced.latencies);
    check_shed(&daemon, tally)?;
    daemon.shutdown()?;
    let daemon_trace = std::fs::read_to_string(&trace_path)
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;

    let mut samples = BTreeMap::new();
    let inproc = in_process_phase(
        class,
        &inputs,
        budget.share(0.2),
        tally,
        ledger,
        &mut samples,
    )?;
    let inproc_p50 = median(&stats::norm(&inproc));
    let (overhead, incremental) = match class {
        "repeat" => ("serve.repeat_overhead_ms", Some("incremental.repeat_ms")),
        "edit" => ("serve.edit_overhead_ms", Some("incremental.edit_ms")),
        _ => ("serve.lint_overhead_ms", None),
    };
    metrics.set(overhead, plain.p50() - inproc_p50, "ms");
    if let Some(name) = incremental {
        metrics.set(name, inproc_p50, "ms");
    }
    let requests = plain.requests.max(1) as f64;
    metrics.set(
        "serve.request_kb",
        plain.request_bytes as f64 / requests / 1024.0,
        "KB",
    );
    metrics.set(
        "serve.response_kb",
        plain.response_bytes as f64 / requests / 1024.0,
        "KB",
    );
    metrics.set(
        "serve.connections",
        trace_counter(&daemon_trace, "server.connections"),
        "count",
    );
    metrics.set(
        "serve.shed",
        trace_counter(&daemon_trace, "server.shed"),
        "count",
    );
    metrics.set(
        "trace.overhead_pct",
        100.0 * (traced.p50() / plain.p50() - 1.0),
        "%",
    );
    for (metric, span) in [
        ("rtl.parse_ms", "rtl.parse"),
        ("lint.lint_ms", "lint.lint_unit"),
        ("cfg.compose_ms", "cfg.ar_cfg"),
    ] {
        let per_op = ledger.per_op_ms(&[span]);
        if !per_op.is_empty() {
            metrics.set(metric, median(&per_op), "ms");
        }
    }
    for (name, values) in &samples {
        let total: f64 = values.iter().sum();
        let value = match *name {
            "incremental.report_hits"
            | "incremental.design_hits"
            | "incremental.concolic_hits"
            | "incremental.evictions" => total,
            _ => median(values),
        };
        metrics.set(name, value, "count");
    }
    Ok(())
}
