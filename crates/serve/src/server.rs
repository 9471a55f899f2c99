//! The analysis daemon: a TCP server wrapping one
//! [`AnalysisSession`].
//!
//! One server holds one session — per-design caches are keyed by content
//! hash inside the session, so a single server happily serves many
//! designs. Connections are admitted through a
//! [`soccar_exec::Semaphore`] (bounded handler threads); each connection
//! may pipeline any number of requests. All analysis requests serialize
//! over the session mutex — parallelism lives *inside* the pipeline's
//! worker pool, which keeps responses byte-identical to batch runs by
//! construction. A request whose analysis panics gets an error envelope,
//! and the session it may have left half-updated is replaced by a fresh
//! one, so the next request is served as if the daemon had just started.
//! Shutdown is cooperative: a `shutdown` request is acknowledged, then
//! the acceptor drains and [`Server::run`] returns.

use std::io::{BufWriter, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use serde::Serialize;
use soccar::cli::parse_property;
use soccar::incremental::{AnalysisSession, SessionCounters, TierSizes};
use soccar::SoccarConfig;
use soccar_cfg::GovernorAnalysis;
use soccar_concolic::{ConcolicConfig, SecurityProperty};
use soccar_exec::{FaultPlan, Semaphore};
use soccar_lint::{LintConfig, Linter, Severity};

use crate::proto::{write_frame, Envelope, Request, MAX_FRAME};

/// Server construction knobs.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Bind address (`host:port`; port 0 picks an ephemeral port).
    pub listen: String,
    /// Concurrent connections admitted (further accepts queue briefly,
    /// then shed with a `busy` envelope).
    pub max_connections: usize,
    /// Worker threads for each request's parallel stages (0 = resolve
    /// via `SOCCAR_JOBS`, then available cores). Reports are identical
    /// for every value.
    pub jobs: usize,
    /// Fault-injection plan (chaos testing; empty in production): the
    /// serve-layer `shed:admission` point, and the pipeline's points,
    /// which every analyze request then injects, bypassing the session's
    /// caches.
    pub fault_plan: FaultPlan,
    /// How long a connection may sit silent *between* frames before the
    /// server closes it (`None` = forever).
    pub idle_timeout: Option<Duration>,
    /// How long a started frame may take to arrive in full — the
    /// slow-loris guard (`None` = forever).
    pub frame_deadline: Option<Duration>,
    /// Per-connection socket write deadline (`None` = blocking writes).
    pub write_timeout: Option<Duration>,
    /// How long an arriving connection may queue for an admission
    /// permit before it is shed with a `busy` envelope.
    pub admission_wait: Duration,
    /// The `retry_after_ms` hint stamped on `busy` envelopes.
    pub retry_after_ms: u64,
}

impl Default for ServerOptions {
    fn default() -> ServerOptions {
        ServerOptions {
            listen: "127.0.0.1:0".to_owned(),
            max_connections: 4,
            jobs: 0,
            fault_plan: FaultPlan::default(),
            idle_timeout: None,
            frame_deadline: None,
            write_timeout: None,
            admission_wait: Duration::from_millis(500),
            retry_after_ms: 100,
        }
    }
}

/// The `status` response body.
#[derive(Debug, Clone, Serialize)]
pub struct StatusBody {
    /// Milliseconds since the server started.
    pub uptime_ms: u64,
    /// The server's worker-thread setting (0 = auto).
    pub jobs: usize,
    /// Session-lifetime cache counters.
    pub counters: SessionCounters,
    /// Entries currently held per cache tier.
    pub tiers: TierSizes,
    /// Connections shed with a `busy` envelope since startup.
    pub shed: u64,
}

/// Resolves an analyze/lint request into concrete pipeline inputs:
/// `(file_name, source, top, properties, config)`. Catalog SoC requests
/// (`clustersoc`, `autosoc`, or a generated `gen:<seed>:<scale>`) pick
/// up their catalog properties and symbolic inputs, exactly like
/// `soccar analyze --soc`; defaults (cycles 24, rounds 12, unlimited
/// budget) match the CLI so responses are byte-identical to batch runs.
///
/// # Errors
///
/// On an unknown SoC model, a bad property spec, or a missing top.
pub fn resolve_request(
    req: &Request,
) -> Result<(String, String, String, Vec<SecurityProperty>, SoccarConfig), String> {
    let (file_name, source, top, mut properties, mut symbolic) = if req.soc.is_empty() {
        if req.top.is_empty() {
            return Err("analyze request needs `top` (or `soc`)".to_owned());
        }
        let name = if req.file_name.is_empty() {
            "request.v".to_owned()
        } else {
            req.file_name.clone()
        };
        (
            name,
            req.source.clone(),
            req.top.clone(),
            Vec::new(),
            Vec::new(),
        )
    } else {
        let soc = soccar_soc::catalog::resolve(&req.soc, req.variant)?;
        let props: Vec<SecurityProperty> = soc.checks.iter().map(soccar::property_of).collect();
        let top = if req.top.is_empty() {
            soc.top.clone()
        } else {
            req.top.clone()
        };
        (soc.file_name, soc.source, top, props, soc.symbolic)
    };
    for spec in &req.properties {
        properties.push(parse_property(spec)?);
    }
    symbolic.extend(req.symbolic.iter().cloned());
    let config = SoccarConfig {
        analysis: if req.refined {
            GovernorAnalysis::Refined
        } else {
            GovernorAnalysis::Explicit
        },
        concolic: ConcolicConfig {
            cycles: req.cycles.unwrap_or(24),
            max_rounds: req.rounds.unwrap_or(12) as usize,
            symbolic_inputs: symbolic,
            solver_budget: match req.solver_budget {
                Some(n) => soccar_smt::SolveBudget::conflicts(n),
                None => soccar_smt::SolveBudget::UNLIMITED,
            },
            ..ConcolicConfig::default()
        },
        keep_going: req.keep_going,
        ..SoccarConfig::default()
    };
    Ok((file_name, source, top, properties, config))
}

/// The daemon (see the [module docs](self)).
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    session: Mutex<AnalysisSession>,
    recorder: soccar_obs::Recorder,
    jobs: usize,
    admission: Semaphore,
    shutdown: AtomicBool,
    started: Instant,
    fault_plan: FaultPlan,
    idle_timeout: Option<Duration>,
    frame_deadline: Option<Duration>,
    write_timeout: Option<Duration>,
    admission_wait: Duration,
    retry_after_ms: u64,
    shed: AtomicU64,
    // The `shed:admission` fault point's index (serial per server). It
    // is an *index for fault plans*, not a metric — metrics live in the
    // recorder and `StatusBody`.
    admission_seq: AtomicU64,
}

impl Server {
    /// Binds the listen socket and builds the session.
    ///
    /// # Errors
    ///
    /// Propagates socket bind failures.
    pub fn bind(options: &ServerOptions) -> std::io::Result<Server> {
        Server::bind_with_recorder(options, soccar_obs::Recorder::disabled())
    }

    /// Like [`Server::bind`], with an observability recorder: `server.*`
    /// counters and every request's pipeline spans land in it (snapshot
    /// after [`Server::run`] returns for `--trace-out`).
    ///
    /// # Errors
    ///
    /// Propagates socket bind failures.
    pub fn bind_with_recorder(
        options: &ServerOptions,
        recorder: soccar_obs::Recorder,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&options.listen)?;
        let addr = listener.local_addr()?;
        let session = fresh_session(&recorder);
        Ok(Server {
            listener,
            addr,
            session: Mutex::new(session),
            recorder,
            jobs: options.jobs,
            admission: Semaphore::new(options.max_connections),
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
            fault_plan: options.fault_plan.clone(),
            idle_timeout: options.idle_timeout,
            frame_deadline: options.frame_deadline,
            write_timeout: options.write_timeout,
            admission_wait: options.admission_wait,
            retry_after_ms: options.retry_after_ms,
            shed: AtomicU64::new(0),
            admission_seq: AtomicU64::new(0),
        })
    }

    /// The bound address (useful with an ephemeral port).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The recorder the server reports into.
    #[must_use]
    pub fn recorder(&self) -> &soccar_obs::Recorder {
        &self.recorder
    }

    /// Serves until a `shutdown` request arrives, then drains and
    /// returns the total number of requests served. In-flight handler
    /// threads finish before this returns — no request is abandoned.
    /// Connections that cannot get an admission permit within the
    /// configured wait are **shed** with a structured `busy` envelope
    /// instead of queueing unboundedly.
    ///
    /// # Errors
    ///
    /// Propagates accept-loop I/O failures.
    pub fn run(&self) -> std::io::Result<u64> {
        std::thread::scope(|scope| loop {
            let (stream, _) = self.listener.accept()?;
            if self.shutdown.load(Ordering::Acquire) {
                break std::io::Result::Ok(());
            }
            // Admission control: bounding here (not in the handler)
            // bounds the thread count, not just the work in flight.
            let admission_idx = self.admission_seq.fetch_add(1, Ordering::Relaxed) + 1;
            let forced_shed = self.fault_plan.should_inject(SHED_POINT, admission_idx);
            let permit = if forced_shed {
                None
            } else {
                self.admission.acquire_timeout(self.admission_wait)
            };
            let Some(permit) = permit else {
                self.shed_connection(stream);
                continue;
            };
            self.recorder.counter_add("server.connections", 1);
            scope.spawn(move || {
                let _permit = permit;
                // A broken connection only loses that client.
                let _ = self.handle(stream);
            });
        })?;
        Ok(self.session().counters().requests)
    }

    /// The analysis session. Every panic under its lock is caught and
    /// the session replaced, so a poisoned lock holds a sound session.
    fn session(&self) -> MutexGuard<'_, AnalysisSession> {
        self.session.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Sheds one connection: reads nothing, answers every queued byte
    /// with nothing — just a `busy` envelope + empty body, then closes.
    /// Cheap by design; the whole point is to spend no session time.
    fn shed_connection(&self, stream: TcpStream) {
        self.shed.fetch_add(1, Ordering::Relaxed);
        self.recorder.counter_add("server.shed", 1);
        stream.set_nodelay(true).ok();
        stream
            .set_write_timeout(self.write_timeout.or(SHED_WRITE_TIMEOUT))
            .ok();
        let envelope = Envelope::busy(self.retry_after_ms);
        let _ = write_response(&mut BufWriter::new(stream), &envelope, &[]);
    }

    /// Requests shutdown from outside a connection (used by tests and
    /// signal handling). The acceptor wakes on the next connection; pair
    /// with a dummy connect if none is expected.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
    }

    fn handle(&self, stream: TcpStream) -> std::io::Result<()> {
        stream.set_nodelay(true).ok();
        stream.set_write_timeout(self.write_timeout)?;
        let mut reader = stream.try_clone()?;
        let mut writer = BufWriter::new(stream);
        loop {
            let frame =
                match read_frame_guarded(&mut reader, self.idle_timeout, self.frame_deadline)? {
                    GuardedRead::Frame(frame) => frame,
                    // An idle peer is closed silently — it is not waiting
                    // for a response; a mid-frame staller (slow loris) gets
                    // its socket dropped, freeing the handler permit.
                    GuardedRead::ClosedClean
                    | GuardedRead::IdleTimeout
                    | GuardedRead::SlowLoris => break,
                    GuardedRead::Oversized(len) => {
                        // Name the offending length, then close: framing
                        // cannot resynchronize past an unread payload.
                        let envelope = Envelope::error(&format!(
                            "request frame of {len} bytes exceeds the {MAX_FRAME}-byte cap"
                        ));
                        write_response(&mut writer, &envelope, &[])?;
                        break;
                    }
                };
            let (envelope, body, stop) = match std::str::from_utf8(&frame) {
                Err(_) => (
                    Envelope::error("request frame is not utf-8"),
                    Vec::new(),
                    false,
                ),
                Ok(text) => match Request::from_json(text) {
                    Err(e) => (Envelope::error(&e), Vec::new(), false),
                    Ok(req) => self.dispatch(req),
                },
            };
            write_response(&mut writer, &envelope, &body)?;
            if stop {
                // Acknowledge first, then wake the acceptor so `run`
                // observes the flag and drains.
                self.request_shutdown();
                let _ = TcpStream::connect(self.addr);
                break;
            }
        }
        Ok(())
    }

    /// Serves one request: `(envelope, body, shutdown?)`.
    fn dispatch(&self, req: Request) -> (Envelope, Vec<u8>, bool) {
        match req.cmd.as_str() {
            "analyze" => {
                let (envelope, body) = self.dispatch_analyze(&req);
                (envelope, body, false)
            }
            "lint" => {
                let (envelope, body) = self.dispatch_lint(req);
                (envelope, body, false)
            }
            "status" => {
                let (envelope, body) = self.dispatch_status();
                (envelope, body, false)
            }
            "shutdown" => (Envelope::ok("shutdown"), Vec::new(), true),
            other => (
                Envelope::error(&format!("unknown command `{other}`")),
                Vec::new(),
                false,
            ),
        }
    }

    fn dispatch_analyze(&self, req: &Request) -> (Envelope, Vec<u8>) {
        let (file_name, source, top, properties, mut config) = match resolve_request(req) {
            Ok(resolved) => resolved,
            Err(e) => return (Envelope::error(&e), Vec::new()),
        };
        config.jobs = self.jobs;
        // A plan naming pipeline points makes every analyze request
        // inject them (and bypass the caches); a plan of the serve-layer
        // point alone leaves requests cacheable.
        if self
            .fault_plan
            .injections()
            .any(|(point, _)| point != SHED_POINT)
        {
            config.fault_plan = self.fault_plan.clone();
        }
        let outcome = {
            let mut session = self.session();
            let analyzed = catch_unwind(AssertUnwindSafe(|| {
                session.analyze_with_config(&file_name, &source, &top, properties, &config)
            }));
            match analyzed {
                Ok(outcome) => outcome,
                Err(panic) => {
                    // The panic may have left the caches half-updated.
                    *session = fresh_session(&self.recorder);
                    let message = soccar_exec::panic_message(panic.as_ref());
                    return (
                        Envelope::error(&format!("analysis panicked: {message}")),
                        Vec::new(),
                    );
                }
            }
        };
        match outcome {
            Err(e) => (Envelope::error(&e.to_string()), Vec::new()),
            Ok((report, stats)) => {
                let body = match report.canonical_json() {
                    Ok(json) => json.into_bytes(),
                    Err(e) => return (Envelope::error(&e.to_string()), Vec::new()),
                };
                let health = report.health();
                let mut envelope = Envelope::ok("analyze");
                envelope.health = if health.is_degraded() {
                    "degraded"
                } else {
                    "ok"
                }
                .to_owned();
                envelope.degraded_reasons = health.reasons().to_vec();
                envelope.violations = report.violations().len() as u64;
                envelope.stats = Some(stats);
                (envelope, body)
            }
        }
    }

    /// Lints the request's source, which moves into the report's source
    /// map uncopied.
    fn dispatch_lint(&self, req: Request) -> (Envelope, Vec<u8>) {
        self.recorder.counter_add("server.requests", 1);
        let (file_name, source) = if req.soc.is_empty() {
            let name = if req.file_name.is_empty() {
                "request.v".to_owned()
            } else {
                req.file_name
            };
            (name, req.source)
        } else {
            match resolve_request(&req) {
                Ok((name, source, _, _, _)) => (name, source),
                Err(e) => return (Envelope::error(&e), Vec::new()),
            }
        };
        let lint_config = LintConfig {
            allow: req.allow.clone(),
            deny: req.deny.clone(),
        };
        let linter = Linter::new().with_config(lint_config);
        for id in req.allow.iter().chain(&req.deny) {
            if !linter.is_known_rule(id) {
                return (Envelope::error(&format!("unknown rule `{id}`")), Vec::new());
            }
        }
        match linter.lint_source(&file_name, source) {
            Err(e) => (Envelope::error(&e), Vec::new()),
            Ok(report) => {
                let body = match soccar::json::to_json_pretty(&report) {
                    Ok(json) => json.into_bytes(),
                    Err(e) => return (Envelope::error(&e.to_string()), Vec::new()),
                };
                let mut envelope = Envelope::ok("lint");
                envelope.violations = report
                    .diagnostics
                    .iter()
                    .filter(|d| d.severity == Severity::Error)
                    .count() as u64;
                (envelope, body)
            }
        }
    }

    fn dispatch_status(&self) -> (Envelope, Vec<u8>) {
        self.recorder.counter_add("server.requests", 1);
        let session = self.session();
        let body = StatusBody {
            uptime_ms: self.started.elapsed().as_millis() as u64,
            jobs: self.jobs,
            counters: *session.counters(),
            tiers: session.tier_sizes(),
            shed: self.shed.load(Ordering::Relaxed),
        };
        match soccar::json::to_json_pretty(&body) {
            Err(e) => (Envelope::error(&e.to_string()), Vec::new()),
            Ok(json) => (Envelope::ok("status"), json.into_bytes()),
        }
    }
}

/// The serve-layer fault point: shed the indexed admission.
const SHED_POINT: &str = "shed:admission";

/// An empty analysis session reporting into `recorder`.
fn fresh_session(recorder: &soccar_obs::Recorder) -> AnalysisSession {
    AnalysisSession::new(SoccarConfig::default()).with_recorder(recorder.clone())
}

/// Write deadline for `busy` envelopes when the server has no
/// configured write timeout — a shed client that also refuses to read
/// must not pin the acceptor.
const SHED_WRITE_TIMEOUT: Option<Duration> = Some(Duration::from_millis(2_000));

/// Granularity of deadline checks in [`read_frame_guarded`] — the
/// socket wakes at least this often to compare clocks.
const POLL_SLICE: Duration = Duration::from_millis(50);

/// Writes the two response frames: the envelope, then the body.
fn write_response(
    writer: &mut BufWriter<TcpStream>,
    envelope: &Envelope,
    body: &[u8],
) -> std::io::Result<()> {
    let envelope_json = envelope.to_json().map_err(std::io::Error::other)?;
    write_frame(writer, envelope_json.as_bytes())?;
    write_frame(writer, body)
}

/// Outcome of one guarded frame read.
enum GuardedRead {
    /// A complete frame payload.
    Frame(Vec<u8>),
    /// The peer closed cleanly at a frame boundary.
    ClosedClean,
    /// No byte arrived within the idle budget.
    IdleTimeout,
    /// A frame started but did not finish within the frame deadline —
    /// the slow-loris signature.
    SlowLoris,
    /// The announced length exceeds [`MAX_FRAME`]; the payload was not
    /// read (framing is now unrecoverable, close after reporting).
    Oversized(u32),
}

enum ReadStep {
    Bytes(usize),
    Eof,
    Expired,
}

/// One `read` under an optional deadline: blocks in [`POLL_SLICE`]
/// increments so an armed deadline is honored within one slice.
fn read_some(
    stream: &mut TcpStream,
    buf: &mut [u8],
    deadline: Option<Instant>,
) -> std::io::Result<ReadStep> {
    loop {
        let timeout = match deadline {
            None => None,
            Some(at) => {
                let remaining = at.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    return Ok(ReadStep::Expired);
                }
                Some(remaining.min(POLL_SLICE))
            }
        };
        stream.set_read_timeout(timeout)?;
        match stream.read(buf) {
            Ok(0) => return Ok(ReadStep::Eof),
            Ok(n) => return Ok(ReadStep::Bytes(n)),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) =>
            {
                continue
            }
            Err(e) => return Err(e),
        }
    }
}

/// [`crate::proto::read_frame`] with the transport guards: the idle
/// clock runs while waiting for a frame's first byte; once one arrives
/// the frame deadline takes over and covers the rest of the header and
/// the whole payload.
fn read_frame_guarded(
    stream: &mut TcpStream,
    idle: Option<Duration>,
    frame_deadline: Option<Duration>,
) -> std::io::Result<GuardedRead> {
    let mut header = [0u8; 4];
    let idle_deadline = idle.map(|d| Instant::now() + d);
    let mut filled = 0usize;
    while filled == 0 {
        match read_some(stream, &mut header, idle_deadline)? {
            ReadStep::Bytes(n) => filled = n,
            ReadStep::Eof => return Ok(GuardedRead::ClosedClean),
            ReadStep::Expired => return Ok(GuardedRead::IdleTimeout),
        }
    }
    let frame_by = frame_deadline.map(|d| Instant::now() + d);
    while filled < header.len() {
        match read_some(stream, &mut header[filled..], frame_by)? {
            ReadStep::Bytes(n) => filled += n,
            ReadStep::Eof => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "eof inside frame header",
                ))
            }
            ReadStep::Expired => return Ok(GuardedRead::SlowLoris),
        }
    }
    let len = u32::from_be_bytes(header);
    if len > MAX_FRAME {
        return Ok(GuardedRead::Oversized(len));
    }
    let mut payload = vec![0u8; len as usize];
    let mut got = 0usize;
    while got < payload.len() {
        match read_some(stream, &mut payload[got..], frame_by)? {
            ReadStep::Bytes(n) => got += n,
            ReadStep::Eof => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "eof inside frame payload",
                ))
            }
            ReadStep::Expired => return Ok(GuardedRead::SlowLoris),
        }
    }
    Ok(GuardedRead::Frame(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_request_mirrors_cli_defaults() {
        let mut req = Request::new("analyze");
        req.source = "module top(input clk); endmodule".into();
        req.top = "top".into();
        let (name, _, top, props, config) = resolve_request(&req).expect("resolve");
        assert_eq!(name, "request.v");
        assert_eq!(top, "top");
        assert!(props.is_empty());
        assert_eq!(config.concolic.cycles, 24);
        assert_eq!(config.concolic.max_rounds, 12);
        assert!(config.concolic.solver_budget.is_unlimited());
        assert_eq!(config.analysis, GovernorAnalysis::Explicit);
    }

    #[test]
    fn resolve_request_loads_bundled_soc_catalogs() {
        let mut req = Request::new("analyze");
        req.soc = "clustersoc".into();
        let (name, source, top, props, config) = resolve_request(&req).expect("resolve");
        assert_eq!(name, "clustersoc.v");
        assert!(!source.is_empty());
        assert!(!top.is_empty());
        assert!(!props.is_empty(), "catalog properties pre-loaded");
        assert!(!config.concolic.symbolic_inputs.is_empty());
        req.soc = "toastersoc".into();
        assert!(resolve_request(&req).is_err());
    }

    #[test]
    fn resolve_request_loads_generated_designs() {
        let mut req = Request::new("analyze");
        req.soc = "gen:7:2".into();
        let (name, source, top, props, config) = resolve_request(&req).expect("resolve");
        assert_eq!(name, "gen_7_2.v");
        assert_eq!(top, "gen_soc");
        assert!(source.contains("module gen_soc"));
        assert!(!props.is_empty(), "generated checks pre-loaded");
        assert!(!config.concolic.symbolic_inputs.is_empty());
        // Generated designs draw bugs from the seed, never from --variant.
        req.variant = Some(1);
        assert!(resolve_request(&req).is_err());
    }

    #[test]
    fn resolve_request_applies_qos_knobs() {
        let mut req = Request::new("analyze");
        req.source = "module top(input clk); endmodule".into();
        req.top = "top".into();
        req.refined = true;
        req.cycles = Some(8);
        req.rounds = Some(2);
        req.solver_budget = Some(50);
        req.keep_going = true;
        let (_, _, _, _, config) = resolve_request(&req).expect("resolve");
        assert_eq!(config.analysis, GovernorAnalysis::Refined);
        assert_eq!(config.concolic.cycles, 8);
        assert_eq!(config.concolic.max_rounds, 2);
        assert_eq!(
            config.concolic.solver_budget,
            soccar_smt::SolveBudget::conflicts(50)
        );
        assert!(config.keep_going);
    }

    #[test]
    fn missing_top_is_rejected() {
        let mut req = Request::new("analyze");
        req.source = "module top(input clk); endmodule".into();
        assert!(resolve_request(&req).is_err());
    }
}
