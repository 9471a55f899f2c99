//! Serve-layer chaos, in process: load shedding and the `busy`
//! envelope, the deterministic `shed@admission` fault point, the
//! transport guards (idle timeout, slow-loris frame deadline, oversized
//! frames), and per-request isolation of a panicking analysis.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use soccar_exec::FaultPlan;
use soccar_serve::{
    read_frame, resolve_request, Client, Json, Request, Server, ServerOptions, MAX_FRAME,
};

fn with_server(options: ServerOptions, body: impl FnOnce(&str)) {
    let server = Arc::new(Server::bind(&options).expect("bind"));
    let addr = server.local_addr().to_string();
    let runner = {
        let server = Arc::clone(&server);
        thread::spawn(move || server.run().expect("run"))
    };
    body(&addr);
    // The shutdown connection itself may be shed while a permit is
    // still draining — exactly the behavior under test — so back off
    // and retry like a well-behaved client.
    let mut attempts = 0;
    loop {
        let mut client = Client::connect(&addr).expect("connect for shutdown");
        let (envelope, _) = client
            .roundtrip(&Request::new("shutdown"))
            .expect("shutdown");
        if envelope.ok {
            break;
        }
        assert!(envelope.is_busy(), "shutdown failed: {}", envelope.error);
        attempts += 1;
        assert!(attempts < 100, "shutdown shed forever");
        thread::sleep(Duration::from_millis(50));
    }
    runner.join().expect("server thread");
}

fn status_json(addr: &str) -> Json {
    let mut client = Client::connect(addr).expect("connect");
    let (envelope, body) = client.roundtrip(&Request::new("status")).expect("status");
    assert!(envelope.ok);
    Json::parse(std::str::from_utf8(&body).expect("utf-8")).expect("json")
}

#[test]
fn saturated_admission_sheds_with_a_busy_envelope() {
    let options = ServerOptions {
        max_connections: 1,
        admission_wait: Duration::ZERO,
        retry_after_ms: 70,
        ..ServerOptions::default()
    };
    with_server(options, |addr| {
        // Take the only permit and prove it is held (a full roundtrip
        // means the handler is running).
        let mut holder = Client::connect(addr).expect("connect holder");
        let (envelope, _) = holder.roundtrip(&Request::new("status")).expect("status");
        assert!(envelope.ok);

        // The second connection is shed immediately, with the hint.
        let mut shed = Client::connect(addr).expect("connect shed");
        let (envelope, body) = shed.roundtrip(&Request::new("status")).expect("busy");
        assert!(envelope.is_busy(), "expected busy, got: {}", envelope.error);
        assert_eq!(envelope.retry_after_ms, 70);
        assert!(body.is_empty());

        // Free the permit; the shed count is visible in status.
        drop(holder);
        drop(shed);
        thread::sleep(Duration::from_millis(300));
        let status = status_json(addr);
        assert_eq!(status.u64_field("shed"), Some(1));
    });
}

#[test]
fn shed_fault_point_sheds_the_indexed_admission_only() {
    let options = ServerOptions {
        fault_plan: FaultPlan::parse("shed@admission:1").expect("plan"),
        retry_after_ms: 70,
        ..ServerOptions::default()
    };
    with_server(options, |addr| {
        // Admission #1 is forcibly shed, with the retry hint.
        let mut shed = Client::connect(addr).expect("connect shed");
        let (envelope, body) = shed.roundtrip(&Request::new("status")).expect("busy");
        assert!(envelope.is_busy(), "expected busy, got: {}", envelope.error);
        assert_eq!(envelope.retry_after_ms, 70);
        assert!(body.is_empty());

        // Admission #2 is served, and counts the one shed.
        let status = status_json(addr);
        assert_eq!(status.u64_field("shed"), Some(1));
    });
}

#[test]
fn idle_connections_are_closed_and_the_server_keeps_serving() {
    let options = ServerOptions {
        idle_timeout: Some(Duration::from_millis(200)),
        ..ServerOptions::default()
    };
    with_server(options, |addr| {
        let mut idle = TcpStream::connect(addr).expect("connect");
        idle.set_read_timeout(Some(Duration::from_secs(10))).ok();
        // Send nothing. The server closes us at the idle deadline.
        let got = read_frame(&mut idle).expect("clean close, not an error");
        assert!(got.is_none(), "expected EOF from the idle timeout");
        // The freed handler still serves new connections.
        let status = status_json(addr);
        assert!(status.u64_field("uptime_ms").is_some());
    });
}

#[test]
fn slow_loris_frames_are_cut_at_the_frame_deadline() {
    let options = ServerOptions {
        frame_deadline: Some(Duration::from_millis(200)),
        ..ServerOptions::default()
    };
    with_server(options, |addr| {
        let mut loris = TcpStream::connect(addr).expect("connect");
        loris.set_read_timeout(Some(Duration::from_secs(10))).ok();
        // Start a frame, then stall: two header bytes and silence.
        loris.write_all(&[0x00, 0x00]).expect("dribble");
        loris.flush().ok();
        let mut buf = [0u8; 1];
        let closed = matches!(std::io::Read::read(&mut loris, &mut buf), Ok(0) | Err(_));
        assert!(closed, "the server must drop a mid-frame staller");
        let status = status_json(addr);
        assert!(status.u64_field("uptime_ms").is_some());
    });
}

#[test]
fn oversized_frames_get_an_error_naming_the_length() {
    with_server(ServerOptions::default(), |addr| {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let huge = MAX_FRAME + 7;
        stream.write_all(&huge.to_be_bytes()).expect("header");
        stream.flush().ok();
        let envelope = read_frame(&mut stream)
            .expect("error envelope")
            .expect("frame");
        let envelope = Json::parse(std::str::from_utf8(&envelope).expect("utf-8")).expect("json");
        assert_eq!(envelope.get("ok").and_then(Json::as_bool), Some(false));
        let error = envelope.str_field("error").expect("error field");
        assert!(
            error.contains(&huge.to_string()),
            "error must name the offending length: {error}"
        );
    });
}

/// An analysis that panics inside the session — here an injected
/// extraction-worker panic without `keep_going` — gets an error envelope
/// naming the panic. The session is rebuilt, not poisoned: it panics the
/// same way again, and then the same request with `keep_going` on the
/// same connection is served byte-identical to batch.
#[test]
fn a_panicking_analysis_gets_an_error_envelope_and_the_next_request_is_served() {
    let plan = FaultPlan::parse("task_panic@extract:1").expect("plan");
    let options = ServerOptions {
        fault_plan: plan.clone(),
        ..ServerOptions::default()
    };
    with_server(options, |addr| {
        let mut client = Client::connect(addr).expect("connect");
        let mut req = Request::new("analyze");
        req.soc = "clustersoc".to_owned();
        req.cycles = Some(6);
        req.rounds = Some(2);
        for _ in 0..2 {
            let (envelope, body) = client.roundtrip(&req).expect("panicking analyze");
            assert!(!envelope.ok);
            assert_eq!(
                envelope.error,
                "analysis panicked: injected fault: task_panic@extract:1"
            );
            assert!(body.is_empty());
        }

        req.keep_going = true;
        let (file_name, source, top, properties, mut config) =
            resolve_request(&req).expect("resolve");
        config.fault_plan = plan.clone();
        let batch = soccar::Soccar::new(config)
            .analyze(&file_name, &source, &top, properties)
            .expect("batch analyze")
            .canonical_json()
            .expect("canonical json");
        let (envelope, body) = client.roundtrip(&req).expect("analyze");
        assert!(envelope.ok, "analyze failed: {}", envelope.error);
        assert_eq!(envelope.health, "degraded");
        assert_eq!(std::str::from_utf8(&body).expect("utf-8"), batch);

        let status = status_json(addr);
        assert!(status.u64_field("uptime_ms").is_some());
    });
}
