//! In-process integration tests for the `soccar serve` daemon.
//!
//! The load-bearing guarantee: every `analyze` body a client receives is
//! byte-identical to the canonical JSON of a cold batch `Soccar::analyze`
//! on the same input — under concurrency, under warm caches, and for
//! every worker-thread count.

use std::net::TcpStream;
use std::sync::Arc;
use std::thread;

use soccar::Soccar;
use soccar_serve::{read_frame, write_frame, Client, Json, Request, Server, ServerOptions};

const KEY_PROPERTY: &str = "cleared:key-cleared:ip:top.sec_rst_n:top.u.key:8";

fn leaky(ip_value: u8, top_comment: &str) -> String {
    format!(
        "module ip(input clk, input rst_n, output reg [7:0] key);
  always @(posedge clk or negedge rst_n)
    if (!rst_n) key <= key;
    else key <= 8'h{ip_value:02X};
endmodule
module top(input clk, input sec_rst_n);{top_comment}
  ip u (.clk(clk), .rst_n(sec_rst_n));
endmodule
"
    )
}

fn analyze_request(source: &str) -> Request {
    let mut req = Request::new("analyze");
    req.file_name = "t.v".to_owned();
    req.source = source.to_owned();
    req.top = "top".to_owned();
    req.properties = vec![KEY_PROPERTY.to_owned()];
    req
}

/// The batch pipeline's canonical JSON for the same request, resolved
/// through the exact same path the server uses.
fn batch_canonical(req: &Request) -> String {
    let (file_name, source, top, properties, config) =
        soccar_serve::resolve_request(req).expect("resolve");
    Soccar::new(config)
        .analyze(&file_name, &source, &top, properties)
        .expect("batch analyze")
        .canonical_json()
        .expect("canonical json")
}

/// Spawns a server, hands its address to `body`, then shuts it down via
/// the protocol and returns (`body` result, requests served).
fn with_server<T>(options: ServerOptions, body: impl FnOnce(&str) -> T) -> (T, u64) {
    let server = Arc::new(Server::bind(&options).expect("bind"));
    let addr = server.local_addr().to_string();
    let runner = {
        let server = Arc::clone(&server);
        thread::spawn(move || server.run().expect("run"))
    };
    let result = body(&addr);
    let mut client = Client::connect(&addr).expect("connect for shutdown");
    let (envelope, _) = client
        .roundtrip(&Request::new("shutdown"))
        .expect("shutdown");
    assert!(envelope.ok, "shutdown must be acknowledged");
    let served = runner.join().expect("server thread");
    (result, served)
}

/// A raw roundtrip that keeps the envelope JSON (the typed client drops
/// the per-request cache stats).
fn raw_roundtrip(addr: &str, req: &Request) -> (Json, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write_frame(&mut stream, req.to_json().expect("encode").as_bytes()).expect("send");
    let envelope = read_frame(&mut stream)
        .expect("read envelope")
        .expect("envelope frame");
    let body = read_frame(&mut stream)
        .expect("read body")
        .expect("body frame");
    let envelope = Json::parse(std::str::from_utf8(&envelope).expect("utf-8")).expect("json");
    (envelope, body)
}

fn stat(envelope: &Json, field: &str) -> u64 {
    envelope
        .get("stats")
        .and_then(|s| s.u64_field(field))
        .unwrap_or_else(|| panic!("envelope stats missing `{field}`"))
}

#[test]
fn concurrent_clients_receive_batch_identical_bodies_at_every_job_count() {
    let src = leaky(0xA5, "");
    let req = analyze_request(&src);
    let batch = batch_canonical(&req);
    for jobs in [1usize, 4] {
        let options = ServerOptions {
            jobs,
            ..ServerOptions::default()
        };
        let ((), served) = with_server(options, |addr| {
            thread::scope(|scope| {
                for _ in 0..4 {
                    let req = req.clone();
                    let batch = batch.as_str();
                    scope.spawn(move || {
                        let mut client = Client::connect(addr).expect("connect");
                        let (envelope, body) = client.roundtrip(&req).expect("roundtrip");
                        assert!(envelope.ok, "analyze failed: {}", envelope.error);
                        assert!(envelope.violations > 0, "the leaky design must violate");
                        assert_eq!(
                            std::str::from_utf8(&body).expect("utf-8"),
                            batch,
                            "jobs={jobs}: served body diverged from batch canonical JSON"
                        );
                    });
                }
            });
        });
        assert_eq!(served, 4, "jobs={jobs}: all four analyses must be counted");
    }
}

#[test]
fn single_module_edit_reparses_only_that_module_over_the_wire() {
    let v1 = leaky(0xA5, "");
    let v2 = leaky(0x3C, ""); // only module `ip` changes
    let ((), _) = with_server(ServerOptions::default(), |addr| {
        let (cold, _) = raw_roundtrip(addr, &analyze_request(&v1));
        assert_eq!(stat(&cold, "modules_reparsed"), 2);
        assert_eq!(stat(&cold, "modules_reextracted"), 2);

        let (warm, body) = raw_roundtrip(addr, &analyze_request(&v2));
        assert_eq!(stat(&warm, "modules_reparsed"), 1, "only `ip` was edited");
        assert_eq!(
            stat(&warm, "modules_reextracted"),
            2,
            "the design-tier miss extracts all modules"
        );
        assert_eq!(
            std::str::from_utf8(&body).expect("utf-8"),
            batch_canonical(&analyze_request(&v2)),
            "warm incremental body diverged from cold batch"
        );

        // Identical repeat: served straight from the report tier.
        let (repeat, _) = raw_roundtrip(addr, &analyze_request(&v2));
        assert_eq!(
            repeat
                .get("stats")
                .and_then(|s| s.get("report_cache_hit"))
                .and_then(Json::as_bool),
            Some(true)
        );
        assert_eq!(stat(&repeat, "targets_rerun"), 0);
    });
}

#[test]
fn status_reports_counters_and_cache_tiers() {
    let src = leaky(0xA5, "");
    let ((), served) = with_server(ServerOptions::default(), |addr| {
        let mut client = Client::connect(addr).expect("connect");
        let (envelope, _) = client.roundtrip(&analyze_request(&src)).expect("analyze");
        assert!(envelope.ok);
        let (envelope, body) = client.roundtrip(&Request::new("status")).expect("status");
        assert!(envelope.ok);
        assert_eq!(envelope.kind, "status");
        let status = Json::parse(std::str::from_utf8(&body).expect("utf-8")).expect("json");
        let counters = status.get("counters").expect("counters");
        assert_eq!(counters.u64_field("requests"), Some(1));
        let tiers = status.get("tiers").expect("tiers");
        assert_eq!(tiers.u64_field("parse"), Some(2), "both modules cached");
        assert_eq!(tiers.u64_field("design"), Some(1));
        assert_eq!(tiers.u64_field("report"), Some(1));
    });
    assert_eq!(served, 1, "status requests are not analysis requests");
}

#[test]
fn lint_bodies_match_the_batch_linter_byte_for_byte() {
    let src = leaky(0xA5, "");
    let batch = {
        let report = soccar_lint::Linter::new()
            .lint_source("t.v", &src)
            .expect("batch lint");
        soccar::json::to_json_pretty(&report).expect("encode")
    };
    let ((), _) = with_server(ServerOptions::default(), |addr| {
        let mut client = Client::connect(addr).expect("connect");
        let mut req = Request::new("lint");
        req.file_name = "t.v".to_owned();
        req.source = src.clone();
        let (envelope, body) = client.roundtrip(&req).expect("lint");
        assert!(envelope.ok, "lint failed: {}", envelope.error);
        assert_eq!(std::str::from_utf8(&body).expect("utf-8"), batch);

        let mut bad = Request::new("lint");
        bad.source = src.clone();
        bad.deny = vec!["no-such-rule".to_owned()];
        let (envelope, _) = client.roundtrip(&bad).expect("roundtrip");
        assert!(!envelope.ok, "unknown rules must be rejected");
    });
}

#[test]
fn malformed_and_invalid_requests_get_error_envelopes_not_hangups() {
    let ((), _) = with_server(ServerOptions::default(), |addr| {
        // Invalid request on a connection that then keeps working.
        let mut client = Client::connect(addr).expect("connect");
        let no_top = {
            let mut req = Request::new("analyze");
            req.source = "module top(input clk); endmodule".to_owned();
            req
        };
        let (envelope, body) = client.roundtrip(&no_top).expect("roundtrip");
        assert!(!envelope.ok);
        assert!(envelope.error.contains("top"));
        assert!(body.is_empty());
        let (envelope, _) = client.roundtrip(&Request::new("status")).expect("status");
        assert!(envelope.ok, "connection must survive a request error");

        // A raw garbage frame still gets a well-formed error envelope.
        let mut stream = TcpStream::connect(addr).expect("connect");
        write_frame(&mut stream, b"not json").expect("send");
        let envelope = read_frame(&mut stream).expect("read").expect("frame");
        let envelope = Json::parse(std::str::from_utf8(&envelope).expect("utf-8")).expect("json");
        assert_eq!(envelope.get("ok").and_then(Json::as_bool), Some(false));

        // A field of the wrong type is named, not read as its default
        // (a variant of -1 used to analyze the clean SoC).
        let mut stream = TcpStream::connect(addr).expect("connect");
        let frame = br#"{"cmd":"analyze","soc":"clustersoc","variant":-1}"#;
        write_frame(&mut stream, frame).expect("send");
        let envelope = read_frame(&mut stream).expect("read").expect("frame");
        let envelope = Json::parse(std::str::from_utf8(&envelope).expect("utf-8")).expect("json");
        assert_eq!(
            envelope.str_field("error"),
            Some("`variant` must be an integer from 0 to 4294967295")
        );

        // QoS knobs ride along per-request without poisoning the cache:
        // a budgeted request and the default request are distinct keys.
        let src = leaky(0xA5, "");
        let mut budgeted = analyze_request(&src);
        budgeted.solver_budget = Some(100_000);
        let (envelope, _) = raw_roundtrip(addr, &budgeted);
        assert_eq!(envelope.get("ok").and_then(Json::as_bool), Some(true));
        let (envelope, _) = raw_roundtrip(addr, &analyze_request(&src));
        assert_eq!(
            envelope
                .get("stats")
                .and_then(|s| s.get("report_cache_hit"))
                .and_then(Json::as_bool),
            Some(false),
            "different solver budgets must not share a report-cache entry"
        );
    });
}

#[test]
fn bundled_soc_requests_match_batch_catalog_analysis() {
    let mut req = Request::new("analyze");
    req.soc = "clustersoc".to_owned();
    req.cycles = Some(12);
    req.rounds = Some(4);
    let batch = batch_canonical(&req);
    let ((), _) = with_server(ServerOptions::default(), |addr| {
        let mut client = Client::connect(addr).expect("connect");
        let (envelope, body) = client.roundtrip(&req).expect("roundtrip");
        assert!(envelope.ok, "soc analyze failed: {}", envelope.error);
        assert_eq!(std::str::from_utf8(&body).expect("utf-8"), batch);
        // Warm repeat is a pure report-tier hit.
        let (envelope, body) = raw_roundtrip(addr, &req);
        assert_eq!(
            envelope
                .get("stats")
                .and_then(|s| s.get("report_cache_hit"))
                .and_then(Json::as_bool),
            Some(true)
        );
        assert_eq!(std::str::from_utf8(&body).expect("utf-8"), batch);
    });
}

#[test]
fn generated_soc_requests_match_batch_catalog_analysis() {
    let mut req = Request::new("analyze");
    req.soc = "gen:5:1".to_owned();
    req.cycles = Some(10);
    req.rounds = Some(3);
    let batch = batch_canonical(&req);
    let ((), _) = with_server(ServerOptions::default(), |addr| {
        let mut client = Client::connect(addr).expect("connect");
        let (envelope, body) = client.roundtrip(&req).expect("roundtrip");
        assert!(envelope.ok, "gen analyze failed: {}", envelope.error);
        assert_eq!(
            std::str::from_utf8(&body).expect("utf-8"),
            batch,
            "served gen design diverged from batch canonical JSON"
        );
        // Warm repeat is a pure report-tier hit, same bytes.
        let (envelope, body) = raw_roundtrip(addr, &req);
        assert_eq!(
            envelope
                .get("stats")
                .and_then(|s| s.get("report_cache_hit"))
                .and_then(Json::as_bool),
            Some(true)
        );
        assert_eq!(std::str::from_utf8(&body).expect("utf-8"), batch);
    });
}

#[test]
fn generated_module_edit_reparses_only_that_module() {
    let spec = soccar_soc::GenSpec { seed: 5, scale: 1 };
    let soc = soccar_soc::generate::generate(&spec);
    let modules = u64::from(soc.manifest.modules);
    // Edit exactly one generated module: a dead wire inside the
    // cluster's test gate, right before its `endmodule`.
    let gate = soc.source.find("module tst_gate_c0").expect("gate module");
    let end = gate + soc.source[gate..].find("endmodule").expect("endmodule");
    let mut edited = soc.source.clone();
    edited.insert_str(end, "  wire gen_probe;\n");

    let request = |source: &str| {
        let mut req = Request::new("analyze");
        req.file_name = "gen_5_1.v".to_owned();
        req.source = source.to_owned();
        req.top = soc.top.clone();
        req.cycles = Some(8);
        req.rounds = Some(2);
        req
    };
    let ((), _) = with_server(ServerOptions::default(), |addr| {
        let (cold, _) = raw_roundtrip(addr, &request(&soc.source));
        assert_eq!(
            stat(&cold, "modules_reparsed"),
            modules,
            "cold run parses the whole generated design"
        );
        let (warm, _) = raw_roundtrip(addr, &request(&edited));
        assert_eq!(
            stat(&warm, "modules_reparsed"),
            1,
            "only the test gate was edited"
        );
        assert_eq!(
            stat(&warm, "modules_reextracted"),
            modules,
            "the design-tier miss extracts all modules"
        );
    });
}

/// `SoccarConfig::default()` derives worker count from `SOCCAR_JOBS` when
/// `jobs == 0`, so this whole suite doubles as a determinism check under
/// `SOCCAR_JOBS=1` and `SOCCAR_JOBS=4` (CI runs both).
#[test]
fn server_respects_the_jobs_environment_contract() {
    let src = leaky(0x77, "");
    let req = analyze_request(&src);
    let batch = batch_canonical(&req);
    let options = ServerOptions {
        jobs: 0,
        ..ServerOptions::default()
    };
    let ((), _) = with_server(options, |addr| {
        let mut client = Client::connect(addr).expect("connect");
        let (envelope, body) = client.roundtrip(&req).expect("roundtrip");
        assert!(envelope.ok);
        assert_eq!(std::str::from_utf8(&body).expect("utf-8"), batch);
    });
}
