//! Nesting bombs end in a named limit error, never in a stack-overflow
//! abort: 200 000 nested parentheses (a 400 KB file) given to the
//! `soccar` CLI, 5000 nested `if` or `begin` statements given to the CLI
//! and to `soccar serve`, and 20 000 nested JSON arrays sent to `soccar
//! serve`.
//! Cycle horizons past `MAX_CYCLES`, designs declaring more than
//! `MAX_DESIGN_NET_BITS` net bits, and literals wider than
//! `MAX_LITERAL_BITS` end in a named limit error, never in a
//! failed-allocation abort, on the CLI and over the wire alike.

use std::net::TcpStream;
use std::process::Command;
use std::sync::Arc;

use soccar_serve::{read_frame, write_frame, Client, Json, Request, Server, ServerOptions};

const BIN: &str = env!("CARGO_BIN_EXE_soccar");

#[test]
fn nesting_bomb_exits_with_the_named_limit_error() {
    let dir = std::env::temp_dir().join(format!("soccar-limits-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let bomb = dir.join("bomb.v");
    std::fs::write(
        &bomb,
        format!(
            "module top(input a, output y);\n  assign y = {}a{};\nendmodule\n",
            "(".repeat(200_000),
            ")".repeat(200_000)
        ),
    )
    .expect("write bomb");
    let bomb = bomb.to_str().expect("utf-8 path");
    for args in [vec!["analyze", bomb, "--top", "top"], vec!["lint", bomb]] {
        let out = Command::new(BIN).args(&args).output().expect("run soccar");
        let stderr = String::from_utf8_lossy(&out.stderr);
        // 0 clean, 1 violations, 2 usage or compile error; a stack
        // overflow would abort with a signal and no exit code at all.
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains("input limit exceeded: expression nesting deeper than"),
            "{args:?}: {stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The two statement bombs: 5000 nested `if (a)` (35 KB) and 5000
/// nested `begin` (50 KB). Both used to abort `soccar analyze` with a
/// stack overflow (exit 134).
fn statement_bombs() -> [String; 2] {
    [
        format!(
            "module top(input a, output reg y);\n  always @(a) {}y = a;\nendmodule\n",
            "if (a) ".repeat(5000)
        ),
        format!(
            "module top(input a, output reg y);\n  always @(a) {}y = a;{}\nendmodule\n",
            "begin ".repeat(5000),
            " end".repeat(5000)
        ),
    ]
}

/// The named error both statement bombs must end in.
fn statement_limit_error() -> String {
    format!(
        "input limit exceeded: statement nesting deeper than {} levels",
        soccar_rtl::parser::MAX_STMT_DEPTH
    )
}

#[test]
fn statement_nesting_bombs_exit_with_the_named_limit_error() {
    let dir = std::env::temp_dir().join(format!("soccar-stmt-limits-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    for (i, source) in statement_bombs().iter().enumerate() {
        let bomb = dir.join(format!("bomb{i}.v"));
        std::fs::write(&bomb, source).expect("write bomb");
        let bomb = bomb.to_str().expect("utf-8 path");
        for args in [vec!["analyze", bomb, "--top", "top"], vec!["lint", bomb]] {
            let out = Command::new(BIN).args(&args).output().expect("run soccar");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
            assert!(
                stderr.contains(&statement_limit_error()),
                "{args:?}: {stderr}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The same bombs in an analyze request used to kill `soccar serve`.
/// Each must get an error envelope naming the limit, and the daemon must
/// go on serving.
#[test]
fn statement_nesting_bombs_get_error_envelopes_and_the_daemon_keeps_serving() {
    let server = Arc::new(Server::bind(&ServerOptions::default()).expect("bind"));
    let addr = server.local_addr().to_string();
    let runner = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.run().expect("run"))
    };

    for source in statement_bombs() {
        let mut req = Request::new("analyze");
        req.file_name = "bomb.v".to_owned();
        req.source = source;
        req.top = "top".to_owned();
        let mut client = Client::connect(&addr).expect("connect");
        let (envelope, body) = client.roundtrip(&req).expect("bomb analyze");
        assert!(!envelope.ok);
        assert!(
            envelope.error.contains(&statement_limit_error()),
            "{}",
            envelope.error
        );
        assert!(body.is_empty());
    }

    serves_batch_identical_analyze_then_shuts_down(&addr);
    runner.join().expect("server thread");
}

/// A 20 KB request frame nesting 20 000 arrays would overflow a handler
/// thread's stack in a recursive reader and abort the whole daemon. It
/// must get an error envelope naming the JSON nesting limit, and the
/// daemon must go on serving: an analyze on a new connection comes back
/// byte-identical to batch.
#[test]
fn json_nesting_bomb_gets_an_error_envelope_and_the_daemon_keeps_serving() {
    let server = Arc::new(Server::bind(&ServerOptions::default()).expect("bind"));
    let addr = server.local_addr().to_string();
    let runner = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.run().expect("run"))
    };

    let bomb = format!("{{\"cmd\":\"status\",\"x\":{}", "[".repeat(20_000));
    let mut stream = TcpStream::connect(&addr).expect("connect");
    write_frame(&mut stream, bomb.as_bytes()).expect("send bomb");
    let envelope = read_frame(&mut stream)
        .expect("read")
        .expect("envelope frame");
    let body = read_frame(&mut stream).expect("read").expect("body frame");
    let envelope = Json::parse(std::str::from_utf8(&envelope).expect("utf-8")).expect("json");
    assert_eq!(envelope.get("ok").and_then(Json::as_bool), Some(false));
    let error = envelope.str_field("error").expect("error message");
    assert!(
        error.contains("JSON nesting deeper than 128 levels"),
        "{error}"
    );
    assert!(body.is_empty());
    drop(stream);

    serves_batch_identical_analyze_then_shuts_down(&addr);
    runner.join().expect("server thread");
}

/// The named error both oversized horizons must end in.
fn horizon_error(cycles: u64) -> String {
    format!(
        "input limit exceeded: a horizon of {cycles} cycles is longer than {} cycles",
        soccar_concolic::MAX_CYCLES
    )
}

/// `--cycles 2^40` would ask for terabytes of schedule, and `--cycles
/// 20000 --rounds 0` for a sweep that materialised one schedule per
/// pulse position; both used to abort with a failed allocation (exit
/// 134). Run under a 2 GB address-space cap, so a regression aborts
/// instead of exhausting the machine.
#[test]
fn oversized_cycle_horizon_exits_with_the_named_limit_error() {
    for args in ["--cycles 1099511627776", "--cycles 20000 --rounds 0"] {
        let out = Command::new("sh")
            .arg("-c")
            .arg(format!(
                "ulimit -v 2000000; exec \"$0\" analyze --soc clustersoc {args}"
            ))
            .arg(BIN)
            .env_remove("SOCCAR_FAULTS")
            .output()
            .expect("run soccar");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args}: {stderr}");
        let cycles: u64 = args
            .split(' ')
            .nth(1)
            .and_then(|n| n.parse().ok())
            .expect("cycles");
        assert!(stderr.contains(&horizon_error(cycles)), "{args}: {stderr}");
    }
}

/// The same oversized request over the wire used to kill `soccar serve`.
/// It must get an error envelope naming the limit, and the daemon must go
/// on serving.
#[test]
fn oversized_cycle_request_gets_an_error_envelope_and_the_daemon_keeps_serving() {
    let server = Arc::new(Server::bind(&ServerOptions::default()).expect("bind"));
    let addr = server.local_addr().to_string();
    let runner = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.run().expect("run"))
    };

    let mut req = Request::new("analyze");
    req.soc = "clustersoc".to_owned();
    req.cycles = Some(1 << 40);
    let mut client = Client::connect(&addr).expect("connect");
    let (envelope, body) = client.roundtrip(&req).expect("oversized analyze");
    assert!(!envelope.ok);
    assert!(
        envelope.error.contains(&horizon_error(1 << 40)),
        "{}",
        envelope.error
    );
    assert!(body.is_empty());
    drop(client);

    serves_batch_identical_analyze_then_shuts_down(&addr);
    runner.join().expect("server thread");
}

/// 3000 registers of 2^20 bits each (a 68 KB file): under the per-net
/// cap one by one, about 800 MB of simulator state together.
fn net_width_bomb() -> String {
    let mut src = String::from("module top(input clk, input rst_n, output reg q);\n");
    for i in 0..3000 {
        src.push_str(&format!("reg [1048575:0] r{i};\n"));
    }
    src.push_str(
        "always @(posedge clk or negedge rst_n) if (!rst_n) q <= 0; else q <= 1;\nendmodule\n",
    );
    src
}

/// The named error the net-width bomb must end in.
fn net_width_error() -> String {
    format!(
        "input limit exceeded: design declares more than {} net bits",
        soccar_rtl::elaborate::MAX_DESIGN_NET_BITS
    )
}

/// The bomb used to abort `soccar analyze` with a failed allocation
/// (exit 134). Run under a 2 GB address-space cap, so a regression
/// aborts instead of exhausting the machine.
#[test]
fn net_width_bomb_exits_with_the_named_limit_error() {
    let dir = std::env::temp_dir().join(format!("soccar-width-limits-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let bomb = dir.join("bomb.v");
    std::fs::write(&bomb, net_width_bomb()).expect("write bomb");
    let out = Command::new("sh")
        .arg("-c")
        .arg("ulimit -v 2000000; exec \"$0\" analyze \"$1\" --top top")
        .arg(BIN)
        .arg(&bomb)
        .env_remove("SOCCAR_FAULTS")
        .output()
        .expect("run soccar");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains(&net_width_error()), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The same bomb in an analyze request gets an error envelope naming the
/// limit, and the daemon goes on serving.
#[test]
fn net_width_bomb_gets_an_error_envelope_and_the_daemon_keeps_serving() {
    let server = Arc::new(Server::bind(&ServerOptions::default()).expect("bind"));
    let addr = server.local_addr().to_string();
    let runner = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.run().expect("run"))
    };

    let mut req = Request::new("analyze");
    req.file_name = "bomb.v".to_owned();
    req.source = net_width_bomb();
    req.top = "top".to_owned();
    let mut client = Client::connect(&addr).expect("connect");
    let (envelope, body) = client.roundtrip(&req).expect("bomb analyze");
    assert!(!envelope.ok);
    assert!(
        envelope.error.contains(&net_width_error()),
        "{}",
        envelope.error
    );
    assert!(body.is_empty());
    drop(client);

    serves_batch_identical_analyze_then_shuts_down(&addr);
    runner.join().expect("server thread");
}

/// A 13-byte literal declaring 2^32 - 1 bits, and the error it must end
/// in.
const LITERAL_BOMB: &str =
    "module top(input a, output q);\n  assign q = 4294967295'h1;\nendmodule\n";

fn literal_width_error() -> String {
    format!(
        "input limit exceeded: literal wider than {} bits",
        soccar_rtl::lexer::MAX_LITERAL_BITS
    )
}

/// The literal used to build two 512 MiB planes in `soccar lint` and
/// abort `soccar analyze` with exit 134. Run under a 2 GB address-space
/// cap, so a regression aborts instead of exhausting the machine.
#[test]
fn literal_width_bomb_exits_with_the_named_limit_error() {
    let dir = std::env::temp_dir().join(format!("soccar-literal-limits-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let bomb = dir.join("bomb.v");
    std::fs::write(&bomb, LITERAL_BOMB).expect("write bomb");
    for cmd in ["analyze \"$1\" --top top", "lint \"$1\""] {
        let out = Command::new("sh")
            .arg("-c")
            .arg(format!("ulimit -v 2000000; exec \"$0\" {cmd}"))
            .arg(BIN)
            .arg(&bomb)
            .env_remove("SOCCAR_FAULTS")
            .output()
            .expect("run soccar");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{cmd}: {stderr}");
        assert!(stderr.contains(&literal_width_error()), "{cmd}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The same literal in an analyze or a lint request gets an error
/// envelope naming the limit, and the daemon goes on serving.
#[test]
fn literal_width_bomb_gets_error_envelopes_and_the_daemon_keeps_serving() {
    let server = Arc::new(Server::bind(&ServerOptions::default()).expect("bind"));
    let addr = server.local_addr().to_string();
    let runner = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.run().expect("run"))
    };

    for cmd in ["analyze", "lint"] {
        let mut req = Request::new(cmd);
        req.file_name = "bomb.v".to_owned();
        req.source = LITERAL_BOMB.to_owned();
        req.top = "top".to_owned();
        let mut client = Client::connect(&addr).expect("connect");
        let (envelope, body) = client.roundtrip(&req).expect("bomb request");
        assert!(!envelope.ok, "{cmd}");
        assert!(
            envelope.error.contains(&literal_width_error()),
            "{cmd}: {}",
            envelope.error
        );
        assert!(body.is_empty());
    }

    serves_batch_identical_analyze_then_shuts_down(&addr);
    runner.join().expect("server thread");
}

/// Sends an analyze on a new connection, checks its body against the
/// batch pipeline byte for byte, then shuts the daemon down.
fn serves_batch_identical_analyze_then_shuts_down(addr: &str) {
    let mut req = Request::new("analyze");
    req.file_name = "t.v".to_owned();
    req.source = "module ip(input clk, input rst_n, output reg [7:0] key);
  always @(posedge clk or negedge rst_n)
    if (!rst_n) key <= key;
    else key <= 8'hA5;
endmodule
module top(input clk, input sec_rst_n);
  ip u (.clk(clk), .rst_n(sec_rst_n));
endmodule
"
    .to_owned();
    req.top = "top".to_owned();
    req.properties = vec!["cleared:key-cleared:ip:top.sec_rst_n:top.u.key:8".to_owned()];
    let (file_name, source, top, properties, config) =
        soccar_serve::resolve_request(&req).expect("resolve");
    let batch = soccar::Soccar::new(config)
        .analyze(&file_name, &source, &top, properties)
        .expect("batch analyze")
        .canonical_json()
        .expect("canonical json");

    let mut client = Client::connect(addr).expect("a new connection is accepted");
    let (envelope, body) = client.roundtrip(&req).expect("analyze");
    assert!(envelope.ok, "analyze failed: {}", envelope.error);
    assert_eq!(std::str::from_utf8(&body).expect("utf-8"), batch);

    let (envelope, _) = client
        .roundtrip(&Request::new("shutdown"))
        .expect("shutdown");
    assert!(envelope.ok);
}
