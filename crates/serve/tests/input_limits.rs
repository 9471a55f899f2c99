//! Nesting bombs end in a named limit error, never in a stack-overflow
//! abort: 200 000 nested parentheses (a 400 KB file) given to the
//! `soccar` CLI, and 20 000 nested JSON arrays sent to `soccar serve`.

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

    let mut client = Client::connect(&addr).expect("a new connection is accepted");
    let (envelope, body) = client.roundtrip(&req).expect("analyze");
    assert!(envelope.ok, "analyze failed: {}", envelope.error);
    assert_eq!(std::str::from_utf8(&body).expect("utf-8"), batch);

    let (envelope, _) = client
        .roundtrip(&Request::new("shutdown"))
        .expect("shutdown");
    assert!(envelope.ok);
    runner.join().expect("server thread");
}
