//! End-to-end smoke test: the real `soccar serve` daemon as a
//! subprocess, driven by the real `soccar client` — the exact shape the
//! CI `serve-smoke` job uses. Verifies the daemon starts, serves
//! analyze/lint/status byte-identically to the batch CLI, shuts down on
//! request, and exits 0 with no orphan process; and a client launched
//! before the daemon has written its `--port-file` polls instead of
//! failing.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_soccar");

struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn spawn(extra: &[&str]) -> Daemon {
        let mut child = Command::new(BIN)
            .args(["serve", "--listen", "127.0.0.1:0"])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn soccar serve");
        // The first stdout line announces the bound (ephemeral) port.
        let stdout = child.stdout.take().expect("daemon stdout");
        let mut lines = BufReader::new(stdout).lines();
        let first = lines
            .next()
            .expect("daemon printed nothing")
            .expect("read daemon stdout");
        let addr = first
            .strip_prefix("soccar-serve listening on ")
            .unwrap_or_else(|| panic!("unexpected banner: {first}"))
            .to_owned();
        Daemon { child, addr }
    }

    fn client(&self, args: &[&str]) -> std::process::Output {
        Command::new(BIN)
            .args(["client", "--connect", &self.addr])
            .args(args)
            .output()
            .expect("run soccar client")
    }

    /// Requests shutdown and asserts a clean exit within the deadline.
    fn shutdown(mut self) {
        let out = self.client(&["shutdown"]);
        assert!(
            out.status.success(),
            "shutdown client failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait().expect("try_wait") {
                Some(status) => {
                    assert!(status.success(), "daemon exited with {status}");
                    return;
                }
                None if Instant::now() > deadline => {
                    self.child.kill().ok();
                    panic!("daemon did not exit within 30s of shutdown — orphan process");
                }
                None => std::thread::sleep(Duration::from_millis(50)),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Belt-and-braces: never leak a daemon past a failing test.
        self.child.kill().ok();
    }
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("soccar-smoke-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn batch(args: &[&str]) -> std::process::Output {
    Command::new(BIN)
        .args(args)
        .output()
        .expect("run soccar batch")
}

#[test]
fn daemon_serves_both_socs_byte_identically_and_shuts_down_cleanly() {
    let daemon = Daemon::spawn(&[]);

    for soc in ["clustersoc", "autosoc"] {
        let served = daemon.client(&["analyze", "--soc", soc, "--cycles", "12", "--rounds", "3"]);
        let batched = batch(&[
            "analyze", "--soc", soc, "--cycles", "12", "--rounds", "3", "--json",
        ]);
        assert_eq!(
            served.status.code(),
            batched.status.code(),
            "{soc}: exit codes must agree (server stderr: {})",
            String::from_utf8_lossy(&served.stderr)
        );
        assert!(!served.stdout.is_empty(), "{soc}: empty served report");
        assert_eq!(
            String::from_utf8_lossy(&served.stdout),
            String::from_utf8_lossy(&batched.stdout),
            "{soc}: served stdout diverged from `soccar analyze --json`"
        );
        // Warm repeat: same bytes again, now from the report cache.
        let warm = daemon.client(&["analyze", "--soc", soc, "--cycles", "12", "--rounds", "3"]);
        assert_eq!(warm.stdout, served.stdout, "{soc}: warm body changed");
    }

    // Lint parity on a scratch file, exercising the client's file path.
    let dir = std::env::temp_dir().join(format!("soccar-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let file = dir.join("smoke.v");
    std::fs::write(
        &file,
        "module top(input clk, input rst_n, output reg q);\n\
         always @(posedge clk) q <= ~q;\nendmodule\n",
    )
    .expect("write scratch design");
    let path = file.to_str().expect("utf-8 path");
    let served = daemon.client(&["lint", path]);
    let batched = batch(&["lint", path, "--json"]);
    assert_eq!(served.status.code(), batched.status.code());
    assert_eq!(
        String::from_utf8_lossy(&served.stdout),
        String::from_utf8_lossy(&batched.stdout),
        "lint: served stdout diverged from `soccar lint --json`"
    );
    std::fs::remove_dir_all(&dir).ok();

    // Status is well-formed and counts the four analyses.
    let status = daemon.client(&["status"]);
    assert!(status.status.success());
    let text = String::from_utf8_lossy(&status.stdout);
    assert!(text.contains("\"requests\": 4"), "status: {text}");

    daemon.shutdown();
}

#[test]
fn client_launched_before_the_daemon_wins_the_port_file_race() {
    let dir = scratch_dir("race");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let port_file = dir.join("port");
    let port_arg = port_file.to_str().expect("utf-8 path").to_owned();

    // The client starts first — the port file does not exist yet.
    let client_port_arg = port_arg.clone();
    let racing_client = std::thread::spawn(move || {
        Command::new(BIN)
            .args(["client", "--port-file", &client_port_arg, "status"])
            .output()
            .expect("run racing client")
    });
    std::thread::sleep(Duration::from_millis(300));
    let daemon = Daemon::spawn(&["--port-file", &port_arg]);

    let out = racing_client.join().expect("racing client finished");
    assert!(
        out.status.success(),
        "client lost the port-file race: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("\"uptime_ms\""),
        "racing client got a real status body"
    );

    daemon.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// The daemon's minor page faults so far, all threads included: field 10
/// of `/proc/<pid>/stat`, counted after the parenthesised command name.
#[cfg(target_os = "linux")]
fn minor_faults(pid: u32) -> u64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).expect("read /proc stat");
    let (_, fields) = stat.rsplit_once(')').expect("stat has a command name");
    fields
        .split_whitespace()
        .nth(7)
        .and_then(|f| f.parse().ok())
        .expect("stat has a minflt field")
}

/// The daemon's live threads.
#[cfg(target_os = "linux")]
fn threads(pid: u32) -> usize {
    std::fs::read_dir(format!("/proc/{pid}/task"))
        .expect("read /proc task")
        .count()
}

/// A warm lint request of the x10 design (`gen:11:15`, 312 KB) reuses the
/// heap the previous one freed: the daemon pins glibc's trim and mmap
/// thresholds, so the heap is not returned to the OS after each request
/// and faulted back in, page by page, on the next.
#[cfg(target_os = "linux")]
#[test]
fn warm_lint_requests_reuse_the_daemon_heap() {
    let spec = soccar_soc::GenSpec::parse("gen:11:15").expect("spec");
    let mut request = soccar_serve::Request::new("lint");
    request.file_name = "gen_11_15.v".to_owned();
    request.source = soccar_soc::generate::generate(&spec).source;
    let daemon = Daemon::spawn(&[]);
    let pid = daemon.child.id();
    let idle = threads(pid);
    // A fresh connection per request, as the benchmark's client opens.
    // Each is served on a thread of its own; waiting for that thread to
    // exit hands its malloc arena to the next one, so every request
    // after the first runs on the same, warm heap.
    let lint = || {
        let mut client = soccar_serve::Client::connect(&daemon.addr).expect("connect");
        let (envelope, body) = client.roundtrip(&request).expect("lint roundtrip");
        assert!(envelope.ok, "lint failed: {}", envelope.error);
        assert!(!body.is_empty());
        drop(client);
        let deadline = Instant::now() + Duration::from_secs(30);
        while threads(pid) > idle {
            assert!(
                Instant::now() < deadline,
                "the request's thread never exited"
            );
            std::thread::yield_now();
        }
    };
    for _ in 0..3 {
        lint();
    }
    const REQUESTS: u64 = 10;
    let before = minor_faults(pid);
    for _ in 0..REQUESTS {
        lint();
    }
    let per_request = (minor_faults(pid) - before) / REQUESTS;
    daemon.shutdown();
    assert!(
        per_request < 100,
        "{per_request} minor page faults per warm lint request"
    );
}
