//! Crash-only guarantees, end to end with real subprocesses:
//!
//! * **kill-9 recovery** — SIGKILL a daemon mid-workload, restart it on
//!   the same `--cache-dir`, and the warm responses are byte-identical
//!   to the pre-crash daemon's (and to batch output), with the journal
//!   replay visible in `status`;
//! * **the port-file race** — a client launched *before* the daemon has
//!   written its port file polls instead of failing;
//! * **journal corruption** — a daemon restarted over a corrupted
//!   journal starts degraded (named reason), not dead.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_soccar");

/// A fast, cacheable analyze workload (identical flags everywhere so
/// every daemon computes the same cache entry).
const WORKLOAD: &[&str] = &[
    "analyze",
    "--soc",
    "clustersoc",
    "--cycles",
    "8",
    "--rounds",
    "2",
];

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

    /// SIGKILL — no shutdown handshake, no flush opportunity.
    fn kill9(&mut self) {
        self.child.kill().expect("SIGKILL daemon");
        self.child.wait().expect("reap daemon");
    }

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
        self.child.kill().ok();
    }
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("soccar-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn kill9_then_restart_serves_byte_identical_warm_responses() {
    let cache = scratch_dir("kill9");
    let cache_arg = cache.to_str().expect("utf-8 path").to_owned();

    // Uninterrupted daemon: establishes the reference bytes and leaves
    // the journal behind.
    let mut daemon = Daemon::spawn(&["--cache-dir", &cache_arg]);
    let reference = daemon.client(WORKLOAD);
    assert!(
        !reference.stdout.is_empty(),
        "reference analyze failed: {}",
        String::from_utf8_lossy(&reference.stderr)
    );
    // Warm check against the same process — this is what "pre-crash
    // daemon behavior" means below.
    let warm_before = daemon.client(WORKLOAD);
    assert_eq!(warm_before.stdout, reference.stdout);

    // Kill mid-workload: start an (uncached, never-journaled) request
    // and SIGKILL while it is in flight. It must not finish — and be
    // journaled — before the kill lands 100 ms later: the x50 stress
    // design at full default cycles/rounds analyzes for about 7 s on two
    // cores, a margin of some 70x. (A small design such as `gen:3:2`
    // analyzes in under 100 ms and would race the kill.)
    let addr = daemon.addr.clone();
    let in_flight = std::thread::spawn(move || {
        Command::new(BIN)
            .args(["client", "--connect", &addr])
            .args(["analyze", "--soc", "gen:11:73"])
            .output()
            .expect("run in-flight client")
    });
    std::thread::sleep(Duration::from_millis(100));
    daemon.kill9();
    drop(daemon);
    // The interrupted client fails however far it got; it must not hang.
    let _ = in_flight.join().expect("in-flight client finished");

    // Restart on the same cache dir: replay makes the cache warm again.
    let revived = Daemon::spawn(&["--cache-dir", &cache_arg]);
    let warm_after = revived.client(WORKLOAD);
    assert_eq!(
        warm_after.stdout,
        reference.stdout,
        "post-crash warm response diverged from the pre-crash daemon (stderr: {})",
        String::from_utf8_lossy(&warm_after.stderr)
    );
    assert_eq!(warm_after.status.code(), reference.status.code());

    let status = revived.client(&["status"]);
    let text = String::from_utf8_lossy(&status.stdout);
    assert!(text.contains("\"enabled\": true"), "status: {text}");
    assert!(text.contains("\"replayed\": 1"), "status: {text}");
    // The replayed request warmed the report tier, so the client's
    // request above was a cache hit, not a recompute.
    assert!(text.contains("\"cache_hits\": 1"), "status: {text}");

    revived.shutdown();
    std::fs::remove_dir_all(&cache).ok();
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

#[test]
fn corrupted_journal_degrades_startup_instead_of_failing_it() {
    let cache = scratch_dir("corrupt");
    let cache_arg = cache.to_str().expect("utf-8 path").to_owned();

    let daemon = Daemon::spawn(&["--cache-dir", &cache_arg]);
    let reference = daemon.client(WORKLOAD);
    assert!(!reference.stdout.is_empty());
    daemon.shutdown();

    // Bit-flip the tail of the journal — a torn write's aftermath.
    let journal = cache.join("journal.soccar");
    let mut bytes = std::fs::read(&journal).expect("journal exists");
    let last = bytes.len() - 1;
    bytes[last] ^= 0xff;
    std::fs::write(&journal, &bytes).expect("corrupt journal");

    // The daemon still starts (the banner parse inside spawn proves it),
    // reports the loss in status, and still serves correct bytes.
    let revived = Daemon::spawn(&["--cache-dir", &cache_arg]);
    let status = revived.client(&["status"]);
    let text = String::from_utf8_lossy(&status.stdout);
    assert!(text.contains("\"skipped\": 1"), "status: {text}");
    assert!(text.contains("checksum mismatch"), "status: {text}");
    let cold = revived.client(WORKLOAD);
    assert_eq!(
        cold.stdout, reference.stdout,
        "a degraded daemon must still serve byte-identical reports"
    );
    revived.shutdown();
    std::fs::remove_dir_all(&cache).ok();
}
