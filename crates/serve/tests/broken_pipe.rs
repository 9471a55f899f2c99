//! A reader that closes the CLI's stdout early (`soccar lint --json x.v |
//! head -1`) has taken all the output it wants: the command must not
//! panic, and it exits with the status it has when its output is read in
//! full.

use std::process::{Command, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_soccar");

#[test]
fn closed_stdout_ends_output_without_a_panic() {
    let dir = std::env::temp_dir().join(format!("soccar-pipe-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let x10 = dir.join("x10.v");
    let x10 = x10.to_str().expect("utf-8 path");
    let gen = Command::new(BIN)
        .args(["gen", "gen:11:15", "--rtl", x10, "--summary"])
        .output()
        .expect("run soccar gen");
    assert!(gen.status.success());

    let commands: [&[&str]; 3] = [
        &["lint", "--json", x10],
        &[
            "analyze", x10, "--top", "gen_soc", "--cycles", "1", "--rounds", "0", "--json",
        ],
        &["gen", "gen:11:15"],
    ];
    for args in commands {
        let full = Command::new(BIN).args(args).output().expect("full run");
        assert!(!full.stdout.is_empty(), "{args:?} prints a report");
        // The read end closes before the command can have written: it
        // first generates or reads and analyzes a 312 KB design.
        let mut child = Command::new(BIN)
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn soccar");
        drop(child.stdout.take());
        let closed = child.wait_with_output().expect("wait");
        let stderr = String::from_utf8_lossy(&closed.stderr);
        assert!(stderr.is_empty(), "{args:?} wrote to stderr: {stderr}");
        assert_eq!(closed.status.code(), full.status.code(), "{args:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
