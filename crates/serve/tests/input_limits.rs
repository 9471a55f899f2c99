//! The `soccar` CLI on a nesting bomb: 200 000 nested parentheses (a
//! 400 KB file) must end in the named frontend limit error and the
//! documented compile-error exit status, never in a stack-overflow abort.

use std::process::Command;

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
