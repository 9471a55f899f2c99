//! `soccar --vcd` replays the first witness through the concolic engine's
//! own cycle driver and writes its waveform, with and without `--json`.

use std::path::Path;
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_soccar");

/// The CLI's default horizon, in cycles.
const CYCLES: u64 = 24;

fn analyze(vcd: &Path, json: bool) -> Output {
    let mut args = vec!["--soc", "autosoc", "--variant", "2", "--refined", "--vcd"];
    args.push(vcd.to_str().expect("utf-8 path"));
    if json {
        args.push("--json");
    }
    Command::new(BIN)
        .args(&args)
        .env_remove("SOCCAR_JOBS")
        .output()
        .expect("run soccar")
}

/// Checks the header, and that the time marks rise strictly through
/// every cycle: cycle `c` spans times `2c` and `2c + 1`.
fn check_waveform(vcd: &str) {
    let (header, body) = vcd
        .split_once("$enddefinitions $end\n")
        .expect("a VCD header");
    assert!(header.starts_with("$date"), "{header}");
    assert!(header.contains("$var wire 1 "), "{header}");
    let marks: Vec<u64> = body
        .lines()
        .filter_map(|l| l.strip_prefix('#'))
        .map(|t| t.parse().expect("a numeric time mark"))
        .collect();
    assert_eq!(marks.first(), Some(&0), "the trace starts at time zero");
    assert_eq!(marks.last(), Some(&(2 * CYCLES - 1)), "the last clock fall");
    assert!(marks.windows(2).all(|w| w[0] < w[1]), "{marks:?}");
    assert!(body.lines().count() > marks.len(), "no value changes");
}

#[test]
fn vcd_is_written_with_and_without_json() {
    let dir = std::env::temp_dir().join(format!("soccar-vcd-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let (text_vcd, json_vcd) = (dir.join("text.vcd"), dir.join("json.vcd"));

    let text = analyze(&text_vcd, false);
    let stdout = String::from_utf8_lossy(&text.stdout);
    // Variant #2 has violations: exit 1.
    assert_eq!(text.status.code(), Some(1), "{stdout}");
    assert!(
        stdout.contains(&format!("waveform written to {}", text_vcd.display())),
        "{stdout}"
    );

    let json = analyze(&json_vcd, true);
    let stdout = String::from_utf8_lossy(&json.stdout);
    let stderr = String::from_utf8_lossy(&json.stderr);
    assert_eq!(json.status.code(), Some(1), "{stderr}");
    assert!(stdout.trim_start().starts_with('{'), "{stdout}");
    assert!(!stdout.contains("waveform written"), "{stdout}");
    assert!(
        stderr.contains(&format!("waveform written to {}", json_vcd.display())),
        "{stderr}"
    );

    let text_vcd = std::fs::read_to_string(&text_vcd).expect("text-mode VCD");
    let json_vcd = std::fs::read_to_string(&json_vcd).expect("JSON-mode VCD");
    check_waveform(&text_vcd);
    assert_eq!(text_vcd, json_vcd, "both modes replay the same witness");
    let _ = std::fs::remove_dir_all(&dir);
}
