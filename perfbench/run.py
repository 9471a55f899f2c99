#!/usr/bin/env python3
"""Build the `soccar` binary and the benchmark from source, then run it.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \\
        --trace <0|1> [--ops <cap>]

where <name> is sweep, flip, serve_repeat, serve_edit or serve_lint.

Cargo builds into $CARGO_TARGET_DIR (default `.bench_build`); traced runs
write their span files and per-layer tables to `.bench_out/`. Build
output goes to stderr, so the last line of stdout is the benchmark's
result object. See perfbench/README.md.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def cargo_build(*args, env):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", *args]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, check=False)
    if done.returncode != 0:
        sys.exit(f"perfbench: `{' '.join(cmd)}` failed ({done.returncode})")


def main():
    env = dict(os.environ)
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    # The daemon under test is the repository's own `soccar` binary.
    cargo_build("-p", "soccar-serve", "--bin", "soccar", env=env)
    cargo_build("--manifest-path", os.path.join("perfbench", "Cargo.toml"), env=env)
    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "perfbench"),
        *sys.argv[1:],
        "--soccar",
        os.path.join(release, "soccar"),
    ]
    sys.exit(subprocess.run(cmd, cwd=ROOT, env=env, check=False).returncode)


if __name__ == "__main__":
    main()
