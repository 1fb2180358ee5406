#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [--tiny]

Run from the root of a checkout. Builds the `agmdp` binary and the
benchmark package (release profile, offline) into $CARGO_TARGET_DIR
(default `.bench_build`), then runs the benchmark with the given arguments.
The last line of standard output is the result object; the exit code is the
benchmark's (0 only when every correctness check passed).
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def git_rev():
    """The checked-out commit, read from `.git` inside the checkout only."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main():
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        print(f"perfbench: {ROOT} holds no agmdp sources to build", file=sys.stderr)
        return 2
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "agmdp"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
    ]
    for build in builds:
        if subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(build), file=sys.stderr)
            return 2
    release = target / "release"
    command = [
        str(release / "agmdp-perfbench"), *sys.argv[1:],
        "--agmdp", str(release / "agmdp"),
        "--work-dir", str(target / "perfbench"),
        "--git-rev", git_rev(),
    ]
    return subprocess.run(command, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
