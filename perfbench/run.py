#!/usr/bin/env python3
"""Builds the benchmark from source and runs it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark is a cargo package of its
own (perfbench/Cargo.toml) that links the checker's crates by path;
cargo's build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. Exits with the build's or the benchmark's
non-zero code, printing no result, if either fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BINARY = "circ-perfbench"


def build():
    """Builds the release binary; returns its path, or None on failure."""
    cmd = [
        "cargo", "build", "--release", "--offline", "--message-format=json-render-diagnostics",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    except OSError as e:
        print(f"perfbench: cannot run cargo: {e}", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"perfbench: build failed (exit {proc.returncode})", file=sys.stderr)
        return None
    for line in proc.stdout.splitlines():
        try:
            msg = json.loads(line)
        except ValueError:
            continue
        if msg.get("reason") == "compiler-artifact" and msg.get("executable") \
                and msg.get("target", {}).get("name") == BINARY:
            return msg["executable"]
    print("perfbench: build produced no benchmark binary", file=sys.stderr)
    return None


def main():
    exe = build()
    if exe is None:
        return 1
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
