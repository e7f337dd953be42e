#!/usr/bin/env python3
"""Builds the vcop benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. Cargo's output goes to standard error;
the benchmark's report, ending in one JSON line, goes to standard
output. The build honours CARGO_TARGET_DIR. The benchmark replaces this
process, so no child is left behind, and it runs with address-space
randomisation off, so the heap and stack land at the same addresses in
every run: with randomisation on, the peak RSS of one input varied by
about 4% between runs, against under 2% with it off.
"""

import ctypes
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ADDR_NO_RANDOMIZE = 0x0040000


def build():
    """Builds the release binary; returns its path, or None on failure."""
    proc = subprocess.run(
        [
            "cargo", "build", "--release", "--offline",
            "--manifest-path", os.path.join(HERE, "Cargo.toml"),
            "--message-format", "json-render-diagnostics",
        ],
        stdout=subprocess.PIPE,
        text=True,
        check=False,
    )
    if proc.returncode != 0:
        return None
    for line in proc.stdout.splitlines():
        msg = json.loads(line)
        if msg.get("reason") == "compiler-artifact" and msg.get("executable"):
            if msg["target"]["name"] == "perfbench":
                return msg["executable"]
    return None


def main():
    exe = build()
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    libc = ctypes.CDLL(None, use_errno=True)
    current = libc.personality(0xFFFFFFFF)
    if current != -1:
        libc.personality(current | ADDR_NO_RANDOMIZE)
    os.execv(exe, [exe] + sys.argv[1:])
    return 1


if __name__ == "__main__":
    sys.exit(main())
