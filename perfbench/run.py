#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The last line of standard output is the
run's JSON result; build output and the human-readable table go to standard
error. The build goes to $CARGO_TARGET_DIR (default `.bench_build`). The exit
code is the benchmark's: non-zero when the build fails or a check fails.

The benchmark process is pinned to one CPU (the highest-numbered one it may
run on): all its threads then share one core, so the server workload's
client/handler round trips do not pay cross-CPU wake-ups, and no thread
migrates mid-run. It also runs without address-space randomisation, so its
memory layout, and with it its cache behaviour, is the same from run to run.
Both settings apply to the benchmark process alone.
"""

import ctypes
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ADDR_NO_RANDOMIZE = 0x0040000


def main():
    os.chdir(ROOT)
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "perfbench/Cargo.toml"],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    exe = os.path.join(env["CARGO_TARGET_DIR"], "release", "onll-perfbench")
    cpu = max(os.sched_getaffinity(0))
    libc = ctypes.CDLL(None)

    def settle():
        os.sched_setaffinity(0, {cpu})
        libc.personality(libc.personality(0xFFFFFFFF) | ADDR_NO_RANDOMIZE)

    return subprocess.run([exe] + sys.argv[1:], env=env, preexec_fn=settle).returncode


if __name__ == "__main__":
    sys.exit(main())
