#!/usr/bin/env python3
"""Builds the perfbench harness from this checkout's sources and runs it.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The harness is its own Cargo package
(perfbench/Cargo.toml) that depends on the repository's crates by path; it
is built in release mode into $CARGO_TARGET_DIR (default: .bench_build at
the repository root). The harness's standard output is passed through
unchanged: its last line is the JSON result. Exits non-zero, printing no
result, when the sources are missing, the build fails, or the harness
fails or overruns its time limit.
"""

import os
import platform
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join("perfbench", "Cargo.toml")
# The harness itself stops measuring after --seconds; this only catches a hang.
RUN_TIMEOUT_S = 170


def no_aslr_prefix():
    """`setarch <arch> -R`, where the system allows it, else nothing.

    With address-space randomization on, each run lays out heap and stack
    differently, which moves the harness's times by several percent from
    run to run; a fixed layout leaves that out.
    """
    setarch = shutil.which("setarch")
    if setarch is None:
        return []
    prefix = [setarch, platform.machine(), "-R"]
    probe = subprocess.run(prefix + ["true"], stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return prefix if probe.returncode == 0 else []


def main():
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")) or not os.path.isdir(
        os.path.join(ROOT, "crates")
    ):
        sys.stderr.write("run.py: the repository's crates are missing; nothing to build\n")
        return 2
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, env["CARGO_TARGET_DIR"])
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.stderr.write("run.py: building the harness failed\n")
        return build.returncode or 1
    command = no_aslr_prefix() + [os.path.join(target, "release", "perfbench")] + sys.argv[1:]
    try:
        return subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("run.py: the harness overran %d s\n" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main())
