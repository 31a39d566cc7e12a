#!/usr/bin/env python3
"""Build and run the BeyondIV benchmark.

    python3 perfbench/run.py --workload batch|fuzz-summarize|serve-mixed \
        --seed N --seconds S --trace 0|1

Run from the repository root.  Builds the analyzer libraries and the
benchmark binary from source (Release) under $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), runs one workload, and prints the
binary's human-readable lines followed by one JSON result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones listed in
BENCHMARK.json; with --trace 1 they are the per-layer ones, and a span file
lands in the build directory's run/ folder.

Exit status: 0 when every output check passed, 1 when one failed, 2 when
the benchmark could not be built or run.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("batch", "fuzz-summarize", "serve-mixed")
# Seconds a run may take beyond twice --seconds: the cold setups, the
# output checks and the traced run's extras.
RUN_SLACK_S = 60


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configures (once) and builds the binary; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("analyzer sources (src/) not found next to perfbench/")
    jobs = str(len(os.sched_getaffinity(0)))
    steps = [["cmake", "--build", build_dir, "-j", jobs, "--target", "perfbench"]]
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", os.path.join(ROOT, "perfbench"),
                         "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def revision():
    """The checkout's git revision, or "unknown" outside a git checkout."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        git = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return git.stdout.strip() if git.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    binary = build(build_dir)
    run_dir = os.path.join(build_dir, "run")
    os.makedirs(run_dir, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", ".", "--revision", revision()]
    timeout = RUN_SLACK_S + 2 * args.seconds
    try:
        # The run directory is the working directory so the daemon's socket
        # path stays short and relative.
        proc = subprocess.run(cmd, cwd=run_dir, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {timeout:g} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode not in (0, 1):
        sys.stderr.write(proc.stdout)
        fail(f"perfbench exited with status {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        fail("perfbench printed no result line")
    if result.get("correct") is not True and proc.returncode == 0:
        fail("perfbench reported an incorrect run with status 0")
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
