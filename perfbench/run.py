#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark for one workload.

Run from the repository root:

    python3 perfbench/run.py --workload ladder-sweep --seed 1 --seconds 20 \
        --trace 0

The first call configures and builds perfbench/ (which compiles the
compiler's sources from ../src) into the directory named by
CARGO_TARGET_DIR, or .bench_build when it is unset; later calls only
rebuild what changed. The harness's human-readable report goes to
standard output, followed by one JSON result line. This script checks
that the result names exactly the metrics BENCHMARK.json lists for the
requested mode and exits non-zero, printing no result, when the build,
the run or that check fails.

    python3 perfbench/run.py --self-test

runs a short ladder sweep with one reference frame flipped and succeeds
only if the benchmark reports the failed cell.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configures (once) and builds the harness; returns the binary path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def run(binary, args):
    """Runs the harness; returns (exit code, stdout lines)."""
    try:
        r = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                           stderr=sys.stderr, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    return r.returncode, r.stdout.splitlines()


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def self_test(binary):
    code, lines = run(binary, ["--workload", "ladder-sweep", "--seed", "1",
                               "--seconds", "1", "--trace", "0",
                               "--corrupt-reference"])
    result = json.loads(lines[-1]) if code == 0 and lines else None
    if not result or result["correct"] or result["failed"] < 1:
        sys.exit("perfbench self-test: a flipped reference byte went "
                 "undetected")
    print("perfbench self-test: flipped reference byte reported as %d "
          "failed cell(s)" % result["failed"])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=[0, 1])
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()

    binary = build()
    if a.self_test:
        self_test(binary)
        return
    if a.workload is None or a.seed is None or a.seconds is None or \
            a.trace is None:
        ap.error("--workload, --seed, --seconds and --trace are required")

    spans = os.path.join(build_dir(), "spans-%s-%d.json" % (a.workload,
                                                            a.seed))
    args = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", str(a.trace)]
    if a.trace:
        args += ["--spans-out", spans]
    code, lines = run(binary, args)
    if code != 0 or not lines:
        sys.exit("perfbench: harness exited with code %d" % code)
    result = json.loads(lines[-1])
    want = expected_metrics(a.trace)
    if sorted(result["metrics"]) != sorted(want):
        missing = sorted(set(want) - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - set(want))
        sys.exit("perfbench: metrics differ from BENCHMARK.json "
                 "(missing %s, extra %s)" % (missing, extra))
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
