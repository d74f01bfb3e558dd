#!/usr/bin/env python3
"""Repository benchmark: builds perfbench/ from source and runs one workload.

    python3 perfbench/run.py --workload capture --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the checkout. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer metrics
with --trace 1. Build output and diagnostics go to standard error.
"""
import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("capture", "aimd-middlebox", "capture-observed")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "sim", "simulator.hpp")):
        fail(f"no library sources under {os.path.join(ROOT, 'src')}")
    base = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(base, "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return build_dir


def measure(binary, args, timeout):
    """Runs one perfbench process; returns the JSON object it printed last."""
    try:
        proc = subprocess.run([binary] + args, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{os.path.basename(binary)} ran past {timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{os.path.basename(binary)} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def select(metrics, specs):
    """The metrics BENCHMARK.json names, in its order and with its units."""
    out = {}
    for spec in specs:
        m = metrics.get(spec["name"])
        if m is None or m["unit"] != spec["unit"]:
            fail(f"metric {spec['name']} missing or not in {spec['unit']}")
        out[spec["name"]] = {"value": m["value"], "unit": m["unit"]}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="check the benchmark itself at a tiny size")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build_dir = build()
    untraced = os.path.join(build_dir, "perfbench")
    traced = os.path.join(build_dir, "perfbench_traced")
    if args.self_test:
        sys.exit(subprocess.run([traced, "--self-test"]).returncode)

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    timeout = 3 * args.seconds + 60
    if args.trace == 0:
        run = measure(untraced, common + ["--seconds", str(args.seconds)], timeout)
        metrics = select(run["metrics"], spec["end_to_end"])
        attempted, failed, correct = run["attempted"], run["failed"], run["correct"]
    else:
        # A short untraced run gives the wall time the tracing overhead is
        # measured against, and the digest the traced run must reproduce.
        base = measure(untraced, common + ["--seconds", str(args.seconds / 4)], timeout)
        run = measure(traced, common + ["--seconds", str(args.seconds * 3 / 4), "--trace"],
                      timeout)
        same = base["digest"] == run["digest"]
        if not same:
            print(f"perfbench: traced digest {run['digest']} differs from untraced "
                  f"{base['digest']}", file=sys.stderr)
        run["metrics"]["trace.overhead_x"] = {
            "value": run["metrics"]["trace.wall_s"]["value"]
            / base["metrics"]["round_wall_median_s"]["value"],
            "unit": "x"}
        metrics = select(run["metrics"], spec["per_layer"])
        attempted = base["attempted"] + run["attempted"]
        failed = attempted if not same else base["failed"] + run["failed"]
        correct = same and base["correct"] and run["correct"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
