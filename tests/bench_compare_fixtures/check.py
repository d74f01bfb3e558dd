#!/usr/bin/env python3
"""Checks bench_compare.py's exact gate for scale and memory profiles.

    python3 tests/bench_compare_fixtures/check.py tools/bench_compare.py

Compares the fixture reports here with their baselines, as CI compares
fresh reports with SCALE_PROFILE.json and MEM_PROFILE.json: an identical
report passes; a changed tracked field fails, naming the field and
--update; growth of a gated scale field fails as a REGRESSION; a report
the baseline does not hold fails. The changed variants are written to a
temporary directory.
"""
import copy
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))


def load(name):
    with open(os.path.join(HERE, name)) as f:
        return json.load(f)


def main():
    tool = sys.argv[1]
    scale, mem = load("scale.json"), load("mem.json")

    def variant(report, edit):
        out = copy.deepcopy(report)
        edit(out)
        return out

    def set_path(*path_and_value):
        *path, value = path_and_value

        def edit(r):
            d = r
            for key in path[:-1]:
                d = d[key]
            d[path[-1]] = value
        return edit

    # (name, baseline, report, exit code, words the output must contain)
    cases = [
        ("scale identical", "scale_baseline.json", scale, 0, ["scale.work: 1088 ok"]),
        ("scale work changed", "scale_baseline.json",
         variant(scale, set_path("scale", "work", 1089)), 1,
         ["scale.work: 1089 vs baseline 1088 CHANGED", "--update"]),
        ("scale shards changed", "scale_baseline.json",
         variant(scale, lambda r: r["scale"]["shards"].pop(0)), 1,
         ["scale.shards: 1 vs baseline 2 CHANGED", "--update"]),
        ("scale critical path grew", "scale_baseline.json",
         variant(scale, set_path("scale", "critical_path", "length", 20)), 1,
         ["scale.critical_path_length: 20 vs baseline 16 (+25.0%) REGRESSION"]),
        ("scale critical path shrank", "scale_baseline.json",
         variant(scale, set_path("scale", "critical_path", "length", 15)), 1,
         ["scale.critical_path_length: 15 vs baseline 16 (-6.2%) CHANGED", "--update"]),
        ("scale report not in baseline", "scale_baseline.json",
         variant(scale, set_path("experiment", "id", "T9")), 1,
         ["T9: not in baseline"]),
        ("mem identical", "mem_baseline.json", mem, 0, ["mem.runs: 16 ok"]),
        ("mem runs changed", "mem_baseline.json",
         variant(mem, set_path("mem", "runs", 64)), 1,
         ["mem.runs: 64 vs baseline 16 CHANGED", "--update"]),
        ("mem delivered lifetimes changed", "mem_baseline.json",
         variant(mem, set_path("mem", "lifetimes", "packet_delivered", [])), 1,
         ["mem.packets_delivered: 0 vs baseline 240 CHANGED", "--update"]),
        ("mem actor census changed", "mem_baseline.json",
         variant(mem, lambda r: r["mem"]["actors"].pop(0)), 1,
         ["mem.actor_count: 80 vs baseline 152 CHANGED", "--update"]),
        ("mem report not in baseline", "mem_baseline.json",
         variant(mem, set_path("experiment", "id", "T9")), 1,
         ["T9: not in baseline"]),
    ]

    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        for i, (name, baseline, report, want_rc, words) in enumerate(cases):
            path = os.path.join(tmp, f"report{i}.json")
            with open(path, "w") as f:
                json.dump(report, f)
            proc = subprocess.run(
                [sys.executable, tool, "--baseline", os.path.join(HERE, baseline), path],
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
            missing = [w for w in words if w not in proc.stdout]
            if proc.returncode != want_rc or missing:
                failures += 1
                print(f"FAIL {name}: exit {proc.returncode} (want {want_rc}), "
                      f"missing {missing}\n{proc.stdout}")
            else:
                print(f"ok   {name}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
