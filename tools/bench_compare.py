#!/usr/bin/env python3
"""Compare bench harness --json reports against a committed baseline.

Each report is one JSON object written by bench::run --json (see
bench/harness.hpp): {"experiment": {"id": ...}, "wall_seconds": ...,
"total_events": ..., "events_per_sec": ..., "metrics": {...}}. The baseline
file maps experiment id -> the same summary fields.

The gate is wall time: a report regresses when its wall_seconds exceeds the
baseline's by more than --max-regression (default 10%). Runs faster than
--min-seconds (default 0.05 s) on either side are skipped — below that the
timer resolution and scheduler noise dominate and a ratio is meaningless.
Total-event drift is reported but never fails the gate: event counts change
legitimately whenever a scenario is added or re-parameterised, and the
determinism suite (not this tool) owns that invariant.

Selected *scalar metrics* are gated too, opt-in per bench via METRIC_GATES
below. Those metrics are simulation outcomes, not timings, so for a fixed
invocation they are exactly reproducible on any machine; a drift means the
model's behaviour changed, not that the runner was slow. The gate is exact
by default; --metric-tolerance allows an absolute slack for metrics that
are legitimately sensitive (none today). Benches or metrics absent from
the baseline's "metrics" object are reported and skipped, so an old-format
baseline keeps working until the next --update.

Google-benchmark JSON (bench_micro --benchmark_format=json, recognised by
its "benchmarks" array) is gated too, under the reserved baseline id
"MICRO". The gated quantity is items_per_second — the substrate-throughput
headline the micro benches exist to publish — and the gate direction is
inverted relative to wall time: a *drop* beyond --max-regression fails.
This is the guard that keeps always-compiled instrumentation hooks (span
tracer, observers) honest about their disabled-path cost: the hot loops
bench_micro times run with nothing attached, so a throughput drop means
the "one empty-list branch per event, one null-pointer branch per hook
site" contract broke.

Scale reports (bench harness --scale-json, recognised by their "scale"
key) are compared in SCALE mode, normally against the committed
SCALE_PROFILE.json (pass it as --baseline). Every SCALE_TRACKED field must
match exactly: any difference (or a report or field the baseline lacks)
fails, naming the field, until the baseline is refreshed with --update.
critical_path_length and imbalance_ratio also print their growth, labelled
REGRESSION beyond --max-regression, since those two bound the predicted
PDES speedup from the causality and load-balance side respectively.

Memory reports (bench harness --mem-json, recognised by their "mem" key)
are compared in MEM mode, normally against the committed MEM_PROFILE.json
(pass it as --baseline), the same way: every MEM_TRACKED field must match
exactly. They are event, packet and actor counts and lifetime totals,
never RSS, so for a fixed invocation they are exactly reproducible
anywhere, and a committed profile that no longer matches means the code or
the invocation changed the report.

Harness reports carry "sim_events": null when no simulator ran (sim-less
model benches). Those entries are flagged as ungated rather than silently
passing; a null where the baseline has a real count fails the gate, since
it means event counting broke.

--trajectory FILE appends one JSON line per report — experiment id plus
the gated metrics — forming a longitudinal record of how each headline
number moves across commits (CI stores it as an artifact).

--speedup compares exactly two reports of the *same* experiment — a
reference run and a parallel run (e.g. --shards 1 vs --shards 8) — and
prints the wall-clock speedup. With --min-speedup N the pair gates: a
speedup below N fails. CI uses --min-speedup 0 to publish the measured
number as an artifact without gating (shared runners have 2-4 cores, so a
hard parallel-speedup gate would only measure the runner); verify the
real ratio on a many-core machine. When either side runs faster than
--min-seconds the ratio is "unmeasurable" — scheduler noise at that
scale can make a ratio arbitrarily large or small (historically this
printed inf when the parallel side rounded to zero), so the pair is
reported as unmeasurable and passes.

Exec reports (bench harness --exec-json, recognised by their "exec" key)
are compared in EXEC mode. They are wall-clock measurements —
non-deterministic by design and exempt from the byte-identity contract —
so there is no baseline entry to diff against. Instead the tracked
numbers (windows, workers, measured vs predicted speedup, loss split)
are printed for the artifact record, and one absolute gate applies:
--max-barrier-fraction FRAC fails the report when the validation block
attributes more than FRAC of window wall time to barrier waits — the
signal that the barrier protocol itself, not load imbalance, is eating
the parallel headroom.

Usage:
  bench_compare.py --baseline BENCH_baseline.json report.json...
  bench_compare.py --baseline BENCH_baseline.json --update report.json...
  bench_compare.py --speedup serial.json sharded.json [--min-speedup N]

--update rewrites the given reports' entries in the baseline, preserving
entries for benches not among the reports (run it on the reference machine
after an intentional perf change and commit the result).
Exit status: 0 = no regression, 1 = regression, 2 = usage/schema error.
"""

from __future__ import annotations

import argparse
import json
import sys

# Per-experiment allowlist of scalar metrics that must match the baseline.
# Opt-in and deliberately short: every name here must be a deterministic
# function of (code, seed, invocation) — means over replicas qualify, wall
# times never do.
METRIC_GATES: dict[str, list[str]] = {
    # E5 (bench_qos_deployment): the paper's greed/fear grid headline.
    # The ".mean" names exist when the bench runs with --replicas > 1, as
    # the CI gate invocation does; single runs simply have nothing to gate.
    "E5": [
        "deployment-regimes.regime=0.deploy_fraction.mean",
        "deployment-regimes.regime=3.deploy_fraction.mean",
        "deployment-regimes.regime=4.app_price.mean",
    ],
    # E6 (bench_firewall): the protocol-vs-trust firewall contrast.
    "E6": [
        "firewall-variants.variant=1.attack_delivered.mean",
        "firewall-variants.variant=1.novel_app_delivered.mean",
        "firewall-variants.variant=2.novel_app_delivered.mean",
    ],
}


# Reserved baseline id for the Google-benchmark micro report. bench_micro
# has no harness "experiment" — all its benchmarks live under this one key.
MICRO_ID = "MICRO"

# Scale-report fields compared exactly (they are deterministic functions of
# (code, seed, invocation), like gated metrics). critical_path_length and
# imbalance_ratio also report their growth against --max-regression,
# because each one bounds the PDES speedup from a different side (span
# causality vs load balance) and silent growth would erode the parallel
# headroom the committed profile promises.
SCALE_GATED = ("critical_path_length", "imbalance_ratio")
SCALE_TRACKED = SCALE_GATED + (
    "work", "work_span_ratio", "shards", "cross_shard_events",
    "speedup_k8", "speedup_bound",
)

# Memory-report fields compared exactly: event, packet and actor counts and
# the delivered and dropped packet-lifetime totals. None has a direction to
# gate; any difference fails.
MEM_TRACKED = (
    "work", "runs", "events_scheduled", "events_cancelled", "packets_born",
    "actor_count", "packets_delivered", "packets_dropped",
)


def load_report(path: str) -> dict:
    with open(path) as f:
        d = json.load(f)
    if "benchmarks" in d:  # Google-benchmark --benchmark_format=json
        if not isinstance(d["benchmarks"], list) or not d["benchmarks"]:
            raise ValueError(f"{path}: empty Google-benchmark report")
        d["experiment"] = {"id": MICRO_ID}
        return d
    if "scale" in d:  # harness --scale-json report
        if not d.get("experiment", {}).get("id"):
            raise ValueError(f"{path}: scale report with no experiment id")
        return d
    if "exec" in d:  # harness --exec-json report
        if not d.get("experiment", {}).get("id"):
            raise ValueError(f"{path}: exec report with no experiment id")
        return d
    if "mem" in d:  # harness --mem-json report
        if not d.get("experiment", {}).get("id"):
            raise ValueError(f"{path}: mem report with no experiment id")
        return d
    for key in ("experiment", "wall_seconds", "total_events"):
        if key not in d:
            raise ValueError(f"{path}: not a harness report (missing {key!r})")
    if not d["experiment"].get("id"):
        raise ValueError(f"{path}: empty experiment id")
    return d


def scale_summary(report: dict) -> dict:
    """The SCALE_TRACKED subset of a --scale-json report."""
    s = report["scale"]
    shards = sum(1 for e in s.get("shards", [])
                 if e.get("shard") not in ("none", "shared"))
    k8 = next((pt["speedup"] for pt in s["speedup"]["curve"] if pt["k"] == 8),
              None)
    return {
        "work": s["work"],
        "critical_path_length": s["critical_path"]["length"],
        "work_span_ratio": s["critical_path"]["work_span_ratio"],
        "imbalance_ratio": s["imbalance"]["ratio"],
        "shards": shards,
        "cross_shard_events": s["cross_shard_events"],
        "speedup_k8": k8,
        "speedup_bound": s["speedup"]["bound"],
    }


def compare_profile(bench_id: str, kind: str, cur: dict, base: dict,
                    tracked: tuple, gated: tuple, max_regression: float) -> bool:
    """SCALE/MEM mode: every tracked field must equal the baseline's.

    Returns True when one differs or is missing. Gated fields print their
    growth too, labelled REGRESSION beyond max_regression.
    """
    failed = False
    for name in tracked:
        value, expected = cur.get(name), base.get(name)
        if expected is None:
            print(f"{bench_id}: {kind}.{name}: not in baseline CHANGED — "
                  f"refresh the baseline with --update")
            failed = True
            continue
        if name in gated:
            growth = ((value - expected) / expected if expected else
                      (0.0 if not value else float("inf")))
            verdict = ("REGRESSION" if growth > max_regression else
                       "ok" if value == expected else "CHANGED")
            print(f"{bench_id}: {kind}.{name}: {value!r} vs baseline "
                  f"{expected!r} ({growth:+.1%}) {verdict}")
        elif value != expected:
            print(f"{bench_id}: {kind}.{name}: {value!r} vs baseline "
                  f"{expected!r} CHANGED")
        else:
            print(f"{bench_id}: {kind}.{name}: {value!r} ok")
        if value != expected:
            print(f"{bench_id}:   {kind}.{name} must match the committed "
                  f"profile exactly — refresh it with --update after an "
                  f"intended change")
            failed = True
    return failed


def mem_summary(report: dict) -> dict:
    """The MEM_TRACKED subset of a --mem-json report."""
    m = report["mem"]
    lifetimes = m["lifetimes"]

    def closed(key: str) -> int:
        return sum(b["count"] for b in lifetimes[key])

    return {
        "work": m["work"],
        "runs": m["runs"],
        "events_scheduled": m["events_scheduled"],
        "events_cancelled": m["events_cancelled"],
        "packets_born": m["packets_born"],
        "actor_count": sum(a["count"] for a in m["actors"]),
        "packets_delivered": closed("packet_delivered"),
        "packets_dropped": closed("packet_dropped"),
    }


def compare_exec(bench_id: str, report: dict,
                 max_barrier_fraction: float | None) -> bool:
    """EXEC mode: print the wall-clock record, gate barrier overhead.

    No baseline diff — exec numbers are timings, and the gate is absolute:
    barrier_overhead_fraction must stay under --max-barrier-fraction (when
    given). Everything else is published for the artifact trail.
    """
    ex = report["exec"]
    v = ex.get("validation")
    if not isinstance(v, dict):
        print(f"{bench_id}: exec report has no validation block — profiler "
              f"recorded no runs REGRESSION")
        return True
    print(f"{bench_id}: exec: {ex.get('runs', 0)} runs, "
          f"{ex.get('windows', 0)} windows, {v.get('workers', 0)} workers, "
          f"{ex.get('elapsed_seconds', 0.0):.4f}s wall")
    print(f"{bench_id}:   speedup {v.get('measured_speedup', 0.0):.2f}x "
          f"measured vs {v.get('predicted_speedup', 0.0):.2f}x predicted "
          f"(mean window error {v.get('mean_window_error', 0.0):.1%})")
    loss = v.get("loss", {})
    print(f"{bench_id}:   loss: imbalance "
          f"{loss.get('imbalance_seconds', 0.0):.4f}s, barrier "
          f"{loss.get('barrier_seconds', 0.0):.4f}s, drain "
          f"{loss.get('drain_seconds', 0.0):.4f}s — dominant "
          f"{loss.get('dominant', 'none')}")
    frac = v.get("barrier_overhead_fraction", 0.0)
    if max_barrier_fraction is None:
        print(f"{bench_id}:   barrier overhead {frac:.1%} (report only)")
        return False
    verdict = "REGRESSION" if frac > max_barrier_fraction else "ok"
    print(f"{bench_id}:   barrier overhead {frac:.1%} vs allowed "
          f"{max_barrier_fraction:.1%} {verdict}")
    return verdict == "REGRESSION"


def micro_throughputs(report: dict) -> dict:
    """benchmark name -> items_per_second, for benchmarks that publish it.

    Aggregate rows (mean/median/stddev from --benchmark_repetitions) are
    skipped so a repetition run gates on the same names as a plain run.
    """
    out = {}
    for b in report["benchmarks"]:
        if b.get("run_type") == "aggregate":
            continue
        ips = b.get("items_per_second")
        if ips is not None:
            out[b["name"]] = ips
    return out


def gated_metrics(bench_id: str, report: dict) -> dict:
    """The subset of this report's metrics that METRIC_GATES tracks."""
    metrics = report.get("metrics", {})
    return {name: metrics[name]
            for name in METRIC_GATES.get(bench_id, []) if name in metrics}


def summarize(report: dict) -> dict:
    bench_id = report["experiment"]["id"]
    if bench_id == MICRO_ID:
        return {"items_per_second": micro_throughputs(report)}
    if "scale" in report:
        return scale_summary(report)
    if "mem" in report:
        return mem_summary(report)
    return {
        "wall_seconds": report["wall_seconds"],
        "total_events": report["total_events"],
        # None (JSON null) marks a sim-less model bench: no simulator ran,
        # so there is no event throughput to gate — distinct from a broken
        # zero.
        "sim_events": report.get("sim_events"),
        "events_per_sec": report.get("events_per_sec"),
        "metrics": gated_metrics(bench_id, report),
    }


def compare_micro(report: dict, base: dict, max_regression: float) -> bool:
    """Gates micro throughput; returns True when something regressed."""
    failed = False
    base_ips = base.get("items_per_second", {})
    for name, cur in sorted(micro_throughputs(report).items()):
        ref = base_ips.get(name)
        if ref is None:
            print(f"{MICRO_ID}: {name}: not in baseline — run with --update "
                  f"to adopt it")
            continue
        drop = (ref - cur) / ref if ref > 0 else 0.0
        verdict = "REGRESSION" if drop > max_regression else "ok"
        print(f"{MICRO_ID}: {name}: {cur:,.0f} items/s vs baseline "
              f"{ref:,.0f} ({-drop:+.1%}) {verdict}")
        if verdict == "REGRESSION":
            failed = True
    return failed


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", default="BENCH_baseline.json",
                    help="baseline file (default: %(default)s)")
    ap.add_argument("--max-regression", type=float, default=0.10, metavar="FRAC",
                    help="allowed fractional wall-time growth (default: %(default)s)")
    ap.add_argument("--min-seconds", type=float, default=0.05, metavar="SEC",
                    help="skip comparisons when both sides run faster than "
                         "this (default: %(default)s)")
    ap.add_argument("--metric-tolerance", type=float, default=0.0, metavar="ABS",
                    help="allowed absolute drift for gated metrics "
                         "(default: %(default)s — exact)")
    ap.add_argument("--trajectory", metavar="FILE",
                    help="append one JSON line per report (id + gated "
                         "metrics) to this file")
    ap.add_argument("--update", action="store_true",
                    help="rewrite the baseline from the given reports")
    ap.add_argument("--speedup", action="store_true",
                    help="compare exactly two reports of the same experiment "
                         "(reference first, parallel second) and print the "
                         "wall-clock speedup")
    ap.add_argument("--min-speedup", type=float, default=0.0, metavar="RATIO",
                    help="with --speedup: fail when reference/parallel wall "
                         "time falls below this ratio (default: %(default)s "
                         "— report only)")
    ap.add_argument("--max-barrier-fraction", type=float, default=None,
                    metavar="FRAC",
                    help="for --exec-json reports: fail when the validation "
                         "block attributes more than this fraction of "
                         "window wall time to barrier waits (default: "
                         "report only)")
    ap.add_argument("reports", nargs="+", help="harness --json output files")
    args = ap.parse_args()

    if args.speedup:
        if len(args.reports) != 2:
            print("bench_compare: --speedup needs exactly two reports "
                  "(reference, parallel)", file=sys.stderr)
            return 2
        try:
            ref, par = (load_report(p) for p in args.reports)
        except (OSError, ValueError, json.JSONDecodeError) as e:
            print(f"bench_compare: {e}", file=sys.stderr)
            return 2
        ids = (ref["experiment"]["id"], par["experiment"]["id"])
        if ids[0] != ids[1]:
            print(f"bench_compare: --speedup reports disagree on the "
                  f"experiment: {ids[0]!r} vs {ids[1]!r}", file=sys.stderr)
            return 2
        ref_s, par_s = ref["wall_seconds"], par["wall_seconds"]
        # Below the noise floor the ratio means nothing (and a parallel
        # side rounding to zero used to print inf) — say so instead of
        # publishing a bogus number, and pass: there is nothing to gate.
        if min(ref_s, par_s) < args.min_seconds:
            print(f"{ids[0]}: speedup unmeasurable ({ref_s:.4f}s reference "
                  f"/ {par_s:.4f}s parallel — a side is under "
                  f"--min-seconds {args.min_seconds:g}, timer noise "
                  f"dominates)")
            return 0
        speedup = ref_s / par_s
        verdict = "ok" if speedup >= args.min_speedup else "BELOW TARGET"
        print(f"{ids[0]}: speedup {speedup:.2f}x ({ref_s:.4f}s reference / "
              f"{par_s:.4f}s parallel, target >= {args.min_speedup:g}x) "
              f"{verdict}")
        return 0 if speedup >= args.min_speedup else 1

    try:
        reports = {r["experiment"]["id"]: r
                   for r in (load_report(p) for p in args.reports)}
    except (OSError, ValueError, json.JSONDecodeError) as e:
        print(f"bench_compare: {e}", file=sys.stderr)
        return 2

    if args.trajectory:
        with open(args.trajectory, "a") as f:
            for bench_id, report in sorted(reports.items()):
                if bench_id == MICRO_ID:
                    entry = {"experiment": bench_id,
                             "items_per_second": micro_throughputs(report)}
                elif "mem" in report:
                    entry = {"experiment": bench_id, "mem": mem_summary(report)}
                else:
                    entry = {"experiment": bench_id,
                             "total_events": report["total_events"],
                             "metrics": gated_metrics(bench_id, report)}
                f.write(json.dumps(entry, sort_keys=True) + "\n")
        print(f"bench_compare: appended {len(reports)} trajectory "
              f"entries to {args.trajectory}")

    if args.update:
        # Merge, don't rewrite: refreshing the micro baseline must not drop
        # the harness entries, and vice versa.
        try:
            with open(args.baseline) as f:
                baseline = json.load(f)
        except (OSError, json.JSONDecodeError):
            baseline = {}
        for bench_id, r in sorted(reports.items()):
            baseline[bench_id] = summarize(r)
        with open(args.baseline, "w") as f:
            json.dump(baseline, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"bench_compare: wrote {args.baseline} ({len(baseline)} benches)")
        return 0

    if all("exec" in r for r in reports.values()):
        baseline = {}  # exec reports gate absolutely; no baseline needed
    else:
        try:
            with open(args.baseline) as f:
                baseline = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            print(f"bench_compare: cannot read baseline: {e}", file=sys.stderr)
            return 2

    failed = False
    for bench_id, report in sorted(reports.items()):
        if "exec" in report:  # absolute gate, no baseline entry
            failed |= compare_exec(bench_id, report,
                                   args.max_barrier_fraction)
            continue
        base = baseline.get(bench_id)
        profile = "scale" if "scale" in report else "mem" if "mem" in report else None
        if base is None:
            print(f"{bench_id}: not in baseline — run with --update to adopt it")
            # A committed profile covers every report it is compared with.
            failed |= profile is not None
            continue
        if bench_id == MICRO_ID:
            failed |= compare_micro(report, base, args.max_regression)
            continue
        if profile == "scale":
            failed |= compare_profile(bench_id, profile, scale_summary(report), base,
                                      SCALE_TRACKED, SCALE_GATED, args.max_regression)
            continue
        if profile == "mem":
            failed |= compare_profile(bench_id, profile, mem_summary(report), base,
                                      MEM_TRACKED, (), args.max_regression)
            continue
        cur_s, base_s = report["wall_seconds"], base["wall_seconds"]
        if max(cur_s, base_s) < args.min_seconds:
            print(f"{bench_id}: {cur_s:.4f}s vs {base_s:.4f}s — below "
                  f"--min-seconds {args.min_seconds}, skipped")
            continue
        growth = (cur_s - base_s) / base_s if base_s > 0 else float("inf")
        verdict = "REGRESSION" if growth > args.max_regression else "ok"
        print(f"{bench_id}: {cur_s:.4f}s vs baseline {base_s:.4f}s "
              f"({growth:+.1%}) {verdict}")
        if report["total_events"] != base["total_events"]:
            print(f"{bench_id}:   note: total_events {base['total_events']} -> "
                  f"{report['total_events']} (scenario change, not gated)")
        if verdict == "REGRESSION":
            failed = True
        # Flag (never silently pass) entries with no event throughput. A
        # sim-less bench is expected to be null on both sides; a zero where
        # the baseline has events means instrumentation broke.
        if report.get("sim_events") is None:
            if base.get("sim_events") is None and "sim_events" in base:
                print(f"{bench_id}:   sim-less bench — throughput ungated")
            elif base.get("sim_events"):
                print(f"{bench_id}:   sim_events null but baseline has "
                      f"{base['sim_events']} — event counting broke "
                      f"REGRESSION")
                failed = True
            else:
                print(f"{bench_id}:   sim_events absent from baseline — run "
                      f"with --update to adopt the null marker")

        base_metrics = base.get("metrics")
        if base_metrics is None and METRIC_GATES.get(bench_id):
            print(f"{bench_id}:   metrics not in baseline — run with "
                  f"--update to adopt them")
            continue
        for name, value in sorted(gated_metrics(bench_id, report).items()):
            if name not in (base_metrics or {}):
                print(f"{bench_id}:   {name}: not in baseline, skipped")
                continue
            expected = base_metrics[name]
            drift = abs(value - expected)
            if drift > args.metric_tolerance:
                print(f"{bench_id}:   {name}: {value!r} vs baseline "
                      f"{expected!r} METRIC DRIFT")
                failed = True
            else:
                print(f"{bench_id}:   {name}: {value!r} ok")

    if failed:
        print(f"bench_compare: wall time grew (or micro throughput fell) "
              f"more than {args.max_regression:.0%}, a gated metric "
              f"drifted, or a scale/memory profile differs from "
              f"{args.baseline}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
