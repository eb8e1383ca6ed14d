#!/usr/bin/env python3
"""Compares two sets of serving_bench runs, workload by workload.

    python3 bench/serving/compare.py PARENT_DIR CHANGE_DIR [--benchmark PATH]

Each directory holds serving_bench run files (the JSON written by
--out; Chrome traces are skipped). Runs pair up in file-name order, so
name them so that pair i is the i-th parent run and the i-th change run
(run the two sides alternately). For every workload and end-to-end
metric it prints each side's median and quartiles and one verdict:

  better        the change won at least 9 of every 10 pairs (at least
                10 pairs run, ties counting for neither) and the medians
                differ by more than the parent's interquartile range;
  unresolved    either side's interquartile range (as a share of the
                parent's median) is wider than the bound, so the runs
                cannot tell a move within the bound from noise; except
                that every change run beating every parent run is
                "within bound", and every change run losing to every
                parent run, by more than the bound at the medians, is
                "worse";
  worse         the change's median is worse than the parent's by more
                than the metric's bound;
  within bound  otherwise.

Bounds are shares of the parent's median, from BENCHMARK.json. The
metrics BENCHMARK.json cannot list carry their bounds in EXTRA_METRICS
below: those only some workloads report (inline, Ask and write
latency, ladder capacity), the failure share (0 by design, compared
absolutely), and read_p99_ms, whose run-to-run spread on a shared host
is too wide for a gated bound of at most 0.25 (see README.md). A metric
whose parent median is 0 is compared by absolute difference. Workloads
BENCHMARK.json does not gate (adhoc_churn) are judged the same way when
both directories hold runs of them.

Runs marked "valid": false (the load generator ran more than 1 ms late
at p99, so they measured the generator) are left out and counted.
Per-layer metrics of traced runs print as medians with their change,
without a verdict: they say where a move came from.

Exits 1 if any verdict is "worse", else 0. Standard library only.
"""

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(HERE)),
                                 "BENCHMARK.json")

EXTRA_METRICS = [
    {"name": "read_p99_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "inline_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "inline_p99_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "ask_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "ask_p99_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "write_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "write_p99_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "max_qps_at_slo", "unit": "qps", "better": "higher",
     "bound": 0.0},
    {"name": "fail_frac", "unit": "fraction", "better": "lower", "bound": 0.0},
]

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(directory):
    """Valid runs by workload, plus the number of invalid runs skipped."""
    runs, invalid = {}, {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        if path.endswith(".trace.json"):
            continue
        with open(path) as f:
            run = json.load(f)
        if run["valid"]:
            runs.setdefault(run["workload"], []).append(run)
        else:
            invalid[run["workload"]] = invalid.get(run["workload"], 0) + 1
    return runs, invalid


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(metric, parent, change):
    """Returns (verdict, detail) for one workload x metric."""
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    p1, pmed, p3 = quartiles(parent)
    c1, cmed, c3 = quartiles(change)

    def rel(x):  # share of the parent's median (absolute when it is 0)
        return x / abs(pmed) if pmed else x

    def beats(c, p):
        return c < p if lower else c > p

    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if beats(c, p))
    worse_by = rel(cmed - pmed) if lower else rel(pmed - cmed)
    spread = max(rel(p3 - p1), rel(c3 - c1))
    detail = "%d/%d pairs won, worse by %+.3f, spread %.3f" % (
        wins, len(pairs), worse_by, spread)
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and beats(cmed, pmed) and abs(cmed - pmed) > p3 - p1):
        return "better", detail
    if spread > bound:
        if all(beats(c, p) for c in change for p in parent):
            return "within bound", detail
        if worse_by > bound and all(beats(p, c) for c in change
                                    for p in parent):
            return "worse", detail
        return "unresolved", detail
    if worse_by > bound:
        return "worse", detail
    return "within bound", detail


def fmt(q):
    return "%.4g [%.4g, %.4g]" % (q[1], q[0], q[2])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--benchmark", default=DEFAULT_BENCHMARK)
    args = ap.parse_args()
    with open(args.benchmark) as f:
        spec = json.load(f)
    metrics = spec["end_to_end"] + [
        m for m in EXTRA_METRICS
        if m["name"] not in {e["name"] for e in spec["end_to_end"]}]
    parent, parent_invalid = load_runs(args.parent)
    change, change_invalid = load_runs(args.change)

    regressions = 0
    print("%-13s %-15s %-30s %-30s %-13s %s" % (
        "workload", "metric", "parent median [q1, q3]",
        "change median [q1, q3]", "verdict", "detail"))
    # The gated workloads first, then any other workload both sides ran.
    workloads = [w["name"] for w in spec["workloads"]]
    workloads += sorted(set(parent) & set(change) - set(workloads))
    for w in workloads:
        if w not in parent or w not in change:
            print("%-13s (no runs on %s)" % (
                w, "either side" if w not in parent and w not in change
                else "one side"))
            continue
        for m in metrics:
            pv = [r["metrics"][m["name"]]["value"] for r in parent[w]
                  if m["name"] in r["metrics"]]
            cv = [r["metrics"][m["name"]]["value"] for r in change[w]
                  if m["name"] in r["metrics"]]
            if not pv or not cv:
                continue
            v, detail = verdict(m, pv, cv)
            regressions += v == "worse"
            print("%-13s %-15s %-30s %-30s %-13s %s" % (
                w, m["name"], fmt(quartiles(pv)), fmt(quartiles(cv)), v,
                detail))
        for side, runs, invalid in (("parent", parent[w], parent_invalid),
                                    ("change", change[w], change_invalid)):
            bad = sum(1 for r in runs if not r["correct"])
            if bad:
                print("%-13s %d %s run(s) failed a correctness check" % (
                    w, bad, side))
                regressions += 1
            if invalid.get(w):
                print("%-13s %d invalid %s run(s) left out" % (
                    w, invalid[w], side))

    layered = [(w, parent[w], change[w]) for w in parent if w in change]
    if any("layers" in r for _, runs, _ in layered for r in runs):
        print("\nper-layer medians (traced runs)")
        for w, pr, cr in layered:
            pl = [r["layers"] for r in pr if "layers" in r]
            cl = [r["layers"] for r in cr if "layers" in r]
            if not pl or not cl:
                continue
            for name in sorted(pl[0]):
                pmed = statistics.median(l[name]["value"] for l in pl)
                cmed = statistics.median(l[name]["value"] for l in cl
                                         if name in l)
                change_pct = ("%+.1f%%" % (100 * (cmed - pmed) / abs(pmed))
                              if pmed else "")
                print("%-13s %-26s %12.4g -> %-12.4g %s %s" % (
                    w, name, pmed, cmed, pl[0][name]["unit"], change_pct))
    sys.exit(1 if regressions else 0)


if __name__ == "__main__":
    main()
