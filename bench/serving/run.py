#!/usr/bin/env python3
"""Builds serving_bench from source and runs one workload.

    python3 bench/serving/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1>

Run from anywhere inside a checkout; paths resolve from this file. The
first call configures and builds `build-bench/` at the repository root
(the library with the root's own flags, then serving_bench); later calls
reuse it. The run file (and, with --trace 1, the Chrome trace) lands in
`build-bench/runs/`.

The last line of standard output is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
holding every end-to-end metric of BENCHMARK.json (--trace 0) or every
per-layer metric (--trace 1). Build logs go to standard error.

Exit codes: 0 for a correct run; 1 when a correctness check or the build
failed; 2 when the repository sources are missing or the arguments are
wrong. A run whose load generator ran late is still reported; its run
file says "valid": false and compare.py leaves it out.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, "build-bench")
BINARY = os.path.join(BUILD, "serving_bench")


def fail(code, message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail(2, "repository sources not found under " + ROOT)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "serving_bench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail(1, "build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail(2, "BENCHMARK.json not found at " + ROOT)
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(2, "unknown workload " + args.workload)
    build()

    runs = os.path.join(BUILD, "runs")
    os.makedirs(runs, exist_ok=True)
    stem = os.path.join(runs, "%s-s%d-t%d" % (args.workload, args.seed,
                                             args.trace))
    cmd = [BINARY, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%g" % args.seconds, "--out=" + stem + ".json"]
    if args.trace:
        cmd.append("--trace=" + stem + ".trace.json")
    sys.stdout.flush()
    code = subprocess.run(cmd).returncode
    if code not in (0, 1) or not os.path.isfile(stem + ".json"):
        fail(1, "serving_bench exited with code %d" % code)
    with open(stem + ".json") as f:
        report = json.load(f)

    section = "layers" if args.trace else "metrics"
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    got = report.get(section, {})
    missing = [m["name"] for m in wanted if m["name"] not in got]
    if missing:
        fail(1, "run reported no value for " + ", ".join(missing))
    print(json.dumps({
        "correct": bool(report["correct"]),
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": {m["name"]: {"value": got[m["name"]]["value"],
                                "unit": got[m["name"]]["unit"]}
                    for m in wanted},
    }))
    sys.exit(0 if report["correct"] else 1)


if __name__ == "__main__":
    main()
