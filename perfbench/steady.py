#!/usr/bin/env python3
"""Steadiness self-check: do two sets of runs of the same build agree within
the bounds recorded in BENCHMARK.json?

    python3 perfbench/steady.py [--workloads a,b] [--runs 10] [--sets 2]
                                [--first-seed 1] [--trace-check]

Run from the root of a checkout. Each set runs every chosen workload
--runs times, each run with its own --seed (sets use disjoint seeds), via
the command in BENCHMARK.json. For every end-to-end metric it prints the
median and the quartile spread (Q3 - Q1, as statistics.quantiles(n=4)
gives them) as a share of the median, and between sets the change of the
median as a share of the first set's. It fails when a spread other than
setup_s's exceeds its bound, when any median moved by more than its bound,
or when a run failed or printed correct: false.

--trace-check also makes one traced run per workload (same seed as the
first untraced run of set 1) and reports the tracing overhead
(bench.traced_pipeline_s - pipeline_s) and how much of the traced op the
core.* stage spans' self times cover.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(bench, workload, seed, trace):
    command = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("%s seed %d: exit %d" % (workload, seed,
                                                   proc.returncode))
    result = json.loads(lines[-1])
    return result, lines[:-1]


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("inf")


def worse_by(first, second, better):
    change = (second - first) / first if first else 0.0
    return change if better == "lower" else -change


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", default="")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace-check", action="store_true")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in bench["workloads"]])
    metrics = bench["end_to_end"]
    ok = True
    for workload in workloads:
        sets = []
        for s in range(args.sets):
            values = {m["name"]: [] for m in metrics}
            for i in range(args.runs):
                seed = args.first_seed + s * args.runs + i
                result, _ = run(bench, workload, seed, 0)
                if not result["correct"] or result["failed"]:
                    print("%s seed %d: incorrect result" % (workload, seed))
                    ok = False
                for m in metrics:
                    values[m["name"]].append(
                        result["metrics"][m["name"]]["value"])
            sets.append(values)
        print("\n%s (%d runs x %d sets)" % (workload, args.runs, args.sets))
        print("  %-16s %12s %8s %8s %8s" % ("metric", "median", "spread",
                                             "bound", "drift"))
        for m in metrics:
            name, bound = m["name"], m["bound"]
            spreads = [spread(v[name]) for v in sets]
            medians = [statistics.median(v[name]) for v in sets]
            drift = max([worse_by(medians[0], x, m["better"])
                         for x in medians[1:]] or [0.0])
            flag = ""
            if name != "setup_s" and max(spreads) > bound:
                flag, ok = " SPREAD", False
            if drift > bound:
                flag, ok = flag + " DRIFT", False
            print("  %-16s %12.4f %8.3f %8.3f %8.3f%s" % (
                name, medians[0], max(spreads), bound, drift, flag))
            print("      " + " ".join("%.4g" % x for v in sets for x in v[name]))
        if args.trace_check:
            seed = args.first_seed
            plain, _ = run(bench, workload, seed, 0)
            traced, notes = run(bench, workload, seed, 1)
            t = {k: v["value"] for k, v in traced["metrics"].items()}
            op = t["bench.traced_pipeline_s"]
            stages = sum(v for k, v in t.items()
                         if k.startswith("core.") and k.endswith("_s"))
            overhead = op - plain["metrics"]["pipeline_s"]["value"]
            print("  traced op %.4f s, untraced %.4f s, overhead %+.4f s; "
                  "core.* self %.4f s, unattributed %.4f s" % (
                      op, plain["metrics"]["pipeline_s"]["value"], overhead,
                      stages, t["bench.unattributed_s"]))
            for line in notes:
                if line.startswith(("fidelity", "FAILED")):
                    print("  " + line)
            if not traced["correct"]:
                ok = False
    print("\nsteady: %s" % ("PASS" if ok else "FAIL"))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
