#!/usr/bin/env python3
"""Collect sets of benchmark runs and compare them, per workload and metric.

Collect one set (one run per seed, results appended as JSON lines):

  python3 perfbench/compare.py collect --workloads serve_tpch train_dag50 \
      --seeds 1-10 --out setA.jsonl [--trace 0] [--seconds S]

Report one set's steadiness, or compare two sets (say, parent and change):

  python3 perfbench/compare.py report setA.jsonl [setB.jsonl]

For each workload and metric the report prints each set's median, first and
third quartiles (statistics.quantiles(values, n=4)) and spread = (q3 - q1) /
median. With two sets it adds the change of B's median against A's, and the
share of pairs (A's i-th run against B's i-th run) that each side wins, ties
counting for neither. Against BENCHMARK.json's bounds it flags a spread above
a third of the bound ("noisy"), and a B median worse than A's by more than
the bound ("WORSE"). Exits 1 when a set holds an incorrect run, a run with a
metric that is not a number (written as null), or a failed share that
differs between runs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def collect(args):
    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    for seed in parse_seeds(args.seeds):
        for workload in args.workloads:
            cmd = spec["command"] + ["--workload", workload, "--seed",
                                     str(seed), "--seconds", str(seconds),
                                     "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True)
            last = proc.stdout.rstrip("\n").split("\n")[-1]
            try:
                result = json.loads(last) if proc.returncode == 0 else None
            except ValueError:
                result = None
            row = {"workload": workload, "seed": seed, "trace": args.trace,
                   "exit": proc.returncode, "result": result}
            with open(args.out, "a") as f:
                f.write(json.dumps(row) + "\n")
            brief = "exit %d" % proc.returncode if result is None else \
                " ".join("%s=%s" % (k, v["value"])
                         for k, v in result["metrics"].items())
            print("%-17s seed %-4d %s" % (workload, seed, brief), flush=True)


def read_set(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                row = json.loads(line)
                runs.setdefault(row["workload"], []).append(row)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(rows):
    """Checks the runs and returns ({metric: [values]}, problems)."""
    problems = []
    shares = set()
    values = {}
    for row in rows:
        res = row["result"]
        if res is None:
            problems.append("seed %d: no result (exit %d)"
                            % (row["seed"], row["exit"]))
            continue
        if not res["correct"]:
            problems.append("seed %d: correct is false" % row["seed"])
        shares.add((res["failed"] / res["attempted"]))
        for name, m in res["metrics"].items():
            if not isinstance(m["value"], (int, float)):
                problems.append("seed %d: %s is %r, not a number"
                                % (row["seed"], name, m["value"]))
                continue
            values.setdefault(name, []).append(m["value"])
    if len(shares) > 1:
        problems.append("failed share differs between runs: %s"
                        % sorted(shares))
    return values, problems


def report(args):
    spec = load_spec()
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec["per_layer"]}
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    sets = [read_set(p) for p in args.sets]
    bad = False
    for workload in sorted(set().union(*sets)):
        summaries = []
        for s in sets:
            values, problems = summarize(s.get(workload, []))
            for p in problems:
                print("%s: %s" % (workload, p))
                bad = True
            summaries.append(values)
        print("\n%s (runs: %s)" % (workload, ", ".join(
            str(len(s.get(workload, []))) for s in sets)))
        header = "  %-32s %12s %12s %12s %7s" % ("metric", "median", "q1",
                                                 "q3", "spread")
        if len(sets) == 2:
            header += "   B: %12s %12s %12s %7s %8s %6s %6s" % (
                "median", "q1", "q3", "spread", "change", "A win", "B win")
        print(header)
        for name in summaries[0]:
            a = summaries[0][name]
            q1, med, q3 = quartiles(a)
            spread = (q3 - q1) / med if med else float("inf")
            line = "  %-32s %12.6g %12.6g %12.6g %7.3f" % (name, med, q1, q3,
                                                           spread)
            flags = []
            if name in bound and spread > bound[name] / 3:
                flags.append("noisy")
            if len(sets) == 2 and name in summaries[1]:
                b = summaries[1][name]
                bq1, bmed, bq3 = quartiles(b)
                bspread = (bq3 - bq1) / bmed if bmed else float("inf")
                change = (bmed - med) / med if med else 0.0
                sign = 1 if better.get(name) == "higher" else -1
                pairs = list(zip(a, b))
                a_wins = sum(1 for x, y in pairs if sign * (x - y) > 0)
                b_wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
                line += "   B: %12.6g %12.6g %12.6g %7.3f %+8.3f %6.2f %6.2f" % (
                    bmed, bq1, bq3, bspread, change,
                    a_wins / max(len(pairs), 1), b_wins / max(len(pairs), 1))
                if name in bound and -sign * change > bound[name]:
                    flags.append("WORSE")
                if name in bound and bspread > bound[name] / 3:
                    flags.append("B noisy")
            print(line + ("  " + ",".join(flags) if flags else ""))
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect", help="run the benchmark once per seed")
    c.add_argument("--workloads", nargs="+", required=True)
    c.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    c.add_argument("--out", required=True)
    c.add_argument("--trace", type=int, default=0, choices=(0, 1))
    c.add_argument("--seconds", type=float,
                   help="default: BENCHMARK.json's run_seconds")
    r = sub.add_parser("report", help="summarize one set, or compare two")
    r.add_argument("sets", nargs="+")
    args = ap.parse_args()
    if args.cmd == "collect":
        collect(args)
        return 0
    if len(args.sets) > 2:
        ap.error("report takes one or two sets")
    return report(args)


if __name__ == "__main__":
    sys.exit(main())
