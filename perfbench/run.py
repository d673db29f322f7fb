#!/usr/bin/env python3
"""Build the Decima benchmark and run one workload.

Run from the repository root:

  python3 perfbench/run.py --workload serve_tpch --seed 1 --seconds 10 --trace 0

The first run configures and builds perfbench/ (which compiles the program's
`decima` library from src/ with the root CMakeLists.txt's flags) into
.bench_build/perfbench; later runs only rebuild what changed. The workload's
output passes through, and its last line of standard output is the run's JSON
result. Checkpoints and, with --trace 1, the Chrome trace are written under
.bench_build/perfbench-out/. Exits 1, printing no result, when the build fails
or the result is missing or does not list exactly the metrics BENCHMARK.json
names for the run's --trace mode.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("serve_tpch", "train_dag50")

_child = None


def _stop_child(signum, _frame):
    if _child is not None and _child.poll() is None:
        _child.terminate()
        try:
            _child.wait(timeout=10)
        except subprocess.TimeoutExpired:
            _child.kill()
            _child.wait()
    sys.exit(128 + signum)


def run(cmd):
    """Runs cmd to completion (stopping it if we are stopped); returns
    (exit code, captured stdout)."""
    global _child
    _child = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True)
    out, _ = _child.communicate()
    code = _child.returncode
    _child = None
    return code, out


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    # Configure unless an earlier configure completed (it writes the build
    # system last).
    if not any(os.path.exists(os.path.join(BUILD, f))
               for f in ("Makefile", "build.ninja")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        code, out = run(cmd)
        sys.stderr.write(out)
        if code != 0:
            sys.stderr.write("perfbench: build step failed: %s\n"
                             % " ".join(cmd))
            return False
    return True


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(sig, _stop_child)

    if not build():
        return 1
    out_dir = os.path.join(ROOT, ".bench_build", "perfbench-out",
                           "%s-seed%d-trace%d" % (args.workload, args.seed,
                                                  args.trace))
    os.makedirs(out_dir, exist_ok=True)
    code, out = run([BINARY, "--workload", args.workload,
                     "--seed", str(args.seed), "--seconds", repr(args.seconds),
                     "--trace", str(args.trace), "--out-dir", out_dir])
    lines = out.rstrip("\n").split("\n")
    if code != 0:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        sys.stderr.write("perfbench: exited with code %d\n" % code)
        return 1
    try:
        result = json.loads(lines[-1])
        names = set(result["metrics"])
    except (ValueError, KeyError, TypeError, IndexError):
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        sys.stderr.write("perfbench: no JSON result on the last line\n")
        return 1
    want = expected_metrics(args.trace)
    if names != want:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        sys.stderr.write("perfbench: metrics %s differ from BENCHMARK.json "
                         "(missing %s, extra %s)\n"
                         % (sorted(names), sorted(want - names),
                            sorted(names - want)))
        return 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
