#!/usr/bin/env python3
"""Builds and runs the OASIS end-to-end time-to-delta benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload stripe-k1000 --seed 1 --seconds 20 --trace 0

The first call configures and builds perfbench/ (which builds the repository's
library from source) under $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench. The output of oasis_e2e is passed through; its last line
is one JSON object {correct, attempted, failed, metrics}. The full output of
each run, machine record included, is kept under <build>/results/, and a
traced run's spans under <build>/trace-<workload>.json.

    python3 perfbench/run.py --workload cora-er --seconds 20 --seed-spread 10

runs the workload untraced on seeds 1..10 and prints, per end-to-end metric,
the median, the quartiles and the interquartile range as a share of the
median, writing them to <build>/seed-spread-<workload>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("stripe-k1000", "cora-er", "serve-sessions")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = os.path.realpath(os.path.join(ROOT, target))
    if os.path.commonpath([path, ROOT]) != ROOT:
        path = os.path.join(ROOT, ".bench_build")
    return os.path.join(path, "perfbench")


def build(out_dir):
    """Configures (once) and builds oasis_e2e; returns its path or None."""
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "--target", "oasis_e2e",
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        try:
            done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"perfbench: build step failed: {err}", file=sys.stderr)
            return None
        if done.returncode != 0:
            print(f"perfbench: build step failed: {' '.join(step)}", file=sys.stderr)
            return None
    binary = os.path.join(out_dir, "oasis_e2e")
    return binary if os.path.exists(binary) else None


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, or None."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_once(binary, out_dir, workload, seed, seconds, trace):
    """Runs oasis_e2e; returns (exit code, stdout lines, result or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        cmd += ["--trace-out", os.path.join(out_dir, f"trace-{workload}.json")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} ran past {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, [], None
    lines = done.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    os.makedirs(os.path.join(out_dir, "results"), exist_ok=True)
    record = os.path.join(out_dir, "results",
                          f"{workload}-seed{seed}-trace{1 if trace else 0}.txt")
    with open(record, "w") as f:
        f.write(done.stdout)
    return done.returncode, lines, result


def seed_spread(binary, out_dir, workload, seeds, seconds):
    values = {}
    for seed in range(1, seeds + 1):
        code, _, result = run_once(binary, out_dir, workload, seed, seconds, False)
        if code != 0 or result is None:
            print(f"perfbench: seed {seed} failed", file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={v['value']:.6g}"
                                           for k, v in result["metrics"].items()),
              flush=True)
    summary = {}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / med if med else float("nan")
        summary[name] = {"values": vals, "q1": q1, "median": med, "q3": q3,
                         "iqr_share": share}
        print(f"{name:20s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
              f"iqr/median {share:.4f}")
    with open(os.path.join(out_dir, f"seed-spread-{workload}.json"), "w") as f:
        json.dump({"workload": workload, "seconds": seconds, "seeds": seeds,
                   "metrics": summary}, f, indent=1)
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seed-spread", type=int, default=0, metavar="N",
                        help="run untraced on seeds 1..N and report the spread")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        return 1
    if args.seed_spread:
        return seed_spread(binary, out_dir, args.workload, args.seed_spread, args.seconds)

    code, lines, result = run_once(binary, out_dir, args.workload, args.seed,
                                   args.seconds, bool(args.trace))
    expected = expected_metrics(bool(args.trace))
    if result is None:
        sys.stdout.write("\n".join(lines) + "\n")
        print("perfbench: oasis_e2e printed no result", file=sys.stderr)
        return code or 1
    if expected is not None and set(result["metrics"]) != expected:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        print("perfbench: metrics differ from BENCHMARK.json: "
              f"{sorted(set(result['metrics']) ^ expected)}", file=sys.stderr)
        return 1
    sys.stdout.write("\n".join(lines) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
