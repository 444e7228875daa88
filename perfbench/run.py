#!/usr/bin/env python3
"""Builds the node benchmark from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload tpce-wan --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR if set, else .bench_build (Release,
configured on first use). The traced run (--trace 1) writes its Chrome
trace to .bench_out/. The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics; its metric names and units are
checked against BENCHMARK.json before it is printed.
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
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(target):
    """Configures (once) and builds `target`; returns the binary path."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", out, "--target", target, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(out, target)


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    group = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def check_result(result, trace):
    """Returns a list of problems with the result object's shape."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys: %s" % sorted(result))
        return problems
    declared = declared_metrics(trace)
    printed = result["metrics"]
    for name in sorted(set(declared) | set(printed)):
        if name not in printed:
            problems.append("metric %s missing" % name)
        elif name not in declared:
            problems.append("metric %s not in BENCHMARK.json" % name)
        elif printed[name].get("unit") != declared[name]:
            problems.append("metric %s unit %r, BENCHMARK.json says %r" %
                            (name, printed[name].get("unit"), declared[name]))
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        binary = build("node_bench")
    except (OSError, subprocess.CalledProcessError) as e:
        print("build failed: %s" % e, file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            out_dir, "trace-%s-seed%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("node_bench timed out after %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1
    lines = proc.stdout.decode().splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        print("node_bench exited with %d" % proc.returncode, file=sys.stderr)
        return proc.returncode or 1
    result = json.loads(lines[-1])
    problems = check_result(result, args.trace)
    if problems:
        for p in problems:
            print("result check: %s" % p, file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
