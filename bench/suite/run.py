#!/usr/bin/env python3
"""Entry point of the vcmp benchmark (BENCHMARK.json names it).

One run of one workload, as the benchmark contract invokes it from the
root of a checkout:

    python3 bench/suite/run.py --workload inmem_batch --seed 1 --seconds 10 --trace 0

builds bench/suite into .bench_build (configure on the first run, an
incremental build after) and runs vcmp_bench once; the last line of
stdout is the result JSON. All workloads, one process at a time,
round-robin, with median / q1 / q3 / n per (workload, metric):

    python3 bench/suite/run.py --workload all --runs 10 [--trace 1] [--json out.json]

A commit-level A/B between two builds of bench/suite (see ab.sh):

    python3 bench/suite/run.py --ab PARENT_BUILD CHANGE_BUILD [--pairs 10]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent
BUILD = ROOT / ".bench_build"


def cpu_count():
    return len(os.sched_getaffinity(0))


def build():
    """Builds vcmp_bench into .bench_build; returns its path."""
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(SUITE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", str(cpu_count()),
                    "--target", "vcmp_bench"],
                   stdout=sys.stderr, check=True)
    return BUILD / "vcmp_bench"


def binary_of(path):
    path = Path(path)
    return path / "vcmp_bench" if path.is_dir() else path


def bench_args(binary, workload, seed, seconds, trace):
    return [str(binary), f"--workload={workload}", f"--seed={seed}",
            f"--seconds={seconds:g}", f"--trace={trace}",
            f"--goldens={SUITE / 'goldens.json'}",
            f"--spill-dir={BUILD / 'spill'}"]


def measure(binary, workload, seed, seconds, trace):
    """One run in its own process; returns (result or None, stderr)."""
    proc = subprocess.run(bench_args(binary, workload, seed, seconds, trace),
                          capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if proc.returncode != 0 and result is not None:
        result["correct"] = False
    return result, proc.stderr


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarize(values):
    median = statistics.median(values)
    q1, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / median if median else 0.0}


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def run_all(args, binary):
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    samples = {}  # (workload, metric) -> (unit, [values])
    ok = True

    def record(workload, seed, trace):
        nonlocal ok
        result, stderr = measure(binary, workload, seed, args.seconds, trace)
        if result is None or not result.get("correct"):
            ok = False
            sys.stderr.write(f"{workload} seed {seed}: FAILED\n{stderr}")
            return
        for name, metric in result["metrics"].items():
            unit, values = samples.setdefault((workload, name),
                                              (metric["unit"], []))
            values.append(metric["value"])
        print(f"  {workload} seed {seed} trace {trace}: ok", file=sys.stderr)

    for r in range(args.runs):
        for workload in workloads:
            record(workload, args.seed + r, 0)
    if args.trace:
        for workload in workloads:
            record(workload, args.seed, 1)

    report = {"hardware_threads": cpu_count(), "runs": args.runs,
              "seconds": args.seconds, "correct": ok, "results": {}}
    print(f"{'workload':16} {'metric':28} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'n':>3} {'unit':8} spread/bound")
    for (workload, name), (unit, values) in samples.items():
        s = summarize(values)
        s["unit"] = unit
        s["values"] = values
        report["results"].setdefault(workload, {})[name] = s
        bound = bounds.get(name)
        note = (f"{100 * s['spread']:.2f}% / {100 * bound:.0f}%"
                if bound is not None else "")
        print(f"{workload:16} {name:28} {s['median']:12.6g} {s['q1']:12.6g} "
              f"{s['q3']:12.6g} {s['n']:3d} {unit:8} {note}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=2)
    print("all runs correct" if ok else "SOME RUNS FAILED")
    return 0 if ok else 1


def verdict(parent, change, bound, lower_better):
    """The choosing-metrics section-8 rule for one (metric, workload)."""
    sign = 1.0 if lower_better else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    p, c = summarize(parent), summarize(change)
    parent_iqr = p["q3"] - p["q1"]
    gain = sign * (p["median"] - c["median"])
    worse = -gain / p["median"] if p["median"] else 0.0
    all_better = (max(change) < min(parent) if lower_better
                  else min(change) > max(parent))
    if wins >= 0.9 * len(parent) and gain > parent_iqr:
        label = "improved"
    elif p["spread"] > bound and not all_better:
        label = "unresolved"
    elif worse > bound:
        label = "regressed"
    else:
        label = "within bound"
    return p, c, wins / len(parent), label


def run_ab(args):
    spec = load_spec()
    sides = {"parent": binary_of(args.ab[0]), "change": binary_of(args.ab[1])}
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    ok = True
    print(f"{'workload':16} {'metric':14} {'parent med [q1,q3]':>30} "
          f"{'change med [q1,q3]':>30} {'wins':>5}  verdict")
    for workload in workloads:
        values = {side: {m["name"]: [] for m in metrics} for side in sides}
        for i in range(args.pairs):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for side in order:
                result, stderr = measure(sides[side], workload, args.seed + i,
                                         args.seconds, 0)
                if result is None or not result.get("correct"):
                    ok = False
                    sys.stderr.write(f"{side} {workload} pair {i}: FAILED\n"
                                     f"{stderr}")
                    continue
                for m in metrics:
                    values[side][m["name"]].append(
                        result["metrics"][m["name"]]["value"])
        for m in metrics:
            parent = values["parent"][m["name"]]
            change = values["change"][m["name"]]
            if not parent or len(parent) != len(change):
                print(f"{workload:16} {m['name']:14} incomplete pairs")
                continue
            p, c, win, label = verdict(parent, change, m["bound"],
                                       m["better"] == "lower")
            cell = lambda s: f"{s['median']:.5g} [{s['q1']:.5g},{s['q3']:.5g}]"
            print(f"{workload:16} {m['name']:14} {cell(p):>30} {cell(c):>30} "
                  f"{win:5.2f}  {label}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--runs", type=int, default=5,
                        help="--workload all: runs per workload")
    parser.add_argument("--json", help="--workload all: write results here")
    parser.add_argument("--ab", nargs=2, metavar=("PARENT", "CHANGE"),
                        help="A/B two builds (directories or binaries)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workloads", nargs="*",
                        help="--ab: restrict to these workloads")
    args = parser.parse_args()

    if args.ab:
        if args.pairs < 10:
            parser.error("--ab needs at least 10 pairs")
        return run_ab(args)
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as error:
        sys.stderr.write(f"vcmp_bench build failed: {error}\n")
        return 1
    if args.workload == "all":
        return run_all(args, binary)
    proc = subprocess.run(bench_args(binary, args.workload, args.seed,
                                     args.seconds, args.trace))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
