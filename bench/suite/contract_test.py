#!/usr/bin/env python3
"""ctest vcmp_bench_contract: BENCHMARK.json and vcmp_bench agree.

Checks, on inputs shrunk so the whole test takes seconds:
  * the workloads and metrics (with units) BENCHMARK.json names are the
    ones the binary lists, and the reverse;
  * every workload, untraced and traced, prints a last line with exactly
    the keys correct/attempted/failed/metrics, is correct, and emits
    exactly the end-to-end (untraced) or per-layer (traced) metrics;
  * the verify pass holds on the reduced input;
  * a corrupted golden makes the binary exit nonzero.
"""

import argparse
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

SHRINK = 16


def fail(message):
    print(f"FAIL: {message}")
    sys.exit(1)


def run(binary, *flags):
    return subprocess.run([binary, *flags], capture_output=True, text=True,
                          timeout=120)


def last_json(proc, what):
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"{what}: no output\n{proc.stderr}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{what}: last line is not JSON: {lines[-1]!r}")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--binary", required=True)
    parser.add_argument("--benchmark-json", required=True)
    parser.add_argument("--scratch", required=True)
    args = parser.parse_args()
    scratch = Path(args.scratch)
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    with open(args.benchmark_json) as f:
        spec = json.load(f)

    listing = last_json(run(args.binary, "--list"), "--list")
    named = sorted(w["name"] for w in spec["workloads"])
    if named != sorted(listing["workloads"]):
        fail(f"workloads: BENCHMARK.json {named}, binary "
             f"{sorted(listing['workloads'])}")
    for kind in ("end_to_end", "per_layer"):
        want = sorted((m["name"], m["unit"]) for m in spec[kind])
        have = sorted((m["name"], m["unit"]) for m in listing[kind])
        if want != have:
            fail(f"{kind}: only in BENCHMARK.json "
                 f"{sorted(set(want) - set(have))}, only in the binary "
                 f"{sorted(set(have) - set(want))}")

    goldens = scratch / "goldens.json"
    common = [f"--shrink={SHRINK}", f"--goldens={goldens}",
              f"--spill-dir={scratch / 'spill'}"]
    proc = run(args.binary, "--write-goldens", "--workload=all", *common)
    if proc.returncode != 0:
        fail(f"--write-goldens exited {proc.returncode}\n{proc.stderr}")

    for workload in listing["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            what = f"{workload} --trace={trace}"
            proc = run(args.binary, f"--workload={workload}", "--seconds=0",
                       f"--trace={trace}", *common)
            result = last_json(proc, what)
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                fail(f"{what}: result keys {sorted(result)}")
            if proc.returncode != 0 or result["correct"] is not True:
                fail(f"{what}: not correct\n{proc.stderr}")
            if result["attempted"] < 1 or result["failed"] != 0:
                fail(f"{what}: attempted {result['attempted']}, "
                     f"failed {result['failed']}")
            want = {m["name"]: m["unit"] for m in spec[kind]}
            have = {k: v["unit"] for k, v in result["metrics"].items()}
            if want != have:
                fail(f"{what}: emitted {sorted(have)}, want {sorted(want)}")
            for name, metric in result["metrics"].items():
                value = metric["value"]
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    fail(f"{what}: {name} = {value!r}")
        print(f"ok {workload}")

    # Flip one hex digit of one golden: the run must fail.
    text = goldens.read_text()
    key = f'"1/{SHRINK}/inmem_batch": "BPPR:'
    at = text.index(key) + len(key)
    flipped = "0" if text[at] != "0" else "1"
    corrupted = scratch / "corrupted.json"
    corrupted.write_text(text[:at] + flipped + text[at + 1:])
    proc = run(args.binary, "--workload=inmem_batch", "--seconds=0",
               f"--shrink={SHRINK}", f"--goldens={corrupted}",
               f"--spill-dir={scratch / 'spill'}")
    result = last_json(proc, "corrupted golden")
    if proc.returncode == 0 or result["correct"] is not False:
        fail("a corrupted golden did not fail the run")
    print("ok corrupted golden fails the run")


if __name__ == "__main__":
    main()
