#!/bin/bash
# Commit-level A/B of the end-to-end metrics.
#
#   bench/suite/ab.sh PARENT_BUILD CHANGE_BUILD [--pairs N] [--workloads W ...]
#
# PARENT_BUILD and CHANGE_BUILD are build directories of this benchmark
# (or vcmp_bench binaries), built from the same bench/suite sources
# against each commit's src/:
#
#   cmake -S bench/suite -B /tmp/ab-parent -DVCMP_ROOT=/path/to/parent
#   cmake --build /tmp/ab-parent -j "$(nproc)" --target vcmp_bench
#
# For every workload it runs N >= 10 pairs, alternating which side goes
# first, both sides of a pair on the same seed, one process at a time.
# Per (workload, metric) it prints each side's median and quartiles, the
# fraction of pairs the change won, and a verdict: improved (won >= 90%
# of pairs and the medians differ by more than the parent's quartile
# spread), within bound, regressed, or unresolved (the parent's spread
# is wider than the metric's bound in BENCHMARK.json).
set -euo pipefail
if [ $# -lt 2 ]; then
  sed -n '2,19p' "$0" | sed 's/^# \{0,1\}//'
  exit 2
fi
exec python3 "$(dirname "$0")/run.py" --ab "$1" "$2" "${@:3}"
