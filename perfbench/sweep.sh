#!/usr/bin/env bash
# Run one workload over several seeds and collect the result lines:
#
#   bash perfbench/sweep.sh WORKLOAD TRACE SECONDS SEED... [-- EXTRA RQBENCH FLAGS]
#
# Appends "SEED <result json>" lines to .bench_out/sweep-WORKLOAD-tTRACE.jsonl;
# summarize them with perfbench/summarize.py.
set -euo pipefail
cd "$(dirname "$0")/.."
workload=$1 trace=$2 seconds=$3
shift 3
seeds=()
while [ $# -gt 0 ] && [ "$1" != "--" ]; do seeds+=("$1"); shift; done
[ $# -gt 0 ] && shift
mkdir -p .bench_out
out=.bench_out/sweep-$workload-t$trace.jsonl
for seed in "${seeds[@]}"; do
  line=$(bash perfbench/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" "$@" | tail -n 1)
  echo "$seed $line" >> "$out"
done
