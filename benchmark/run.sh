#!/usr/bin/env bash
# Builds the benchmark into build-bench/ and runs its workloads.
#
#   benchmark/run.sh [--workload W] [--seed S] [--repeat R] [--seconds N]
#                    [--trace [0|1]]
#
# It first runs the checker's self-test. Without --workload every workload
# runs; repeats alternate the workload order. --seconds is part of the
# command line BENCHMARK.json's command is called with; without it, a run
# lasts BENCHMARK.json's run_seconds. For each workload it prints every
# metric's median and quartiles with units, writes
# build-bench/results/<workload>.json (one row per distinct query), and ends
# with one JSON line: correct, attempted, failed and the BENCHMARK.json
# end-to-end metrics, or with --trace the per-layer metrics. Exits non-zero
# on any correctness failure.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

workloads=(zoo_cold deep_interval sweep_warm store_mixed)
selected=()
seed=1
repeat=1
seconds=""
trace=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) selected+=("$2"); shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --repeat) repeat="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace)
      if [[ "${2:-}" == 0 || "${2:-}" == 1 ]]; then trace="$2"; shift 2
      else trace=1; shift; fi ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done
[[ ${#selected[@]} -gt 0 ]] || selected=("${workloads[@]}")
if [[ -z "$seconds" ]]; then
  seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
fi

build=build-bench
results="$build/results"
# Build output goes to stderr: the last line of stdout is the result.
cmake -S benchmark -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" -j "$(nproc)" >&2
mkdir -p "$results"
# A checker that accepts bad plans would pass every run.
"$build/plan_bench" --self-test >&2

reference=()
if [[ -f benchmark/reference/costs.json ]]; then
  reference=(--reference=benchmark/reference/costs.json)
fi

status=0
declare -A runs
for ((r = 1; r <= repeat; r++)); do
  order=("${selected[@]}")
  if ((r % 2 == 0)); then
    order=()
    for ((i = ${#selected[@]} - 1; i >= 0; i--)); do order+=("${selected[$i]}"); done
  fi
  for w in "${order[@]}"; do
    out="$results/$w.run$r.json"
    trace_out="$results/$w.run$r.trace.json"
    # A run that dies must not leave an earlier invocation's files behind.
    rm -f "$out" "$trace_out"
    args=(--workload="$w" --seed="$seed" --seconds="$seconds" --out="$out"
          "${reference[@]}")
    ((trace)) && args+=(--trace="$trace_out")
    echo "== $w run $r" >&2
    "$build/plan_bench" "${args[@]}" >&2 || status=1
    [[ -f "$out" ]] || { echo "run.sh: $w produced no results" >&2; exit 1; }
    runs[$w]+="$out "
  done
done

for w in "${selected[@]}"; do
  # shellcheck disable=SC2086  # the run list is space-separated paths
  python3 benchmark/summarize.py report --benchmark BENCHMARK.json \
    --trace "$trace" --out "$results/$w.json" ${runs[$w]} || status=1
done
exit "$status"
