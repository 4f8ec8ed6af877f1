#!/usr/bin/env bash
# Builds and runs the end-to-end mapping benchmark (see README.md).
#
#   bash bench/e2e/run.sh [--workload W] [--seed S] [--seconds N]
#                         [--trace 0|1] [--repeat R] [--smoke] [--out FILE]
#
# Builds gkgpu_e2e into build-e2e/ (Release, the root's warning flags), then
# runs each selected workload (default: all four) R times, each in its own
# process.  Every metric prints as `workload metric value unit`.  With one
# run, the last line of stdout is that run's JSON result
# {correct, attempted, failed, metrics}; with several, a summary table
# (compare.py) follows the runs.  Every run's result is also written to one
# results JSON (--out, default build-e2e/results/e2e-<time>.json).
# --trace 1 adds the traced run and writes build-e2e/trace/trace_<w>.json;
# --smoke runs every workload traced at tiny sizes as a quick self-check.
# Exits non-zero if the build fails, a run fails, or a check fails.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
cd "$root"

usage() {
  sed -n '4,5p' "$here/run.sh" >&2
  exit 2
}

all_workloads=(se-large se-repeat pe-insert serve-2c)
workloads=()
seed=1
seconds=10
trace=0
repeat=1
smoke=0
out=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) [[ $# -ge 2 ]] || usage; workloads+=("$2"); shift 2 ;;
    --seed) [[ $# -ge 2 ]] || usage; seed="$2"; shift 2 ;;
    --seconds) [[ $# -ge 2 ]] || usage; seconds="$2"; shift 2 ;;
    --trace) [[ $# -ge 2 ]] || usage; trace="$2"; shift 2 ;;
    --repeat) [[ $# -ge 2 ]] || usage; repeat="$2"; shift 2 ;;
    --out) [[ $# -ge 2 ]] || usage; out="$2"; shift 2 ;;
    --smoke) smoke=1; shift ;;
    *) usage ;;
  esac
done
[[ "$trace" == 0 || "$trace" == 1 ]] || usage
[[ "$repeat" =~ ^[1-9][0-9]*$ ]] || usage
if [[ ${#workloads[@]} -eq 0 ]]; then workloads=("${all_workloads[@]}"); fi
if [[ $smoke == 1 ]]; then
  trace=1
  seconds=1
fi

build=build-e2e
if [[ ! -f "$build/CMakeCache.txt" ]]; then
  cmake -S bench/e2e -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" -j "$(nproc)" >&2

mkdir -p "$build/results"
[[ -n "$out" ]] || out="$build/results/e2e-$(date +%Y%m%d-%H%M%S).json"
extra=()
if [[ $trace == 1 ]]; then extra+=(--trace "$build/trace"); fi
if [[ $smoke == 1 ]]; then extra+=(--smoke); fi

runs=$(( ${#workloads[@]} * repeat ))
status=0
entries=()
last=""
tmp="$build/results/.run-$$.txt"
trap 'rm -f "$tmp"' EXIT
for w in "${workloads[@]}"; do
  for (( r = 0; r < repeat; r++ )); do
    rc=0
    "$build/gkgpu_e2e" --workload "$w" --seed "$seed" --seconds "$seconds" \
      "${extra[@]}" > "$tmp" || rc=$?
    if [[ $rc != 0 ]]; then
      echo "run.sh: $w (seed $seed) exited with $rc" >&2
      status=1
    fi
    last="$(tail -n 1 "$tmp")"
    if [[ "$last" != "{"* ]]; then
      status=1
      continue
    fi
    head -n -1 "$tmp"
    entries+=("{\"workload\": \"$w\", \"seed\": $seed, \"trace\": $trace, \"smoke\": $smoke, \"result\": $last}")
  done
done

{
  echo "["
  for (( i = 0; i < ${#entries[@]}; i++ )); do
    sep=","
    if [[ $i == $(( ${#entries[@]} - 1 )) ]]; then sep=""; fi
    echo "  ${entries[$i]}$sep"
  done
  echo "]"
} > "$out"
echo "run.sh: results written to $out" >&2

if [[ $runs == 1 ]]; then
  [[ "$last" == "{"* ]] && echo "$last"
elif [[ ${#entries[@]} -gt 0 ]]; then
  python3 "$here/compare.py" "$out"
fi
exit $status
