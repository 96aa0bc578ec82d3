#!/usr/bin/env bash
# Builds the end-to-end benchmark into build-e2e/ at the repository root and
# runs it; every workload runs in its own process. See README.md.
#
#   run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#       one workload; the last stdout line is its JSON result
#   run.sh [--seed N] [--seconds S] [--trace]
#       all four workloads, one after another
#   run.sh --repeat N [--workload NAME] [--seed N] [--seconds S]
#       N passes; pass i uses seed i unless --seed fixes it; prints each
#       metric's median, quartiles and quartile spread
#   run.sh --smoke
#       all four workloads at tiny sizes, same validation
#
# Flags take "--flag value" or "--flag=value"; the program itself takes only
# the second form. Under --trace each workload also writes its Chrome trace
# to build-e2e/trace-NAME.json.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
# Relative to $root: job specs name the service's input files as
# "file:PATH", and a ':' in an absolute checkout path would split them.
build="build-e2e"
bench="$build/incognito_bench"
all_workloads=(adults_lattice adults_checkpoint landsend_scan service_mixed)

workload="" trace=0 repeat=0 seed="" seconds="" smoke=0
while (($#)); do
  case "$1" in
    --workload=*) workload="${1#*=}" ;;
    --workload) workload="${2:?--workload needs a value}"; shift ;;
    --seed=*) seed="${1#*=}" ;;
    --seed) seed="${2:?--seed needs a value}"; shift ;;
    --seconds=*) seconds="${1#*=}" ;;
    --seconds) seconds="${2:?--seconds needs a value}"; shift ;;
    --repeat=*) repeat="${1#*=}" ;;
    --repeat) repeat="${2:?--repeat needs a value}"; shift ;;
    --trace=*) trace="${1#*=}" ;;
    --trace)  # alone, or followed by 0 or 1
      if [[ "${2:-}" == 0 || "${2:-}" == 1 ]]; then
        trace="$2"
        shift
      else
        trace=1
      fi ;;
    --smoke) smoke=1 seconds=1 ;;
    *) echo "error: unknown argument '$1'" >&2; exit 2 ;;
  esac
  shift
done

if [[ ! -f "$root/src/CMakeLists.txt" ]]; then
  echo "error: library sources not found at $root/src" >&2
  exit 1
fi
cd "$root"
if [[ ! -f "$build/CMakeCache.txt" ]]; then
  cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo >&2
fi
cmake --build "$build" -j "$(nproc 2>/dev/null || echo 4)" >&2

# run_one NAME SEED: one workload in its own process.
run_one() {
  local args=(--workload="$1" --trace="$trace" --smoke="$smoke"
              --tmpdir="$build")
  [[ -n "$2" ]] && args+=(--seed="$2")
  [[ -n "$seconds" ]] && args+=(--seconds="$seconds")
  [[ "$trace" == 1 ]] && args+=(--out="$build/trace-$1.json")
  "$bench" "${args[@]}"
}

workloads=("${all_workloads[@]}")
[[ -n "$workload" ]] && workloads=("$workload")

if [[ "$repeat" -gt 0 ]]; then
  results="$build/repeat-results.tsv"
  : > "$results"
  status=0
  for ((pass = 1; pass <= repeat; ++pass)); do
    for w in "${workloads[@]}"; do
      if line="$(run_one "$w" "${seed:-$pass}" | tail -n 1)"; then
        printf '%s\t%s\n' "$w" "$line" >> "$results"
      else
        echo "error: $w pass $pass failed" >&2
        status=1
      fi
    done
  done
  python3 "$here/summarize.py" "$results"
  exit "$status"
fi

status=0
for w in "${workloads[@]}"; do
  run_one "$w" "$seed" || status=$?
done
exit "$status"
