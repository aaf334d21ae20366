#!/usr/bin/env bash
# Builds the benchmark in Release (untimed) and runs one workload, or all of
# them, each in its own process.
#
#   bench/perf/run.sh [--workload NAME|all] [--seed N] [--seconds S]
#                     [--trace 0|1] [--trace-file FILE] [--items N]
#
# Options take "--opt value" or "--opt=value".  Each workload's run ends
# within --seconds, by default BENCHMARK.json's run_seconds.  Every run
# prints a metric table on stderr and, on stdout, a JSON record followed by
# the result line {"correct", "attempted", "failed", "metrics"}.  The exit
# status is nonzero when any item failed its output check.  See
# bench/perf/README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/build-perf"

if [[ ! -f "$root/src/CMakeLists.txt" ]]; then
  echo "run.sh: $root holds no src/; run from a full checkout" >&2
  exit 1
fi

# characterize.cpp reads NVSRAM_SWEEP_BATCH through getenv, and the sweep
# runner's drills read the other NVSRAM_* variables; any of them would
# silently change what a workload runs.
if compgen -e | grep -q '^NVSRAM_'; then
  echo "run.sh: unset these first: $(compgen -e | grep '^NVSRAM_' | tr '\n' ' ')" >&2
  exit 2
fi

workload=all
seconds=
args=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload=*) workload="${1#--workload=}"; shift ;;
    --seconds=*) seconds="${1#--seconds=}"; shift ;;
    --workload|--seconds)
      [[ $# -ge 2 ]] || { echo "run.sh: $1 needs a value" >&2; exit 2; }
      if [[ "$1" == --workload ]]; then workload="$2"; else seconds="$2"; fi
      shift 2 ;;
    *) args+=("$1"); shift ;;
  esac
done
if [[ -z "$seconds" ]]; then
  seconds="$(sed -n 's/^ *"run_seconds": *\([0-9][0-9]*\).*/\1/p' \
    "$root/BENCHMARK.json")"
  [[ -n "$seconds" ]] || { echo "run.sh: no run_seconds in BENCHMARK.json" >&2; exit 2; }
fi

generator=()
if command -v ninja > /dev/null; then generator=(-G Ninja); fi
jobs="$(nproc 2> /dev/null || echo 2)"
if (( jobs > 4 )); then jobs=4; fi
if [[ ! -f "$build/CMakeCache.txt" ]]; then
  cmake -S "$here" -B "$build" "${generator[@]}" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" -j "$jobs" >&2

commit=unknown
if top="$(git -C "$root" rev-parse --show-toplevel 2> /dev/null)" &&
   [[ "$top" == "$root" ]]; then
  commit="$(git -C "$root" rev-parse HEAD)"
  if [[ -n "$(git -C "$root" status --porcelain --untracked-files=no)" ]]; then
    commit="$commit+dirty"
  fi
fi

if [[ "$workload" == all ]]; then
  workloads=(tech_point mc_sweep array_tran lint_decks)
else
  workloads=("$workload")
fi

mkdir -p "$build/run"
cd "$root"
status=0
for w in "${workloads[@]}"; do
  "$build/perfbench" --workload "$w" --seconds "$seconds" \
    --workdir "$build/run" --commit "$commit" ${args[@]+"${args[@]}"} ||
    status=$?
done
exit "$status"
