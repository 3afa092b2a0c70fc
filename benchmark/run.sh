#!/usr/bin/env bash
# Builds atlas-bench from this checkout into build-bench/ and runs it with
# the given arguments. Run from the repository root:
#
#   benchmark/run.sh [--seed N] [--threads T] [--workloads all|a,b]
#                    [--out results.json] [--trace-json trace.json]
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   benchmark/run.sh --compare A.json... -- B.json...
#
# Build output goes to standard error, so standard output carries only the
# benchmark's metric lines and, for a single workload, its JSON result line.
set -euo pipefail

if [[ ! -f benchmark/CMakeLists.txt ]]; then
  echo "run.sh: run from the repository root" >&2
  exit 2
fi

build=build-bench
jobs=$(nproc)
if (( jobs > 4 )); then
  jobs=4
fi
if [[ ! -f $build/CMakeCache.txt ]]; then
  cmake -S benchmark -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo >&2
fi
cmake --build "$build" -j "$jobs" --target atlas-bench >&2

if [[ ${1:-} == --compare ]]; then
  exec "$build/atlas-bench" "$@"
fi
commit=$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
exec "$build/atlas-bench" --commit "$commit" "$@"
