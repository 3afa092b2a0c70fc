#!/usr/bin/env bash
# sim_bench defines no --scale: --scale-sweep carries its own scales and
# each --spec file pins its own, so a --scale would change nothing. The
# binary refuses it as an unknown flag before it runs or writes anything,
# and --help does not offer it.
#
#   tests/sim_bench_flags.sh <sim_bench> <repository root> <scratch dir>
set -euo pipefail
bin=$1
root=$2
work=$3
rm -rf "$work"
mkdir -p "$work"
cd "$work"
export ATLAS_BENCH_SCENARIO_JSON="$work/scenario.json"

if "$bin" --scale 1 --spec "$root/scenarios/cache_flush.toml" \
    > scale.out 2> scale.err; then
  echo "sim_bench accepted --scale" >&2
  exit 1
fi
grep -q 'unknown flag --scale$' scale.err
[[ ! -e scenario.json ]]

"$bin" --help > help.txt
grep -q -- '--scale-sweep ' help.txt
if grep -q -- '--scale ' help.txt; then
  echo "sim_bench --help offers --scale" >&2
  exit 1
fi
echo "sim_bench_flags: OK"
