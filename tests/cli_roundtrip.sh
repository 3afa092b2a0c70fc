#!/usr/bin/env bash
# atlas-trace's trace commands end to end:
#   simulate -> info -> head -> tocsv -> tobin reproduces the simulated file
#   byte for byte; filter --publisher keeps exactly that publisher; a file
#   with a version 1 header is refused with a message naming the version.
#
#   tests/cli_roundtrip.sh <atlas-trace> <scratch dir>
set -euo pipefail
bin=$1
work=$2
rm -rf "$work"
mkdir -p "$work"
cd "$work"

"$bin" simulate sim.v2 --scale 0.01 --seed 5 --threads 2 > /dev/null
"$bin" info sim.v2 > info.txt
grep -q '^sim.v2: [0-9]* records, ' info.txt
"$bin" head sim.v2 --n 5 > head.txt
[[ $(wc -l < head.txt) -eq 7 ]]  # column header, rule, five rows
"$bin" tocsv sim.v2 sim.csv > /dev/null
"$bin" tobin sim.csv back.v2 > /dev/null
cmp sim.v2 back.v2

"$bin" filter sim.v2 pub0.v2 --publisher 0 > /dev/null
"$bin" info pub0.v2 > pub0.txt
# Below the summary line, the blank line, the column header and the rule:
# one row, for publisher 0.
[[ $(tail -n +5 pub0.txt | wc -l) -eq 1 ]]
tail -n +5 pub0.txt | grep -q '^0 '

# "ATLS", u32 version 1, u64 record count 0.
printf 'ATLS\001\000\000\000\000\000\000\000\000\000\000\000' > v1.bin
if "$bin" info v1.bin 2> v1.err; then
  echo "a version 1 trace was accepted" >&2
  exit 1
fi
grep -q 'unsupported version 1' v1.err
echo "cli round trip: OK"
