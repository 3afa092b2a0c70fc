#!/usr/bin/env bash
# atlas-trace's trace commands end to end:
#   simulate -> info -> head -> tocsv -> tobin reproduces the simulated file
#   byte for byte; filter --publisher keeps exactly that publisher; a file
#   with a version 1 header is refused with a message naming the version;
#   analyze prints the same report at 1 and 4 threads, runs with
#   --no-trends, and refuses --checkpoint-every as an unknown flag; every
#   command refuses an argument it does not take and writes nothing; --help
#   prints the usage, exits 0, and is never taken as a path; a command that
#   takes no flag advertises none.
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

"$bin" analyze sim.v2 --threads 1 --report r1.txt > /dev/null
"$bin" analyze sim.v2 --threads 4 --report r4.txt > /dev/null
cmp r1.txt r4.txt
"$bin" analyze sim.v2 --no-trends > /dev/null

# analyze keeps no snapshot: a killed analysis is simply run again.
if "$bin" analyze sim.v2 --checkpoint-every 1 > /dev/null 2> ckpt.err; then
  echo "analyze accepted --checkpoint-every" >&2
  exit 1
fi
grep -q -- '--checkpoint-every' ckpt.err
[[ ! -e sim.v2.analysis.ckpt ]]

"$bin" simulate --help > help_simulate.txt
grep -q '^usage: ' help_simulate.txt
"$bin" analyze sim.v2 --help --report help_report.txt > help_analyze.txt
grep -q '^usage: .* analyze ' help_analyze.txt
grep -q -- '--no-trends' help_analyze.txt
[[ ! -e ./--help && ! -e help_report.txt ]]
# An argument a command does not take fails the command, which names it
# and writes nothing.
refuses() {  # refuses <argument named in the error> <atlas-trace args...>
  local arg=$1
  shift
  if "$bin" "$@" > /dev/null 2> refused.err; then
    echo "atlas-trace $* exited 0" >&2
    exit 1
  fi
  grep -q -- "$arg" refused.err
}
refuses missing.v2 analyze sim.v2 missing.v2 --no-trends --report r.txt
refuses extra verify sim.v2 extra junk
refuses --bogus tocsv sim.v2 t.csv --bogus
refuses extra simulate out.v2 extra
[[ ! -e r.txt && ! -e t.csv && ! -e out.v2 ]]
"$bin" tocsv sim.v2 t.csv --help > help_tocsv.txt
grep -q '^usage: .* tocsv ' help_tocsv.txt
if grep -q -- '\[flags\]' help_tocsv.txt; then
  echo "tocsv --help advertises flags tocsv does not have" >&2
  exit 1
fi
[[ ! -e t.csv ]]
echo "cli round trip: OK"
