#!/usr/bin/env bash
# Link-map dead-code check. Builds every target at -O0 with one section per
# function and links with --gc-sections, so a library function stays in an
# executable only if some shipped code path reaches it. -fkeep-inline-functions
# makes the compiler emit every inline function it sees, so header code is
# on the map too. Then lists the atlas:: functions defined in src/**/*.cc or
# src/**/*.h that none of the shipped executables (bench/, examples/,
# atlas-trace, atlas-lint and benchmark/'s atlas-bench) keeps. Special members
# (X(), X(X&&), X(X const&), ~X() and operator=) are left out: the compiler
# generates most of them.
#
# What the map still cannot see:
#   - a template that is never instantiated (nothing is emitted for it);
#   - a virtual override: its vtable keeps it linked whether or not
#     anything calls it.
#
#   scripts/unlinked.sh     # builds build-linkmap/ and build-linkmap-bench/
#
# Exits 1 when an unlinked function is not in scripts/unlinked_survivors.txt,
# or when a survivor listed there is linked again (or gone).
set -euo pipefail
cd "$(dirname "$0")/.."
export LC_ALL=C  # one collation for sort and comm
FLAGS=(-DCMAKE_BUILD_TYPE=Debug
       "-DCMAKE_CXX_FLAGS=-O0 -fkeep-inline-functions -ffunction-sections -fdata-sections"
       -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections)
for p in .:build-linkmap benchmark:build-linkmap-bench; do
  cmake -S "${p%%:*}" -B "${p##*:}" "${FLAGS[@]}" >/dev/null
  cmake --build "${p##*:}" -j "$(nproc)" >/dev/null
done
tmp=$(mktemp -d) && trap 'rm -rf "$tmp"' EXIT
nm -C -l --defined-only build-linkmap/src/*/*.a | awk -F'\t' -v src="$PWD/src/" \
  'index($2, src) == 1 && $2 ~ /\.(cc|h):[0-9]+$/ && substr($1, 18, 1) ~ /[TW]/ &&
   substr($1, 20) ~ /^atlas::/ { print substr($1, 20) }' |
  sed -E '/(^|::)([A-Za-z_][A-Za-z0-9_]*)(<.*>)?::(~?\2\(\)|\2\((.*::)?\2(<.*>)?( const&|&&)\)|operator=\()/d' |
  sort -u > "$tmp/defined"
{ find build-linkmap/bench build-linkmap/examples build-linkmap/tools -maxdepth 2 \
    -type f -perm -u+x; echo build-linkmap-bench/atlas-bench; } |
  xargs nm -C --defined-only | cut -c20- | sort -u > "$tmp/linked"
comm -23 "$tmp/defined" "$tmp/linked" > "$tmp/unlinked"
sed '/^#/d; s/ \{1,\}# .*//; /^$/d' scripts/unlinked_survivors.txt | sort -u > "$tmp/survivors"
comm -23 "$tmp/unlinked" "$tmp/survivors" | sed 's/^/unlinked: /' > "$tmp/report"
comm -13 "$tmp/unlinked" "$tmp/survivors" | sed 's/^/stale survivor: /' >> "$tmp/report"
cat "$tmp/report"
[[ ! -s "$tmp/report" ]]
