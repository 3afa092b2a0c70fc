#!/usr/bin/env bash
# Full local verification matrix for ATLAS.
#
#   scripts/check.sh          # everything below, in order
#   scripts/check.sh quick    # default build + tests + lint only
#
# Matrix (one out-of-tree build dir per configuration):
#   build            default RelWithDebInfo, full ctest suite
#   build-warn       -DATLAS_EXTRA_WARNINGS=ON (-Wshadow -Wconversion
#                    -Wdouble-promotion -Wnon-virtual-dtor -Werror): the
#                    src/ library tree must compile clean
#   build-tsan       -DATLAS_SANITIZE=thread,    ctest -L sanitize
#   build-asan       -DATLAS_SANITIZE=address,   full ctest suite
#   build-ubsan      -DATLAS_SANITIZE=undefined, full ctest suite
#   build-linkmap    scripts/unlinked.sh: -O0 -fkeep-inline-functions
#                    -ffunction-sections builds of the tree and benchmark/
#                    linked with --gc-sections; fails on a src/ function,
#                    in a .cc or a header, that no shipped executable links
#                    unless scripts/unlinked_survivors.txt lists it
#
# atlas-lint runs inside the default suite (`ctest -L lint`): the lint_tree
# test re-lints the live tree against the checked-in .lint-baseline and
# lint_test proves every rule — per-file and cross-TU — fires on its
# tests/lint_corpus/ fixture. The standalone invocation below also emits
# build/atlas-lint.sarif, the artifact CI uploads to GitHub code scanning.
# With a Clang toolchain
# (CC=clang CXX=clang++ scripts/check.sh) the default build also gets
# -DATLAS_WERROR_THREAD_SAFETY=ON and the thread_safety_compile_fail test.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS=${JOBS:-$(nproc)}
MODE=${1:-full}

is_clang() {
  "${CXX:-c++}" --version 2>/dev/null | grep -qi clang
}

configure_and_test() {
  local dir=$1 label=$2
  shift 2
  echo "=== ${dir} ($*) ==="
  cmake -B "${dir}" -S . "$@" >/dev/null
  cmake --build "${dir}" -j "${JOBS}"
  if [[ -n "${label}" ]]; then
    ctest --test-dir "${dir}" -L "${label}" --output-on-failure -j "${JOBS}"
  else
    ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}"
  fi
}

DEFAULT_FLAGS=()
if is_clang; then
  DEFAULT_FLAGS+=(-DATLAS_WERROR_THREAD_SAFETY=ON)
fi

configure_and_test build "" "${DEFAULT_FLAGS[@]+"${DEFAULT_FLAGS[@]}"}"

echo "=== atlas-lint (standalone, baseline + SARIF) ==="
./build/tools/atlas_lint/atlas-lint --root . \
  --baseline .lint-baseline --sarif build/atlas-lint.sarif

if [[ "${MODE}" == quick ]]; then
  echo "check.sh quick: OK"
  exit 0
fi

configure_and_test build-warn "" -DATLAS_EXTRA_WARNINGS=ON
configure_and_test build-tsan sanitize -DATLAS_SANITIZE=thread
configure_and_test build-asan "" -DATLAS_SANITIZE=address
configure_and_test build-ubsan "" -DATLAS_SANITIZE=undefined

echo "=== link map (scripts/unlinked.sh) ==="
scripts/unlinked.sh

echo "check.sh: all configurations OK"
