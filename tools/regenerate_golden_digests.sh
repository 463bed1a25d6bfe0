#!/bin/sh
# Rewrites tests/golden/digests.txt from a built ptucker_cli by running
# tests/golden_digests.cmake in its regeneration mode. The table's header
# records the compiler named in the CLI's CMakeCache.txt, the C library
# and the machine, since the bits depend on the toolchain and libm.
#
# Usage: tools/regenerate_golden_digests.sh [path/to/ptucker_cli]
# (default: build/ptucker_cli under the repository root)
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
cli=${1:-"$root/build/ptucker_cli"}
cache="$(dirname "$cli")/CMakeCache.txt"
compiler=$(sed -n 's/^CMAKE_CXX_COMPILER:[A-Z]*=//p' "$cache" 2>/dev/null)
compiler=$("${compiler:-c++}" --version | head -n 1)
libc=$(ldd --version 2>&1 | head -n 1)
toolchain="$compiler; $libc; $(uname -m)"
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cmake -DPTUCKER_CLI="$cli" -DDIGESTS="$root/tests/golden/digests.txt" \
      -DWORK_DIR="$work/golden" -DREGENERATE=ON -DTOOLCHAIN="$toolchain" \
      -P "$root/tests/golden_digests.cmake"
