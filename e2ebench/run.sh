#!/usr/bin/env bash
# Builds the benchmark program from source and runs it. Run from the root
# of a checkout; every file it writes stays under .bench_build/ there:
#
#   bash e2ebench/run.sh --workload sim-exact --seed 7 --seconds 15 --trace 0
#   bash e2ebench/run.sh --workload all
#
# The program is its own Go module (this directory) that imports the
# repository's packages through a replace directive, so a directory
# without the repository beside it fails to build, and the script exits
# non-zero before printing any result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(pwd)/.bench_build"
mkdir -p "$build/gocache" "$build/gomodcache" "$build/tmp" "$build/out"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$here" && go build -o "$build/e2ebench" .)
exec "$build/e2ebench" -out "$build/out" "$@"
