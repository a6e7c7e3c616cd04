#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the build writes -- Go's build cache and temporary files
# included -- stays in .bench_build/ at the root of the checkout, and the
# run's trace and result files go to benchmark/out/; both are git-ignored.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod" GOTOOLCHAIN=local GOFLAGS=
(cd "$here" && go build -o "$build/benchmark" .)
exec "$build/benchmark" -out "$here/out" "$@"
