#!/usr/bin/env bash
# Builds the battery from source and runs it; every argument passes through.
# Run from anywhere: paths are resolved from this file. The binary, the Go
# build cache and the run's outputs all stay inside the checkout
# (.bench_build/ and bench/out/, both ignored by git).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/go-cache"
export GOMODCACHE="$build/go-mod"
export GOTOOLCHAIN=local
export GOFLAGS=-buildvcs=false
export CGO_ENABLED=0

go -C "$here" build -o "$build/vcbattery" .
exec "$build/vcbattery" -out "$here/out" "$@"
