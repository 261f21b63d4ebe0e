#!/usr/bin/env bash
# Builds the harness and exrquyd from this checkout's source and runs the
# harness from the checkout root. Build outputs, the Go build cache and
# every temporary file stay under .bench_build/ in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" TMPDIR="$build/tmp"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go -C "$here" build -o "$build/bin/" . repro/cmd/exrquyd
cd "$root"
exec "$build/bin/benchmark" -exrquyd "$build/bin/exrquyd" "$@"
