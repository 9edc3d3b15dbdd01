#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments; run it from the repository root. Everything the build
# and the run write goes under .bench_build.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTOOLCHAIN=local GOWORK=off
go -C benchmark build -o "$build/olevbench" .
exec "$build/olevbench" --workdir "$build" "$@"
