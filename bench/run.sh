#!/usr/bin/env bash
# Builds the benchmark (and, through it, cmd/sketchd) from the checkout this
# script sits in and runs it; BENCHMARK.json names this script as the
# benchmark's command. Everything the build writes — binaries, the Go build
# cache, scratch files of a run — stays under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -C "$root/bench" -o "$build/fsbench" .
exec "$build/fsbench" -root "$root" "$@"
