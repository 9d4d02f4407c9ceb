#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it, passing
# every argument on, e.g.
#
#   bash perfbench/run.sh --workload farm --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache, temporary build files and the go
# command's own configuration all stay in .bench_build at the checkout
# root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
