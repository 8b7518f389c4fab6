#!/usr/bin/env bash
# Builds cardopc-bench and cardopcd from source into .bench_build/ under
# the current directory (the repository root), then runs the benchmark
# with the given arguments:
#
#   bash cmd/cardopc-bench/run.sh --workload clip_via512 --seed 1 --seconds 55 --trace 0
#
# Every cache and temporary file the Go toolchain writes stays under
# .bench_build/, and the toolchain never reaches the network.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go -C "$root/cmd/cardopc-bench" build -o "$build/cardopc-bench" .
go -C "$root/cmd/cardopc-bench" build -o "$build/cardopcd" cardopc/cmd/cardopcd
exec "$build/cardopc-bench" "$@"
