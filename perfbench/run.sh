#!/bin/sh
# Builds the benchmark from source and runs it with the given arguments:
#
#   sh perfbench/run.sh --workload paper-grid --seed 1 --seconds 20 --trace 0
#   sh perfbench/run.sh compare parent.out change.out
#
# Run it from the repository root. Every file the build writes (compiler
# cache, binary, scratch directories of the serve workload) stays under
# .bench_build/ in the current directory, and no toolchain or module is
# ever fetched.
set -eu
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/home"
export GOCACHE="$build/gocache"
export GOPATH="$build/home/go"
export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOTELEMETRY=off CGO_ENABLED=0
go -C "$root/perfbench" build -o "$build/perfbench.bin" .
exec "$build/perfbench.bin" "$@"
