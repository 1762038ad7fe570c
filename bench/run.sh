#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run from the
# repository root; arguments pass through to the benchmark, e.g.
#
#   bash bench/run.sh -workload field-a -seed 1 -seconds 10 -trace 0
#
# Everything the build and the runs write stays under .bench_build/ in
# the current directory: the Go build cache, the binary and the crash
# images.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd bench && go build -o "$build/bench" .)
exec "$build/bench" "$@"
