#!/usr/bin/env bash
# Builds the copack benchmark from source and runs one workload.
#
# Run from the root of a copack checkout:
#
#   bash perfbench/run.sh --workload plan-table1 --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binary, Go build cache, tool state) stays
# under .bench_build/ in the checkout. Build output goes to stderr; the
# last line of stdout is the benchmark's JSON result.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
