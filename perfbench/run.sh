#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from, then
# runs it with every argument passed through. Run from the repository root:
#
#	bash perfbench/run.sh --workload lu-coarse --seed 1 --seconds 10 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build/ in the
# current directory.
set -euo pipefail
out="$PWD/.bench_build"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local
mkdir -p "$out"
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
