#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and executes it.
#
#   bash perfbench/run.sh --workload serve-td --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --selftest
#
# Run from the repository root. Every build artifact, cache and temporary
# file stays under .bench_build/ in that root; nothing is fetched.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS=-mod=mod
export GOTOOLCHAIN=local GOPROXY=off GONOSUMDB='*' GOWORK=off

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
