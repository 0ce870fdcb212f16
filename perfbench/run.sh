#!/usr/bin/env bash
# Builds the benchmark from source and runs it; run from the repository
# root:
#
#   bash perfbench/run.sh --workload e18-churn --seed 1 --seconds 15 --trace 0
#
# Every build and run artefact (Go build cache, binary, traces, CPU
# profiles) stays under .bench_build in the working directory. The build
# uses only the standard library and the repository's own module, so it
# never needs the network.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
# XDG_CONFIG_HOME moves the go command's telemetry counters and env file.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	PPROF_TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS=-mod=readonly GOPROXY=off GOSUMDB=off GOWORK=off GOTOOLCHAIN=local
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
