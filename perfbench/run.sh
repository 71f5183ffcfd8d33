#!/usr/bin/env bash
# Builds the benchmark and the iscoped daemon from source, then runs the
# benchmark with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload paper4800 --seed 1 --seconds 30 --trace 0
#
# Everything it builds or writes goes under .bench_build/: the binaries,
# the Go build cache, the daemon's state directories and the spans.
set -euo pipefail

out="$PWD/.bench_build"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
mkdir -p "$GOTMPDIR" "$XDG_CONFIG_HOME/go/telemetry"
# With telemetry on or local, a go command may start a detached telemetry
# process that outlives it. Turn telemetry off for this config dir so that
# every process the benchmark starts has ended when it exits.
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"

go build -o "$out/iscoped" ./cmd/iscoped
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" --iscoped "$out/iscoped" --out "$out" "$@"
