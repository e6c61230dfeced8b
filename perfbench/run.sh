#!/usr/bin/env bash
# Builds perfbench from the checkout's sources and runs it with the given
# arguments. Run from the repository root:
#
#	bash perfbench/run.sh --workload hit --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache, the go command's own config and
# telemetry files, and traced runs' Chrome traces all stay under
# .bench_build in the current directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
# With telemetry on (its default is "local"), the go command forks a
# detached sidecar that outlives the build; turning it off keeps the
# benchmark from leaving any process behind.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
printf 'off\n' >"$XDG_CONFIG_HOME/go/telemetry/mode"
export GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=-mod=readonly
go build -o "$out/perfbench" ./perfbench
exec "$out/perfbench" "$@"
