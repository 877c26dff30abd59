#!/usr/bin/env bash
# Builds the host-cost benchmark from the checkout's sources and runs it
# with the given arguments.  Run it from the repository root:
#
#   bash perfbench/run.sh --workload paper-suite --seed 1 --seconds 38 --trace 0
#
# Every build artefact and Go cache lives under .bench_build, so the
# benchmark reads and writes nothing outside the checkout.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOTOOLCHAIN=local GOENV=off GOFLAGS=-buildvcs=false
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
# The go command keeps telemetry counters under the user config directory.
export XDG_CONFIG_HOME="$build/config"
go -C perfbench build -o "$build/perfbench" . >&2
exec "$build/perfbench" "$@"
