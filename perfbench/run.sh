#!/usr/bin/env bash
# Builds the closed-loop benchmark from source and runs it. Run it from the
# repository root with the benchmark's flags, for example:
#
#   bash perfbench/run.sh --workload link-churn --seed 1 --seconds 20 --trace 0
#
# The build and every cache, temporary file and setting the Go toolchain
# would otherwise keep in the home directory stay under .bench_build/.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOENV=off GOWORK=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
