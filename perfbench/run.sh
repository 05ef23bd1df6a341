#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the repository root:
#   bash perfbench/run.sh --workload paper-matrix --seed 1 --seconds 10 --trace 0
# The build and every file the run writes stay under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench.bin" .)
exec "$out/perfbench.bin" --out "$out/perfbench" "$@"
