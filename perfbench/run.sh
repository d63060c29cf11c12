#!/usr/bin/env bash
# Builds the benchmark and kiffserve from the checkout it is run in, then
# runs the benchmark with the given arguments. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload serve-read --seed 1 --seconds 25 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off

(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
go build -o "$out/bin/kiffserve" ./cmd/kiffserve
exec "$out/bin/perfbench" "$@"
