#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run
# from, then runs it with the given arguments. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload search --seed 1 --seconds 30 --trace 0
#
# Every build product, cache, temporary file and trace stays under
# .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
