#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in, then
# runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload serve-mix --seed 42 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, temp files, the binary,
# trace files) goes under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/home" "$out/gotmp"
(
	cd "$root/perfbench"
	HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home" \
		GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/gotmp" \
		GOENV=off GOTOOLCHAIN=local GOFLAGS= \
		go build -o "$out/perfbench" .
)
cd "$root"
exec "$out/perfbench" "$@"
