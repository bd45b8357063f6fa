#!/usr/bin/env bash
# Builds and runs the CARBON paper-scale benchmark from the root of a
# checkout:
#
#   bash perfbench/run.sh --workload relax-n250m30 --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays inside .bench_build/ in
# the checkout: the Go build cache, the two binaries, and the served
# workload's spool. The build is offline (GOPROXY=off, local toolchain);
# the benchmark module depends only on the repository's own packages.
# Before any timing, the repository's cmd/smokecheck refuses to proceed
# while stray carbond/carbonfleet/smoke processes are alive.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the root of a CARBON checkout" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOTELEMETRY=off
export XDG_CONFIG_HOME="$out/config"

go build -o "$out/smokecheck" ./cmd/smokecheck >&2
(cd perfbench && go build -o "$out/perfbench" .) >&2
"$out/smokecheck" >&2
exec "$out/perfbench" "$@"
