#!/usr/bin/env bash
# Builds the JANUS benchmark from the checkout it sits in and runs it.
#
#   bash janusbench/run.sh --workload tableii --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# root of the checkout (Go build cache, binary, traces, cache dirs).
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
# The go command also writes to the user's config dir (telemetry) and
# GOPATH; point both into the build directory too.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false
(cd "$root/janusbench" && go build -o "$build/janusbench" .)
exec "$build/janusbench" -out "$build" "$@"
