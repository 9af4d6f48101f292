#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# e.g.: bash perfbench/run.sh --workload decide-replay --seed 1 --seconds 20 --trace 0
# Run from the repository root. Every build and run artefact stays in
# .bench_build/ under the current directory: the Go build cache, GOPATH
# and the go command's config directory (where it keeps telemetry counters)
# are all pointed there.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
