#!/usr/bin/env bash
# Builds the benchmark harness from the checkout's own source and runs it.
# Run from the repository root:
#
#   bash atrbench/run.sh --workload fig10-sweep --seed 1 --seconds 15 --trace 0
#
# Every build and run artefact stays under .bench_build/ in the current
# directory: the Go build cache, the harness binary, and each run's
# scratch state dirs (removed when the run ends).
set -euo pipefail

bench_dir=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$(pwd)/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$bench_dir" && go build -o "$out/atrbench" .)
exec "$out/atrbench" -dir "$out" "$@"
