#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# e.g. bash perfbench/run.sh --workload build-row --seed 1 --seconds 10 --trace 0
# Everything the build and the run write stays under .bench_build/ in
# the repository root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0
go -C perfbench build -o "$out/perfbench-bin" .
exec "$out/perfbench-bin" "$@"
