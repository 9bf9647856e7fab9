#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout's sources and runs it.
#
#   bash nvbench/run.sh --workload chase-ait --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Every build artifact, Go cache and output
# stays under .bench_build/ in the checkout; the last stdout line is the
# JSON result.
set -euo pipefail

out="$(pwd)/.bench_build/nvbench"
mkdir -p "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	TMPDIR="$out/tmp" HOME="$out/home" GOTOOLCHAIN=local GOPROXY=off \
	GOFLAGS= GOWORK=off

go -C nvbench build -o "$out/nvbench" .
exec "$out/nvbench" -spans-dir .bench_build/nvbench/spans "$@"
