#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments (see README.md). Run from the repository root:
#
#   bash perfbench/run.sh --workload lm-inproc --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and run scratch files stay under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"

export GOCACHE="$out/gocache" GOTMPDIR="$out" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)

exec "$out/perfbench" --scratch "$out/run" "$@"
