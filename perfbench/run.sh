#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload:
#
#   bash perfbench/run.sh --workload window-cold --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache,
# durable stores and trace files all stay under $CARGO_TARGET_DIR
# (default .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"

export GOCACHE=$out/go-cache
export GOTMPDIR=$out
export GOTOOLCHAIN=local
export XDG_CONFIG_HOME=$out/config
export GOPROXY=off
export GOPATH=$out/gopath

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --data "$out/perfbench-data" "$@"
