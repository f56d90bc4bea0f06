#!/usr/bin/env bash
# Builds the benchmark from source and runs it. From the repository root:
#
#   bash perfbench/run.sh --workload paper-report --seed 1 --seconds 15 --trace 0
#
# The last line of standard output is the JSON result. The binary, the Go
# build cache and the traced run's span log stay under $CARGO_TARGET_DIR
# (default .bench_build), so nothing is written outside the checkout.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out/go-cache" "$out/go-tmp" "$out/gopath"

export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0

go build -o "$out/perfbench" ./perfbench/cmd/perfbench
exec "$out/perfbench" --trace-dir "$out/perfbench-trace" "$@"
