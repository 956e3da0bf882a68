#!/usr/bin/env bash
# Builds perfbench from the sources of the checkout it sits in and runs
# it with the given arguments, from the checkout root:
#
#   bash perfbench/run.sh --workload interactive --seed 1 --seconds 20 --trace 0
#
# Everything the build and the runs leave behind goes to .bench_build/
# in the checkout (Go build cache included), so nothing is written
# outside it.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
go build -C "$root/perfbench" -o "$out/bin/perfbench" .
cd "$root"
exec "$out/bin/perfbench" "$@"
