#!/usr/bin/env bash
# Builds the benchmark and arbalestd from this checkout, then runs the
# benchmark with the given arguments, e.g.
#
#   bash bench/run.sh --workload submit-fig8 --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# root of the checkout: the Go build cache, the binaries and the daemons'
# spools.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off

cd "$root/bench"
go build -o "$out/bench" .
go build -o "$out/arbalestd" repro/cmd/arbalestd
cd "$root"
exec "$out/bench" -arbalestd "$out/arbalestd" "$@"
