#!/usr/bin/env bash
# Builds the benchmark from the checkout this script sits in and runs it,
# passing every argument through:
#
#   bash habfperf/run.sh --workload batch-ycsb-1m --seed 1 --seconds 20 --trace 0
#
# The Go build cache, GOPATH, temporary files, the binary and trace files
# all stay under .bench_build/ in the checkout; no module is fetched and no
# user Go environment file is read.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
out="$(dirname "$here")/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$here" && go build -buildvcs=false -o "$out/habfperf" .)
exec "$out/habfperf" -trace-dir "$out" "$@"
