#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from, then
# runs it with the given arguments:
#
#   bash tablebench/run.sh --workload table1-lpr --seed 7 --seconds 10 --trace 0
#
# Run it from the root of the repository. Build outputs, the Go build cache
# and the traced runs' span files all stay under .bench_build there.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$root/tablebench" && go build -o "$out/tablebench" .)
exec "$out/tablebench" "$@"
