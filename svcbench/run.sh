#!/usr/bin/env bash
# Builds the service benchmark from this checkout and runs it. Run from
# the repository root; every argument goes to the benchmark:
#
#   bash svcbench/run.sh --workload codec-fleet --seed 1 --seconds 30 --trace 0
#
# The Go build cache and the binary stay under .bench_build/ in the
# checkout.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOENV=off GOTOOLCHAIN=local GOFLAGS=
(cd svcbench && go build -o "$out/svcbench" .)
exec "$out/svcbench" "$@"
