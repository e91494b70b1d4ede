#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#
#   bash perfbench/run.sh --workload query --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binary, Go build cache, Go's own config
# and telemetry files) stays under .bench_build in the working tree, and
# no module is fetched: the benchmark module resolves the repository
# module from the parent directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
