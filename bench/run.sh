#!/usr/bin/env bash
# Builds the replay benchmark from source and runs it with the given
# arguments, e.g.
#   bash bench/run.sh --workload exact-churn --seed 7 --seconds 20 --trace 0
# Run it from the repository root. Everything the build and the run
# write (Go build cache, binary, traces) stays under .bench_build, or
# under $CARGO_TARGET_DIR when that is set.
set -euo pipefail
out=$(realpath -m "${CARGO_TARGET_DIR:-.bench_build}")
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOFLAGS=-mod=mod \
	GOPROXY=off GOWORK=off
go -C bench build -o "$out/replaybench" .
exec "$out/replaybench" -trace-dir "$out/trace" "$@"
