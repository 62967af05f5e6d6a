#!/usr/bin/env bash
# sweep_shards.sh — fan one sweep across N local processes, then merge.
#
# Works with any command that understands the repo's shard protocol
# (-shard k/n, -shard-out FILE, -merge GLOB): every kyotobench
# experiment (see kyotobench -list) and kyotosim's -trace/-churn sweep
# modes.
#
# Usage:
#   ./scripts/sweep_shards.sh [-n SHARDS] [-o OUTDIR] -- <command and flags>
#
#   ./scripts/sweep_shards.sh -n 4 -- go run ./cmd/kyotobench -run fig4
#   ./scripts/sweep_shards.sh -n 2 -- ./kyotosim -churn 24 -hosts 4 -migrate all
#
# Each shard runs as its own OS process (the same envelopes fan out
# across machines: run the -shard invocations anywhere, collect the JSON
# files, and -merge them on any one host). With -o the envelopes are kept
# in OUTDIR for inspection; by default they live in a temp dir that is
# cleaned up on exit.
#
# Environment:
#   SHARDS  default shard count when -n is not given (default: nproc).
set -euo pipefail

usage() {
	echo "usage: $0 [-n shards] [-o outdir] -- command -run <experiment> [flags]" >&2
	exit 2
}

SHARDS="${SHARDS:-$(nproc)}"
OUTDIR=""
while [ $# -gt 0 ]; do
	case "$1" in
	-n)
		SHARDS="$2"
		shift 2
		;;
	-o)
		OUTDIR="$2"
		shift 2
		;;
	--)
		shift
		break
		;;
	*)
		usage
		;;
	esac
done
[ $# -gt 0 ] || usage
[ "$SHARDS" -ge 1 ] || usage

if [ -z "$OUTDIR" ]; then
	OUTDIR="$(mktemp -d)"
	trap 'rm -rf "$OUTDIR"' EXIT
else
	mkdir -p "$OUTDIR"
fi

pids=()
for k in $(seq 0 $((SHARDS - 1))); do
	"$@" -shard "$k/$SHARDS" -shard-out "$OUTDIR/shard-$k.json" &
	pids+=("$!")
done
fail=0
for pid in "${pids[@]}"; do
	wait "$pid" || fail=1
done
if [ "$fail" -ne 0 ]; then
	echo "sweep_shards.sh: a shard failed" >&2
	exit 1
fi

"$@" -merge "$OUTDIR/shard-*.json"
