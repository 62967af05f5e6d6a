#!/usr/bin/env bash
# bench_json.sh — run the hot-path microbenchmarks (and a sweep
# wall-clock measurement) and emit BENCH_kyoto.json, so the perf
# trajectory of the simulator is tracked commit over commit.
#
# Usage:
#   ./scripts/bench_json.sh              # ~1s per benchmark, writes BENCH_kyoto.json
#   BENCHTIME=10x ./scripts/bench_json.sh   # CI smoke: fast, noisy, still alloc-exact
#   OUT=/tmp/b.json ./scripts/bench_json.sh
#
# Environment variables (all optional; this is the whole interface, so
# the script is callable from CI without arguments):
#   OUT        output path for the JSON report (default: BENCH_kyoto.json
#              in the repo root). CI writes BENCH_ci.json and gates the
#              allocs_per_op fields: zero on the tick path, and the
#              lazy-chain count on generator construction
#              (BenchmarkWorkloadGen/new/<app>). The benchmarks section
#              also carries the snapshot layer: envelope encode and
#              decode of a fleet checkpoint taken mid-way through an
#              analytic churn replay, and the payload fingerprint fold
#              over the same bytes (BenchmarkSnapshotEncode,
#              BenchmarkSnapshotDecode, BenchmarkFingerprintPayload).
#   BENCHTIME  passed to `go test -benchtime`. Durations ("1s") give
#              stable ns/op; iteration counts ("100x", "10x") are the CI
#              smoke mode — fast and noisy, but allocs/op stays exact,
#              which is what the CI gate checks.
#   SWEEPS     "0" skips the sweep wall-clock section (the fig4 sweep
#              costs ~15s serial).
#   SWEEP_EXP     shardable kyotobench experiment to time (default fig4).
#   SWEEP_SHARDS  local processes for the sharded run (default nproc).
#   CHECKPOINT "0" skips the checkpoint section: the warm-start forking
#              sweep (kyotobench -warmstart-json) on each tier, whose
#              wall_speedup is the measured cold-vs-forked ratio the
#              snapshot/restore work is accountable to. bit_identical
#              must stay true — the sweep itself fails otherwise.
#   FIDELITY   "0" skips the fidelity section: the analytic-vs-exact
#              tick-throughput ratios (paired from the benchmarks
#              section, so they are exactly as stable as BENCHTIME) and
#              the fig4 sweep wall-clock on each tier — the two numbers
#              the two-fidelity work is accountable to.
#   REPLAY     "0" skips the replay section: the three-placer churn sweep
#              (kyotosim -churn, analytic tier, no rebalancer) timed on
#              the lazy event-horizon fleet engine, reported as
#              wall-clock and arrivals/sec. The workload is sparse by
#              construction (horizon = 60 ticks per VM, mean lifetime
#              REPLAY_LIFE) so fleet hosts idle most of the time — the
#              regime laziness exists for (see BenchmarkReplayChurn for
#              the saturated and migrating regimes).
#   REPLAY_VMS   arrivals in the replay section's synthetic trace
#                (default 20000 — a quick proxy; the committed
#                BENCH_kyoto.json is generated with REPLAY_VMS=1000000,
#                the million-arrival headline).
#   REPLAY_HOSTS fleet size for the replay section (default 12).
#   REPLAY_LIFE  mean VM lifetime in ticks (default 5).
#   REPLAY_BENCHTIME  -benchtime for the per-regime events/sec pass
#                (BenchmarkReplayChurn: sparse/saturated/migrating,
#                analytic and exact tiers — the regimes the headline
#                number does not cover).
#                Default 2x; "0" skips the pass.
#
# The sweep section times the same experiment twice through the shard
# protocol, where -workers reaches the sweep engine: once as one
# single-worker process (sweep_shards.sh -n 1 — the serial reference)
# and once fanned across SWEEP_SHARDS single-worker processes. Both
# paths include envelope+merge overhead, so the ratio measures
# process-level sharding alone — exactly what distributing over
# machines buys. host_cpus records how many CPUs the measurement
# actually had: with SWEEP_SHARDS <= host_cpus the sharded run
# approaches shards-times speedup; a 1-CPU container shows sharding
# overhead instead.
#
# The "baseline_pr2" block records the pre-refactor numbers measured on the
# dev container (Xeon @ 2.70GHz) immediately before the PR-2 hot-path
# rewrite; compare against "benchmarks" from the same machine class only.
# Any other "baseline_*" block in the previous report at OUT is carried
# over verbatim: those freeze measurements of code that has since been
# deleted, so they cannot be regenerated.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${OUT:-BENCH_kyoto.json}"
BENCHTIME="${BENCHTIME:-1s}"
SWEEPS="${SWEEPS:-1}"
SWEEP_EXP="${SWEEP_EXP:-fig4}"
SWEEP_SHARDS="${SWEEP_SHARDS:-$(nproc)}"
FIDELITY="${FIDELITY:-1}"
CHECKPOINT="${CHECKPOINT:-1}"
REPLAY="${REPLAY:-1}"
REPLAY_VMS="${REPLAY_VMS:-20000}"
REPLAY_HOSTS="${REPLAY_HOSTS:-12}"
REPLAY_LIFE="${REPLAY_LIFE:-5}"
REPLAY_BENCHTIME="${REPLAY_BENCHTIME:-2x}"

run_bench() {
	go test -run '^$' -bench 'BenchmarkWorldTick|BenchmarkCacheAccess|BenchmarkWorkloadGen|BenchmarkAccessLRU|BenchmarkSnapshotEncode|BenchmarkSnapshotDecode|BenchmarkFingerprintPayload' \
		-benchtime "$BENCHTIME" -benchmem ./internal/hv ./internal/cache ./internal/workload ./internal/snapshot
}

PREV="$(mktemp)"
if [ -f "$OUT" ]; then cp "$OUT" "$PREV"; else echo '{}' > "$PREV"; fi

run_bench | awk '
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name) # strip the GOMAXPROCS suffix
	ns = ""
	allocs = ""
	for (i = 2; i < NF; i++) {
		if ($(i + 1) == "ns/op") ns = $i
		if ($(i + 1) == "allocs/op") allocs = $i
	}
	if (ns != "") {
		if (n++) printf ",\n"
		printf "    \"%s\": {\"ns_per_op\": %s, \"allocs_per_op\": %s}", name, ns, (allocs == "" ? "null" : allocs)
	}
}
BEGIN {
	printf "{\n  \"schema\": \"kyoto-bench-v1\",\n"
	printf "  \"benchmarks\": {\n"
}
END {
	printf "\n  },\n"
	printf "  \"baseline_pr2\": {\n"
	printf "    \"BenchmarkWorldTick/credit\": {\"ns_per_op\": 6327740, \"allocs_per_op\": 2},\n"
	printf "    \"BenchmarkWorldTick/credit-4vm\": {\"ns_per_op\": 13261971, \"allocs_per_op\": 1},\n"
	printf "    \"BenchmarkWorldTick/kyoto-4vm\": {\"ns_per_op\": 5656224, \"allocs_per_op\": 3},\n"
	printf "    \"BenchmarkCacheAccess/hit\": {\"ns_per_op\": 5.166, \"allocs_per_op\": 0},\n"
	printf "    \"BenchmarkCacheAccess/stream-miss\": {\"ns_per_op\": 81.71, \"allocs_per_op\": 0},\n"
	printf "    \"BenchmarkCacheAccess/multi-owner\": {\"ns_per_op\": 90.68, \"allocs_per_op\": 0},\n"
	printf "    \"BenchmarkCacheAccess/path\": {\"ns_per_op\": 33.70, \"allocs_per_op\": 0},\n"
	printf "    \"BenchmarkAccessLRU\": {\"ns_per_op\": 86.02, \"allocs_per_op\": 0},\n"
	printf "    \"BenchmarkWorkloadGen/gcc\": {\"ns_per_op\": 24.02, \"allocs_per_op\": 0},\n"
	printf "    \"BenchmarkWorkloadGen/lbm\": {\"ns_per_op\": 25.19, \"allocs_per_op\": 0},\n"
	printf "    \"BenchmarkWorkloadGen/povray\": {\"ns_per_op\": 25.17, \"allocs_per_op\": 0},\n"
	printf "    \"BenchmarkFig1Contention\": {\"ns_per_op\": 20569638032, \"allocs_per_op\": null}\n"
	printf "  }\n}\n"
}' > "$OUT"

python3 - "$OUT" "$PREV" <<'EOF'
import json, sys
path, prev = sys.argv[1:3]
with open(path) as f:
    d = json.load(f)
with open(prev) as f:
    frozen = {k: v for k, v in json.load(f).items() if k.startswith("baseline_") and k not in d}
out = {}
for k, v in d.items():
    out[k] = v
    if k == "baseline_pr2":
        out.update(frozen)
with open(path, "w") as f:
    json.dump(out, f, indent=2)
    f.write("\n")
EOF
rm -f "$PREV"

if [ "$SWEEPS" != "0" ] || [ "$FIDELITY" != "0" ] || [ "$CHECKPOINT" != "0" ] || [ "$REPLAY" != "0" ]; then
	BIN="$(mktemp -d)"
	trap 'rm -rf "$BIN"' EXIT
	go build -o "$BIN/kyotobench" ./cmd/kyotobench
fi

if [ "$SWEEPS" != "0" ]; then
	# Sweep wall-clock: serial vs process-sharded execution of one
	# shardable experiment, folded into the report as a "sweeps" object.
	t0=$(date +%s%N)
	./scripts/sweep_shards.sh -n 1 -- "$BIN/kyotobench" -run "$SWEEP_EXP" -workers 1 >/dev/null
	t1=$(date +%s%N)
	serial_ms=$(((t1 - t0) / 1000000))

	t0=$(date +%s%N)
	./scripts/sweep_shards.sh -n "$SWEEP_SHARDS" -- "$BIN/kyotobench" -run "$SWEEP_EXP" -workers 1 >/dev/null
	t1=$(date +%s%N)
	sharded_ms=$(((t1 - t0) / 1000000))

	python3 - "$OUT" "$SWEEP_EXP" "$serial_ms" "$sharded_ms" "$SWEEP_SHARDS" <<'EOF'
import json, sys, os
path, exp, serial_ms, sharded_ms, shards = sys.argv[1:6]
with open(path) as f:
    d = json.load(f)
d["sweeps"] = {
    exp: {
        "serial_ms": int(serial_ms),
        "sharded_ms": int(sharded_ms),
        "shards": int(shards),
        "speedup": round(int(serial_ms) / max(1, int(sharded_ms)), 2),
        "host_cpus": os.cpu_count(),
    }
}
with open(path, "w") as f:
    json.dump(d, f, indent=2)
    f.write("\n")
EOF
	echo "sweep $SWEEP_EXP: serial ${serial_ms}ms, ${SWEEP_SHARDS}-shard ${sharded_ms}ms" >&2
fi

if [ "$FIDELITY" != "0" ]; then
	# Fidelity wall-clock: the same fig4 sweep on each cache-model tier.
	# Tick-level ratios come from the benchmarks section (paired
	# BenchmarkWorldTick vs BenchmarkWorldTickAnalytic sub-benchmarks);
	# the sweep timing shows what the ratio buys end to end.
	t0=$(date +%s%N)
	"$BIN/kyotobench" -run fig4 >/dev/null
	t1=$(date +%s%N)
	exact_ms=$(((t1 - t0) / 1000000))

	t0=$(date +%s%N)
	"$BIN/kyotobench" -run fig4 -fidelity analytic >/dev/null
	t1=$(date +%s%N)
	analytic_ms=$(((t1 - t0) / 1000000))

	python3 - "$OUT" "$exact_ms" "$analytic_ms" <<'EOF'
import json, sys
path, exact_ms, analytic_ms = sys.argv[1:4]
with open(path) as f:
    d = json.load(f)
ticks = {}
for name, b in d.get("benchmarks", {}).items():
    prefix = "BenchmarkWorldTick/"
    if not name.startswith(prefix):
        continue
    sub = name[len(prefix):]
    a = d["benchmarks"].get("BenchmarkWorldTickAnalytic/" + sub)
    if a is None:
        continue
    ticks[sub] = {
        "exact_ns_per_op": b["ns_per_op"],
        "analytic_ns_per_op": a["ns_per_op"],
        "speedup": round(b["ns_per_op"] / max(1e-9, a["ns_per_op"]), 1),
    }
d["fidelity"] = {
    "tick": ticks,
    "fig4_sweep": {
        "exact_ms": int(exact_ms),
        "analytic_ms": int(analytic_ms),
        "speedup": round(int(exact_ms) / max(1, int(analytic_ms)), 1),
    },
}
with open(path, "w") as f:
    json.dump(d, f, indent=2)
    f.write("\n")
EOF
	echo "fidelity fig4: exact ${exact_ms}ms, analytic ${analytic_ms}ms" >&2
fi

if [ "$CHECKPOINT" != "0" ]; then
	# Checkpoint section: the warm-start forking sweep on each tier. The
	# sweep runs every contention arm cold (re-simulating the shared
	# warm-up) and forked (all arms restored from one checkpoint),
	# verifies per-arm bit-identity, and reports the wall-clock ratio —
	# the number checkpointing is accountable to.
	"$BIN/kyotobench" -warmstart-json "$BIN/ws-exact.json" -seed 7
	"$BIN/kyotobench" -warmstart-json "$BIN/ws-analytic.json" -seed 7 -fidelity analytic

	python3 - "$OUT" "$BIN/ws-exact.json" "$BIN/ws-analytic.json" <<'EOF'
import json, sys
path, exact, analytic = sys.argv[1:4]
with open(path) as f:
    d = json.load(f)
with open(exact) as f:
    e = json.load(f)
with open(analytic) as f:
    a = json.load(f)
d["checkpoint"] = {"warmstart": {e["fidelity"]: e, a["fidelity"]: a}}
with open(path, "w") as f:
    json.dump(d, f, indent=2)
    f.write("\n")
EOF
	echo "checkpoint warmstart: exact + analytic warm-start sweeps folded in" >&2
fi

if [ "$REPLAY" != "0" ]; then
	# Replay section: the sparse churn sweep on the lazy event-horizon
	# engine. Horizon scales with the arrival count (60 ticks per VM) so
	# the fleet's idle fraction — the thing laziness elides — is the same
	# at every REPLAY_VMS, and the throughput measured at the 20k default
	# predicts the committed million-arrival number.
	go build -o "$BIN/kyotosim" ./cmd/kyotosim
	horizon=$((REPLAY_VMS * 60))

	t0=$(date +%s%N)
	"$BIN/kyotosim" -churn "$REPLAY_VMS" -churn-horizon "$horizon" -churn-life "$REPLAY_LIFE" \
		-hosts "$REPLAY_HOSTS" -fidelity analytic > "$BIN/replay-lazy.txt"
	t1=$(date +%s%N)
	lazy_ms=$(((t1 - t0) / 1000000))

	# Per-regime events/sec: the headline above is the sparse analytic
	# no-rebalancer case; BenchmarkReplayChurn covers the rest (exact
	# tier, migration epochs forcing barriers, a saturated fleet).
	: > "$BIN/replay-bench.txt"
	if [ "$REPLAY_BENCHTIME" != "0" ]; then
		go test -run '^$' -bench BenchmarkReplayChurn -benchtime "$REPLAY_BENCHTIME" \
			./internal/arrivals > "$BIN/replay-bench.txt"
	fi

	python3 - "$OUT" "$REPLAY_VMS" "$REPLAY_HOSTS" "$REPLAY_LIFE" "$horizon" "$lazy_ms" "$BIN/replay-bench.txt" <<'EOF'
import json, re, sys
path, vms, hosts, life, horizon, lazy_ms, benchfile = sys.argv[1:8]
with open(path) as f:
    d = json.load(f)
regimes = {}
for line in open(benchfile):
    parts = line.split()
    if not parts or not parts[0].startswith("BenchmarkReplayChurn/"):
        continue
    # go test appends "-GOMAXPROCS" only when it is not 1; strip just a
    # trailing numeric suffix so "fleet-migrate" keeps its name.
    name = re.sub(r"-\d+$", "", parts[0].split("/", 1)[1])
    for i, tok in enumerate(parts):
        if tok == "events/sec":
            regimes[name] = float(parts[i - 1])
arms = 3  # the churn sweep replays the trace once per placement policy
d["replay"] = {
    "workload": {
        "arrivals": int(vms),
        "hosts": int(hosts),
        "horizon_ticks": int(horizon),
        "mean_lifetime_ticks": int(life),
        "fidelity": "analytic",
        "placer_arms": arms,
    },
    "lazy_ms": int(lazy_ms),
    "lazy_arrivals_per_sec": round(arms * int(vms) / max(0.001, int(lazy_ms) / 1000)),
}
if regimes:
    d["replay"]["regimes_events_per_sec"] = regimes
with open(path, "w") as f:
    json.dump(d, f, indent=2)
    f.write("\n")
EOF
	echo "replay churn ($REPLAY_VMS VMs, $REPLAY_HOSTS hosts): lazy ${lazy_ms}ms" >&2
fi

echo "wrote $OUT" >&2
