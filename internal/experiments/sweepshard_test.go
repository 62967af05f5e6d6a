package experiments

// Shard determinism goldens: merging the envelopes of an n-way sharded
// sweep must reproduce the unsharded sweep bit for bit — same merged
// fingerprint (pinned in testdata/golden_sweep.json), same rendered
// tables — for n ∈ {1, 3, GOMAXPROCS}, under -race. This is the
// contract that lets kyotobench/kyotosim -shard fan a sweep across
// processes and machines without anyone re-checking the numbers.

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"kyoto/internal/sweep"
)

var updateSweepGolden = flag.Bool("update-sweep", false, "rewrite testdata/golden_sweep.json with the observed merged fingerprints")

// shardGoldenCase runs one sweep build across the given shard counts and
// returns the (identical) merged fingerprint plus the rendered table,
// failing if any shard count disagrees.
func shardGoldenCase(t *testing.T, build func() sweep.Sweep, render func(s sweep.Sweep) string, shardCounts []int) string {
	t.Helper()
	var wantFP, wantTable string
	for _, n := range shardCounts {
		envs := make([]sweep.Envelope, n)
		for k := 0; k < n; k++ {
			// A fresh sweep per shard, exactly like separate processes.
			env, err := sweep.Engine{Workers: 0}.RunShard(build(), k, n)
			if err != nil {
				t.Fatal(err)
			}
			envs[k] = env
		}
		fp, err := sweep.MergedFingerprint(envs)
		if err != nil {
			t.Fatal(err)
		}
		merged := build()
		if err := sweep.Merge(merged, envs); err != nil {
			t.Fatal(err)
		}
		table := render(merged)
		if wantFP == "" {
			wantFP, wantTable = fp, table
			continue
		}
		if fp != wantFP {
			t.Fatalf("%d shards: merged fingerprint %s != 1-shard %s", n, fp, wantFP)
		}
		if table != wantTable {
			t.Fatalf("%d shards: merged table differs from 1-shard run:\n%s\nvs\n%s", n, table, wantTable)
		}
	}
	return wantFP
}

func TestSweepShardDeterminismGolden(t *testing.T) {
	shardCounts := []int{1, 3}
	if !testing.Short() {
		if w := runtime.GOMAXPROCS(0); w > 3 {
			shardCounts = append(shardCounts, w)
		}
	}

	got := map[string]string{}
	// The trace sweep: cheap enough to run in short mode (and therefore
	// under CI's -race pass).
	got["trace-sweep-2h"] = shardGoldenCase(t, func() sweep.Sweep {
		s, err := NewTraceSweeper(sweepTrace(), GoldenTraceSweepConfig())
		if err != nil {
			t.Fatal(err)
		}
		return s
	}, func(s sweep.Sweep) string {
		return s.(*FleetSweeper).Result().Table().String()
	}, shardCounts)

	// The 9-combination migration sweep exercises stateful rebalancers
	// and the pending queue across shard boundaries; it is heavier, so
	// full mode only.
	if !testing.Short() {
		got["migration-sweep-2h"] = shardGoldenCase(t, func() sweep.Sweep {
			s, err := NewMigrationSweeper(sweepTrace(), GoldenMigrationSweepConfig())
			if err != nil {
				t.Fatal(err)
			}
			return s
		}, func(s sweep.Sweep) string {
			return s.(*FleetSweeper).Result().Table().String()
		}, shardCounts)
	}

	path := filepath.Join("testdata", "golden_sweep.json")
	if *updateSweepGolden {
		if testing.Short() {
			t.Fatal("-update-sweep needs the full (non-short) run so every scenario is regenerated")
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", path)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden file (run with -update-sweep to create): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for key, fp := range got {
		if fp != want[key] {
			t.Fatalf("%s: merged sweep fingerprint %s, want %s — sharded execution no longer reproduces the committed baseline",
				key, fp, want[key])
		}
	}
}
