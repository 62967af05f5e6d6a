package experiments

// Seed-sweep adapters and the seed-sweep shard determinism golden: a
// 16-seed trace sweep over the committed 22-VM trace must merge to the
// identical statistics table and fingerprint for every shard count, and
// the merged fingerprint is pinned in testdata/golden_seedsweep.json.

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"kyoto/internal/arrivals"
	"kyoto/internal/sweep"
)

var updateSeedSweepGolden = flag.Bool("update-seedsweep", false, "rewrite testdata/golden_seedsweep.json with the observed merged fingerprint")

func TestTraceSweeperSeedableMetrics(t *testing.T) {
	s, err := NewTraceSweeper(sweepTrace(), FleetSweepConfig{Hosts: 2, Seed: 5, DrainTicks: 6})
	if err != nil {
		t.Fatal(err)
	}
	if s.MetricRows() != nil {
		t.Fatal("metric rows before merge")
	}
	if err := (sweep.Engine{}).Run(s); err != nil {
		t.Fatal(err)
	}
	rows := s.MetricRows()
	if len(rows) != 3 {
		t.Fatalf("%d metric rows, want one per placer", len(rows))
	}
	names := s.MetricNames()
	for i, row := range rows {
		if row.Arm != s.Result().Rows[i].Placer {
			t.Fatalf("row %d arm %q", i, row.Arm)
		}
		if len(row.Values) != len(names) {
			t.Fatalf("arm %s: %d values for %d metrics", row.Arm, len(row.Values), len(names))
		}
	}
	// Reseeding must change the seed and nothing else.
	re, err := s.Reseed(9)
	if err != nil {
		t.Fatal(err)
	}
	rs := re.(*FleetSweeper)
	want, err := NewTraceSweeper(sweepTrace(), FleetSweepConfig{Hosts: 2, Seed: 9, DrainTicks: 6})
	if err != nil {
		t.Fatal(err)
	}
	if rs.ConfigFingerprint() != want.ConfigFingerprint() {
		t.Fatalf("reseeded config digest %s, want %s (seed 9, hosts 2, drain 6)", rs.ConfigFingerprint(), want.ConfigFingerprint())
	}
	if len(rs.Plan()) != len(s.Plan()) {
		t.Fatal("reseeded plan shape differs")
	}
}

func TestMigrationSweeperSeedableMetrics(t *testing.T) {
	s, err := NewMigrationSweeper(sweepTrace(), FleetSweepConfig{
		Hosts: 2, Seed: 5, DrainTicks: 6, Pending: arrivals.PendingSJF,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := (sweep.Engine{}).Run(s); err != nil {
		t.Fatal(err)
	}
	rows := s.MetricRows()
	if len(rows) != 9 {
		t.Fatalf("%d metric rows, want 9 combinations", len(rows))
	}
	if rows[0].Arm != "first-fit/none" {
		t.Fatalf("first arm %q", rows[0].Arm)
	}
	names := s.MetricNames()
	idx := func(name string) int {
		for i, n := range names {
			if n == name {
				return i
			}
		}
		t.Fatalf("metric %q missing from %v", name, names)
		return -1
	}
	for _, row := range rows {
		if len(row.Values) != len(names) {
			t.Fatalf("arm %s: %d values for %d metrics", row.Arm, len(row.Values), len(names))
		}
		// The size-class split covers placed VMs: with an all-small trace
		// the large-class tail must read 0, and the small-class tail must
		// match the pooled one.
		if got := row.Values[idx("wait_p99_large")]; got != 0 {
			t.Fatalf("arm %s: wait_p99_large %v on an all-small trace", row.Arm, got)
		}
		if small, pooled := row.Values[idx("wait_p99_small")], row.Values[idx("wait_p99")]; small != pooled {
			t.Fatalf("arm %s: wait_p99_small %v != pooled %v on an all-small trace", row.Arm, small, pooled)
		}
	}
	re, err := s.Reseed(9)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewMigrationSweeper(sweepTrace(), FleetSweepConfig{
		Hosts: 2, Seed: 9, DrainTicks: 6, Pending: arrivals.PendingSJF,
	})
	if err != nil {
		t.Fatal(err)
	}
	if re.(*FleetSweeper).ConfigFingerprint() != want.ConfigFingerprint() {
		t.Fatal("reseed did not take")
	}
}

// PlacedWaitsByClass splits by booked size; a mixed-size trace must
// land VMs in both classes.
func TestPlacedWaitsByClassSplitsSizes(t *testing.T) {
	res := arrivals.Result{
		Placed: 3,
		Records: []arrivals.Record{
			{VCPUs: 0, WaitTicks: 1},                 // books 1 vCPU -> small
			{VCPUs: 2, WaitTicks: 2},                 // small
			{VCPUs: 4, WaitTicks: 7},                 // large
			{VCPUs: 4, WaitTicks: 9, Rejected: true}, // dropped: excluded
		},
	}
	small, large := res.PlacedWaitsByClass()
	if len(small) != 2 || small[0] != 1 || small[1] != 2 {
		t.Fatalf("small waits %v", small)
	}
	if len(large) != 1 || large[0] != 7 {
		t.Fatalf("large waits %v", large)
	}
}

func TestSeedSweepTableRendering(t *testing.T) {
	proto, err := NewTraceSweeper(sweepTrace(), FleetSweepConfig{Hosts: 2, Seed: 1, DrainTicks: 6})
	if err != nil {
		t.Fatal(err)
	}
	ss, err := sweep.NewSeedSweeper(proto, sweep.SeedSweepConfig{Seeds: 3, Resamples: 50})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SeedSweepTable(ss.Result()); err == nil {
		t.Fatal("table rendered before merge")
	}
	if err := (sweep.Engine{}).Run(ss); err != nil {
		t.Fatal(err)
	}
	res := ss.Result()
	for _, arm := range []string{"first-fit", "spread", "kyoto"} {
		sum, err := res.Metric(arm, "p99_norm")
		if err != nil {
			t.Fatal(err)
		}
		if sum.Count() != 3 {
			t.Fatalf("arm %s has %d samples, want 3", arm, sum.Count())
		}
		for _, x := range sum.Samples() {
			if math.IsNaN(x) || x < 0 {
				t.Fatalf("arm %s p99_norm sample %v", arm, x)
			}
		}
	}
	tbl, err := SeedSweepTable(res)
	if err != nil {
		t.Fatal(err)
	}
	out := tbl.String()
	for _, want := range []string{"3 seeds", "kyoto", "p99_norm", "mean ± 95% CI", "bootstrap"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestSeedSweepShardDeterminismGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("replays the committed 22-VM trace under 16 seeds per shard count")
	}
	tr, err := arrivals.Load(filepath.Join("..", "arrivals", "testdata", "example.json"))
	if err != nil {
		t.Fatal(err)
	}
	shardCounts := []int{1, 4}
	if w := runtime.GOMAXPROCS(0); w > 4 {
		shardCounts = append(shardCounts, w)
	}
	build := func() sweep.Sweep {
		proto, err := NewTraceSweeper(tr, FleetSweepConfig{Hosts: 2, Seed: 1, DrainTicks: 6})
		if err != nil {
			t.Fatal(err)
		}
		ss, err := sweep.NewSeedSweeper(proto, sweep.SeedSweepConfig{Seeds: 16, Resamples: 200})
		if err != nil {
			t.Fatal(err)
		}
		return ss
	}
	fp := shardGoldenCase(t, build, func(s sweep.Sweep) string {
		tbl, err := SeedSweepTable(s.(*sweep.SeedSweeper).Result())
		if err != nil {
			t.Fatal(err)
		}
		return tbl.String()
	}, shardCounts)

	got := map[string]string{"seedsweep-trace-16x22vm": fp}
	path := filepath.Join("testdata", "golden_seedsweep.json")
	if *updateSeedSweepGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
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
		t.Fatalf("read golden file (run with -update-seedsweep to create): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for key, g := range got {
		if g != want[key] {
			t.Fatalf("%s: merged seed-sweep fingerprint %s, want %s — sharded seed sweeps no longer reproduce the committed baseline",
				key, g, want[key])
		}
	}
}
