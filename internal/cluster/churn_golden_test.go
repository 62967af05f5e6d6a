package cluster_test

// Churn golden determinism guards, alongside the fixed-population fleet
// golden: seeded synthetic arrivals traces replayed through Kyoto fleets
// must produce the committed fingerprints — each run twice, serial and
// parallel. Four scenarios are pinned: the plain lifecycle path (Place,
// Remove, cache eviction on departure, monotonic ID assignment), and three
// migration scenarios exercising the full reactive stack (live migration
// with downtime, pending queue, owner-tag recycling) — one reactive on a
// homogeneous fleet, one topology-aware on a heterogeneous big-LLC
// fleet, and one change-point (Signature) batch plan on a fleet that
// enforces permits, so the planner's permit headroom is pinned. They live in an external test package because arrivals imports
// cluster.

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"kyoto/internal/arrivals"
	"kyoto/internal/cluster"
	"kyoto/internal/detect"
	"kyoto/internal/machine"
)

var updateChurnGolden = flag.Bool("update-churn", false, "rewrite testdata/golden_churn.json with the observed fingerprints")

// churnTrace is the pinned scenario: a dozen VMs with heavy-tailed
// lifetimes churning over a 3-host Kyoto fleet — small enough to stay
// fast under -race, busy enough that placements, departures and permit
// pressure all occur.
func churnTrace() arrivals.Trace {
	return arrivals.Synthesize(arrivals.SynthConfig{
		Seed:         7,
		VMs:          12,
		Horizon:      45,
		MeanLifetime: 14,
	})
}

// churnFleet builds the golden scenarios' 3-host Kyoto fleet.
func churnFleet(t *testing.T, workers int, overrides map[int]cluster.HostOverride) *cluster.Fleet {
	t.Helper()
	f, err := cluster.New(cluster.Config{
		Hosts:     3,
		Template:  cluster.HostTemplate{Seed: 42, EnableKyoto: true},
		Overrides: overrides,
		Placer:    cluster.Admission{},
		Workers:   workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// bigLLCOverride doubles host 2's LLC and permit budget, the
// heterogeneous fleet the topology-aware golden steers polluters to.
func bigLLCOverride() map[int]cluster.HostOverride {
	m := machine.TableOne()
	m.LLC.SizeBytes *= 2
	return map[int]cluster.HostOverride{2: {Machine: m, LLCBudget: 2000}}
}

// churnScenarios maps each golden key to its replay.
var churnScenarios = map[string]func(t *testing.T, workers int) string{
	// The original lifecycle golden: its fingerprint predates owner-tag
	// recycling, migration and the pending queue, and pins all three as
	// arithmetic-neutral for non-migrating replays.
	"kyoto-churn-3h12vm": func(t *testing.T, workers int) string {
		f := churnFleet(t, workers, nil)
		res, err := arrivals.Replay(f, churnTrace(), arrivals.Options{DrainTicks: 6})
		if err != nil {
			t.Fatal(err)
		}
		return res.Fingerprint()
	},
	"kyoto-churn-migrate-reactive": func(t *testing.T, workers int) string {
		f := churnFleet(t, workers, nil)
		res, err := arrivals.Replay(f, churnTrace(), arrivals.Options{
			DrainTicks:        6,
			Pending:           arrivals.PendingFIFO,
			Rebalancer:        &cluster.Reactive{},
			RebalanceEvery:    9,
			MigrationDowntime: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Fingerprint()
	},
	"kyoto-churn-migrate-topo": func(t *testing.T, workers int) string {
		f := churnFleet(t, workers, bigLLCOverride())
		res, err := arrivals.Replay(f, churnTrace(), arrivals.Options{
			DrainTicks:        6,
			Pending:           arrivals.PendingDeadline,
			MaxWait:           20,
			Rebalancer:        &cluster.TopologyAware{},
			RebalanceEvery:    9,
			MigrationDowntime: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Fingerprint()
	},
	"kyoto-churn-migrate-signature": func(t *testing.T, workers int) string {
		f := churnFleet(t, workers, nil)
		res, err := arrivals.Replay(f, churnTrace(), arrivals.Options{
			DrainTicks:        6,
			Pending:           arrivals.PendingFIFO,
			Rebalancer:        &cluster.Signature{Detector: detect.Config{Alpha: 0.2, Drift: 0.1, Threshold: 1, Warmup: 2}},
			RebalanceEvery:    6,
			MigrationDowntime: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		// A golden that never migrates would pin nothing of the planner.
		if len(res.Migrations) == 0 {
			t.Fatal("signature churn scenario planned no migration")
		}
		return res.Fingerprint()
	},
}

func TestGoldenChurnSerialParallel(t *testing.T) {
	got := make(map[string]string, len(churnScenarios))
	for key, run := range churnScenarios {
		serial := run(t, 1)
		if again := run(t, 1); again != serial {
			t.Fatalf("%s: serial churn replay not reproducible: %s vs %s", key, again, serial)
		}
		if par := run(t, 0); par != serial {
			t.Fatalf("%s: parallel churn fingerprint %s != serial %s", key, par, serial)
		}
		got[key] = serial
	}

	path := filepath.Join("testdata", "golden_churn.json")
	if *updateChurnGolden {
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
		t.Fatalf("read golden file (run with -update-churn to create): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for key, fp := range got {
		if fp != want[key] {
			t.Fatalf("%s: churn fingerprint %s, want %s — the lifecycle/migration path is no longer bit-identical to the committed baseline",
				key, fp, want[key])
		}
	}
	if len(want) != len(got) {
		t.Fatalf("golden file pins %d scenarios, test runs %d — regenerate with -update-churn", len(want), len(got))
	}
}
