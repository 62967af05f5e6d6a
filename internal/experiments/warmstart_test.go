package experiments

// The warm-start contract: forked arms are byte-for-byte the cold arms,
// on both fidelity tiers, and the fork actually saves simulated ticks.

import (
	"bytes"
	"testing"

	"kyoto/internal/cache"
)

func TestWarmStartBitIdentity(t *testing.T) {
	for _, fid := range []cache.Fidelity{cache.FidelityExact, cache.FidelityAnalytic} {
		t.Run(fid.String(), func(t *testing.T) {
			cfg := WarmStartConfig{
				Seed:     7,
				Fidelity: fid,
				// Small arms keep the -race run fast; bit-identity does not
				// depend on the window sizes.
				WarmupTicks:  12,
				MeasureTicks: 10,
				Disruptors:   []string{"lbm", "omnetpp", "blockie"},
			}
			res, err := WarmStartSweep(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.BitIdentical() {
				t.Fatalf("forked arms diverged:\nwarm %v\ncold %v", res.Warm, res.Cold)
			}
			if len(res.Warm) != len(cfg.Disruptors) {
				t.Fatalf("got %d arms, want %d", len(res.Warm), len(cfg.Disruptors))
			}
			// The arms must actually differ from each other — identical
			// fingerprints across disruptors would mean the fork froze the
			// world rather than diverged per arm.
			seen := map[string]bool{}
			for _, arm := range res.Warm {
				if seen[arm.Fingerprint] {
					t.Fatalf("two arms share fingerprint %s", arm.Fingerprint)
				}
				seen[arm.Fingerprint] = true
				if arm.VictimIPC <= 0 {
					t.Fatalf("arm %s measured no victim progress", arm.Disruptor)
				}
			}
			if res.TicksWarm >= res.TicksCold {
				t.Fatalf("warm path simulates %d ticks, cold %d — fork saves nothing", res.TicksWarm, res.TicksCold)
			}
		})
	}
}

func TestWarmStartDefaultsAndTable(t *testing.T) {
	cfg := WarmStartConfig{}.withDefaults()
	if cfg.Victim == "" || len(cfg.Disruptors) == 0 || cfg.WarmupTicks == 0 {
		t.Fatalf("defaults incomplete: %+v", cfg)
	}
	res, err := WarmStartSweep(WarmStartConfig{
		Seed: 7, WarmupTicks: 8, MeasureTicks: 6,
		Disruptors: []string{"lbm", "povray"},
	})
	if err != nil {
		t.Fatal(err)
	}
	tbl := res.Table()
	if len(tbl.Rows) != 2 || len(tbl.Columns) != 4 {
		t.Fatalf("table shape wrong: %+v", tbl)
	}
	for _, row := range tbl.Rows {
		if row[3] != "true" {
			t.Fatalf("table row not marked bit-identical: %v", row)
		}
	}
}

// The warm-start job's payload is a pure function of its config: two
// runs give the same bytes, so its shard envelopes merge and compare like
// every other sweep's. The measured wall clocks stay out of it.
func TestWarmStartPayloadDeterministic(t *testing.T) {
	s := WarmStartExperiment(7, cache.FidelityAnalytic)
	job := s.Plan()[0]
	first, err := s.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("two runs of the warmstart job differ:\n%s\n%s", first, second)
	}
}
