package arrivals

// Replay throughput benchmarks: the event-horizon engine's headline
// numbers. BenchmarkReplayChurn replays seeded synthetic churn traces —
// exact and analytic tiers, with and without a rebalancer forcing epoch
// barriers — and reports events/sec alongside ns/op, so
// scripts/bench_json.sh can fold the replay trajectory into
// BENCH_kyoto.json. Two fleet regimes are pinned deliberately: "fleet"
// is sparse (a 12-host fleet whose hosts idle most of the time, where
// the lazy engine's O(1) idle elision wins outright) and "saturated" is
// dense (every host busy every tick, where there is nothing to elide). The
// steady-state advancement path (SkipTicks + seek/Barrier over analytic
// worlds) is asserted allocation-free in
// TestReplayAdvanceAnalyticZeroAlloc — the fleet analogue of the
// per-world 0 allocs/op tick gate.

import (
	"testing"

	"kyoto/internal/cache"
	"kyoto/internal/cluster"
	"kyoto/internal/vm"
)

// placeReq is a 1-vCPU Kyoto-permitted placement request.
func placeReq(name, app string, llcCap float64) cluster.Request {
	return cluster.Request{Spec: vm.Spec{Name: name, App: app, LLCCap: llcCap}}
}

// benchFleet builds a Kyoto-enforced fleet for replay benchmarks;
// workers <= 1 keeps every advancement on the calling goroutine.
func benchFleet(b *testing.B, hosts, workers int, fid cache.Fidelity) *cluster.Fleet {
	b.Helper()
	f, err := cluster.New(cluster.Config{
		Hosts:    hosts,
		Template: cluster.HostTemplate{Seed: 42, EnableKyoto: true, Fidelity: fid},
		Placer:   cluster.Admission{},
		Workers:  workers,
	})
	if err != nil {
		b.Fatal(err)
	}
	return f
}

// benchChurnTrace sizes the workload's concurrency: mean concurrent VMs
// = vms * meanLife / horizon. The sparse fleet regime keeps that far
// below fleet capacity (hosts idle, elision dominates); the saturated
// regime pushes it past capacity (every tick busy, nothing to elide).
func benchChurnTrace(vms int, horizon uint64) Trace {
	return Synthesize(SynthConfig{
		Seed:         7,
		VMs:          vms,
		Horizon:      horizon,
		MeanLifetime: 40,
	})
}

func BenchmarkReplayChurn(b *testing.B) {
	cases := []struct {
		name     string
		fidelity cache.Fidelity
		hosts    int
		vms      int
		horizon  uint64
		migrate  bool
	}{
		// Sparse 12-host fleet, ~4 concurrent VMs: the event-horizon
		// regime. Every idle host-tick is elided.
		{"fleet", cache.FidelityAnalytic, 12, 2000, 20000, false},
		// Same sparse fleet with a reactive rebalancer: every epoch is a
		// global barrier, bounding how much laziness can elide.
		{"fleet-migrate", cache.FidelityAnalytic, 12, 2000, 20000, true},
		// Saturated 4-host fleet, ~40 concurrent VMs against 16 slots:
		// every host busy every tick, nothing to elide.
		{"saturated", cache.FidelityAnalytic, 4, 2000, 2000, false},
		// Exact tier, scaled down: per-tick cost is 100-1000x analytic.
		{"exact-fleet", cache.FidelityExact, 8, 200, 2000, false},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			tr := benchChurnTrace(c.vms, c.horizon)
			events := float64(len(tr.Events))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f := benchFleet(b, c.hosts, 0, c.fidelity)
				var opt Options
				if c.migrate {
					opt.Rebalancer = &cluster.Reactive{}
				}
				res, err := Replay(f, tr, opt)
				if err != nil {
					b.Fatal(err)
				}
				if res.Placed == 0 {
					b.Fatal("benchmark replay placed nothing")
				}
			}
			b.StopTimer()
			b.ReportMetric(events*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
		})
	}
}

// TestReplayAdvanceAnalyticZeroAlloc pins the steady-state advancement
// path at zero allocations: once a fleet is placed and warm, skipping
// the clock forward and closing the lag (seeks and barriers over
// analytic worlds) must not allocate — the property that keeps
// million-arrival replays GC-quiet between events.
func TestReplayAdvanceAnalyticZeroAlloc(t *testing.T) {
	f, err := cluster.New(cluster.Config{
		Hosts:    2,
		Template: cluster.HostTemplate{Seed: 42, EnableKyoto: true, Fidelity: cache.FidelityAnalytic},
		Placer:   cluster.Admission{},
		Workers:  1, // the serial path is the steady state the gate pins
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b"} {
		if _, err := f.Place(placeReq(name, "gcc", 250)); err != nil {
			t.Fatal(err)
		}
	}
	// Warm up past the analytic tier's first-epoch transients (and any
	// lazily grown scratch) before measuring.
	f.RunTicks(512)
	allocs := testing.AllocsPerRun(20, func() {
		f.SkipTicks(300)
		f.Barrier()
	})
	if allocs != 0 {
		t.Fatalf("steady-state lazy advancement allocates %v allocs/op, want 0", allocs)
	}
}
