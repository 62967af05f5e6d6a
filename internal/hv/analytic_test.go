package hv_test

// Analytic-tier guards: determinism (same seed -> bit-identical counter
// fingerprints, the property the exact tier pins with golden.json),
// physical sanity of the bulk counter updates, and the tick-throughput
// benchmark the two-fidelity work is measured by (BenchmarkWorldTickAnalytic
// must be >=10x BenchmarkWorldTick with 0 allocs/op; CI enforces the
// alloc half, BENCH_kyoto.json records the ratio).

import (
	"fmt"
	"testing"

	"kyoto/internal/cache"
	"kyoto/internal/core"
	"kyoto/internal/hv"
	"kyoto/internal/machine"
	"kyoto/internal/monitor"
	"kyoto/internal/sched"
	"kyoto/internal/vm"
)

// analyticWorlds rebuilds the golden scenarios on the analytic tier.
func analyticWorlds(t testing.TB) map[string]*hv.World {
	t.Helper()
	mk := func(s sched.Scheduler, hooks []hv.TickHook, specs ...vm.Spec) *hv.World {
		w, err := hv.New(hv.Config{
			Machine:  machine.TableOne(),
			Seed:     goldenSeed,
			Fidelity: cache.FidelityAnalytic,
		}, s)
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range specs {
			if _, err := w.AddVM(spec); err != nil {
				t.Fatal(err)
			}
		}
		for _, h := range hooks {
			w.AddHook(h)
		}
		return w
	}
	k := core.New(sched.NewCredit(4))
	oracle := monitor.NewOracle(k, core.Equation1)
	return map[string]*hv.World{
		"solo-gcc": mk(sched.NewCredit(4), nil,
			vm.Spec{Name: "solo", App: "gcc", Pins: []int{0}}),
		"gcc-lbm-contention": mk(sched.NewCredit(4), nil,
			vm.Spec{Name: "victim", App: "gcc", Pins: []int{0}},
			vm.Spec{Name: "attacker", App: "lbm", Pins: []int{1}}),
		"kyoto-admission-4vm": mk(k, []hv.TickHook{oracle},
			vm.Spec{Name: "vm0", App: "gcc", Pins: []int{0}, LLCCap: 250},
			vm.Spec{Name: "vm1", App: "lbm", Pins: []int{1}, LLCCap: 250},
			vm.Spec{Name: "vm2", App: "omnetpp", Pins: []int{2}, LLCCap: 250},
			vm.Spec{Name: "vm3", App: "blockie", Pins: []int{3}, LLCCap: 250}),
	}
}

// TestAnalyticDeterminism is the analytic tier's face of the determinism
// contract: the same seed must reproduce every counter bit for bit, for
// each scenario, across independently built worlds.
func TestAnalyticDeterminism(t *testing.T) {
	a := analyticWorlds(t)
	b := analyticWorlds(t)
	for name := range a {
		a[name].RunTicks(goldenTicks)
		b[name].RunTicks(goldenTicks)
		if fa, fb := fingerprint(a[name]), fingerprint(b[name]); fa != fb {
			t.Errorf("%s: analytic runs with the same seed diverged: %s vs %s", name, fa, fb)
		}
	}
}

// TestAnalyticCountersSane checks the bulk updates preserve execStep's
// counter invariants: the miss waterfall is monotone, memory traffic
// splits misses, and IPC lands in a physical range.
func TestAnalyticCountersSane(t *testing.T) {
	for name, w := range analyticWorlds(t) {
		w.RunTicks(goldenTicks)
		for _, v := range w.VCPUs() {
			c := v.Counters
			if c.Instructions == 0 || c.UnhaltedCycles == 0 {
				t.Fatalf("%s: vCPU %d retired nothing on the analytic tier", name, v.ID)
			}
			if c.L1Misses > c.Accesses || c.L2Misses > c.L1Misses || c.LLCMisses > c.L2Misses {
				t.Errorf("%s: vCPU %d miss waterfall not monotone: %+v", name, v.ID, c)
			}
			if c.LLCReferences != c.L2Misses {
				t.Errorf("%s: vCPU %d LLCReferences %d != L2Misses %d", name, v.ID, c.LLCReferences, c.L2Misses)
			}
			if rw := c.MemReads + c.MemWrites; rw > c.LLCMisses+2 || rw+2 < c.LLCMisses {
				t.Errorf("%s: vCPU %d memory traffic %d does not split LLC misses %d", name, v.ID, rw, c.LLCMisses)
			}
			if ipc := c.IPC(); ipc <= 0 || ipc > 2 {
				t.Errorf("%s: vCPU %d IPC %.3f outside (0,2]", name, v.ID, ipc)
			}
			if f := w.LLCOccupancyFraction(v); f < 0 || f > 1 {
				t.Errorf("%s: vCPU %d occupancy fraction %.3f outside [0,1]", name, v.ID, f)
			}
		}
		// Occupancies share one cache: their sum cannot exceed it.
		var total float64
		for _, v := range w.VCPUs() {
			total += w.LLCOccupancyFraction(v)
		}
		if total > 1.0001 {
			t.Errorf("%s: occupancy fractions sum to %.4f > 1", name, total)
		}
	}
}

// TestAnalyticContentionOrdering: the analytic tier must reproduce the
// paper's first-order effect — a cache-sensitive VM runs slower against
// a polluter than solo.
func TestAnalyticContentionOrdering(t *testing.T) {
	ws := analyticWorlds(t)
	solo, pair := ws["solo-gcc"], ws["gcc-lbm-contention"]
	solo.RunTicks(goldenTicks)
	pair.RunTicks(goldenTicks)
	soloIPC := solo.FindVM("solo").Counters().IPC()
	contIPC := pair.FindVM("victim").Counters().IPC()
	if contIPC >= soloIPC {
		t.Errorf("analytic tier shows no contention: solo gcc IPC %.3f vs contended %.3f", soloIPC, contIPC)
	}
}

// TestAnalyticRemoveVMReleasesState: departures must release occupancy
// and owner tags on the analytic tier exactly as on the exact tier.
func TestAnalyticRemoveVMReleasesState(t *testing.T) {
	w, err := hv.New(hv.Config{
		Machine:  machine.TableOne(),
		Seed:     goldenSeed,
		Fidelity: cache.FidelityAnalytic,
	}, sched.NewCredit(4))
	if err != nil {
		t.Fatal(err)
	}
	domain, err := w.AddVM(vm.Spec{Name: "tenant", App: "lbm", Pins: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	w.RunTicks(12)
	v := domain.VCPUs[0]
	if w.LLCOccupancyFraction(v) == 0 {
		t.Fatal("lbm built no analytic occupancy in 12 ticks")
	}
	owner := v.Owner()
	if err := w.RemoveVM("tenant"); err != nil {
		t.Fatal(err)
	}
	if got := w.AnalyticLLC(0).OccupancyLines(owner); got != 0 {
		t.Fatalf("departed owner still holds %.1f analytic lines", got)
	}
}

// BenchmarkWorldTickAnalytic is BenchmarkWorldTick on the analytic tier:
// the same three scenarios, the same warmup, the same Mcycles/s metric,
// so the analytic-vs-exact ratio in BENCH_kyoto.json compares like with
// like. The tick path must stay allocation-free here too.
func BenchmarkWorldTickAnalytic(b *testing.B) {
	for _, bc := range []struct {
		name  string
		build func(testing.TB) *hv.World
	}{
		{"credit", func(t testing.TB) *hv.World {
			return analyticWorlds(t)["gcc-lbm-contention"]
		}},
		{"credit-4vm", func(t testing.TB) *hv.World {
			w, err := hv.New(hv.Config{
				Machine:  machine.TableOne(),
				Seed:     goldenSeed,
				Fidelity: cache.FidelityAnalytic,
			}, sched.NewCredit(4))
			if err != nil {
				t.Fatal(err)
			}
			for i, app := range []string{"gcc", "lbm", "omnetpp", "blockie"} {
				if _, err := w.AddVM(vm.Spec{Name: fmt.Sprintf("vm%d", i), App: app, Pins: []int{i}}); err != nil {
					t.Fatal(err)
				}
			}
			return w
		}},
		{"kyoto-4vm", func(t testing.TB) *hv.World {
			return analyticWorlds(t)["kyoto-admission-4vm"]
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			w := bc.build(b)
			w.RunTicks(12)
			b.ReportAllocs()
			b.ResetTimer()
			w.RunTicks(b.N)
			b.StopTimer()
			b.ReportMetric(float64(w.CyclesPerTick())*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mcycles/s")
		})
	}
}
