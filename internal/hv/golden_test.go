package hv_test

// Golden determinism guard for the simulation hot path.
//
// Each scenario below runs a fixed number of ticks and folds every vCPU's
// full PMC block into one 64-bit fingerprint (pmc.Counters.Fold). The
// fingerprints are pinned in testdata/golden.json; any change to the
// workload -> cpu -> cache -> hv pipeline that alters a single counter by
// one changes the fingerprint and fails this test. Performance refactors
// of the hot path must keep these values bit-identical.
//
// Regenerate (only when a semantic change is intended and understood):
//
//	go test ./internal/hv -run TestGoldenFingerprints -update
import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"kyoto/internal/core"
	"kyoto/internal/hv"
	"kyoto/internal/machine"
	"kyoto/internal/monitor"
	"kyoto/internal/pmc"
	"kyoto/internal/sched"
	"kyoto/internal/vm"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.json with observed fingerprints")

// goldenTicks is long enough to cross many slice boundaries, fill the LLC,
// and (in the Kyoto scenario) trigger pollution punishments.
const goldenTicks = 60

// goldenSeed fixes all randomness in the golden scenarios.
const goldenSeed = 7

// goldenWorlds builds the three representative scenarios: an uncontended
// run, a two-VM LLC contention pair, and a fully-booked 4-VM host under
// Kyoto enforcement (admission-style bookings, oracle monitor).
func goldenWorlds(t testing.TB) map[string]*hv.World {
	t.Helper()
	mk := func(s sched.Scheduler, hooks []hv.TickHook, specs ...vm.Spec) *hv.World {
		w, err := hv.New(hv.Config{Machine: machine.TableOne(), Seed: goldenSeed}, s)
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

// fingerprint folds every vCPU's counters, in vCPU-id order, into one hash.
func fingerprint(w *hv.World) string {
	h := pmc.FoldSeed
	for _, v := range w.VCPUs() {
		h = v.Counters.Fold(h)
	}
	return fmt.Sprintf("%016x", h)
}

// goldenPath locates the committed fingerprint file.
func goldenPath() string { return filepath.Join("testdata", "golden.json") }

func readGolden(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(goldenPath())
	if err != nil {
		t.Fatalf("read golden file (run with -update to create): %v", err)
	}
	var m map[string]string
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("parse golden file: %v", err)
	}
	return m
}

func TestGoldenFingerprints(t *testing.T) {
	worlds := goldenWorlds(t)
	got := make(map[string]string, len(worlds))
	names := make([]string, 0, len(worlds))
	for name := range worlds {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		worlds[name].RunTicks(goldenTicks)
		got[name] = fingerprint(worlds[name])
	}

	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath()), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath(), append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", goldenPath())
		return
	}

	want := readGolden(t)
	for _, name := range names {
		if want[name] == "" {
			t.Errorf("%s: no golden fingerprint committed (run with -update)", name)
			continue
		}
		if got[name] != want[name] {
			t.Errorf("%s: fingerprint %s, want %s — the simulation is no longer bit-identical to the committed baseline",
				name, got[name], want[name])
		}
	}
}

// TestGoldenRerunStable re-runs one scenario twice in-process: determinism
// must hold independently of the committed goldens (this catches state
// leaking between worlds, e.g. through shared scratch buffers).
func TestGoldenRerunStable(t *testing.T) {
	a := goldenWorlds(t)["kyoto-admission-4vm"]
	b := goldenWorlds(t)["kyoto-admission-4vm"]
	a.RunTicks(goldenTicks)
	b.RunTicks(goldenTicks)
	if fingerprint(a) != fingerprint(b) {
		t.Fatal("identical Kyoto scenarios diverged within one process")
	}
}

// BenchmarkWorldTick measures single-world tick throughput on a fully
// loaded 4-core host — the inner loop every experiment sweep multiplies.
// The credit variant must run allocation-free in steady state.
func BenchmarkWorldTick(b *testing.B) {
	for _, bc := range []struct {
		name  string
		build func(testing.TB) *hv.World
	}{
		{"credit", func(t testing.TB) *hv.World {
			return goldenWorlds(t)["gcc-lbm-contention"]
		}},
		{"credit-4vm", func(t testing.TB) *hv.World {
			w, err := hv.New(hv.Config{Machine: machine.TableOne(), Seed: goldenSeed}, sched.NewCredit(4))
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
			return goldenWorlds(t)["kyoto-admission-4vm"]
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			w := bc.build(b)
			w.RunTicks(12) // warmup: fill caches, reach scheduler steady state
			b.ReportAllocs()
			b.ResetTimer()
			w.RunTicks(b.N)
			b.StopTimer()
			b.ReportMetric(float64(w.CyclesPerTick())*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mcycles/s")
		})
	}
}
