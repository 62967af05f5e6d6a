package monitor

import (
	"math"
	"testing"

	"kyoto/internal/core"
	"kyoto/internal/hv"
	"kyoto/internal/machine"
	"kyoto/internal/sched"
	"kyoto/internal/vm"
)

// mkWorld builds a world with the given scheduler.
func mkWorld(t *testing.T, mcfg machine.Config, s sched.Scheduler) *hv.World {
	t.Helper()
	w, err := hv.New(hv.Config{Machine: mcfg, Seed: 1}, s)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// feederFunc adapts a function to Feeder.
type feederFunc func([]core.Measurement)

func (f feederFunc) Feed(ms []core.Measurement) { f(ms) }

func TestOracleMeasuresExactMisses(t *testing.T) {
	w := mkWorld(t, machine.TableOne(), sched.NewCredit(4))
	d := w.MustAddVM(vm.Spec{Name: "v", App: "lbm", Pins: []int{0}})
	var fed []core.Measurement
	o := NewOracle(feederFunc(func(ms []core.Measurement) { fed = append(fed, ms...) }), core.Equation1)
	w.AddHook(o)
	w.RunTicks(10)

	var sum float64
	for _, m := range fed {
		if m.VM != d {
			t.Fatal("measurement for unknown VM")
		}
		sum += m.Misses
	}
	if got := float64(d.Counters().LLCMisses); math.Abs(got-sum) > 0.5 {
		t.Fatalf("oracle fed %v misses, counters say %v", sum, got)
	}
	if o.LastRate[d] <= 0 {
		t.Fatal("lbm must show a positive pollution rate")
	}
}

func TestOracleNilFeeder(t *testing.T) {
	w := mkWorld(t, machine.TableOne(), sched.NewCredit(4))
	w.MustAddVM(vm.Spec{Name: "v", App: "povray", Pins: []int{0}})
	o := NewOracle(nil, core.Equation1)
	w.AddHook(o)
	w.RunTicks(3) // must not panic
}

func TestOracleWithKyotoEnforces(t *testing.T) {
	k := core.New(sched.NewCredit(4))
	w := mkWorld(t, machine.TableOne(), k)
	sen := w.MustAddVM(vm.Spec{Name: "sen", App: "gcc", Pins: []int{0}, LLCCap: 250})
	dis := w.MustAddVM(vm.Spec{Name: "dis", App: "lbm", Pins: []int{1}, LLCCap: 250})
	w.AddHook(NewOracle(k, core.Equation1))
	w.RunTicks(60)
	if dis.Punishments == 0 {
		t.Fatal("over-permit disruptor must be punished")
	}
	if sen.Punishments > dis.Punishments/4 {
		t.Fatalf("sensitive VM punished too much: %d vs %d", sen.Punishments, dis.Punishments)
	}
	// Enforcement means the disruptor lost CPU time.
	if dis.Counters().WallCycles() >= sen.Counters().WallCycles() {
		t.Fatal("punished VM must consume less CPU than the compliant one")
	}
}

func TestShadowSimTracksOracle(t *testing.T) {
	mcfg := machine.TableOne()
	w := mkWorld(t, mcfg, sched.NewCredit(4))
	d := w.MustAddVM(vm.Spec{Name: "v", App: "lbm", Pins: []int{0}})
	sh := NewShadowSim(nil, mcfg, 0)
	or := NewOracle(nil, core.Equation1)
	w.AddHook(sh)
	w.AddHook(or)
	w.RunTicks(30)
	shadow, oracle := sh.LastRate[d], or.LastRate[d]
	if oracle <= 0 || shadow <= 0 {
		t.Fatalf("rates: shadow %v oracle %v", shadow, oracle)
	}
	if rel := math.Abs(shadow-oracle) / oracle; rel > 0.25 {
		t.Fatalf("shadow estimate off by %.0f%% (shadow %v, oracle %v)", rel*100, shadow, oracle)
	}
}

func TestShadowSimSmallRingStillEstimates(t *testing.T) {
	mcfg := machine.TableOne()
	w := mkWorld(t, mcfg, sched.NewCredit(4))
	d := w.MustAddVM(vm.Spec{Name: "v", App: "lbm", Pins: []int{0}})
	sh := NewShadowSim(nil, mcfg, 512) // far smaller than per-tick access counts
	w.AddHook(sh)
	w.RunTicks(20)
	if sh.LastRate[d] <= 0 {
		t.Fatal("overflowed ring must still extrapolate a rate")
	}
}

func TestDedicationCleanMeasurement(t *testing.T) {
	mcfg := machine.R420()
	// Solo reference.
	solo := mkWorld(t, mcfg, sched.NewCredit(8))
	sd := solo.MustAddVM(vm.Spec{Name: "v", App: "lbm", Pins: []int{0}})
	solo.RunTicks(30)
	ref := core.Equation1Value(sd.Counters())

	// Contended, with dedication windows.
	w := mkWorld(t, mcfg, sched.NewCredit(8))
	target := w.MustAddVM(vm.Spec{Name: "lbm", App: "lbm", Pins: []int{0}})
	w.MustAddVM(vm.Spec{Name: "noisy", App: "mcf", Pins: []int{1}})
	ded := NewDedication(nil, core.Equation1)
	w.AddHook(ded)
	w.RunTicks(60)

	got := ded.LastRate[target]
	if got <= 0 {
		t.Fatal("no dedicated measurement produced")
	}
	if rel := math.Abs(got-ref) / ref; rel > 0.1 {
		t.Fatalf("dedicated rate %v deviates %.0f%% from solo %v", got, rel*100, ref)
	}
	if ded.Migrations == 0 {
		t.Fatal("dedication must have migrated co-runners")
	}
}

func TestDedicationRestoresPins(t *testing.T) {
	mcfg := machine.R420()
	w := mkWorld(t, mcfg, sched.NewCredit(8))
	a := w.MustAddVM(vm.Spec{Name: "a", App: "lbm", Pins: []int{0}})
	b := w.MustAddVM(vm.Spec{Name: "b", App: "mcf", Pins: []int{1}})
	ded := NewDedication(nil, core.Equation1)
	ded.WindowTicks = 2
	w.AddHook(ded)
	// Run full rotations: after any complete window, pins are restored.
	w.RunTicks(2 * (2 + 1 + 2))
	// Let the current window (if any) finish.
	for i := 0; i < 10 && dedMeasuring(ded); i++ {
		w.RunTicks(1)
	}
	if a.VCPUs[0].Pin != 0 || b.VCPUs[0].Pin != 1 {
		t.Fatalf("pins not restored: a=%d b=%d", a.VCPUs[0].Pin, b.VCPUs[0].Pin)
	}
}

// dedMeasuring reports whether a window is in flight (via String to avoid
// exporting internals).
func dedMeasuring(d *Dedication) bool {
	return d.String() != "" && !contains(d.String(), "measuring=idle")
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(s) > 0 && indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestDedicationSkipHeuristics(t *testing.T) {
	mcfg := machine.R420()
	w := mkWorld(t, mcfg, sched.NewCredit(8))
	w.MustAddVM(vm.Spec{Name: "quiet", App: "hmmer", Pins: []int{0}})
	w.MustAddVM(vm.Spec{Name: "noisy", App: "lbm", Pins: []int{1}})
	ded := NewDedication(nil, core.Equation1)
	ded.LowThreshold = 50
	w.AddHook(ded)
	w.RunTicks(40)
	if ded.SkippedWindows == 0 {
		t.Fatal("hmmer windows must be served in place (heuristic 1)")
	}
}

func TestDedicationAllQuietSkipsEveryone(t *testing.T) {
	mcfg := machine.R420()
	w := mkWorld(t, mcfg, sched.NewCredit(8))
	w.MustAddVM(vm.Spec{Name: "q1", App: "hmmer", Pins: []int{0}})
	w.MustAddVM(vm.Spec{Name: "q2", App: "povray", Pins: []int{1}})
	ded := NewDedication(nil, core.Equation1)
	ded.LowThreshold = 50
	w.AddHook(ded)
	w.RunTicks(40)
	if ded.Migrations != 0 {
		t.Fatalf("all-quiet host performed %d migrations", ded.Migrations)
	}
}

func TestDedicationPanicsOnSingleSocket(t *testing.T) {
	w := mkWorld(t, machine.TableOne(), sched.NewCredit(4))
	w.MustAddVM(vm.Spec{Name: "v", App: "lbm", Pins: []int{0}})
	w.AddHook(NewDedication(nil, core.Equation1))
	defer func() {
		if recover() == nil {
			t.Fatal("single-socket dedication must panic")
		}
	}()
	w.RunTicks(1)
}
