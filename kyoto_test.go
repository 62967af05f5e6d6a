package kyoto

import (
	"runtime"
	"testing"
)

func TestNewWorldDefaults(t *testing.T) {
	w, err := NewWorld(WorldConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.VMs()) != 0 || w.Now() != 0 {
		t.Fatal("fresh world not empty")
	}
	if w.Kyoto() != nil {
		t.Fatal("kyoto must be off by default")
	}
	if w.MachineTable() == "" {
		t.Fatal("machine table empty")
	}
}

func TestAddVMRejectsMoreVCPUsThanCores(t *testing.T) {
	w, err := NewWorld(WorldConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = w.AddVM(VMSpec{Name: "huge", App: "gcc", VCPUs: 1 << 30})
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a VM with more vCPUs than the machine has cores must be rejected")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("rejecting the spec allocated %d bytes", grew)
	}
	if len(w.VMs()) != 0 {
		t.Fatal("a rejected spec must leave the world empty")
	}
}

func TestFacadeEndToEndIsolation(t *testing.T) {
	run := func(enableKyoto bool) float64 {
		w, err := NewWorld(WorldConfig{Seed: 1, EnableKyoto: enableKyoto})
		if err != nil {
			t.Fatal(err)
		}
		sen, err := w.AddVM(VMSpec{Name: "sen", App: "gcc", Pins: []int{0}, LLCCap: 250})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.AddVM(VMSpec{Name: "dis", App: "lbm", Pins: []int{1}, LLCCap: 250}); err != nil {
			t.Fatal(err)
		}
		w.RunTicks(45)
		return sen.Counters().IPC()
	}
	plain, protected := run(false), run(true)
	if protected <= plain*1.2 {
		t.Fatalf("kyoto IPC %v must clearly beat plain %v", protected, plain)
	}
}

func TestFacadeShadowMonitor(t *testing.T) {
	w, err := NewWorld(WorldConfig{Seed: 1, EnableKyoto: true, Monitor: MonitorShadowSim})
	if err != nil {
		t.Fatal(err)
	}
	dis, err := w.AddVM(VMSpec{Name: "dis", App: "lbm", Pins: []int{0}, LLCCap: 100})
	if err != nil {
		t.Fatal(err)
	}
	w.RunTicks(30)
	if dis.Punishments == 0 {
		t.Fatal("shadow-monitored disruptor must be punished")
	}
	if w.Kyoto() == nil || w.Kyoto().LastRate(dis) <= 0 {
		t.Fatal("ledger not exposed")
	}
}

func TestFacadeSchedulerKinds(t *testing.T) {
	for _, kind := range []SchedulerKind{CreditScheduler, CFSScheduler, PiscesScheduler} {
		w, err := NewWorld(WorldConfig{Seed: 1, Scheduler: kind})
		if err != nil {
			t.Fatalf("kind %d: %v", kind, err)
		}
		spec := VMSpec{Name: "v", App: "povray", Pins: []int{0}}
		if _, err := w.AddVM(spec); err != nil {
			t.Fatalf("kind %d: %v", kind, err)
		}
		w.RunTicks(5)
		if w.FindVM("v").Counters().Instructions == 0 {
			t.Fatalf("kind %d made no progress", kind)
		}
	}
	if _, err := NewWorld(WorldConfig{Scheduler: 99}); err == nil {
		t.Fatal("unknown scheduler must fail")
	}
	if _, err := NewWorld(WorldConfig{EnableKyoto: true, Monitor: 99}); err == nil {
		t.Fatal("unknown monitor must fail")
	}
}

func TestFacadeRunUntil(t *testing.T) {
	w, err := NewWorld(WorldConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	d, err := w.AddVM(VMSpec{Name: "v", App: "povray", Pins: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	ticks := w.RunUntil(func(w *World) bool {
		return d.Counters().Instructions > 500_000
	}, 100)
	if ticks == 100 {
		t.Fatal("work never completed")
	}
	if w.NowMillis() <= 0 {
		t.Fatal("clock did not advance")
	}
}

func TestProfileLookups(t *testing.T) {
	names := ProfileNames()
	if len(names) < 12 {
		t.Fatalf("expected the paper's app suite, got %d profiles", len(names))
	}
	p, err := LookupProfile("gcc")
	if err != nil || p.Name != "gcc" {
		t.Fatalf("lookup gcc: %v %v", p, err)
	}
	if _, err := LookupProfile("nope"); err == nil {
		t.Fatal("unknown profile must fail")
	}
}

func TestIndicatorHelpers(t *testing.T) {
	d := Counters{LLCMisses: 100, UnhaltedCycles: 100_000, HaltedCycles: 100_000}
	if Equation1Value(d) != 100 {
		t.Fatalf("eq1 = %v", Equation1Value(d))
	}
	if RawLLCMValue(d) != 50 {
		t.Fatalf("llcm = %v", RawLLCMValue(d))
	}
}
