package hv

// FastForward must be bit-identical to RunTicks in every situation: the
// idle elision on empty worlds (exact and analytic, plain and
// Kyoto-decorated with an oracle feeding it), the fallback when VMs are
// live, and the fallback when a non-invariant hook disqualifies the
// world. Identity is checked on the complete serialized world state, so
// a drifting epoch counter, idle-cycle tally or residual cache slot
// cannot hide.

import (
	"encoding/json"
	"testing"

	"kyoto/internal/cache"
	"kyoto/internal/core"
	"kyoto/internal/machine"
	"kyoto/internal/sched"
	"kyoto/internal/vm"
)

// ffWorld builds one world of the given fidelity; kyoto wraps the credit
// scheduler with enforcement (no monitor — feed is the caller's choice).
func ffWorld(t *testing.T, fid cache.Fidelity, kyoto bool) *World {
	t.Helper()
	mcfg := machine.TableOne()
	cores := mcfg.Sockets * mcfg.CoresPerSocket
	var s sched.Scheduler = sched.NewCredit(cores)
	if kyoto {
		s = core.New(s)
	}
	w, err := New(Config{Machine: mcfg, Seed: 7, Fidelity: fid}, s)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// stateJSON serializes the world's complete mutable state.
func stateJSON(t *testing.T, w *World) string {
	t.Helper()
	st, err := w.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// churnThenEmpty drives the world through a short busy phase and removes
// every VM again, leaving the residual state (recycled owner tags,
// advanced epochs, idle cycles) a long-idle fleet host would carry.
func churnThenEmpty(t *testing.T, w *World) {
	t.Helper()
	w.MustAddVM(vm.Spec{Name: "a", App: "gcc"})
	w.MustAddVM(vm.Spec{Name: "b", App: "povray"})
	w.RunTicks(97)
	for _, name := range []string{"a", "b"} {
		if err := w.RemoveVM(name); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFastForwardIdentity(t *testing.T) {
	spans := []int{1, 5, int(machine.TicksPerSlice), 3*int(machine.TicksPerSlice) + 7, 1000}
	for _, tc := range []struct {
		name   string
		fid    cache.Fidelity
		kyoto  bool
		churn  bool
		expect bool // elision expected (Now must jump without tick work)
	}{
		{"exact-fresh", cache.FidelityExact, false, false, true},
		{"exact-churned", cache.FidelityExact, false, true, true},
		{"analytic-fresh", cache.FidelityAnalytic, false, false, true},
		{"analytic-churned", cache.FidelityAnalytic, true, true, true},
		{"kyoto-churned", cache.FidelityExact, true, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, n := range spans {
				ticked := ffWorld(t, tc.fid, tc.kyoto)
				jumped := ffWorld(t, tc.fid, tc.kyoto)
				if tc.churn {
					churnThenEmpty(t, ticked)
					churnThenEmpty(t, jumped)
				}
				if got := jumped.idleEligible(); got != tc.expect {
					t.Fatalf("idleEligible = %v, want %v", got, tc.expect)
				}
				ticked.RunTicks(n)
				jumped.FastForward(n)
				if a, b := stateJSON(t, ticked), stateJSON(t, jumped); a != b {
					t.Fatalf("n=%d: FastForward state diverged from RunTicks\nticked: %s\njumped: %s", n, a, b)
				}
			}
		})
	}
}

// TestFastForwardBusyFallback: with VMs live, FastForward must tick.
func TestFastForwardBusyFallback(t *testing.T) {
	ticked := ffWorld(t, cache.FidelityAnalytic, false)
	jumped := ffWorld(t, cache.FidelityAnalytic, false)
	ticked.MustAddVM(vm.Spec{Name: "v", App: "gcc"})
	jumped.MustAddVM(vm.Spec{Name: "v", App: "gcc"})
	if jumped.idleEligible() {
		t.Fatal("world with a live VM must not be idle-eligible")
	}
	ticked.RunTicks(50)
	jumped.FastForward(50)
	if a, b := stateJSON(t, ticked), stateJSON(t, jumped); a != b {
		t.Fatalf("busy fallback diverged:\n%s\n%s", a, b)
	}
	if c := jumped.FindVM("v").Counters(); c.Instructions == 0 {
		t.Fatal("busy fallback did not execute")
	}
}

// TestFastForwardHookGate: a tick hook without the IdleTickInvariant
// marker (a recorder sampling every tick) disqualifies the world, and
// FastForward falls back to real ticks so the hook keeps firing.
func TestFastForwardHookGate(t *testing.T) {
	w := ffWorld(t, cache.FidelityExact, false)
	fired := 0
	w.AddHook(TickHookFunc(func(*World) { fired++ }))
	if w.idleEligible() {
		t.Fatal("unmarked hook must clear idle eligibility")
	}
	w.FastForward(25)
	if fired != 25 {
		t.Fatalf("hook fired %d times, want 25 (elision would have skipped it)", fired)
	}
	if w.Now() != 25 {
		t.Fatalf("Now = %d, want 25", w.Now())
	}
}
