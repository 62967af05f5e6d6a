package mcsim

import (
	"testing"

	"kyoto/internal/machine"
	"kyoto/internal/trace"
)

func TestReplayCountsMisses(t *testing.T) {
	rep, err := NewReplayer(machine.TableOne())
	if err != nil {
		t.Fatal(err)
	}
	events := []trace.Event{
		{Addr: 0x1000, GapInstrs: 2},
		{Addr: 0x1000, GapInstrs: 2}, // same line: hit
		{Addr: 0x8000, GapInstrs: 0},
	}
	res := rep.Replay(events, uint64(len(events)))
	if res.Accesses != 3 || res.LLCMisses != 2 {
		t.Fatalf("result = %+v", res)
	}
	if res.Instructions != 3+2+2 {
		t.Fatalf("instructions = %d", res.Instructions)
	}
}

func TestReplayStatePersistsAcrossWindows(t *testing.T) {
	rep, err := NewReplayer(machine.TableOne())
	if err != nil {
		t.Fatal(err)
	}
	w1 := []trace.Event{{Addr: 0x40}}
	rep.Replay(w1, 1)
	// Same line in the next window: must hit thanks to persistent caches.
	res := rep.Replay(w1, 1)
	if res.LLCMisses != 0 {
		t.Fatalf("second window missed: %+v", res)
	}
}

func TestReplayScalesOverflowedWindows(t *testing.T) {
	rep, err := NewReplayer(machine.TableOne())
	if err != nil {
		t.Fatal(err)
	}
	// Two distinct cold lines retained, but the window saw 10 accesses.
	events := []trace.Event{{Addr: 0}, {Addr: 64 * 1024}}
	res := rep.Replay(events, 10)
	if res.Accesses != 10 {
		t.Fatalf("scaled accesses = %d", res.Accesses)
	}
	if res.LLCMisses != 10 { // 2 misses scaled by 5
		t.Fatalf("scaled misses = %d", res.LLCMisses)
	}
}

func TestReplayAppliesMLP(t *testing.T) {
	mk := func() *Replayer {
		r, err := NewReplayer(machine.TableOne())
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	serial := mk().Replay([]trace.Event{{Addr: 0x100000}}, 1)
	overlapped := mk().Replay([]trace.Event{{Addr: 0x100000, MLP: 6}}, 1)
	if overlapped.Cycles >= serial.Cycles {
		t.Fatalf("MLP must reduce cycles: %d vs %d", overlapped.Cycles, serial.Cycles)
	}
	if serial.Cycles != 180 || overlapped.Cycles != 30 {
		t.Fatalf("cycles = %d/%d, want 180/30", serial.Cycles, overlapped.Cycles)
	}
}

func TestMissRate(t *testing.T) {
	if (Result{}).MissRate() != 0 {
		t.Fatal("empty replay miss rate must be 0")
	}
	r := Result{Accesses: 4, LLCMisses: 1}
	if r.MissRate() != 0.25 {
		t.Fatalf("miss rate = %v", r.MissRate())
	}
}

func TestEmptyReplay(t *testing.T) {
	rep, err := NewReplayer(machine.TableOne())
	if err != nil {
		t.Fatal(err)
	}
	res := rep.Replay(nil, 0)
	if res != (Result{}) {
		t.Fatalf("empty replay = %+v", res)
	}
}

func TestInvalidMachineRejected(t *testing.T) {
	cfg := machine.TableOne()
	cfg.L1.Ways = 3
	if _, err := NewReplayer(cfg); err == nil {
		t.Fatal("invalid cache geometry must fail")
	}
}
