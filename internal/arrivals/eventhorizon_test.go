package arrivals

// Barrier edge cases for the event-horizon engine: the replay ticks
// that force several lazy-clock interactions to land on the same tick
// (departure + rebalance epoch + pending retry), queue-side events that
// fire while every host world is hundreds of ticks behind the fleet
// clock, and the blanket contract that the fleet's worker count changes
// scheduling only — a replay whose lagging hosts are closed by
// background drainers must match the serial replay bit for bit.

import (
	"strings"
	"testing"

	"kyoto/internal/cache"
	"kyoto/internal/cluster"
)

// kyotoFleet builds an admission-controlled Kyoto fleet for the
// edge-case scenarios (4 vCPU slots per Table-1 host).
func kyotoFleet(t *testing.T, hosts, workers int) *cluster.Fleet {
	t.Helper()
	f, err := cluster.New(cluster.Config{
		Hosts:    hosts,
		Template: cluster.HostTemplate{Seed: 21, EnableKyoto: true},
		Placer:   cluster.Admission{},
		Workers:  workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestParallelDrainMatchesSerialFingerprint is the blanket equivalence
// contract of the event-horizon engine: on a sparse synthetic trace with
// the pending queue and reactive rebalancing active, a fleet whose
// lagging hosts are closed by background drainers must produce the same
// result fingerprint as one that advances every host on the calling
// goroutine.
func TestParallelDrainMatchesSerialFingerprint(t *testing.T) {
	tr := Synthesize(SynthConfig{Seed: 9, VMs: 60, Horizon: 3600, MeanLifetime: 5})
	run := func(workers int) string {
		t.Helper()
		res, err := Replay(kyotoFleet(t, 6, workers), tr, Options{
			DrainTicks:     6,
			Pending:        PendingFIFO,
			Rebalancer:     &cluster.Reactive{},
			RebalanceEvery: 9,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Fingerprint()
	}
	serial := run(1)
	// Workers 0 resolves to GOMAXPROCS; 4 forces drainers even on a
	// single-CPU runner.
	for _, workers := range []int{0, 4} {
		if got := run(workers); got != serial {
			t.Fatalf("workers %d fingerprint %s != serial %s", workers, got, serial)
		}
	}
}

// TestEpochDepartureRetrySameTick pins the replay's intra-tick ordering
// when three lazy-clock triggers coincide: at tick 18 a VM departs
// (freeing the only open slot), the rebalance epoch observes the fleet,
// and the pending retry places the queued VM — all in one step. The
// queued VM must land on exactly that tick, serial or parallel.
func TestEpochDepartureRetrySameTick(t *testing.T) {
	// Two 4-slot hosts, saturated at tick 0 by eight fillers. One filler
	// departs at tick 18 — the same tick as the second rebalance epoch
	// (RebalanceEvery 9) — and "late", queued since tick 2, takes the
	// freed slot during that tick's retry pass.
	tr := Trace{Events: []Event{
		{Submit: 0, Name: "f0", App: "gcc", LLCCap: 100},
		{Submit: 0, Name: "f1", App: "gcc", LLCCap: 100},
		{Submit: 0, Name: "f2", App: "gcc", LLCCap: 100},
		{Submit: 0, Name: "f3", App: "gcc", LLCCap: 100},
		{Submit: 0, Name: "f4", App: "lbm", LLCCap: 100},
		{Submit: 0, Name: "f5", App: "lbm", LLCCap: 100},
		{Submit: 0, Name: "f6", App: "lbm", LLCCap: 100},
		{Submit: 0, Lifetime: 18, Name: "f7", App: "lbm", LLCCap: 100},
		{Submit: 2, Lifetime: 8, Name: "late", App: "omnetpp", LLCCap: 100},
	}}
	opt := func() Options {
		return Options{
			DrainTicks:     4,
			Pending:        PendingFIFO,
			Rebalancer:     &cluster.Reactive{},
			RebalanceEvery: 9,
		}
	}
	res, err := Replay(kyotoFleet(t, 2, 1), tr, opt())
	if err != nil {
		t.Fatal(err)
	}
	if res.Placed != 9 || res.Rejected != 0 {
		t.Fatalf("placed %d rejected %d, want 9/0", res.Placed, res.Rejected)
	}
	if !res.RebalanceUsed {
		t.Fatal("RebalanceUsed must be set with a rebalancer active")
	}
	late := recordByName(t, res, "late")
	if !late.Queued || late.PlacedTick != 18 || late.WaitTicks != 16 {
		t.Fatalf("late: %+v, want placed on the epoch/departure tick 18 after waiting 16", late)
	}
	par, err := Replay(kyotoFleet(t, 2, 0), tr, opt())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := par.Fingerprint(), res.Fingerprint(); got != want {
		t.Fatalf("parallel fingerprint %s != serial %s", got, want)
	}
}

// TestReplayerStepMatchesReplay drives a replay one moment at a time
// through the Replayer's public stepping API — the boundary CaptureState
// snapshots at — and requires the stepped run to reach the same
// fingerprint as the one-shot Replay.
func TestReplayerStepMatchesReplay(t *testing.T) {
	tr := Synthesize(SynthConfig{Seed: 11, VMs: 20, Horizon: 200, MeanLifetime: 12})
	opt := Options{DrainTicks: 4, Pending: PendingFIFO}
	ref, err := Replay(kyotoFleet(t, 2, 1), tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewReplayer(kyotoFleet(t, 2, 1), tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	if p.Done() {
		t.Fatal("fresh replayer reports done")
	}
	if p.Now() != 0 {
		t.Fatalf("fresh replayer clock %d, want 0", p.Now())
	}
	steps := 0
	for {
		more, err := p.Step()
		if err != nil {
			t.Fatal(err)
		}
		steps++
		if !more {
			break
		}
	}
	if steps < 2 {
		t.Fatalf("replay collapsed into %d step(s) — the moment loop never ran", steps)
	}
	if !p.Done() {
		t.Fatal("replayer not done after Step returned no more work")
	}
	res, err := p.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Fingerprint(), ref.Fingerprint(); got != want {
		t.Fatalf("stepped fingerprint %s != one-shot %s", got, want)
	}
	if _, err := p.Step(); err == nil {
		t.Fatal("Step after Finish must error")
	}
}

// TestDeadlineFiresAcrossHostGap drops and then places VMs while the
// host's world is far behind the fleet clock: after the tick-0
// saturation nothing seeks the host for 560 ticks, so the deadline drop
// at tick 505 is decided purely from the booking ledger and the
// eventual placements cross a multi-hundred-tick fast-forward gap. A
// one-host fleet runs no background drainers, so there is no parallel
// schedule to compare against; the assertions are on the outcome alone
// (TestDeadlineFiresAcrossTwoHostGap compares schedules).
func TestDeadlineFiresAcrossHostGap(t *testing.T) {
	tr := Trace{Events: []Event{
		{Submit: 0, Lifetime: 560, Name: "a", App: "gcc", LLCCap: 100},
		{Submit: 0, Name: "b", App: "gcc", LLCCap: 100},
		{Submit: 0, Name: "c", App: "gcc", LLCCap: 100},
		{Submit: 0, Name: "d", App: "gcc", LLCCap: 100},
		// Queued at tick 5, deadline 505 — fires long before the first
		// departure at 560 ever touches the host world.
		{Submit: 5, Lifetime: 8, Name: "impatient", App: "lbm", LLCCap: 100},
		// Arrives after the 560-tick gap and takes a's freed slot.
		{Submit: 600, Lifetime: 20, Name: "patient", App: "omnetpp", LLCCap: 100},
	}}
	res, err := Replay(oneHostFleet(t), tr, Options{Pending: PendingDeadline, MaxWait: 500, DrainTicks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Placed != 5 || res.Rejected != 1 {
		t.Fatalf("placed %d rejected %d, want 5/1", res.Placed, res.Rejected)
	}
	imp := recordByName(t, res, "impatient")
	if !imp.Rejected || !imp.Queued || imp.WaitTicks != 500 || imp.PlacedTick != 505 {
		t.Fatalf("impatient: %+v, want dropped at tick 505 after waiting 500", imp)
	}
	if !strings.Contains(imp.Reason, "deadline") {
		t.Fatalf("impatient reason %q, want a deadline drop", imp.Reason)
	}
	pat := recordByName(t, res, "patient")
	if pat.Rejected || pat.Queued || pat.PlacedTick != 600 || pat.HostID != 0 {
		t.Fatalf("patient: %+v, want placed immediately at tick 600", pat)
	}
}

// TestDeadlineFiresAcrossTwoHostGap is the two-host form of the gap
// scenario, which does run a background drainer: both saturated hosts
// lag the fleet clock for 560 ticks while the deadline drop at tick 505
// is decided from the ledgers, and the drainer closes those lags in
// chunks alongside the calling goroutine. The outcome must match the
// one-host assertions, and the fingerprint must be the same serially
// (Workers 1) and with drainers (Workers 0 and 4). It runs on the
// analytic tier, which keeps three 600-tick two-host replays cheap
// under -race.
func TestDeadlineFiresAcrossTwoHostGap(t *testing.T) {
	tr := Trace{Events: []Event{
		{Submit: 0, Lifetime: 560, Name: "a", App: "gcc", LLCCap: 100},
		{Submit: 0, Name: "b", App: "gcc", LLCCap: 100},
		{Submit: 0, Name: "c", App: "gcc", LLCCap: 100},
		{Submit: 0, Name: "d", App: "gcc", LLCCap: 100},
		{Submit: 0, Name: "e", App: "lbm", LLCCap: 100},
		{Submit: 0, Name: "f", App: "lbm", LLCCap: 100},
		{Submit: 0, Name: "g", App: "omnetpp", LLCCap: 100},
		{Submit: 0, Name: "h", App: "omnetpp", LLCCap: 100},
		{Submit: 5, Lifetime: 8, Name: "impatient", App: "lbm", LLCCap: 100},
		{Submit: 600, Lifetime: 20, Name: "patient", App: "omnetpp", LLCCap: 100},
	}}
	run := func(workers int) Result {
		t.Helper()
		f, err := cluster.New(cluster.Config{
			Hosts:    2,
			Template: cluster.HostTemplate{Seed: 21, EnableKyoto: true, Fidelity: cache.FidelityAnalytic},
			Placer:   cluster.Admission{},
			Workers:  workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Replay(f, tr, Options{Pending: PendingDeadline, MaxWait: 500, DrainTicks: 4})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := run(1)
	if res.Placed != 9 || res.Rejected != 1 {
		t.Fatalf("placed %d rejected %d, want 9/1", res.Placed, res.Rejected)
	}
	imp := recordByName(t, res, "impatient")
	if !imp.Rejected || !imp.Queued || imp.WaitTicks != 500 || imp.PlacedTick != 505 {
		t.Fatalf("impatient: %+v, want dropped at tick 505 after waiting 500", imp)
	}
	a, pat := recordByName(t, res, "a"), recordByName(t, res, "patient")
	if pat.Rejected || pat.Queued || pat.PlacedTick != 600 || pat.HostID != a.HostID {
		t.Fatalf("patient: %+v, want placed at tick 600 on a's host %d", pat, a.HostID)
	}
	serial := res.Fingerprint()
	for _, workers := range []int{0, 4} {
		if got := run(workers).Fingerprint(); got != serial {
			t.Fatalf("workers %d fingerprint %s != serial %s", workers, got, serial)
		}
	}
}
