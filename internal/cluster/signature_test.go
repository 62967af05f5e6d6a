package cluster

import (
	"bytes"
	"reflect"
	"testing"

	"kyoto/internal/detect"
	"kyoto/internal/vm"
)

func TestBeginEpochResolvesKnobsAndEligibility(t *testing.T) {
	var cd migrationCooldown
	view := RebalanceView{VMs: []VMLoad{{Name: "a"}}}
	eligible := func(p evictionPlanner, name string) bool { return p.cd.eligible(name, p.cooldown) }

	p := cd.beginEpoch(view, 0, 0)
	if p.thr != DefaultRebalanceThreshold {
		t.Fatalf("zero threshold knob resolved to %v, want default %v", p.thr, DefaultRebalanceThreshold)
	}
	if !eligible(p, "a") || !eligible(p, "never-seen") {
		t.Fatal("fresh VMs must be eligible")
	}

	cd.moved("a")
	for i := 0; i < DefaultMigrationCooldown; i++ {
		if eligible(cd.beginEpoch(view, 0, 0), "a") {
			t.Fatalf("epoch %d after a move: VM must still be cooling down", i+1)
		}
	}
	if !eligible(cd.beginEpoch(view, 0, 0), "a") {
		t.Fatal("cooldown must expire after DefaultMigrationCooldown epochs")
	}

	// Custom knobs pass through: explicit threshold, negative cooldown
	// disables the hysteresis entirely.
	var loose migrationCooldown
	if p := loose.beginEpoch(view, 123.5, -1); p.thr != 123.5 {
		t.Fatalf("explicit threshold resolved to %v", p.thr)
	}
	loose.moved("a")
	if !eligible(loose.beginEpoch(view, 123.5, -1), "a") {
		t.Fatal("negative cooldown knob must disable hysteresis")
	}

	// Departed VMs are forgotten so long runs do not leak state.
	cd.moved("a")
	cd.beginEpoch(RebalanceView{}, 0, 0)
	if len(cd.lastMoved) != 0 {
		t.Fatalf("departed VM still tracked: %v", cd.lastMoved)
	}
}

// sigView fabricates one epoch's view (summing HostRates from the VM
// loads) the way pingPongView does for the reactive tests.
func sigView(hosts int, vms ...VMLoad) RebalanceView {
	view := RebalanceView{VMs: vms, HostRates: make([]float64, hosts)}
	for i := range vms {
		if vms[i].Request.Name == "" {
			vms[i].Request = Request{Spec: vm.Spec{Name: vms[i].Name, App: vms[i].App, LLCCap: 10}}
		}
		view.HostRates[vms[i].HostID] += vms[i].Rate
	}
	return view
}

// twitchy is a detector config that arms after two samples and fires on
// the first clipped deviation, so tests can place change points exactly.
var twitchy = detect.Config{Alpha: 0.2, Drift: 0.1, Threshold: 1, Warmup: 2}

// signatureScenario drives a Signature through three quiet epochs: a
// polluter (rate 5000) and a victim (rate base) on host 0, a bystander
// on host 1, host 2 empty. Returns the fleet and the epoch-4 view with
// the victim's rate stepped to next.
func signatureScenario(t *testing.T, g *Signature, base, next float64) ([]*Host, RebalanceView) {
	t.Helper()
	f, err := New(Config{Hosts: 3, Template: HostTemplate{Seed: 5}, Placer: FirstFit{}})
	if err != nil {
		t.Fatal(err)
	}
	quiet := sigView(3,
		VMLoad{Name: "polluter", App: "lbm", HostID: 0, Rate: 5000},
		VMLoad{Name: "victim", App: "gcc", HostID: 0, Rate: base},
		VMLoad{Name: "bystander", App: "bzip", HostID: 1, Rate: 50},
	)
	for epoch := 1; epoch <= 3; epoch++ {
		// The polluter's rate exceeds any threshold from epoch 1, but no
		// series has shifted yet: a change-detection policy must stay
		// quiet where Reactive would already migrate.
		if plan := g.Plan(f.Hosts(), quiet); len(plan) != 0 {
			t.Fatalf("epoch %d planned %v before any change point", epoch, plan)
		}
	}
	return f.Hosts(), sigView(3,
		VMLoad{Name: "polluter", App: "lbm", HostID: 0, Rate: 5000},
		VMLoad{Name: "victim", App: "gcc", HostID: 0, Rate: next},
		VMLoad{Name: "bystander", App: "bzip", HostID: 1, Rate: 50},
	)
}

func TestSignatureEvictsPolluterOnVictimUpShift(t *testing.T) {
	g := &Signature{Detector: twitchy}
	hosts, stepped := signatureScenario(t, g, 100, 1100)
	plan := g.Plan(hosts, stepped)
	if len(plan) != 1 {
		t.Fatalf("plan %v, want one eviction", plan)
	}
	m := plan[0]
	if m.VMName != "polluter" || m.SrcHost != 0 || m.DstHost != 2 {
		t.Fatalf("plan %+v, want the polluter evicted host0->host2 (empty host is coolest)", m)
	}
	cps := g.ChangePoints()
	if len(cps) != 1 || cps[0].VM != "victim" || cps[0].Direction != "up" || cps[0].Epoch != 4 {
		t.Fatalf("change points %+v, want one upward shift on victim at epoch 4", cps)
	}
}

func TestSignatureDownShiftLogsButDoesNotMigrate(t *testing.T) {
	g := &Signature{Detector: twitchy}
	hosts, stepped := signatureScenario(t, g, 1100, 100)
	if plan := g.Plan(hosts, stepped); len(plan) != 0 {
		t.Fatalf("a downward shift (polluter departed) must not migrate, got %v", plan)
	}
	cps := g.ChangePoints()
	if len(cps) != 1 || cps[0].Direction != "down" {
		t.Fatalf("change points %+v, want one downward shift logged", cps)
	}
}

// fixedLife is a LifetimeEstimator stub returning a constant remaining
// lifetime whatever the age.
type fixedLife float64

func (f fixedLife) ExpectedRemainingTicks(uint64) float64 { return float64(f) }

func TestSignatureAmortizationSkipsDoomedVMs(t *testing.T) {
	// The polluter books LLCCap 10 (one permit floor), so the move must
	// amortize over DefaultAmortizeEpochs epochs of EpochTicks ticks.
	need := float64(DefaultAmortizeEpochs * DefaultSignatureEpochTicks)
	g := &Signature{Detector: twitchy, Lifetimes: fixedLife(need - 1)}
	hosts, stepped := signatureScenario(t, g, 100, 1100)
	if plan := g.Plan(hosts, stepped); len(plan) != 0 {
		t.Fatalf("a VM expected to die before the move pays off was still planned: %v", plan)
	}

	g2 := &Signature{Detector: twitchy, Lifetimes: fixedLife(need)}
	hosts2, stepped2 := signatureScenario(t, g2, 100, 1100)
	if plan := g2.Plan(hosts2, stepped2); len(plan) != 1 {
		t.Fatalf("a long-lived VM must still move, got %v", plan)
	}
}

func TestSignatureBatchesShiftedHostsHottestFirst(t *testing.T) {
	mk := func(maxMoves int) (*Signature, []*Host, RebalanceView) {
		g := &Signature{Detector: twitchy, MaxMoves: maxMoves}
		f, err := New(Config{Hosts: 4, Template: HostTemplate{Seed: 5}, Placer: FirstFit{}})
		if err != nil {
			t.Fatal(err)
		}
		quiet := sigView(4,
			VMLoad{Name: "p0", App: "lbm", HostID: 0, Rate: 5000},
			VMLoad{Name: "v0", App: "gcc", HostID: 0, Rate: 100},
			VMLoad{Name: "p1", App: "lbm", HostID: 1, Rate: 3000},
			VMLoad{Name: "v1", App: "gcc", HostID: 1, Rate: 100},
		)
		for epoch := 1; epoch <= 3; epoch++ {
			if plan := g.Plan(f.Hosts(), quiet); len(plan) != 0 {
				t.Fatalf("epoch %d planned %v", epoch, plan)
			}
		}
		stepped := sigView(4,
			VMLoad{Name: "p0", App: "lbm", HostID: 0, Rate: 5000},
			VMLoad{Name: "v0", App: "gcc", HostID: 0, Rate: 1100},
			VMLoad{Name: "p1", App: "lbm", HostID: 1, Rate: 3000},
			VMLoad{Name: "v1", App: "gcc", HostID: 1, Rate: 1100},
		)
		return g, f.Hosts(), stepped
	}

	// Both hosts shift in the same epoch; the default cap moves both
	// polluters, with batch capacity accounting spreading them over the
	// two cold hosts.
	g, hosts, stepped := mk(0)
	plan := g.Plan(hosts, stepped)
	if len(plan) != 2 || plan[0].VMName != "p0" || plan[1].VMName != "p1" {
		t.Fatalf("plan %+v, want p0 (hotter host first) then p1", plan)
	}
	if plan[0].DstHost == plan[1].DstHost {
		// Both cold hosts are empty; after p0 lands on one, it is no
		// longer the coolest, so p1 must pick the other.
		t.Fatalf("batch rate accounting failed: both moves chose host %d", plan[0].DstHost)
	}

	// MaxMoves: 1 spends the single move on the hotter host.
	g1, hosts1, stepped1 := mk(1)
	if plan := g1.Plan(hosts1, stepped1); len(plan) != 1 || plan[0].VMName != "p0" {
		t.Fatalf("capped plan %+v, want only p0 from the hottest shifted host", plan)
	}
}

func TestSignatureStateRoundTripContinuesIdentically(t *testing.T) {
	// Drive one Signature to the brink of firing, capture, restore into
	// a fresh instance, then confirm both plan identical moves and
	// serialize identical state afterwards.
	a := &Signature{Detector: twitchy}
	hosts, stepped := signatureScenario(t, a, 100, 1100)

	blob, err := a.CaptureRebalanceState()
	if err != nil {
		t.Fatal(err)
	}
	b := &Signature{Detector: twitchy}
	if err := b.RestoreRebalanceState(blob); err != nil {
		t.Fatal(err)
	}

	planA := a.Plan(hosts, stepped)
	planB := b.Plan(hosts, stepped)
	if !reflect.DeepEqual(planA, planB) {
		t.Fatalf("plans diverged after restore:\n%+v\n%+v", planA, planB)
	}
	if !reflect.DeepEqual(a.ChangePoints(), b.ChangePoints()) {
		t.Fatalf("change-point logs diverged:\n%+v\n%+v", a.ChangePoints(), b.ChangePoints())
	}
	sa, err := a.CaptureRebalanceState()
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.CaptureRebalanceState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sa, sb) {
		t.Fatalf("captured states diverged:\n%s\n%s", sa, sb)
	}
}

func TestSignatureValidateRejectsBadDetectorKnobs(t *testing.T) {
	if err := (&Signature{Detector: detect.Config{Alpha: 2}}).Validate(); err == nil {
		t.Fatal("alpha 2 must fail validation")
	}
	if err := (&Signature{}).Validate(); err != nil {
		t.Fatalf("zero config must validate, got %v", err)
	}
}
