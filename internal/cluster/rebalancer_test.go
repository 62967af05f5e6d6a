package cluster

import (
	"testing"

	"kyoto/internal/machine"
	"kyoto/internal/vm"
)

// rebalanceScenario builds a 3-host fleet with a polluter (lbm) and a
// quiet tenant (gcc) on host 0, a quiet tenant on host 1, and host 2
// empty, runs it, and returns the fleet plus the first epoch's view.
func rebalanceScenario(t *testing.T, overrides map[int]HostOverride) (*Fleet, RebalanceView) {
	t.Helper()
	f, err := New(Config{
		Hosts:     3,
		Template:  HostTemplate{Seed: 5},
		Overrides: overrides,
		Placer:    FirstFit{},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []vm.Spec{
		{Name: "noisy", App: "lbm", LLCCap: 250},
		{Name: "quiet0", App: "gcc", LLCCap: 250},
	} {
		if _, err := f.Place(Request{Spec: spec}); err != nil {
			t.Fatal(err)
		}
	}
	// Occupy host 0 fully so first-fit sends the next tenant to host 1.
	for _, name := range []string{"f0", "f1"} {
		if _, err := f.Place(Request{Spec: vm.Spec{Name: name, App: "bzip", LLCCap: 10}}); err != nil {
			t.Fatal(err)
		}
	}
	if p, err := f.Place(Request{Spec: vm.Spec{Name: "quiet1", App: "gcc", LLCCap: 250}}); err != nil || p.HostID != 1 {
		t.Fatalf("quiet1 on host %d (err %v), want 1", p.HostID, err)
	}
	f.RunTicks(24)
	mon := NewFleetMonitor()
	return f, mon.Observe(f)
}

func TestFleetMonitorViewIsOrderedAndSummed(t *testing.T) {
	_, view := rebalanceScenario(t, nil)
	if len(view.VMs) != 5 {
		t.Fatalf("view has %d VMs, want 5", len(view.VMs))
	}
	names := []string{"noisy", "quiet0", "f0", "f1", "quiet1"}
	for i, want := range names {
		if view.VMs[i].Name != want {
			t.Fatalf("view order: got %q at %d, want %q", view.VMs[i].Name, i, want)
		}
	}
	if len(view.HostRates) != 3 || view.HostRates[2] != 0 {
		t.Fatalf("host rates %v", view.HostRates)
	}
	if view.HostRates[0] <= view.HostRates[1] {
		t.Fatalf("lbm host must dominate: %v", view.HostRates)
	}
}

func TestReactivePlanEvictsWorstPolluterToCoolestHost(t *testing.T) {
	f, view := rebalanceScenario(t, nil)
	plan := (&Reactive{}).Plan(f.Hosts(), view)
	if len(plan) != 1 {
		t.Fatalf("plan %v, want one migration", plan)
	}
	m := plan[0]
	if m.VMName != "noisy" || m.SrcHost != 0 || m.DstHost != 2 {
		t.Fatalf("plan %+v, want noisy host0->host2 (empty host is coolest)", m)
	}
}

func TestReactiveThresholdSuppressesCheapMigrations(t *testing.T) {
	f, view := rebalanceScenario(t, nil)
	plan := (&Reactive{Threshold: 1e12}).Plan(f.Hosts(), view)
	if len(plan) != 0 {
		t.Fatalf("an unreachable threshold still planned %v", plan)
	}
}

func TestReactivePlanSkipsWhenNoFeasibleDestination(t *testing.T) {
	f, view := rebalanceScenario(t, nil)
	// Fill every other host's vCPU slots so nothing fits anywhere.
	for _, name := range []string{"g0", "g1", "g2", "h0", "h1", "h2", "h3"} {
		if _, err := f.Place(Request{Spec: vm.Spec{Name: name, App: "bzip", LLCCap: 10}}); err != nil {
			t.Fatal(err)
		}
	}
	if f.Host(1).FreeCPUs() != 0 || f.Host(2).FreeCPUs() != 0 {
		t.Fatalf("hosts not full: %d/%d free", f.Host(1).FreeCPUs(), f.Host(2).FreeCPUs())
	}
	if plan := (&Reactive{}).Plan(f.Hosts(), view); len(plan) != 0 {
		t.Fatalf("full fleet still planned %v", plan)
	}
}

func TestTopologyAwarePrefersBigLLCHost(t *testing.T) {
	big := machine.TableOne()
	big.LLC.SizeBytes *= 2
	f, view := rebalanceScenario(t, map[int]HostOverride{
		1: {Machine: big},
	})
	// Reactive would choose empty host 2; topology-aware must prefer the
	// big-LLC host 1 even though a quiet tenant already lives there.
	plan := (&TopologyAware{}).Plan(f.Hosts(), view)
	if len(plan) != 1 || plan[0].VMName != "noisy" || plan[0].DstHost != 1 {
		t.Fatalf("plan %+v, want noisy -> big-LLC host 1", plan)
	}
	if reactive := (&Reactive{}).Plan(f.Hosts(), view); len(reactive) != 1 || reactive[0].DstHost != 2 {
		t.Fatalf("reactive control arm chose %+v, want host 2", reactive)
	}
}

func TestTopologyAwareFallsBackToCoolestHost(t *testing.T) {
	f, view := rebalanceScenario(t, nil) // homogeneous: no bigger LLC exists
	plan := (&TopologyAware{}).Plan(f.Hosts(), view)
	if len(plan) != 1 || plan[0].DstHost != 2 {
		t.Fatalf("plan %+v, want reactive-style fallback to host 2", plan)
	}
}

// pingPongView builds the epoch view after "noisy" landed on dst: dst is
// now the hottest host (noisy's rate dominates), src is cooler, so a
// memoryless reactive policy would immediately bounce noisy back.
func pingPongView(noisyHost, otherHost int, hosts int) RebalanceView {
	view := RebalanceView{HostRates: make([]float64, hosts)}
	view.VMs = []VMLoad{
		{Name: "noisy", App: "lbm", HostID: noisyHost, Rate: 5000},
		{Name: "quiet", App: "gcc", HostID: otherHost, Rate: 50},
	}
	view.HostRates[noisyHost] = 5000
	view.HostRates[otherHost] = 50
	return view
}

func TestReactiveCooldownPreventsPingPong(t *testing.T) {
	f, view := rebalanceScenario(t, nil)
	r := &Reactive{}
	plan := r.Plan(f.Hosts(), view)
	if len(plan) != 1 || plan[0].VMName != "noisy" {
		t.Fatalf("epoch 1 plan %+v, want noisy migrated", plan)
	}
	dst, src := plan[0].DstHost, plan[0].SrcHost
	// Epochs 2 and 3: noisy's new host is now the hottest, and without
	// hysteresis the policy would plan noisy straight back — the
	// ping-pong. The cooldown must keep the VM where it is.
	for epoch := 2; epoch <= 1+DefaultMigrationCooldown; epoch++ {
		bounce := pingPongView(dst, src, len(f.Hosts()))
		if plan := r.Plan(f.Hosts(), bounce); len(plan) != 0 {
			t.Fatalf("epoch %d bounced a cooling-down VM: %+v", epoch, plan)
		}
	}
	// Once the cooldown expires the VM is a normal candidate again.
	if plan := r.Plan(f.Hosts(), pingPongView(dst, src, len(f.Hosts()))); len(plan) != 1 || plan[0].VMName != "noisy" {
		t.Fatalf("post-cooldown plan %+v, want noisy eligible again", plan)
	}

	// A memoryless control arm (cooldown disabled) does bounce — the
	// behaviour the hysteresis exists to kill.
	loose := &Reactive{CooldownEpochs: -1}
	if plan := loose.Plan(f.Hosts(), view); len(plan) != 1 {
		t.Fatalf("control arm epoch 1: %+v", plan)
	}
	if plan := loose.Plan(f.Hosts(), pingPongView(dst, src, len(f.Hosts()))); len(plan) != 1 || plan[0].VMName != "noisy" {
		t.Fatalf("control arm did not bounce (%+v) — the scenario no longer exhibits ping-pong and the test is vacuous", plan)
	}
}

func TestCooldownSkipsToNextWorstEligiblePolluter(t *testing.T) {
	f, view := rebalanceScenario(t, nil)
	r := &Reactive{}
	if plan := r.Plan(f.Hosts(), view); len(plan) != 1 || plan[0].VMName != "noisy" {
		t.Fatal("setup: first plan must move noisy")
	}
	// Next epoch the old host is still hottest because a second polluter
	// lives there: the plan must pick it, not the cooling-down noisy.
	view2 := RebalanceView{HostRates: make([]float64, len(f.Hosts()))}
	view2.VMs = []VMLoad{
		{Name: "noisy", App: "lbm", HostID: 2, Rate: 9000},
		{Name: "noisy2", App: "lbm", HostID: 2, Rate: 4000},
		{Name: "quiet", App: "gcc", HostID: 0, Rate: 10},
	}
	view2.HostRates[2] = 13000
	view2.HostRates[0] = 10
	plan := r.Plan(f.Hosts(), view2)
	if len(plan) != 1 || plan[0].VMName != "noisy2" {
		t.Fatalf("plan %+v, want the eligible noisy2 while noisy cools down", plan)
	}
}

func TestRebalancerByNameReturnsFreshInstances(t *testing.T) {
	a, err := RebalancerByName("reactive")
	if err != nil {
		t.Fatal(err)
	}
	b, err := RebalancerByName("reactive")
	if err != nil {
		t.Fatal(err)
	}
	if a.(*Reactive) == b.(*Reactive) {
		t.Fatal("RebalancerByName must not share cooldown state between replays")
	}
}

func TestRebalancerByName(t *testing.T) {
	for _, name := range []string{"", "none"} {
		rb, err := RebalancerByName(name)
		if err != nil || rb != nil {
			t.Fatalf("%q: rb %v err %v, want nil/nil", name, rb, err)
		}
	}
	for name, want := range map[string]string{"reactive": "reactive", "topo": "topo", "signature": "signature"} {
		rb, err := RebalancerByName(name)
		if err != nil || rb.Name() != want {
			t.Fatalf("%q: %v / %v", name, rb, err)
		}
	}
	// One spelling per policy: the retired "topology" alias must fail.
	for _, name := range []string{"bogus", "topology"} {
		if _, err := RebalancerByName(name); err == nil {
			t.Fatalf("rebalancer name %q must fail", name)
		}
	}
	for _, name := range RebalancerNames() {
		if rb, err := RebalancerByName(name); err != nil {
			t.Fatalf("advertised name %q does not parse: %v / %v", name, rb, err)
		}
	}
}
