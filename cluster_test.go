package kyoto

import (
	"math"
	"reflect"
	"testing"
)

func TestNewClusterDefaults(t *testing.T) {
	c, err := NewCluster(ClusterConfig{Hosts: 2, World: WorldConfig{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if c.Hosts() != 2 {
		t.Fatalf("hosts = %d", c.Hosts())
	}
	for i := 0; i < c.Hosts(); i++ {
		if c.Host(i).MachineTable() == "" {
			t.Fatalf("host %d machine table empty", i)
		}
	}
	if _, err := NewCluster(ClusterConfig{Hosts: 0}); err == nil {
		t.Fatal("zero hosts must fail")
	}
	if _, err := NewCluster(ClusterConfig{Hosts: 1, World: WorldConfig{Scheduler: 99}}); err == nil {
		t.Fatal("unknown scheduler must fail")
	}
	if _, err := NewCluster(ClusterConfig{Hosts: 1, World: WorldConfig{Monitor: 99}}); err == nil {
		t.Fatal("unknown monitor must fail")
	}
	if _, err := NewCluster(ClusterConfig{Hosts: 1, Placer: 99}); err == nil {
		t.Fatal("unknown placer must fail")
	}
}

func TestClusterPlaceAndRun(t *testing.T) {
	c, err := NewCluster(ClusterConfig{
		Hosts:  2,
		World:  WorldConfig{Seed: 1, EnableKyoto: true},
		Placer: PlacerKyoto,
	})
	if err != nil {
		t.Fatal(err)
	}
	specs := []ClusterVMSpec{
		{VMSpec: VMSpec{Name: "sen", App: "gcc", LLCCap: 500}},
		{VMSpec: VMSpec{Name: "dis", App: "lbm", LLCCap: 500}},
		{VMSpec: VMSpec{Name: "dis2", App: "blockie", LLCCap: 500}},
		{VMSpec: VMSpec{Name: "sen2", App: "omnetpp", LLCCap: 500}},
	}
	for _, s := range specs {
		if _, err := c.Place(s); err != nil {
			t.Fatalf("placing %s: %v", s.Name, err)
		}
	}
	// Both hosts' permit budgets (1000 each) are now fully booked.
	if _, err := c.Place(ClusterVMSpec{VMSpec: VMSpec{Name: "late", App: "mcf", LLCCap: 100}}); err == nil {
		t.Fatal("admission must reject the fifth permit")
	}
	if got := len(c.Placements()); got != 4 {
		t.Fatalf("placements = %d", got)
	}
	c.RunTicks(30)
	v, host := c.FindVM("sen")
	if v == nil || host < 0 {
		t.Fatal("sen lost")
	}
	if v.Counters().Instructions == 0 {
		t.Fatal("sen made no progress")
	}
	for i := 0; i < c.Hosts(); i++ {
		if c.Host(i).Now() != 30 {
			t.Fatalf("host %d at tick %d", i, c.Host(i).Now())
		}
		if c.Host(i).Kyoto() == nil {
			t.Fatalf("host %d has no ledger", i)
		}
	}
	if v, host := c.FindVM("nope"); v != nil || host != -1 {
		t.Fatal("FindVM must miss cleanly")
	}
}

func TestNonFinitePermitRejected(t *testing.T) {
	c, err := NewCluster(ClusterConfig{
		Hosts:         1,
		World:         WorldConfig{Seed: 1, EnableKyoto: true},
		Placer:        PlacerKyoto,
		HostLLCBudget: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Place(ClusterVMSpec{VMSpec: VMSpec{Name: "nan", App: "gcc", LLCCap: math.NaN()}}); err == nil {
		t.Fatal("a NaN llc_cap permit must be rejected")
	}
	// Had the NaN permit been booked, the host's booked permits would be
	// NaN and every later permit would fit.
	admitted := 0
	for _, name := range []string{"a", "b", "c"} {
		if _, err := c.Place(ClusterVMSpec{VMSpec: VMSpec{Name: name, App: "lbm", LLCCap: 900}}); err == nil {
			admitted++
		}
	}
	if admitted != 1 {
		t.Fatalf("a 1000-permit host admitted %d 900-permit VMs, want 1", admitted)
	}

	w, err := NewWorld(WorldConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, cap := range []float64{math.NaN(), math.Inf(1)} {
		if _, err := w.AddVM(VMSpec{Name: "x", App: "gcc", LLCCap: cap}); err == nil {
			t.Fatalf("World.AddVM accepted llc_cap %v", cap)
		}
	}
}

func TestNewClusterRejectsBadCapacity(t *testing.T) {
	for name, cfg := range map[string]ClusterConfig{
		"NaN budget":               {HostLLCBudget: math.NaN()},
		"+Inf budget":              {HostLLCBudget: math.Inf(1)},
		"negative budget":          {HostLLCBudget: -100},
		"negative memory":          {HostMemoryMB: -5},
		"NaN override budget":      {HostOverrides: map[int]HostOverride{0: {LLCBudget: math.NaN()}}},
		"+Inf override budget":     {HostOverrides: map[int]HostOverride{0: {LLCBudget: math.Inf(1)}}},
		"negative override memory": {HostOverrides: map[int]HostOverride{0: {MemoryMB: -5}}},
	} {
		cfg.Hosts = 1
		cfg.World = WorldConfig{Seed: 1, EnableKyoto: true}
		cfg.Placer = PlacerKyoto
		if _, err := NewCluster(cfg); err == nil {
			t.Errorf("%s: NewCluster must fail", name)
		}
	}
}

func TestPlacerKindByName(t *testing.T) {
	want := map[string]PlacerKind{
		"first-fit": PlacerFirstFit,
		"spread":    PlacerSpread,
		"kyoto":     PlacerKyoto,
	}
	names := PlacerNames()
	if len(names) != len(want) {
		t.Fatalf("placer names = %v", names)
	}
	for _, name := range names {
		kind, err := PlacerKindByName(name)
		if err != nil || kind != want[name] {
			t.Fatalf("%s -> %v, %v", name, kind, err)
		}
	}
	if _, err := PlacerKindByName("magic"); err == nil {
		t.Fatal("unknown name must fail")
	}
}

func TestClusterPlacerKindsDiffer(t *testing.T) {
	// The same request stream lands differently under first-fit (pack)
	// and spread (balance) — the cluster-level contrast the paper draws.
	place := func(kind PlacerKind) []int {
		c, err := NewCluster(ClusterConfig{Hosts: 2, World: WorldConfig{Seed: 1}, Placer: kind})
		if err != nil {
			t.Fatal(err)
		}
		var hosts []int
		for _, app := range []string{"lbm", "blockie"} {
			p, err := c.Place(ClusterVMSpec{VMSpec: VMSpec{Name: app, App: app, LLCCap: 250}})
			if err != nil {
				t.Fatal(err)
			}
			hosts = append(hosts, p.HostID)
		}
		return hosts
	}
	ff := place(PlacerFirstFit)
	sp := place(PlacerSpread)
	if ff[0] != 0 || ff[1] != 0 {
		t.Fatalf("first-fit must pack: %v", ff)
	}
	if sp[0] != 0 || sp[1] != 1 {
		t.Fatalf("spread must separate the polluters: %v", sp)
	}
}

// TestClusterHonorsIndicator: every host's monitor measures with the
// template's indicator. The two indicators give different rate traces
// on a standalone World, so a cluster whose traces match for both
// dropped WorldConfig.Indicator somewhere.
func TestClusterHonorsIndicator(t *testing.T) {
	specs := []VMSpec{
		{Name: "sen", App: "gcc", Pins: []int{0}, LLCCap: 250},
		{Name: "dis", App: "lbm", Pins: []int{1}, LLCCap: 250},
	}
	// rates runs 12 ticks one at a time and records the ledger's
	// measured rate for every VM after each.
	rates := func(run func(), k func() *Kyoto, vms []*VM) []float64 {
		var out []float64
		for tick := 0; tick < 12; tick++ {
			run()
			for _, v := range vms {
				out = append(out, k().LastRate(v))
			}
		}
		return out
	}
	world := func(ind Indicator) []float64 {
		w, err := NewWorld(WorldConfig{Seed: 5, EnableKyoto: true, Indicator: ind})
		if err != nil {
			t.Fatal(err)
		}
		var vms []*VM
		for _, s := range specs {
			v, err := w.AddVM(s)
			if err != nil {
				t.Fatal(err)
			}
			vms = append(vms, v)
		}
		return rates(func() { w.RunTicks(1) }, w.Kyoto, vms)
	}
	fleet := func(ind Indicator) []float64 {
		c, err := NewCluster(ClusterConfig{Hosts: 1, World: WorldConfig{Seed: 5, EnableKyoto: true, Indicator: ind}})
		if err != nil {
			t.Fatal(err)
		}
		var vms []*VM
		for _, s := range specs {
			p, err := c.Place(ClusterVMSpec{VMSpec: s})
			if err != nil {
				t.Fatal(err)
			}
			vms = append(vms, p.VM)
		}
		return rates(func() { c.RunTicks(1) }, c.Host(0).Kyoto, vms)
	}
	if reflect.DeepEqual(world(Equation1), world(RawLLCM)) {
		t.Fatal("Equation 1 and raw LLCM give identical rate traces on a World; the test cannot tell them apart")
	}
	if reflect.DeepEqual(fleet(Equation1), fleet(RawLLCM)) {
		t.Fatal("the cluster's rate traces ignore WorldConfig.Indicator")
	}
	if !reflect.DeepEqual(fleet(0), fleet(Equation1)) {
		t.Fatal("a zero indicator must measure with Equation 1")
	}
}
