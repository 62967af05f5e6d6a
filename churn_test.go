package kyoto_test

import (
	"testing"

	"kyoto"
)

// TestPublicLifecycleAPI drives the churn surface end to end: synthesize,
// replay on a heterogeneous fleet, remove through the cluster facade.
func TestPublicLifecycleAPI(t *testing.T) {
	tr := kyoto.SynthesizeTrace(kyoto.ChurnConfig{Seed: 4, VMs: 8, Horizon: 30, MeanLifetime: 10})
	if len(tr.Events) != 8 {
		t.Fatalf("synthesized %d events", len(tr.Events))
	}
	cfg := kyoto.ClusterConfig{
		Hosts:  2,
		World:  kyoto.WorldConfig{Seed: 4, EnableKyoto: true},
		Placer: kyoto.PlacerKyoto,
		HostOverrides: map[int]kyoto.HostOverride{
			1: {MemoryMB: 1024},
		},
	}
	res, err := kyoto.ReplayTrace(cfg, tr, kyoto.ReplayOptions{DrainTicks: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Placed == 0 || res.EndTick == 0 {
		t.Fatalf("replay did nothing: %+v", res)
	}
	again, err := kyoto.ReplayTrace(cfg, tr, kyoto.ReplayOptions{DrainTicks: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fingerprint() != again.Fingerprint() {
		t.Fatal("public replay not deterministic")
	}
}

func TestClusterRemove(t *testing.T) {
	c, err := kyoto.NewCluster(kyoto.ClusterConfig{
		Hosts: 1,
		World: kyoto.WorldConfig{Seed: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Place(kyoto.ClusterVMSpec{VMSpec: kyoto.VMSpec{Name: "v", App: "gcc"}}); err != nil {
		t.Fatal(err)
	}
	c.RunTicks(6)
	v, err := c.Remove("v")
	if err != nil {
		t.Fatal(err)
	}
	if v.Counters().Instructions == 0 {
		t.Fatal("removed VM lost its lifetime counters")
	}
	if _, err := c.Remove("v"); err == nil {
		t.Fatal("double remove must error")
	}
	if got, _ := c.FindVM("v"); got != nil {
		t.Fatal("removed VM still findable")
	}
}

// TestHandBuiltFleetSweepResultTable: a FleetSweepResult assembled by
// hand (no sweeper stamped a preset on it) renders as the trace preset's
// table, identical to the sweep result it was copied from.
func TestHandBuiltFleetSweepResultTable(t *testing.T) {
	tr := kyoto.SynthesizeTrace(kyoto.ChurnConfig{Seed: 4, VMs: 4, Horizon: 30, MeanLifetime: 10})
	res, err := kyoto.SweepTrace(tr, kyoto.FleetSweepConfig{Hosts: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	hand := kyoto.FleetSweepResult{Hosts: 2, Rows: res.Rows}
	if got, want := hand.Table().String(), res.Table().String(); got != want {
		t.Fatalf("hand-built table:\n%s\nwant the trace sweep's:\n%s", got, want)
	}
	if empty := (kyoto.FleetSweepResult{Hosts: 2}).Table(); len(empty.Rows) != 0 || len(empty.Columns) == 0 {
		t.Fatalf("empty hand-built result rendered %+v", empty)
	}
}
