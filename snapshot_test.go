package kyoto

// Differential coverage of the public checkpoint API: for a spread of
// world shapes (every scheduler kind, Kyoto enforcement on and off, both
// fidelity tiers) and for a placed-and-running cluster, Snapshot +
// Resume mid-run must continue bit-identically to the uninterrupted run,
// and re-snapshotting a freshly resumed world must reproduce the
// checkpoint byte for byte.

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"kyoto/internal/pmc"
)

// worldPrint folds every VM's lifetime counters and punishments — the
// whole observable outcome of a run.
func worldPrint(w *World) string {
	h := pmc.FoldSeed
	for _, v := range w.VMs() {
		h = v.Counters().Fold(h)
		h = pmc.FoldUint64(h, v.Punishments)
	}
	return fmt.Sprintf("%016x", h)
}

// clusterPrint folds every host in fleet order.
func clusterPrint(c *Cluster) string {
	h := pmc.FoldSeed
	for i := 0; i < c.Hosts(); i++ {
		for _, v := range c.Host(i).VMs() {
			h = v.Counters().Fold(h)
			h = pmc.FoldUint64(h, v.Punishments)
		}
	}
	return fmt.Sprintf("%016x", h)
}

// snapshotConfigs spans the world shapes whose scheduler and monitor
// state differ: each scheduler kind, Kyoto enforcement, and the analytic
// tier.
func snapshotConfigs() map[string]WorldConfig {
	return map[string]WorldConfig{
		"credit":         {Seed: 7, Scheduler: CreditScheduler},
		"cfs":            {Seed: 7, Scheduler: CFSScheduler},
		"pisces":         {Seed: 7, Scheduler: PiscesScheduler},
		"kyoto":          {Seed: 7, EnableKyoto: true},
		"kyoto-analytic": {Seed: 7, EnableKyoto: true, Fidelity: FidelityAnalytic},
	}
}

func populate(t *testing.T, w *World) {
	t.Helper()
	specs := []VMSpec{
		{Name: "victim", App: "gcc", Pins: []int{0}, LLCCap: 250},
		{Name: "noisy", App: "lbm", Pins: []int{1}, LLCCap: 250},
		{Name: "mixed", App: "omnetpp", Pins: []int{2}, LLCCap: 250},
	}
	for _, s := range specs {
		if _, err := w.AddVM(s); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSnapshotResumeBitIdentity(t *testing.T) {
	const total = 50
	for name, cfg := range snapshotConfigs() {
		t.Run(name, func(t *testing.T) {
			ref, err := NewWorld(cfg)
			if err != nil {
				t.Fatal(err)
			}
			populate(t, ref)
			ref.RunTicks(total)
			want := worldPrint(ref)

			for _, snapTick := range []int{0, 13, 37} {
				w, err := NewWorld(cfg)
				if err != nil {
					t.Fatal(err)
				}
				populate(t, w)
				w.RunTicks(snapTick)
				data, err := Snapshot(w)
				if err != nil {
					t.Fatalf("tick %d: %v", snapTick, err)
				}

				// The snapshotted world keeps running, unperturbed.
				w.RunTicks(total - snapTick)
				if got := worldPrint(w); got != want {
					t.Fatalf("tick %d: snapshotting perturbed the run: %s vs %s", snapTick, got, want)
				}

				// The resumed world lands on the identical future.
				r, err := Resume(cfg, data)
				if err != nil {
					t.Fatalf("tick %d: resume: %v", snapTick, err)
				}
				if r.Now() != uint64(snapTick) {
					t.Fatalf("tick %d: resumed clock at %d", snapTick, r.Now())
				}
				again, err := Snapshot(r)
				if err != nil {
					t.Fatalf("tick %d: re-snapshot: %v", snapTick, err)
				}
				if !bytes.Equal(again, data) {
					t.Fatalf("tick %d: Snapshot(Resume(snap)) differs from snap", snapTick)
				}
				r.RunTicks(total - snapTick)
				if got := worldPrint(r); got != want {
					t.Fatalf("tick %d: resumed run diverged: %s vs %s", snapTick, got, want)
				}
			}
		})
	}
}

// TestResumeConfigMismatch: a snapshot taken under one configuration
// must refuse to resume under any other — seed, fidelity, scheduler and
// Kyoto enforcement all participate in the digest.
func TestResumeConfigMismatch(t *testing.T) {
	base := WorldConfig{Seed: 7, EnableKyoto: true}
	w, err := NewWorld(base)
	if err != nil {
		t.Fatal(err)
	}
	populate(t, w)
	w.RunTicks(10)
	data, err := Snapshot(w)
	if err != nil {
		t.Fatal(err)
	}

	bad := map[string]WorldConfig{
		"seed":      {Seed: 8, EnableKyoto: true},
		"fidelity":  {Seed: 7, EnableKyoto: true, Fidelity: FidelityAnalytic},
		"scheduler": {Seed: 7, EnableKyoto: true, Scheduler: CFSScheduler},
		"kyoto-off": {Seed: 7},
	}
	for name, cfg := range bad {
		if _, err := Resume(cfg, data); err == nil {
			t.Errorf("%s mismatch: resume succeeded", name)
		} else if !strings.Contains(err.Error(), "configuration") {
			t.Errorf("%s mismatch: error does not point at the configuration: %v", name, err)
		}
	}

	// The matching config still works.
	if _, err := Resume(base, data); err != nil {
		t.Fatalf("matching config refused: %v", err)
	}
}

// TestSnapshotShadowMonitor: the trace-replay monitor is not
// checkpointable and must say so, at snapshot and at resume.
func TestSnapshotShadowMonitor(t *testing.T) {
	cfg := WorldConfig{Seed: 7, EnableKyoto: true, Monitor: MonitorShadowSim}
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Snapshot(w); err == nil {
		t.Fatal("snapshotting a shadow-sim world succeeded")
	}
	if _, err := Resume(cfg, []byte("{}")); err == nil {
		t.Fatal("resuming into a shadow-sim world succeeded")
	}
}

// TestSnapshotClusterHostRefused: a cluster host checkpoints only with
// its fleet. A standalone snapshot of one would digest the wrong config,
// and no Resume could accept it, so it must fail and name
// SnapshotCluster, whichever monitor the hosts run.
func TestSnapshotClusterHostRefused(t *testing.T) {
	for _, mon := range []MonitorKind{MonitorCounters, MonitorShadowSim} {
		c, err := NewCluster(ClusterConfig{Hosts: 2, World: WorldConfig{Seed: 3, EnableKyoto: true, Monitor: mon}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Place(ClusterVMSpec{VMSpec: VMSpec{Name: "sen", App: "gcc", LLCCap: 250}}); err != nil {
			t.Fatal(err)
		}
		c.RunTicks(3)
		for i := 0; i < c.Hosts(); i++ {
			if _, err := Snapshot(c.Host(i)); err == nil || !strings.Contains(err.Error(), "SnapshotCluster") {
				t.Fatalf("monitor %d: Snapshot(c.Host(%d)) = %v, want an error naming SnapshotCluster", mon, i, err)
			}
		}
	}
}

func TestClusterSnapshotRoundTrip(t *testing.T) {
	cfg := ClusterConfig{
		Hosts:  2,
		World:  WorldConfig{Seed: 7, EnableKyoto: true},
		Placer: PlacerKyoto,
	}
	build := func() *Cluster {
		c, err := NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		apps := []string{"gcc", "lbm", "omnetpp", "blockie"}
		for i, app := range apps {
			spec := ClusterVMSpec{VMSpec: VMSpec{Name: fmt.Sprintf("vm%d", i), App: app, LLCCap: 200}}
			if _, err := c.Place(spec); err != nil {
				t.Fatal(err)
			}
		}
		return c
	}

	ref := build()
	ref.RunTicks(40)
	want := clusterPrint(ref)

	c := build()
	c.RunTicks(15)
	data, err := SnapshotCluster(c)
	if err != nil {
		t.Fatal(err)
	}
	c.RunTicks(25)
	if got := clusterPrint(c); got != want {
		t.Fatalf("snapshotting perturbed the cluster: %s vs %s", got, want)
	}

	r, err := ResumeCluster(cfg, data)
	if err != nil {
		t.Fatal(err)
	}
	again, err := SnapshotCluster(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, data) {
		t.Fatal("SnapshotCluster(ResumeCluster(snap)) differs from snap")
	}
	r.RunTicks(25)
	if got := clusterPrint(r); got != want {
		t.Fatalf("resumed cluster diverged: %s vs %s", got, want)
	}

	// Workers is concurrency, not physics: a different worker count must
	// resume the same snapshot and land on the same future.
	alt := cfg
	alt.Workers = 1
	r2, err := ResumeCluster(alt, data)
	if err != nil {
		t.Fatalf("resume with different Workers refused: %v", err)
	}
	r2.RunTicks(25)
	if got := clusterPrint(r2); got != want {
		t.Fatalf("single-worker resume diverged: %s vs %s", got, want)
	}

	// A different fleet shape must not.
	alt = cfg
	alt.Hosts = 3
	if _, err := ResumeCluster(alt, data); err == nil {
		t.Fatal("resume onto a different fleet size succeeded")
	}
}
