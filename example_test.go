package kyoto_test

// Runnable godoc examples for the fleet-lifecycle API: these are executed
// by `go test` (and the CI docs job runs `go test -run Example ./...`),
// so the documented snippets cannot rot. Each example is deterministic —
// fixed seeds, fixed traces — which is what lets the Output blocks be
// exact.

import (
	"encoding/json"
	"fmt"

	"kyoto"
)

// lifecycleTrace is a tiny arrival/departure trace shared by the
// examples: three permit-booking VMs and one permit-less VM that only
// Kyoto admission rejects.
func lifecycleTrace() kyoto.Trace {
	return kyoto.Trace{Events: []kyoto.TraceEvent{
		{Submit: 0, Lifetime: 30, Name: "web", App: "gcc", LLCCap: 250},
		{Submit: 0, Lifetime: 30, Name: "batch", App: "lbm", LLCCap: 250},
		{Submit: 5, Lifetime: 10, Name: "noperm", App: "bzip"},
		{Submit: 10, Lifetime: 20, Name: "spike", App: "mcf", LLCCap: 250},
	}}
}

// ExampleReplayTrace replays a small trace on a 2-host Kyoto-admission
// fleet: arrivals are placed, departures free their bookings and cache
// footprint, and the permit-less VM is rejected at admission.
func ExampleReplayTrace() {
	res, err := kyoto.ReplayTrace(kyoto.ClusterConfig{
		Hosts:  2,
		World:  kyoto.WorldConfig{Seed: 1, EnableKyoto: true},
		Placer: kyoto.PlacerKyoto,
	}, lifecycleTrace(), kyoto.ReplayOptions{DrainTicks: 6})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("placed %d of %d, rejected %d\n", res.Placed, len(res.Records), res.Rejected)
	for _, rec := range res.Records {
		if rec.Rejected {
			fmt.Printf("%s: no llc_cap permit booked\n", rec.Name)
		}
	}
	// Output:
	// placed 3 of 4, rejected 1
	// noperm: no llc_cap permit booked
}

// ExampleSweepTrace contrasts the three placement policies over one
// trace on identically seeded fleets — the paper's argument under churn:
// the capacity-only policies place everything (and let pollution land
// where it may), Kyoto admission rejects the VM that books no permit.
func ExampleSweepTrace() {
	res, err := kyoto.SweepTrace(lifecycleTrace(), kyoto.FleetSweepConfig{
		Hosts: 2, Seed: 1, DrainTicks: 6,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	for _, row := range res.Rows {
		fmt.Printf("%s: placed %d, rejected %d\n", row.Placer, row.Placed, row.Rejected)
	}
	// Output:
	// first-fit: placed 4, rejected 0
	// spread: placed 4, rejected 0
	// kyoto: placed 3, rejected 1
}

// ExampleCluster_Migrate live-migrates a noisy VM to another host: its
// lifetime counters move with it, its cache footprint does not (the
// migration's cost), and a 2-tick blackout models the stop-and-copy
// window.
func ExampleCluster_Migrate() {
	c, err := kyoto.NewCluster(kyoto.ClusterConfig{
		Hosts: 2,
		World: kyoto.WorldConfig{Seed: 1},
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	p, err := c.Place(kyoto.ClusterVMSpec{
		VMSpec: kyoto.VMSpec{Name: "noisy", App: "lbm", LLCCap: 250},
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	c.RunTicks(12)
	before := p.VM.Counters().Instructions

	moved, err := c.Migrate("noisy", 1, 2)
	if err != nil {
		fmt.Println(err)
		return
	}
	_, host := c.FindVM("noisy")
	fmt.Printf("noisy: host %d -> host %d\n", p.HostID, host)
	fmt.Printf("lifetime counters preserved: %v\n", moved.VM.Counters().Instructions >= before)
	// Output:
	// noisy: host 0 -> host 1
	// lifetime counters preserved: true
}

// ExampleNewReactiveRebalancer replays a trace with the full reactive
// stack: rejected arrivals wait in a FIFO pending queue, and every 9
// ticks the reactive rebalancer may live-migrate the worst polluter of
// the hottest host to the coolest host with headroom.
func ExampleNewReactiveRebalancer() {
	res, err := kyoto.ReplayTrace(kyoto.ClusterConfig{
		Hosts: 2,
		World: kyoto.WorldConfig{Seed: 1},
	}, lifecycleTrace(), kyoto.ReplayOptions{
		DrainTicks:        6,
		Pending:           kyoto.PendingFIFO,
		Rebalancer:        kyoto.NewReactiveRebalancer(0),
		RebalanceEvery:    9,
		MigrationDowntime: 2,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	// Wherever the polluter lands becomes the hottest host by the next
	// epoch, so a memoryless policy would bounce it back and forth
	// forever — reactive migration chasing the hotspot it itself
	// creates. The built-in per-VM migration cooldown (hysteresis) stops
	// that: after the t=9 move the polluter is ineligible while its
	// cold-cache transient decays, so the replay sees one migration, not
	// a ping-pong.
	fmt.Printf("placed %d, migrations %d\n", res.Placed, len(res.Migrations))
	for _, m := range res.Migrations {
		fmt.Printf("t=%d %s: host%d -> host%d\n", m.Tick, m.Name, m.SrcHost, m.DstHost)
	}

	// Output:
	// placed 4, migrations 1
	// t=9 batch: host0 -> host1
}

// ExampleNewSeedSweeper replicates the three-placer trace sweep under
// three consecutive seeds and reads a metric's across-seed distribution
// off the merged result. Kyoto admission rejects the permit-less VM
// under every seed, so the rejection rate is exactly 1/4 with a
// zero-width confidence interval.
func ExampleNewSeedSweeper() {
	proto, err := kyoto.NewTraceSweeper(lifecycleTrace(), kyoto.FleetSweepConfig{
		Hosts: 2, Seed: 1, DrainTicks: 6,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	ss, err := kyoto.NewSeedSweeper(proto, kyoto.SeedSweepConfig{Seeds: 3})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("plan: %d jobs\n", len(kyoto.SweepJobs(ss)))
	if err := kyoto.RunSweep(ss, 0); err != nil {
		fmt.Println(err)
		return
	}
	res := ss.Result()
	sum, err := res.Metric("kyoto", "rej_rate")
	if err != nil {
		fmt.Println(err)
		return
	}
	ci, err := sum.MeanCI(res.Confidence)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("kyoto rej_rate over %d seeds: %s\n", sum.Count(), kyoto.FormatMeanCI(sum.Mean(), ci.Halfwidth()))
	// Output:
	// plan: 21 jobs
	// kyoto rej_rate over 3 seeds: 0.250 ± 0.000
}

// ExampleMergeShards runs the three-placer trace sweep as two
// independent shards — the way two processes or machines would, each
// rebuilding the sweep from the same trace and config — and merges the
// shard envelopes into the same result an unsharded run produces, bit
// for bit.
func ExampleMergeShards() {
	build := func() *kyoto.FleetSweeper {
		s, err := kyoto.NewTraceSweeper(lifecycleTrace(), kyoto.FleetSweepConfig{Hosts: 2, Seed: 1})
		if err != nil {
			panic(err)
		}
		return s
	}
	fmt.Printf("plan: %d jobs\n", len(kyoto.SweepJobs(build())))

	var envs []kyoto.ShardEnvelope
	for k := 0; k < 2; k++ {
		env, err := kyoto.RunSweepShard(build(), k, 2, 0)
		if err != nil {
			fmt.Println(err)
			return
		}
		envs = append(envs, env)
	}
	merged := build()
	if err := kyoto.MergeShards(merged, envs); err != nil {
		fmt.Println(err)
		return
	}
	for _, row := range merged.Result().Rows {
		fmt.Printf("%s: placed %d, rejected %d\n", row.Placer, row.Placed, row.Rejected)
	}
	// Output:
	// plan: 7 jobs
	// first-fit: placed 4, rejected 0
	// spread: placed 4, rejected 0
	// kyoto: placed 3, rejected 1
}

// ExampleSnapshot checkpoints a running world mid-simulation: the
// snapshot is a versioned JSON envelope carrying a fingerprinted copy of
// the complete simulation state, and taking it does not perturb the run.
func ExampleSnapshot() {
	w, err := kyoto.NewWorld(kyoto.WorldConfig{Seed: 7, EnableKyoto: true})
	if err != nil {
		fmt.Println(err)
		return
	}
	if _, err := w.AddVM(kyoto.VMSpec{Name: "web", App: "gcc", Pins: []int{0}, LLCCap: 250}); err != nil {
		fmt.Println(err)
		return
	}
	w.RunTicks(20)
	snap, err := kyoto.Snapshot(w)
	if err != nil {
		fmt.Println(err)
		return
	}
	var env struct {
		Schema string `json:"schema"`
		Kind   string `json:"kind"`
	}
	if err := json.Unmarshal(snap, &env); err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("%s %s at tick %d\n", env.Schema, env.Kind, w.Now())
	// Output:
	// kyoto-snapshot-v2 world at tick 20
}

// ExampleResume restores a snapshot into a freshly configured world and
// continues the run bit-identically: the straight-through world and the
// snapshot-resumed world agree counter for counter, which is what makes
// warm-started sweeps and killed-and-resumed runs trustworthy.
func ExampleResume() {
	cfg := kyoto.WorldConfig{Seed: 7, EnableKyoto: true}
	build := func() (*kyoto.World, error) {
		w, err := kyoto.NewWorld(cfg)
		if err != nil {
			return nil, err
		}
		for _, spec := range []kyoto.VMSpec{
			{Name: "web", App: "gcc", Pins: []int{0}, LLCCap: 250},
			{Name: "batch", App: "lbm", Pins: []int{1}, LLCCap: 250},
		} {
			if _, err := w.AddVM(spec); err != nil {
				return nil, err
			}
		}
		return w, nil
	}
	straight, err := build()
	if err != nil {
		fmt.Println(err)
		return
	}
	straight.RunTicks(40)

	checkpointed, err := build()
	if err != nil {
		fmt.Println(err)
		return
	}
	checkpointed.RunTicks(25)
	snap, err := kyoto.Snapshot(checkpointed)
	if err != nil {
		fmt.Println(err)
		return
	}
	resumed, err := kyoto.Resume(cfg, snap)
	if err != nil {
		fmt.Println(err)
		return
	}
	resumed.RunTicks(15)

	a := straight.FindVM("web").Counters()
	b := resumed.FindVM("web").Counters()
	fmt.Printf("resumed at tick 25, ran to %d; counters equal: %v\n",
		resumed.Now(), a == b)
	// Output:
	// resumed at tick 25, ran to 40; counters equal: true
}
