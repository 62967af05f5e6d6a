package main

import (
	"fmt"

	"kyoto/internal/arrivals"
	"kyoto/internal/cache"
	"kyoto/internal/cluster"
	"kyoto/internal/xrand"
)

// workload is one replay regime. Every input derives from the run's seed:
// it seeds both the synthesized trace and the fleet template.
type workload struct {
	name     string
	fidelity cache.Fidelity
	hosts    int
	pending  arrivals.PendingPolicy
	// signature attaches the Signature rebalancer, with the trace's
	// lifetime distribution as its amortization estimator.
	signature bool
	// vms is the trace size at full scale; tests pass a tiny one.
	vms   int
	synth func(seed uint64, vms int) arrivals.SynthConfig
	// balanceApps makes the application mix exact instead of drawn; see
	// balanceApps.
	balanceApps bool
	// checkpointEvery takes a checkpoint (CaptureState + snapshot.Encode)
	// inside the timed phase every this many moments at full scale; 0
	// means the workload does not checkpoint.
	checkpointEvery int
}

var workloads = []*workload{
	// The paper-facing tier: cache simulation, workload generation and
	// the exact executor own the CPU. Lifetimes are near-constant and the
	// app mix exact because an exact-tier quiet VM costs ~8x a polluter
	// per tick: with drawn classes and Pareto lifetimes the work per
	// event, and so events/s, moved by +-20% from seed to seed. What
	// still varies (co-location, generator phases: simulated accesses
	// spread 8% across seeds at 60 VMs, 5% at 120) averages out with
	// more VMs.
	{
		name:     "exact-churn",
		fidelity: cache.FidelityExact, hosts: 8, vms: 120,
		synth: func(seed uint64, vms int) arrivals.SynthConfig {
			return arrivals.SynthConfig{Seed: seed, VMs: vms, Horizon: uint64(vms) * 5 / 2, MeanLifetime: 10, ParetoAlpha: 20}
		},
		balanceApps: true,
	},
	// The event-horizon regime: 99% of host-ticks are idle and elided, and
	// the per-VM lifecycle (add, remove, seeks, drainer handoffs)
	// dominates.
	{
		name:     "analytic-sparse",
		fidelity: cache.FidelityAnalytic, hosts: 12, vms: 15000,
		synth: func(seed uint64, vms int) arrivals.SynthConfig {
			return arrivals.SynthConfig{Seed: seed, VMs: vms, Horizon: uint64(vms) * 60, MeanLifetime: 5}
		},
	},
	// Demand at ~93% of the vCPU slots, behind a FIFO pending queue:
	// every host ticks nearly every tick, and ~90% of placement attempts
	// fail inside queue retries.
	{
		name:     "analytic-dense-fifo",
		fidelity: cache.FidelityAnalytic, hosts: 4, vms: 9000, pending: arrivals.PendingFIFO,
		synth: func(seed uint64, vms int) arrivals.SynthConfig {
			return arrivals.SynthConfig{Seed: seed, VMs: vms, Horizon: uint64(vms) * 27 / 10, MeanLifetime: 40}
		},
	},
	// The only regime where rebalance barriers, detect, Migrate and
	// snapshot do work. The Azure shape keeps its size mix and bursts,
	// but with a Pareto tail of 3 instead of 1.4: under 1.4 a single VM
	// could outlive the horizon threefold (95,818 ticks against 32,000),
	// and with it the replay's rebalance epochs, so events/s moved by
	// +-25% from seed to seed.
	{
		name:     "analytic-signature-ckpt",
		fidelity: cache.FidelityAnalytic, hosts: 12, vms: 4000, pending: arrivals.PendingFIFO,
		signature: true, checkpointEvery: 1000,
		synth: func(seed uint64, vms int) arrivals.SynthConfig {
			c := arrivals.AzureCalibrated(seed, vms)
			c.ParetoAlpha = 3
			return c
		},
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// trace synthesizes the workload's trace of vms arrivals.
func (w *workload) trace(seed uint64, vms int) arrivals.Trace {
	tr := arrivals.Synthesize(w.synth(seed, vms))
	if w.balanceApps {
		balanceApps(tr, seed)
	}
	return tr
}

// balanceApps reassigns the trace's application classes so each class
// of the default mix appears in exact proportion to its weight, in a
// seeded random order: every seed then carries the same amount of each
// class's work, and only its arrangement moves.
func balanceApps(tr arrivals.Trace, seed uint64) {
	mix := arrivals.DefaultMix()
	var total float64
	for _, m := range mix {
		total += m.Weight
	}
	n := len(tr.Events)
	apps := make([]string, 0, n)
	var cum float64
	for _, m := range mix {
		cum += m.Weight
		for len(apps) < int(float64(n)*cum/total+0.5) {
			apps = append(apps, m.App)
		}
	}
	for i, j := range xrand.New(seed ^ 0x5eed_ba1a_9ce5).Perm(n) {
		tr.Events[i].App = apps[j]
	}
}

// fleet builds the workload's fleet. workers 0 keeps the cluster
// default (GOMAXPROCS), which is what every measured run uses.
func (w *workload) fleet(seed uint64, workers int, placer cluster.Placer) (*cluster.Fleet, error) {
	return cluster.New(cluster.Config{
		Hosts:    w.hosts,
		Template: cluster.HostTemplate{Seed: seed, EnableKyoto: true, Fidelity: w.fidelity},
		Placer:   placer,
		Workers:  workers,
	})
}

// options builds fresh replay options (a Rebalancer carries per-replay
// state, so every replay needs its own); wrap, when non-nil, decorates
// the rebalancer for tracing.
func (w *workload) options(tr arrivals.Trace, wrap func(cluster.Rebalancer) cluster.Rebalancer) arrivals.Options {
	opt := arrivals.Options{Pending: w.pending}
	if w.signature {
		opt.Rebalancer = &cluster.Signature{Lifetimes: arrivals.NewLifetimeStats(tr)}
		if wrap != nil {
			opt.Rebalancer = wrap(opt.Rebalancer)
		}
	}
	return opt
}

// checkpointInterval scales checkpointEvery to a trace of vms arrivals.
func (w *workload) checkpointInterval(vms int) int {
	if w.checkpointEvery == 0 {
		return 0
	}
	return max(1, w.checkpointEvery*vms/w.vms)
}
