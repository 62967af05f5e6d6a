// Package experiments reproduces every table and figure of the paper's
// evaluation (§2.2 and §4) on the scaled testbed. Each experiment is one
// sweep (figsweep.go): its arms — solo baselines, co-runner pairs,
// disruptor counts, scheduler arms — are independent jobs, and a fold
// turns their payloads into a structured result that renders as the
// paper's rows/series. Each FigN/TableN function runs its sweep
// in-process and returns that result.
//
// cmd/kyotobench's experiment table maps each artefact id to its sweep,
// so every experiment runs in-process or sharded across processes;
// README's "Reproducing the paper's figures" shows the runs.
package experiments

import (
	"cmp"

	"kyoto/internal/cache"
	"kyoto/internal/cluster"
	"kyoto/internal/hv"
	"kyoto/internal/machine"
	"kyoto/internal/pmc"
	"kyoto/internal/stats"
	"kyoto/internal/vm"
)

// Default measurement windows (ticks are 10 ms of model time). Warmup
// fills caches and lets schedulers reach steady state before measuring.
const (
	DefaultWarmupTicks  = 12
	DefaultMeasureTicks = 30
)

// Scenario describes one simulation run: the host, the VMs placed on it
// and the measurement window.
type Scenario struct {
	// NodeConfig is the host, built by cluster.NewNode like every other
	// Kyoto host. A zero Machine selects machine.TableOne(), a zero
	// Seed selects 1, and a nil NewSched the credit scheduler (XCS), the
	// paper's baseline; EnableKyoto makes it the KS4 variant of that
	// scheduler, with the counter monitor attached.
	cluster.NodeConfig
	// VMs to instantiate, in order.
	VMs []vm.Spec
	// Hooks are attached after the VMs, behind the host's own monitor
	// (recorders, observing monitors).
	Hooks []hv.TickHook
	// Warmup/Measure override the default window lengths when non-zero.
	Warmup  int
	Measure int
}

// Result holds a scenario's measurement-window counters.
type Result struct {
	// PerVM maps VM name to its counter delta over the measurement window.
	PerVM map[string]pmc.Counters
	// World is the (stopped) world, for result extractors that need more
	// than counters (punishments, quota ledgers, idle cycles).
	World *hv.World
	// MeasureTicks is the length of the measurement window.
	MeasureTicks int
}

// IPC returns the named VM's instructions per unhalted cycle over the
// measurement window — the paper's performance metric (§2.2.3).
func (r Result) IPC(name string) float64 {
	return r.PerVM[name].IPC()
}

// Run builds the scenario's world and runs its warmup and measurement
// windows.
func Run(s Scenario) (Result, error) {
	w, err := s.build()
	if err != nil {
		return Result{}, err
	}
	return s.measure(w), nil
}

// build assembles the scenario's world without running it: the host, its
// VMs in order, then its hooks. Figures that must touch the built world
// first (a migration hook on a vCPU, LLC partitions) call build, make
// their change, then measure.
func (s Scenario) build() (*hv.World, error) {
	nc := s.NodeConfig
	if nc.Machine.Sockets == 0 {
		nc.Machine = machine.TableOne()
	}
	nc.Seed = cmp.Or(nc.Seed, 1)
	n, err := cluster.NewNode(nc)
	if err != nil {
		return nil, err
	}
	w := n.World
	for _, spec := range s.VMs {
		if _, err := w.AddVM(spec); err != nil {
			return nil, err
		}
	}
	for _, h := range s.Hooks {
		w.AddHook(h)
	}
	return w, nil
}

// measure runs the scenario's warmup then its measurement window on w and
// returns each VM's counter delta over the window.
func (s Scenario) measure(w *hv.World) Result {
	measure := cmp.Or(s.Measure, DefaultMeasureTicks)
	w.RunTicks(cmp.Or(s.Warmup, DefaultWarmupTicks))
	before := w.SnapshotVMs()
	w.RunTicks(measure)
	after := w.SnapshotVMs()

	per := make(map[string]pmc.Counters, len(after))
	for name, c := range after {
		per[name] = c.Delta(before[name])
	}
	return Result{PerVM: per, World: w, MeasureTicks: measure}
}

// runUntilRetired builds s and runs it until the named VM has retired
// work instructions or maxTicks elapse, returning the ticks run: the
// completion-time measurement of Figures 8 and 12.
func runUntilRetired(s Scenario, name string, work uint64, maxTicks int) (int, error) {
	w, err := s.build()
	if err != nil {
		return 0, err
	}
	target := w.FindVM(name)
	return w.RunUntil(func(*hv.World) bool {
		return target.Counters().Instructions >= work
	}, maxTicks), nil
}

// fidelityTag is a fidelity's config-digest tag: empty for exact, so
// every digest computed before the two-fidelity split — and every
// envelope committed under it — keeps its value byte for byte.
func fidelityTag(f cache.Fidelity) string {
	if f == cache.FidelityExact {
		return ""
	}
	return f.String()
}

// degradation is the percent IPC loss from baseline to observed, with a
// co-run speedup counted as no degradation.
func degradation(baseline, observed float64) float64 {
	deg := stats.DegradationPercent(baseline, observed)
	if deg < 0 {
		return 0
	}
	return deg
}

// pinned returns a single-vCPU spec for app pinned to core.
func pinned(name, app string, core int) vm.Spec {
	return vm.Spec{Name: name, App: app, Pins: []int{core}}
}

// soloScenario runs one app alone, pinned to core 0, on a fresh Table-1
// machine.
func soloScenario(app string, seed uint64) Scenario {
	return Scenario{
		NodeConfig: cluster.NodeConfig{Seed: seed},
		VMs:        []vm.Spec{pinned("solo", app, 0)},
	}
}
