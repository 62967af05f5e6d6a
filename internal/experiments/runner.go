// Package experiments reproduces every table and figure of the paper's
// evaluation (§2.2 and §4). Each ExpNN/FigNN/TableNN function builds the
// corresponding scenario on the scaled testbed, runs it, and returns a
// structured result that renders as the paper's rows/series.
//
// cmd/kyotobench's experiment table maps each artefact id to these
// functions; README's "Reproducing the paper's figures" shows the runs.
package experiments

import (
	"fmt"

	"kyoto/internal/cache"
	"kyoto/internal/hv"
	"kyoto/internal/machine"
	"kyoto/internal/pmc"
	"kyoto/internal/sched"
	"kyoto/internal/sweep"
	"kyoto/internal/vm"
)

// Default measurement windows (ticks are 10 ms of model time). Warmup
// fills caches and lets schedulers reach steady state before measuring.
const (
	DefaultWarmupTicks  = 12
	DefaultMeasureTicks = 30
)

// Scenario describes one simulation run.
type Scenario struct {
	// Machine is the hardware; zero value selects machine.TableOne.
	Machine machine.Config
	// NewSched builds the scheduler; nil selects the credit scheduler
	// (XCS), the paper's baseline.
	NewSched func(cores int) sched.Scheduler
	// CyclesPerTick optionally overrides the tick length (Fig 12).
	CyclesPerTick uint64
	// Seed drives all randomness (default 1).
	Seed uint64
	// VMs to instantiate, in order.
	VMs []vm.Spec
	// Hooks are attached before the run (monitors, recorders).
	Hooks []hv.TickHook
	// Warmup/Measure override the default window lengths when non-zero.
	Warmup  int
	Measure int
	// Fidelity selects the cache-model tier (default cache.FidelityExact).
	Fidelity cache.Fidelity
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

// Run builds and executes the scenario.
func Run(s Scenario) (Result, error) {
	if s.Machine.Sockets == 0 {
		s.Machine = machine.TableOne(s.Seed)
	}
	cores := s.Machine.Sockets * s.Machine.CoresPerSocket
	newSched := s.NewSched
	if newSched == nil {
		newSched = func(n int) sched.Scheduler { return sched.NewCredit(n) }
	}
	seed := s.Seed
	if seed == 0 {
		seed = 1
	}
	w, err := hv.New(hv.Config{
		Machine:       s.Machine,
		CyclesPerTick: s.CyclesPerTick,
		Seed:          seed,
		Fidelity:      s.Fidelity,
	}, newSched(cores))
	if err != nil {
		return Result{}, err
	}
	for _, spec := range s.VMs {
		if _, err := w.AddVM(spec); err != nil {
			return Result{}, err
		}
	}
	for _, h := range s.Hooks {
		w.AddHook(h)
	}
	warmup, measure := s.Warmup, s.Measure
	if warmup == 0 {
		warmup = DefaultWarmupTicks
	}
	if measure == 0 {
		measure = DefaultMeasureTicks
	}
	w.RunTicks(warmup)
	before := w.SnapshotVMs()
	w.RunTicks(measure)
	after := w.SnapshotVMs()

	per := make(map[string]pmc.Counters, len(after))
	for name, c := range after {
		per[name] = c.Delta(before[name])
	}
	return Result{PerVM: per, World: w, MeasureTicks: measure}, nil
}

// MustRun is Run but panics on error, for scenarios whose validity is
// fixed at compile time.
func MustRun(s Scenario) Result {
	r, err := Run(s)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return r
}

// RunAll executes scenarios concurrently (each run is an independent,
// deterministic world) and returns results in input order.
func RunAll(scenarios []Scenario) ([]Result, error) {
	return RunAllWorkers(scenarios, 0)
}

// RunAllWorkers is RunAll with an explicit worker cap: 1 runs the
// scenarios serially on the calling goroutine (the reference execution
// BenchmarkRunnerParallel compares against), 0 defaults to GOMAXPROCS.
// Results are in input order and identical whatever the cap, because
// every scenario is an isolated world.
func RunAllWorkers(scenarios []Scenario, workers int) ([]Result, error) {
	results := make([]Result, len(scenarios))
	err := ForEach(len(scenarios), workers, func(i int) error {
		var err error
		results[i], err = Run(scenarios[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// ForEach runs f(0) .. f(n-1) across a bounded worker pool (0 workers
// means GOMAXPROCS; 1 means serial in index order) and returns the error
// of the lowest-indexed failure. Experiment fan-outs use it for their
// independent arms; it is sweep.ForEach, re-exported so figure-level
// code does not need the sweep package for a plain parallel loop.
func ForEach(n, workers int, f func(i int) error) error {
	return sweep.ForEach(n, workers, f)
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

// newCreditSched builds the default XCS policy.
func newCreditSched(cores int) sched.Scheduler { return sched.NewCredit(cores) }

// pinned returns a single-vCPU spec for app pinned to core.
func pinned(name, app string, core int) vm.Spec {
	return vm.Spec{Name: name, App: app, Pins: []int{core}}
}

// soloScenario runs one app alone, pinned to core 0, on a fresh Table-1
// machine.
func soloScenario(app string, seed uint64) Scenario {
	return Scenario{
		Seed: seed,
		VMs:  []vm.Spec{pinned("solo", app, 0)},
	}
}
