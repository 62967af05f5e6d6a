// Package kyoto is a simulation-backed reproduction of "Mitigating
// performance unpredictability in the IaaS using the Kyoto principle"
// (Tchana et al., Middleware 2016): polluters-pay accounting for
// last-level-cache (LLC) contention between co-located virtual machines.
//
// A VM books a pollution permit (llc_cap) the way it books vCPUs or
// memory; the hypervisor measures each VM's actual pollution from
// performance counters (Equation 1: LLC misses normalized by unhalted
// cycles) and deprives VMs of the processor while they exceed their
// permit. The package bundles everything the paper's evaluation needs:
//
//   - a deterministic simulated testbed (cycle-level cache hierarchy,
//     multicore/NUMA machines, Xen-credit / CFS / Pisces schedulers),
//   - the Kyoto scheduler extension over any of those policies
//     (KS4Xen / KS4Linux / KS4Pisces),
//   - three llc_cap_act monitors (exact per-vCPU counters, trace replay
//     through a McSimA+-style shadow simulator, and socket dedication),
//   - synthetic SPEC CPU2006 / blockie workload models calibrated to the
//     paper's Figure 4 aggressiveness data,
//   - the full experiment harness regenerating every table and figure.
//
// # Quick start
//
//	world, err := kyoto.NewWorld(kyoto.WorldConfig{Seed: 1})
//	if err != nil { ... }
//	sen, _ := world.AddVM(kyoto.VMSpec{Name: "web", App: "gcc", LLCCap: 250})
//	dis, _ := world.AddVM(kyoto.VMSpec{Name: "batch", App: "lbm", LLCCap: 250})
//	world.RunTicks(100)
//	fmt.Println(sen.Counters().IPC(), dis.Punishments)
//
// The zero-dependency simulator is deterministic: identical seeds yield
// identical runs, bit for bit.
package kyoto

import (
	"fmt"

	"kyoto/internal/cache"
	"kyoto/internal/cluster"
	"kyoto/internal/core"
	"kyoto/internal/experiments"
	"kyoto/internal/hv"
	"kyoto/internal/machine"
	"kyoto/internal/pmc"
	"kyoto/internal/sched"
	"kyoto/internal/vm"
	"kyoto/internal/workload"
)

// Re-exported core types. These aliases are the supported public surface;
// the internal packages behind them are implementation detail.
type (
	// MachineConfig describes a simulated machine (sockets, cores,
	// cache hierarchy, latencies). It holds no seed: its LRU caches are
	// deterministic, and WorldConfig.Seed drives the run's randomness.
	MachineConfig = machine.Config
	// VMSpec declares a VM: its workload, pinning, credit weight, CPU
	// cap, and its Kyoto pollution permit (LLCCap).
	VMSpec = vm.Spec
	// VM is a running domain; Punishments counts pollution sanctions.
	VM = vm.VM
	// VCPU is a virtual CPU.
	VCPU = vm.VCPU
	// Counters is a PMC block (instructions, unhalted cycles, LLC
	// misses, ...).
	Counters = pmc.Counters
	// Profile is a synthetic application model.
	Profile = workload.Profile
	// Phase is one phase of a Profile.
	Phase = workload.Phase
	// Scheduler is a vCPU scheduling policy.
	Scheduler = sched.Scheduler
	// Kyoto is the pollution-enforcing scheduler decorator.
	Kyoto = core.Kyoto
	// Measurement is a per-tick pollution observation fed to Kyoto.
	Measurement = core.Measurement
	// Indicator selects the pollution metric (Equation1 or RawLLCM).
	Indicator = core.Indicator
	// Fidelity selects the cache-model tier (FidelityExact or
	// FidelityAnalytic).
	Fidelity = cache.Fidelity
	// TickHook observes the world once per scheduler tick.
	TickHook = hv.TickHook
)

// Pollution indicators (§4.2 of the paper).
const (
	// Equation1 is llc_misses x cpu_freq_khz / unhalted_core_cycles,
	// the paper's validated indicator.
	Equation1 = core.Equation1
	// RawLLCM is the wall-time-normalized baseline indicator.
	RawLLCM = core.RawLLCM
)

// Cache-model fidelity tiers. The exact tier simulates every memory
// access through the set-associative hierarchy; the analytic tier
// advances a per-owner LLC-occupancy recurrence once per tick and costs
// no per-access work (~100x faster), at the price of modeled rather
// than simulated miss rates.
const (
	// FidelityExact is the per-access cycle-level cache model (default).
	FidelityExact = cache.FidelityExact
	// FidelityAnalytic is the analytic LLC-occupancy fast tier.
	FidelityAnalytic = cache.FidelityAnalytic
)

// ParseFidelity parses "exact", "analytic" or "" (exact).
func ParseFidelity(s string) (Fidelity, error) { return cache.ParseFidelity(s) }

// Cross-validation of the analytic tier against the exact model.
type (
	// CrossValResult is the per-figure, per-metric error report of the
	// analytic tier over the committed goldens.
	CrossValResult = experiments.CrossValResult
	// CrossValCheck is one cross-validated metric with its declared
	// error budget.
	CrossValCheck = experiments.CrossValCheck
)

// CrossValidate runs the committed golden configurations (Figure 1/4,
// the trace and migration sweep goldens, an occupancy scenario) on both
// fidelity tiers and reports each headline metric's analytic-tier error
// against the budgets declared in internal/experiments/crossval.go.
// No figures means all of them; see experiments.CrossValFigures.
func CrossValidate(seed uint64, figures ...string) (*CrossValResult, error) {
	return experiments.CrossValidate(seed, figures...)
}

// SchedulerKind selects the base scheduling policy of a World.
type SchedulerKind int

// Base schedulers (the three systems the paper patched).
const (
	// CreditScheduler is the Xen credit scheduler (XCS).
	CreditScheduler SchedulerKind = iota + 1
	// CFSScheduler is the Linux/KVM completely-fair scheduler.
	CFSScheduler
	// PiscesScheduler is the space-partitioned co-kernel: every vCPU
	// must be pinned and owns its core outright.
	PiscesScheduler
)

// WorldConfig assembles a simulated host.
type WorldConfig struct {
	// Machine is the hardware; the zero value selects the paper's
	// Table 1 machine (TableOneMachine).
	Machine MachineConfig
	// Scheduler picks the base policy (default CreditScheduler).
	Scheduler SchedulerKind
	// EnableKyoto wraps the scheduler with pollution enforcement
	// (KS4Xen / KS4Linux / KS4Pisces) and attaches a monitor.
	EnableKyoto bool
	// Monitor selects the llc_cap_act identification strategy when
	// Kyoto is enabled; the zero value uses the exact per-vCPU counters
	// (what per-core PMCs provide). MonitorShadowSim replays captured
	// traces on a private cache model instead.
	Monitor MonitorKind
	// Indicator is the pollution metric (default Equation1).
	Indicator Indicator
	// Seed drives all randomness; identical seeds reproduce runs
	// exactly. The zero value means seed 1.
	Seed uint64
	// Fidelity selects the cache-model tier (default FidelityExact).
	// FidelityAnalytic is incompatible with MonitorShadowSim, which
	// replays per-access traces the analytic tier does not produce.
	Fidelity Fidelity
}

// MonitorKind selects a pollution monitor.
type MonitorKind int

// Monitors (§3.3 of the paper).
const (
	// MonitorCounters reads each vCPU's performance counters directly.
	MonitorCounters MonitorKind = iota
	// MonitorShadowSim captures per-vCPU access traces and replays them
	// on a dedicated cache model (the McSimA+ strategy).
	MonitorShadowSim
)

// World is a running simulated host.
type World struct {
	node *cluster.Node
	// cfg is the normalized construction config, retained so Snapshot can
	// digest it into the envelope (Resume must match it exactly).
	cfg WorldConfig
	// inCluster marks a Cluster's host, which checkpoints only with its
	// fleet (SnapshotCluster).
	inCluster bool
}

// TableOneMachine returns the scaled replica of the paper's Table 1
// machine (Xeon E5-1603 v3: 4 cores, 10 MB 20-way LLC). It takes no
// seed: WorldConfig.Seed seeds the run.
func TableOneMachine() MachineConfig { return machine.TableOne() }

// R420Machine returns the scaled two-socket NUMA PowerEdge R420 used by
// the paper's §4.5 study. It takes no seed: WorldConfig.Seed seeds the
// run.
func R420Machine() MachineConfig { return machine.R420() }

// LookupProfile returns a built-in application profile by name ("gcc",
// "lbm", "blockie", ...). See ProfileNames.
func LookupProfile(name string) (Profile, error) { return workload.Lookup(name) }

// ProfileNames lists the built-in application profiles.
func ProfileNames() []string { return workload.Names() }

// normalizeWorldConfig applies the constructor defaults, so two configs
// that build identical worlds compare (and digest) identically.
func normalizeWorldConfig(cfg WorldConfig) WorldConfig {
	if cfg.Machine.Sockets == 0 {
		cfg.Machine = machine.TableOne()
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Scheduler == 0 {
		cfg.Scheduler = CreditScheduler
	}
	if cfg.EnableKyoto && cfg.Indicator == 0 {
		cfg.Indicator = Equation1
	}
	return cfg
}

// nodeConfig maps the public scheduler and monitor kinds onto the one
// Kyoto host recipe; NewWorld and NewCluster both build from it.
func nodeConfig(cfg WorldConfig) (cluster.NodeConfig, error) {
	nc := cluster.NodeConfig{
		Machine: cfg.Machine, Seed: cfg.Seed, Fidelity: cfg.Fidelity,
		EnableKyoto: cfg.EnableKyoto, Indicator: cfg.Indicator,
	}
	switch cfg.Scheduler {
	case 0, CreditScheduler: // nil NewSched: the credit scheduler
	case CFSScheduler:
		nc.NewSched = func(int) sched.Scheduler { return sched.NewCFS() }
	case PiscesScheduler:
		nc.NewSched = func(int) sched.Scheduler { return sched.NewPisces() }
	default:
		return nc, fmt.Errorf("kyoto: unknown scheduler kind %d", cfg.Scheduler)
	}
	switch cfg.Monitor {
	case MonitorCounters:
	case MonitorShadowSim:
		nc.ShadowMonitor = true
	default:
		return nc, fmt.Errorf("kyoto: unknown monitor kind %d", cfg.Monitor)
	}
	return nc, nil
}

// NewWorld builds a simulated host from cfg.
func NewWorld(cfg WorldConfig) (*World, error) {
	cfg = normalizeWorldConfig(cfg)
	nc, err := nodeConfig(cfg)
	if err != nil {
		return nil, err
	}
	n, err := cluster.NewNode(nc)
	if err != nil {
		return nil, err
	}
	return &World{node: n, cfg: cfg}, nil
}

// AddVM instantiates a VM from spec.
func (w *World) AddVM(spec VMSpec) (*VM, error) { return w.node.World.AddVM(spec) }

// RemoveVM tears the named VM down: its vCPUs leave the scheduler, its
// cache lines are evicted, and its Kyoto ledger (if any) is closed. The
// VM's counters stay readable for lifetime statistics.
func (w *World) RemoveVM(name string) error { return w.node.World.RemoveVM(name) }

// RunTicks advances the host n scheduler ticks (10 ms of model time each).
func (w *World) RunTicks(n int) { w.node.World.RunTicks(n) }

// RunUntil advances until pred holds or maxTicks elapse; it returns the
// ticks run.
func (w *World) RunUntil(pred func(*World) bool, maxTicks int) int {
	return w.node.World.RunUntil(func(*hv.World) bool { return pred(w) }, maxTicks)
}

// Now returns the completed tick count.
func (w *World) Now() uint64 { return w.node.World.Now() }

// NowMillis returns elapsed model time in milliseconds.
func (w *World) NowMillis() float64 { return w.node.World.NowMillis() }

// VMs returns the VMs in creation order.
func (w *World) VMs() []*VM { return w.node.World.VMs() }

// FindVM returns the VM with the given name, or nil.
func (w *World) FindVM(name string) *VM { return w.node.World.FindVM(name) }

// AddHook attaches a per-tick observer.
func (w *World) AddHook(h TickHook) { w.node.World.AddHook(h) }

// Kyoto returns the pollution ledger when EnableKyoto was set, else nil.
// Use it to read quota balances and measured rates.
func (w *World) Kyoto() *Kyoto { return w.node.Kyoto() }

// Fidelity returns the world's cache-model tier.
func (w *World) Fidelity() Fidelity { return w.node.World.Fidelity() }

// MachineTable renders the machine description as the paper's Table 1.
func (w *World) MachineTable() string { return w.node.World.Machine().Config().TableString() }

// Equation1Value computes the paper's Equation 1 over a counter delta:
// LLC misses per millisecond of unhalted execution.
func Equation1Value(d Counters) float64 { return core.Equation1Value(d) }

// RawLLCMValue computes the wall-normalized baseline indicator.
func RawLLCMValue(d Counters) float64 { return core.RawLLCMValue(d) }
