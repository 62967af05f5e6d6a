// Package vm defines the virtual machine and virtual CPU state shared by
// the schedulers, the Kyoto accounting layer, and the hypervisor testbed —
// the moral equivalent of Xen's csched_dom / csched_vcpu structures, which
// is where the paper's 110-line patch keeps its per-VM pollution state.
package vm

import (
	"fmt"
	"math"

	"kyoto/internal/cache"
	"kyoto/internal/cpu"
	"kyoto/internal/pmc"
	"kyoto/internal/workload"
)

// NoPin marks an unpinned vCPU.
const NoPin = -1

// DefaultWeight is the credit-scheduler weight assigned when a spec leaves
// it zero (Xen's default).
const DefaultWeight = 256

// Spec declares a VM to be added to a World.
type Spec struct {
	// Name identifies the VM in reports ("vsen1", ...).
	Name string
	// App names a built-in workload profile; Profile overrides it when
	// non-zero.
	App string
	// Profile, when it has phases, is used instead of looking up App.
	Profile workload.Profile
	// VCPUs is the vCPU count (default 1, the paper's assumption §2.2).
	VCPUs int
	// Weight is the credit-scheduler weight (default DefaultWeight).
	Weight int64
	// CapPercent caps the VM's CPU consumption per accounting window, in
	// percent of one core per vCPU; 0 means uncapped. This is the lever
	// Figure 3 sweeps.
	CapPercent int
	// LLCCap is the booked pollution permit in Equation-1 units (LLC
	// misses per busy millisecond). 0 books no permit: the VM is never
	// pollution-punished.
	LLCCap float64
	// Pins optionally pins vCPU i to core Pins[i]; missing entries mean
	// unpinned.
	Pins []int
	// HomeNode is the NUMA node holding the VM's memory.
	HomeNode int
	// Seed diversifies the workload stream; 0 derives one from the VM id.
	Seed uint64
}

// Validate reports specification errors.
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("vm: spec needs a name")
	}
	if s.App == "" && len(s.Profile.Phases) == 0 {
		return fmt.Errorf("vm %q: spec needs App or Profile", s.Name)
	}
	if s.VCPUs < 0 {
		return fmt.Errorf("vm %q: negative vCPU count", s.Name)
	}
	if s.CapPercent < 0 || s.CapPercent > 100 {
		return fmt.Errorf("vm %q: cap %d%% outside [0,100]", s.Name, s.CapPercent)
	}
	if s.LLCCap < 0 {
		return fmt.Errorf("vm %q: negative llc_cap", s.Name)
	}
	// A NaN permit slips past the sign check above (every comparison
	// with NaN is false), and so past Kyoto admission, turning the
	// host's booked permits into NaN; an infinite one books the host
	// out forever.
	if math.IsNaN(s.LLCCap) || math.IsInf(s.LLCCap, 1) {
		return fmt.Errorf("vm %q: non-finite llc_cap", s.Name)
	}
	if s.Weight < 0 {
		return fmt.Errorf("vm %q: negative weight", s.Name)
	}
	return nil
}

// VM is a running virtual machine.
type VM struct {
	// ID is the domain id, assigned by the World.
	ID int
	// Name is the spec name.
	Name string
	// App is the resolved profile name.
	App string
	// Weight, CapPercent, LLCCap, HomeNode mirror the Spec.
	Weight     int64
	CapPercent int
	LLCCap     float64
	HomeNode   int
	// VCPUs are the VM's virtual CPUs.
	VCPUs []*VCPU

	// PollutionBlocked is set by the Kyoto layer while the VM's pollution
	// quota is negative; schedulers must not run its vCPUs ("priority
	// OVER" in the paper's terms, §3.2).
	PollutionBlocked bool
	// Down is set while the VM is suspended for a live-migration blackout
	// window (hv.World.SuspendVM); schedulers must not run its vCPUs.
	Down bool
	// Punishments counts the ticks the VM spent pollution-blocked
	// (Fig 5 top-right).
	Punishments uint64

	// Carried holds the counters the VM accumulated on previous hosts
	// before a live migration (cluster.Fleet.Migrate re-instantiates the
	// domain on the destination with fresh per-vCPU counters, so monitors
	// sampling vCPU deltas never see the history as a one-tick spike).
	// Counters folds it in, keeping lifetime statistics migration-proof.
	Carried pmc.Counters

	// Spec is the specification the VM was instantiated from, retained
	// verbatim so checkpointing can rebuild the domain — including its
	// workload generators, whose seeds derive from the spec — on restore.
	Spec Spec
}

// Counters aggregates the PMCs of all the VM's vCPUs plus anything carried
// over from hosts the VM lived on before being migrated.
func (m *VM) Counters() pmc.Counters {
	agg := m.Carried
	for _, v := range m.VCPUs {
		agg.Add(v.Counters)
	}
	return agg
}

// VCPU is one virtual CPU.
type VCPU struct {
	// VM owns this vCPU.
	VM *VM
	// ID is the global vCPU id; it doubles as the cache attribution
	// owner tag. IDs are recycled after VM removal (hv releases the tag
	// once every cache line is evicted and the stats rows are zeroed), so
	// the dense per-owner cache slices stay bounded under churn. Nothing
	// arithmetic may depend on it — use Seq for deterministic ordering.
	ID int
	// Seq is the vCPU's creation sequence number, monotonic and never
	// reused. Schedulers tie-break on Seq, not ID: a recycled ID would
	// otherwise let a new VM inherit a departed VM's round-robin slot and
	// shift the schedule.
	Seq int
	// Index is the vCPU's index within its VM.
	Index int
	// Gen is the vCPU's instruction stream.
	Gen workload.Generator
	// Counters is the vCPU's cumulative PMC block.
	Counters pmc.Counters
	// Ctx is the execution context bound to Counters/Gen; the hypervisor
	// rebinds its Path on every placement.
	Ctx cpu.Context
	// ACtx is the analytic-tier execution context; nil on exact-fidelity
	// worlds. The hypervisor rebinds its LLC on every placement, exactly
	// as it rebinds Ctx.Path.
	ACtx *cpu.AnalyticContext

	// Pin restricts the vCPU to one core (NoPin = free).
	Pin int
	// LastCore is the core the vCPU last ran on (NoPin before first run).
	LastCore int

	// Scheduler-owned state (credit scheduler fields mirror XCS).
	RemainCredit int64
	OverPriority bool   // true when RemainCredit exhausted (priority OVER)
	WindowBurn   uint64 // wall cycles consumed in the current cap window
	CapBlocked   bool   // true when the cap budget for the window is spent
	LastRunTick  uint64 // round-robin fairness key
	VRuntime     uint64 // CFS virtual runtime
}

// Owner returns the cache attribution tag for this vCPU.
func (v *VCPU) Owner() cache.Owner { return cache.Owner(v.ID) }

// Schedulable reports whether any scheduler may run this vCPU now: it is
// not pollution-blocked (Kyoto), not cap-blocked (credit cap), and not in
// a migration blackout window.
func (v *VCPU) Schedulable() bool {
	return !v.VM.PollutionBlocked && !v.CapBlocked && !v.VM.Down
}

// AllowedOn reports whether the vCPU may run on the given core id.
func (v *VCPU) AllowedOn(coreID int) bool {
	return v.Pin == NoPin || v.Pin == coreID
}
