// Package cluster scales the single-host testbed to an IaaS fleet: N
// simulated hosts, each wrapping an independent hv.World, driven
// concurrently by a bounded worker pool and fed by a pluggable placement
// policy.
//
// The paper's argument is cluster-scoped: contention-aware VM placement
// (the related-work approach) must solve an NP-hard bin-packing across
// exactly these hosts, while Kyoto permits make *any* placement safe by
// charging polluters at the hypervisor. This package expresses both sides:
// a Placer decides which host gets each VM, and because every host is a
// full Kyoto-capable World, the same fleet can be run with or without
// permit enforcement.
//
// Determinism is preserved: hosts share no mutable state, each host's
// World is seeded independently, and RunTicks merely distributes whole
// hosts across workers — so a concurrent fleet run is bit-identical to
// driving the hosts serially (cluster tests assert this under -race).
//
// # Lazy per-host clocks
//
// The fleet keeps a virtual clock (SkipTicks advances it without
// simulating anything) and each host records how many ticks have
// actually been driven into its World. Each host also keeps a timeline:
// a FIFO of lifecycle operations (admit a VM, remove one), each stamped
// with the fleet tick it was issued at. Place and Remove do their
// booking synchronously — the ledgers, the host's and the fleet's
// placement lists, and for Place the construction of the VM, where
// every bad spec fails — and put the World change on the host's
// timeline instead of waiting for the host to reach the clock. Whoever
// advances a host applies each operation when the World reaches its
// tick. A host is fast-forwarded to the fleet clock only when an
// operation needs its simulated state: Migrate seeks both endpoints, a
// host whose timeline holds maxPendingOps operations is caught up
// before it takes another, and whole-fleet reads
// (FleetMonitor.Observe, CaptureState, SnapshotVMs) call Barrier
// first. Because hv.World.RunTicks(n) is exactly n repetitions of one
// tick — chunk-invariant — and operations apply at their issue ticks,
// every World receives exactly the ticks and changes, in order, that
// seeking it at every operation would give it; the churn goldens pin
// this. RunTicks keeps its historical all-hosts semantics (SkipTicks
// then Barrier), so callers that want whole-fleet advancement still
// get it.
//
// Laziness pays twice. First, an idle host's deferred stretch collapses
// to O(1): hv.World.FastForward elides the tick loop for a world that
// provably holds no VMs, so hosts a sparse trace never touches cost
// nothing to catch up — work is eliminated, not merely postponed.
// Second, busy lags close concurrently: fleets built with more than one
// worker run background drainer goroutines (the due-host scheduler)
// that sweep lagging hosts in DueChunkTicks-sized chunks, applying the
// operations due within each, while the calling goroutine processes
// events, synchronizing per host through Host.mu. Since the calling
// goroutine no longer simulates the hosts its events touch, a dense
// fleet's busy hosts simulate in parallel. Both mechanisms are
// schedule-only, so a drained, elided, concurrent run is bit-identical
// to RunTicksSerial's eager serial schedule.
//
// A whole-fleet stop costs only its own work. Barrier helps before it
// waits: it first closes the lag of every host no drainer holds, then
// blocks only on the hosts still held, each of which a drainer is
// already advancing.
package cluster

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"kyoto/internal/cache"
	"kyoto/internal/core"
	"kyoto/internal/machine"
	"kyoto/internal/pmc"
	"kyoto/internal/sched"
	"kyoto/internal/vm"
)

// DefaultVMMemoryMB is booked for a VM whose request leaves MemoryMB
// zero — 1/8 of the scaled Table-1 host's 506 MB.
const DefaultVMMemoryMB = 64

// DefaultLLCCapPerCore sizes a host's pollution-permit budget: the
// paper's Figure-5 booking (llc_cap 250) per core. A Table-1 host can
// thus admit four fully-booked VMs before Kyoto admission says no.
const DefaultLLCCapPerCore = 250

// HostTemplate describes how each host of a fleet is assembled; it is the
// internal mirror of the public WorldConfig.
type HostTemplate struct {
	// Machine is the per-host hardware; the zero value selects the
	// paper's Table 1 machine.
	Machine machine.Config
	// NewSched builds the base scheduler; nil selects the Xen credit
	// scheduler, the paper's baseline.
	NewSched func(cores int) sched.Scheduler
	// EnableKyoto wraps every host's scheduler with pollution
	// enforcement and attaches a monitor.
	EnableKyoto bool
	// ShadowMonitor selects the trace-replay monitor instead of the
	// exact per-vCPU counters when Kyoto is enabled.
	ShadowMonitor bool
	// Indicator is the counter monitor's pollution metric; zero selects
	// Equation 1.
	Indicator core.Indicator
	// Seed drives all randomness; host i derives its own stream from it.
	Seed uint64
	// Fidelity selects each host's cache-model tier (hv.Config.Fidelity).
	// The analytic tier cannot drive the shadow monitor, which needs a
	// per-access trace.
	Fidelity cache.Fidelity
	// MemoryMB overrides the host memory capacity used for admission
	// (default Machine.MainMemoryMB).
	MemoryMB int
	// LLCBudget overrides the host's pollution-permit budget in
	// Equation-1 units (default cores x DefaultLLCCapPerCore).
	LLCBudget float64
}

// Host is one machine of the fleet: a Kyoto host (its World, ledger and
// monitor) plus the resource ledger the placement policies book against.
type Host struct {
	// ID is the host's index in the fleet, fixed at construction.
	ID int
	*Node
	headroom

	vms []Placement

	// mu serializes simulation access to the host's World between the
	// fleet's calling goroutine and the background due-host drainers.
	// ran counts the ticks actually driven into the World since fleet
	// construction (or the last RestoreState); invariant: ran <= the
	// fleet clock, and the gap is the host's lag, closed by seeks and
	// drainers. Both are guarded by mu; so is the World, except that
	// the calling goroutine builds VMs with hv.World.NewVM, which touches
	// nothing the tick loop or an applied operation reads.
	mu  sync.Mutex
	ran uint64

	// ops is the host's timeline of lifecycle operations issued but not
	// yet applied to its World: a ring of nops entries from head, oldest
	// first. opMu guards it instead of mu, so issuing an operation never
	// waits behind a drainer's chunk.
	opMu       sync.Mutex
	ops        [maxPendingOps]hostOp
	head, nops int
}

// maxPendingOps bounds a host's timeline. Place and Remove catch a host
// holding this many pending operations up before issuing another, which
// bounds the memory of the VMs a lagging host has yet to admit.
const maxPendingOps = 64

// hostOp is one lifecycle operation on a host's timeline: admit a VM
// built by hv.World.NewVM, or remove one.
type hostOp struct {
	// at is the fleet tick the operation was issued at; it is applied
	// once the host's World has run exactly that many ticks.
	at     uint64
	domain *vm.VM
	remove bool
	// final, when set on a removal, receives the departed VM's lifetime
	// counters.
	final *pmc.Counters
}

// headroom is the fleet's one admission and booking rule: a host's
// capacity in the three first-class resources and what is booked
// against it. Host embeds one as its live ledger (Place, Remove and
// Migrate book through it); a batch rebalancing plan copies the hosts'
// ledgers and books its moves against the copies, so a plan and the
// live fleet apply the same rule by construction.
type headroom struct {
	// Capacity of the three first-class resources. CPUs counts vCPU
	// slots (one per physical core: the paper's §2.2 assumption of
	// unshared cores for admission purposes), MemMB main memory, and
	// LLCBudget the total pollution permit the host will book.
	CapacityCPUs  int
	CapacityMemMB int
	LLCBudget     float64

	// Booked resources, updated by Fleet.Place, Remove and Migrate.
	BookedCPUs  int
	BookedMemMB int
	BookedLLC   float64
}

// FreeCPUs returns the unbooked vCPU slots.
func (r *headroom) FreeCPUs() int { return r.CapacityCPUs - r.BookedCPUs }

// FreeMemMB returns the unbooked memory.
func (r *headroom) FreeMemMB() int { return r.CapacityMemMB - r.BookedMemMB }

// FreeLLC returns the unbooked pollution budget.
func (r *headroom) FreeLLC() float64 { return r.LLCBudget - r.BookedLLC }

// fits reports whether the request's vCPU and memory bookings fit and,
// when permits is set, its llc_cap permit too.
func (r *headroom) fits(req Request, permits bool) bool {
	if req.CPUs() > r.FreeCPUs() || req.MemMB() > r.FreeMemMB() {
		return false
	}
	return !permits || req.LLCCap <= r.FreeLLC()
}

// book charges the request's vCPUs, memory and llc_cap permit.
func (r *headroom) book(req Request) {
	r.BookedCPUs += req.CPUs()
	r.BookedMemMB += req.MemMB()
	r.BookedLLC += req.LLCCap
}

// release returns what book charged.
func (r *headroom) release(req Request) {
	r.BookedCPUs -= req.CPUs()
	r.BookedMemMB -= req.MemMB()
	r.BookedLLC -= req.LLCCap
}

// Placements returns the VMs currently placed on this host, in placement
// order (departed VMs are pruned by Fleet.Remove). The slice is a copy:
// it stays valid however the fleet churns afterwards.
func (h *Host) Placements() []Placement { return append([]Placement(nil), h.vms...) }

// Fits reports whether the request's vCPU and memory bookings fit.
func (h *Host) Fits(req Request) bool { return h.fits(req, false) }

// Request asks the fleet for a VM. The embedded spec is handed verbatim
// to the chosen host's World; MemoryMB is the booking the placement
// policies see.
type Request struct {
	vm.Spec
	// MemoryMB is the VM's booked memory (default DefaultVMMemoryMB).
	MemoryMB int
}

// CPUs returns the vCPU slots the request books.
func (r Request) CPUs() int {
	if r.VCPUs == 0 {
		return 1
	}
	return r.VCPUs
}

// MemMB returns the memory the request books.
func (r Request) MemMB() int {
	if r.MemoryMB == 0 {
		return DefaultVMMemoryMB
	}
	return r.MemoryMB
}

// Placement records where a VM landed.
type Placement struct {
	// HostID is the chosen host.
	HostID int
	// VM is the domain built for that host's World. It joins (or, once
	// removed, leaves) the World on the host's timeline, so its counters
	// are current only after a seek of the host or a Barrier.
	VM *vm.VM
	// Request echoes what was asked.
	Request Request
}

// HostOverride customizes one host of an otherwise uniform fleet, making
// heterogeneous fleets expressible: a few Table-1-class hosts next to
// machines with a larger LLC, more memory, or a bigger permit budget.
// Zero-valued fields keep the template's value; scheduler, Kyoto
// enforcement and the seed always come from the template so the fleet
// stays one coherent experiment.
type HostOverride struct {
	// Machine replaces the template machine when set (Sockets > 0).
	Machine machine.Config
	// MemoryMB replaces the host memory capacity when non-zero.
	MemoryMB int
	// LLCBudget replaces the pollution-permit budget when non-zero.
	LLCBudget float64
}

// Config assembles a Fleet.
type Config struct {
	// Hosts is the fleet size (at least 1).
	Hosts int
	// Template describes every host.
	Template HostTemplate
	// Overrides customizes individual hosts by ID; hosts without an entry
	// are stamped from Template unchanged.
	Overrides map[int]HostOverride
	// Placer decides which host gets each VM (default FirstFit).
	Placer Placer
	// Workers caps RunTicks concurrency (default GOMAXPROCS).
	Workers int
}

// Fleet is a cluster of simulated hosts behind one placement policy.
type Fleet struct {
	hosts      []*Host
	placer     Placer
	workers    int
	placements []Placement

	// sched owns the lazy-clock machinery: the fleet's virtual clock and
	// the background due-host drainers. It deliberately holds no pointer
	// back to the Fleet, so the drainer goroutines never keep a
	// discarded fleet alive — the finalizer set in New stops them once
	// the Fleet itself is collected.
	sched *dueScheduler
	// held is Barrier's scratch list of hosts its first sweep found
	// locked, kept so the barrier path stays allocation-free.
	held []*Host
}

// dueScheduler is the shared state between a fleet's calling goroutine
// and its background drainers: the virtual clock (how far every host is
// *entitled* to have run) and the host list whose lags the drainers
// close. Per-host serialization lives in Host.mu.
type dueScheduler struct {
	hosts []*Host
	// clock is the fleet's virtual time in ticks since construction (or
	// the last RestoreState). SkipTicks advances it for free; seeks and
	// Barrier make hosts catch up to it. Atomic because drainers read it
	// while the calling goroutine advances it.
	clock atomic.Uint64
	// wake (buffered, capacity one) nudges parked drainers after the
	// clock moves; quit stops them for good. Both are nil on fleets that
	// run without drainers (single host, or an effective worker count of
	// one).
	wake chan struct{}
	quit chan struct{}
}

// New builds a fleet of cfg.Hosts identical hosts.
func New(cfg Config) (*Fleet, error) {
	if cfg.Hosts <= 0 {
		return nil, fmt.Errorf("cluster: need at least 1 host, got %d", cfg.Hosts)
	}
	placer := cfg.Placer
	if placer == nil {
		placer = FirstFit{}
	}
	if err := checkCapacity(cfg.Template.MemoryMB, cfg.Template.LLCBudget); err != nil {
		return nil, fmt.Errorf("cluster: host template: %w", err)
	}
	for id, o := range cfg.Overrides {
		if id < 0 || id >= cfg.Hosts {
			return nil, fmt.Errorf("cluster: override for host %d, but fleet has hosts 0..%d", id, cfg.Hosts-1)
		}
		if err := checkCapacity(o.MemoryMB, o.LLCBudget); err != nil {
			return nil, fmt.Errorf("cluster: override for host %d: %w", id, err)
		}
	}
	f := &Fleet{placer: placer, workers: cfg.Workers}
	for i := 0; i < cfg.Hosts; i++ {
		t := cfg.Template
		if o, ok := cfg.Overrides[i]; ok {
			if o.Machine.Sockets > 0 {
				t.Machine = o.Machine
			}
			if o.MemoryMB != 0 {
				t.MemoryMB = o.MemoryMB
			}
			if o.LLCBudget != 0 {
				t.LLCBudget = o.LLCBudget
			}
		}
		h, err := newHost(i, t)
		if err != nil {
			return nil, fmt.Errorf("cluster: host %d: %w", i, err)
		}
		f.hosts = append(f.hosts, h)
	}
	f.sched = &dueScheduler{hosts: f.hosts}
	f.held = make([]*Host, 0, len(f.hosts))
	if n := f.drainers(); n > 0 {
		f.sched.start(n)
		// The drainers hold only f.sched, so the Fleet itself can be
		// collected; stopping them on collection keeps fleet-heavy test
		// suites and sweeps from accumulating parked goroutines forever.
		runtime.SetFinalizer(f, func(f *Fleet) { close(f.sched.quit) })
	}
	return f, nil
}

// checkCapacity rejects a memory or permit-budget setting no host can
// have: a negative one rejects every VM, and a NaN budget admits every
// permit, since every comparison with NaN is false.
func checkCapacity(memoryMB int, llcBudget float64) error {
	if memoryMB < 0 || llcBudget < 0 || math.IsNaN(llcBudget) || math.IsInf(llcBudget, 0) {
		return fmt.Errorf("bad capacity (%d MB, %v permit): want finite, non-negative values", memoryMB, llcBudget)
	}
	return nil
}

// resolveWorkers returns the effective advancement concurrency.
func (f *Fleet) resolveWorkers() int {
	if f.workers > 0 {
		return f.workers
	}
	return runtime.GOMAXPROCS(0)
}

// drainers returns how many background drainers the fleet runs: the
// worker budget minus the calling goroutine (which makes the decisions
// and closes whatever lag a seek or barrier still finds), bounded by
// the hosts that could lag concurrently.
func (f *Fleet) drainers() int {
	n := f.resolveWorkers()
	if n > len(f.hosts) {
		n = len(f.hosts)
	}
	return n - 1
}

// newHost assembles one host from the template, deriving a per-host seed
// the same way hv derives per-VM seeds.
func newHost(id int, t HostTemplate) (*Host, error) {
	seed := cmp.Or(t.Seed, 1) ^ uint64(id+1)*0x9e3779b97f4a7c15
	mcfg := t.Machine
	if mcfg.Sockets == 0 {
		mcfg = machine.TableOne()
	}
	n, err := NewNode(NodeConfig{
		Machine: mcfg, Seed: seed, Fidelity: t.Fidelity, NewSched: t.NewSched,
		EnableKyoto: t.EnableKyoto, ShadowMonitor: t.ShadowMonitor, Indicator: t.Indicator,
	})
	if err != nil {
		return nil, err
	}
	cores := mcfg.Sockets * mcfg.CoresPerSocket
	return &Host{ID: id, Node: n, headroom: headroom{
		CapacityCPUs:  cores,
		CapacityMemMB: cmp.Or(t.MemoryMB, mcfg.MainMemoryMB),
		LLCBudget:     cmp.Or(t.LLCBudget, float64(cores)*DefaultLLCCapPerCore),
	}}, nil
}

// Hosts returns the fleet's hosts in ID order.
func (f *Fleet) Hosts() []*Host { return f.hosts }

// Host returns host i.
func (f *Fleet) Host(i int) *Host { return f.hosts[i] }

// Size returns the number of hosts.
func (f *Fleet) Size() int { return len(f.hosts) }

// Placer returns the fleet's placement policy.
func (f *Fleet) Placer() Placer { return f.placer }

// Placements returns the live placements in request order; VMs torn down
// by Remove no longer appear. The slice is a copy: it stays valid
// however the fleet churns afterwards.
func (f *Fleet) Placements() []Placement { return append([]Placement(nil), f.placements...) }

// Place asks the policy for a host, books the request's resources and
// instantiates the VM there. The error is ErrUnplaceable (wrapped with
// the policy's reason) when no host can take the VM.
func (f *Fleet) Place(req Request) (Placement, error) {
	hostID, err := f.placer.Place(f.hosts, req)
	if err != nil {
		return Placement{}, fmt.Errorf("cluster: placing %q: %w", req.Name, err)
	}
	if hostID < 0 || hostID >= len(f.hosts) {
		return Placement{}, fmt.Errorf("cluster: placer %s chose invalid host %d", f.placer.Name(), hostID)
	}
	h := f.hosts[hostID]
	// Building the VM is every check a spec can fail, so a bad spec fails
	// here and books nothing; the World admits the VM on its timeline.
	domain, err := h.World.NewVM(req.Spec)
	if err != nil {
		return Placement{}, fmt.Errorf("cluster: host %d: %w", hostID, err)
	}
	h.book(req)
	p := Placement{HostID: hostID, VM: domain, Request: req}
	h.vms = append(h.vms, p)
	f.placements = append(f.placements, p)
	f.issue(h, hostOp{domain: domain})
	return p, nil
}

// Remove tears the named VM down wherever it landed: its booked vCPUs,
// memory and llc_cap permit are freed for future placements at once, and
// the VM leaves its host's World (scheduler runqueues, cache footprint —
// see hv.World.RemoveVM) on the host's timeline. Removing a VM the fleet
// does not hold returns an error and leaves every booking untouched. The
// removed Placement is returned; its VM's lifetime counters are final
// after the next seek of the host or Barrier.
func (f *Fleet) Remove(name string) (Placement, error) { return f.RemoveInto(name, nil) }

// RemoveInto is Remove that also delivers the departed VM's lifetime
// counters: the host writes them to *final when it applies the removal,
// so *final may be read after the next seek of that host or Barrier.
func (f *Fleet) RemoveInto(name string, final *pmc.Counters) (Placement, error) {
	h, i := f.findPlacement(name)
	if h == nil {
		return Placement{}, fmt.Errorf("cluster: remove %q: no such VM in the fleet", name)
	}
	if err := h.World.CheckRemovable(name); err != nil {
		return Placement{}, fmt.Errorf("cluster: host %d: %w", h.ID, err)
	}
	p := h.vms[i]
	h.release(p.Request)
	h.vms = append(h.vms[:i], h.vms[i+1:]...)
	for j, fp := range f.placements {
		if fp.VM == p.VM {
			f.placements = append(f.placements[:j], f.placements[j+1:]...)
			break
		}
	}
	f.issue(h, hostOp{domain: p.VM, remove: true, final: final})
	return p, nil
}

// BookedCPUFraction returns the fleet-wide booked share of vCPU slots in
// [0, 1] — the utilization the trace-replay reports sample between events.
func (f *Fleet) BookedCPUFraction() float64 {
	var booked, capacity int
	for _, h := range f.hosts {
		booked += h.BookedCPUs
		capacity += h.CapacityCPUs
	}
	if capacity == 0 {
		return 0
	}
	return float64(booked) / float64(capacity)
}

// PlaceAll places every request in order, returning all placements or the
// first error.
func (f *Fleet) PlaceAll(reqs []Request) ([]Placement, error) {
	out := make([]Placement, 0, len(reqs))
	for _, req := range reqs {
		p, err := f.Place(req)
		if err != nil {
			return out, err
		}
		out = append(out, p)
	}
	return out, nil
}

// DueChunkTicks bounds how long a background drainer holds one host's
// lock: lag is closed in contiguous chunks of at most this many ticks,
// so the calling goroutine's seek of the same host blocks for at most
// one chunk (and that blocked time is never wasted — the drainer is
// doing exactly the catch-up the seek needs); issuing an operation never
// blocks on a chunk at all. Large enough to amortize
// the lock traffic over real simulation work, small enough to keep
// event-path latency bounded.
const DueChunkTicks = 256

// RunTicks advances every host n ticks: the fleet clock moves forward
// and every host catches up to it, the drainers closing lags alongside
// the calling goroutine. Hosts share no state, so the result is
// identical to RunTicksSerial.
func (f *Fleet) RunTicks(n int) {
	f.SkipTicks(uint64(n))
	f.Barrier()
}

// RunTicksSerial advances every host n ticks on the calling goroutine, in
// host-ID order — the reference execution the concurrent path must match.
func (f *Fleet) RunTicksSerial(n int) {
	f.sched.clock.Add(uint64(n))
	for _, h := range f.hosts {
		f.seek(h)
	}
}

// SkipTicks advances the fleet's virtual clock by n ticks without
// simulating anything on the calling goroutine. Hosts catch up lazily:
// each one is fast-forwarded the moment an operation needs its
// simulated state (Migrate on that host; Barrier for all of them), and
// the background drainers close lags concurrently in the meantime.
// Bookkeeping reads — Fits, FreeLLC, BookedCPUFraction, the placement
// ledgers — never force a catch-up, which is what makes replaying a
// sparse event stream cheap.
func (f *Fleet) SkipTicks(n uint64) {
	f.sched.clock.Add(n)
	f.sched.nudge()
}

// Clock returns the fleet's virtual time in ticks since construction
// (or the last RestoreState).
func (f *Fleet) Clock() uint64 { return f.sched.clock.Load() }

// HostLag returns how many ticks host i still has to simulate to reach
// the fleet clock (0 for a fully caught-up host).
func (f *Fleet) HostLag(i int) uint64 {
	h := f.hosts[i]
	h.mu.Lock()
	lag := f.sched.clock.Load() - h.ran
	h.mu.Unlock()
	return lag
}

// Barrier fast-forwards every lagging host to the fleet clock and
// applies every pending operation, the drainers helping concurrently.
// After it returns, every host's World is at the same virtual time —
// the prerequisite for whole-fleet reads (monitor observations,
// checkpoints, counter snapshots) — and no drainer touches any World
// until the clock moves again or an operation is issued.
//
// Barrier helps before it waits. A first sweep TryLocks each host and
// closes the lag of every host no drainer holds; only then does it
// block, and only on the hosts that were held, each of which a drainer
// is already advancing. Locking in ID order instead would trail the
// drainers (they sweep from host 0 too) and wait out their chunks
// while free hosts sat behind them. Which goroutine closes a lag never
// matters: each World's tick and operation sequence is fixed by the
// clock deltas and issue ticks.
func (f *Fleet) Barrier() {
	f.sched.nudge()
	// Only the calling goroutine moves the clock, so it cannot move
	// during the barrier.
	c := f.sched.clock.Load()
	held := f.held[:0]
	for _, h := range f.hosts {
		if !h.mu.TryLock() {
			held = append(held, h)
			continue
		}
		h.advanceLocked(c)
		h.mu.Unlock()
	}
	for _, h := range held {
		h.mu.Lock()
		h.advanceLocked(c)
		h.mu.Unlock()
	}
	f.held = held[:0]
}

// seek brings one host to the fleet clock, applying its pending
// operations on the way, because an event needs its simulated state.
// Acquiring the host lock also establishes the happens-before edge with
// whichever drainer last advanced the World, so the caller may read and
// mutate it freely afterwards (no drainer touches a caught-up host with
// an empty timeline until the calling goroutine moves the clock or
// issues an operation).
func (f *Fleet) seek(h *Host) {
	h.mu.Lock()
	h.advanceLocked(f.sched.clock.Load())
	h.mu.Unlock()
}

// issue puts op on h's timeline, stamped with the fleet clock, and wakes
// the drainers to apply it. A host whose timeline is full is caught up
// first; that empties the timeline, since every pending operation was
// issued at or before the clock.
func (f *Fleet) issue(h *Host, op hostOp) {
	if h.pending() == maxPendingOps {
		f.seek(h)
	}
	op.at = f.sched.clock.Load()
	h.opMu.Lock()
	h.ops[(h.head+h.nops)%maxPendingOps] = op
	h.nops++
	h.opMu.Unlock()
	f.sched.nudge()
}

// pending returns how many operations wait on h's timeline.
func (h *Host) pending() int {
	h.opMu.Lock()
	defer h.opMu.Unlock()
	return h.nops
}

// nextOp pops h's oldest pending operation if it was issued at or before
// fleet tick t.
func (h *Host) nextOp(t uint64) (hostOp, bool) {
	h.opMu.Lock()
	defer h.opMu.Unlock()
	if h.nops == 0 || h.ops[h.head].at > t {
		return hostOp{}, false
	}
	op := h.ops[h.head]
	h.ops[h.head] = hostOp{}
	h.head = (h.head + 1) % maxPendingOps
	h.nops--
	return op, true
}

// advanceLocked runs h's World to fleet tick target (h.mu held), applying
// each pending operation issued by then once the World reaches the tick
// it was issued at. The World thus receives exactly the ticks and
// changes, in order, that applying every operation when it was issued
// would have given it. Ticks run through World.FastForward, which elides
// the tick loop in O(1) while the host is empty — an untouched host's
// idle stretch costs nothing to close, the lazy engine's headline saving.
func (h *Host) advanceLocked(target uint64) {
	for {
		op, ok := h.nextOp(target)
		if !ok {
			break
		}
		h.runLocked(op.at)
		h.apply(op)
	}
	h.runLocked(target)
}

// runLocked fast-forwards h's World to fleet tick t, in int-sized chunks
// so the uint64 delta cannot truncate on 32-bit platforms.
func (h *Host) runLocked(t uint64) {
	for h.ran < t {
		step := min(t-h.ran, math.MaxInt32)
		h.World.FastForward(int(step))
		h.ran += step
	}
}

// apply performs one operation on h's World.
func (h *Host) apply(op hostOp) {
	if !op.remove {
		h.World.Admit(op.domain)
		return
	}
	// RemoveInto found the VM in the host's ledger and checked the
	// scheduler can remove it, and the timeline applies operations in
	// issue order, so the World holds the VM by now.
	if err := h.World.RemoveVM(op.domain.Name); err != nil {
		panic(fmt.Sprintf("cluster: host %d: %v", h.ID, err))
	}
	if op.final != nil {
		*op.final = op.domain.Counters()
	}
}

// start spawns n background drainers. Each one sweeps the host list
// from its own offset, closing lags chunk by chunk, and parks on the
// wake channel once a full sweep finds every host caught up.
func (s *dueScheduler) start(n int) {
	s.wake = make(chan struct{}, 1)
	s.quit = make(chan struct{})
	for i := 0; i < n; i++ {
		go s.drain(i * len(s.hosts) / n)
	}
}

// nudge wakes parked drainers after the clock moved. The buffered
// channel makes it a few-nanosecond no-op when they are already awake,
// and no wakeup can be lost: a nudge arriving mid-sweep is consumed by
// the drainer's next park-and-recheck.
func (s *dueScheduler) nudge() {
	if s.wake == nil {
		return
	}
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// drain is one background drainer: sweep every host, close up to
// DueChunkTicks of lag per lock hold (applying the pending operations
// due within it), park when a whole sweep finds no work; a caught-up
// host with pending operations is work too. A host whose lock is held
// is skipped rather than waited on: the holder is another drainer or
// the calling goroutine, which closes that lag itself when it needs the
// host. Which goroutine runs a host's
// ticks can never matter — each World's tick and operation sequence is
// fixed by the clock deltas and issue ticks alone — so the drainers
// accelerate the replay without touching its results.
func (s *dueScheduler) drain(start int) {
	n := len(s.hosts)
	for {
		worked := false
		for i := 0; i < n; i++ {
			select {
			case <-s.quit:
				return
			default:
			}
			h := s.hosts[(start+i)%n]
			if !h.mu.TryLock() {
				continue
			}
			if c := s.clock.Load(); h.ran < c || h.pending() > 0 {
				h.advanceLocked(min(c, h.ran+DueChunkTicks))
				worked = true
			}
			h.mu.Unlock()
		}
		if !worked {
			select {
			case <-s.wake:
			case <-s.quit:
				return
			}
		}
	}
}

// FindVM returns the live VM with the given name and its host's ID, or
// (nil, -1). It reads the placement ledgers, never a World; hosts are
// scanned in ID order, so duplicated names resolve to the lowest host.
func (f *Fleet) FindVM(name string) (*vm.VM, int) {
	if h, i := f.findPlacement(name); h != nil {
		return h.vms[i].VM, h.ID
	}
	return nil, -1
}

// SnapshotVMs returns every host's per-VM aggregate counters, indexed by
// host ID then VM name. Counters are simulated state, so every host is
// first brought to the fleet clock.
func (f *Fleet) SnapshotVMs() []map[string]pmc.Counters {
	f.Barrier()
	out := make([]map[string]pmc.Counters, len(f.hosts))
	for i, h := range f.hosts {
		out[i] = h.World.SnapshotVMs()
	}
	return out
}
