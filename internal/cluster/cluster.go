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
// actually been driven into its World. A host is fast-forwarded to the
// fleet clock only when an operation needs its simulated state: Place
// and Remove seek the one host they touch, Migrate seeks both
// endpoints, and whole-fleet reads (FleetMonitor.Observe, CaptureState,
// SnapshotVMs) call Barrier first. Because hv.World.RunTicks(n) is
// exactly n repetitions of one tick — chunk-invariant — advancing a
// host in one large seek is bit-identical to the many small per-tick
// advances it replaces; the churn goldens pin this. RunTicks keeps its
// historical all-hosts semantics (SkipTicks then Barrier), so callers
// that want whole-fleet advancement still get it.
//
// Laziness pays twice. First, an idle host's deferred stretch collapses
// to O(1): hv.World.FastForward elides the tick loop for a world that
// provably holds no VMs, so hosts a sparse trace never touches cost
// nothing to catch up — work is eliminated, not merely postponed.
// Second, busy lags close concurrently: fleets built with more than one
// worker run background drainer goroutines (the due-host scheduler)
// that sweep lagging hosts in DueChunkTicks-sized chunks while the
// calling goroutine processes events, synchronizing per host through
// Host.mu. Both mechanisms are schedule-only — every World still
// receives exactly the tick sequence the clock deltas dictate — so a
// drained, elided, concurrent run is bit-identical to RunTicksSerial's
// eager serial schedule.
package cluster

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"kyoto/internal/cache"
	"kyoto/internal/core"
	"kyoto/internal/hv"
	"kyoto/internal/machine"
	"kyoto/internal/monitor"
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

// Host is one machine of the fleet: a World plus the resource ledger the
// placement policies book against.
type Host struct {
	// ID is the host's index in the fleet, fixed at construction.
	ID int
	// World is the host's simulated testbed.
	World *hv.World

	kyoto  *core.Kyoto
	oracle *monitor.Oracle
	shadow bool

	// Capacity of the three first-class resources. CPUs counts vCPU
	// slots (one per physical core: the paper's §2.2 assumption of
	// unshared cores for admission purposes), MemMB main memory, and
	// LLCBudget the total pollution permit the host will book.
	CapacityCPUs  int
	CapacityMemMB int
	LLCBudget     float64

	// Booked resources, updated by Fleet.Place.
	BookedCPUs  int
	BookedMemMB int
	BookedLLC   float64

	vms []Placement

	// mu serializes simulation access to the host's World between the
	// fleet's calling goroutine and the background due-host drainers.
	// ran counts the ticks actually driven into the World since fleet
	// construction (or the last RestoreState); invariant: ran <= the
	// fleet clock, and the gap is the host's lag, closed by seeks.
	// Both are guarded by mu.
	mu  sync.Mutex
	ran uint64
}

// Kyoto returns the host's pollution ledger when the template enabled
// enforcement, else nil.
func (h *Host) Kyoto() *core.Kyoto { return h.kyoto }

// Placements returns the VMs currently placed on this host, in placement
// order (departed VMs are pruned by Fleet.Remove). The slice is a copy:
// it stays valid however the fleet churns afterwards.
func (h *Host) Placements() []Placement { return append([]Placement(nil), h.vms...) }

// FreeCPUs returns the unbooked vCPU slots.
func (h *Host) FreeCPUs() int { return h.CapacityCPUs - h.BookedCPUs }

// FreeMemMB returns the unbooked memory.
func (h *Host) FreeMemMB() int { return h.CapacityMemMB - h.BookedMemMB }

// FreeLLC returns the unbooked pollution budget.
func (h *Host) FreeLLC() float64 { return h.LLCBudget - h.BookedLLC }

// Fits reports whether the request's vCPU and memory bookings fit.
func (h *Host) Fits(req Request) bool {
	return req.CPUs() <= h.FreeCPUs() && req.MemMB() <= h.FreeMemMB()
}

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
	// VM is the instantiated domain on that host's World.
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
	for id, o := range cfg.Overrides {
		if id < 0 || id >= cfg.Hosts {
			return nil, fmt.Errorf("cluster: override for host %d, but fleet has hosts 0..%d", id, cfg.Hosts-1)
		}
		if o.MemoryMB < 0 || o.LLCBudget < 0 {
			return nil, fmt.Errorf("cluster: override for host %d: negative capacity (%d MB, %v permit)", id, o.MemoryMB, o.LLCBudget)
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
	if n := f.drainers(); n > 0 {
		f.sched.start(n)
		// The drainers hold only f.sched, so the Fleet itself can be
		// collected; stopping them on collection keeps fleet-heavy test
		// suites and sweeps from accumulating parked goroutines forever.
		runtime.SetFinalizer(f, func(f *Fleet) { close(f.sched.quit) })
	}
	return f, nil
}

// resolveWorkers returns the effective advancement concurrency.
func (f *Fleet) resolveWorkers() int {
	if f.workers > 0 {
		return f.workers
	}
	return runtime.GOMAXPROCS(0)
}

// drainers returns how many background drainers the fleet runs: the
// worker budget minus the calling goroutine (which drives the host its
// event touches), bounded by the hosts that could lag concurrently.
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
	mcfg := t.Machine
	seed := t.Seed
	if seed == 0 {
		seed = 1
	}
	seed ^= uint64(id+1) * 0x9e3779b97f4a7c15
	if mcfg.Sockets == 0 {
		mcfg = machine.TableOne(seed)
	}
	// The per-host seed must reach the cache RNGs even when the template
	// carries an explicit machine config, or every host replays identical
	// replacement streams.
	mcfg.Seed = seed
	cores := mcfg.Sockets * mcfg.CoresPerSocket

	var base sched.Scheduler
	if t.NewSched != nil {
		base = t.NewSched(cores)
	} else {
		base = sched.NewCredit(cores)
	}
	var k *core.Kyoto
	s := base
	if t.EnableKyoto {
		k = core.New(base)
		s = k
	}
	if t.ShadowMonitor && t.Fidelity == cache.FidelityAnalytic {
		return nil, fmt.Errorf("cluster: the shadow monitor replays per-access traces, which the analytic tier does not produce — use the counter monitor or exact fidelity")
	}
	w, err := hv.New(hv.Config{Machine: mcfg, Seed: seed, Fidelity: t.Fidelity}, s)
	if err != nil {
		return nil, err
	}
	var oracle *monitor.Oracle
	if t.EnableKyoto {
		if t.ShadowMonitor {
			w.AddHook(monitor.NewShadowSim(k, mcfg, 0))
		} else {
			oracle = monitor.NewOracle(k, core.Equation1)
			w.AddHook(oracle)
		}
	}
	memMB := t.MemoryMB
	if memMB == 0 {
		memMB = mcfg.MainMemoryMB
	}
	llc := t.LLCBudget
	if llc == 0 {
		llc = float64(cores) * DefaultLLCCapPerCore
	}
	return &Host{
		ID:            id,
		World:         w,
		kyoto:         k,
		oracle:        oracle,
		shadow:        t.EnableKyoto && t.ShadowMonitor,
		CapacityCPUs:  cores,
		CapacityMemMB: memMB,
		LLCBudget:     llc,
	}, nil
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
	// The placer only read booking ledgers; the chosen host's World is
	// about to change, so it must reach the fleet clock first.
	f.seek(h)
	domain, err := h.World.AddVM(req.Spec)
	if err != nil {
		return Placement{}, fmt.Errorf("cluster: host %d: %w", hostID, err)
	}
	h.BookedCPUs += req.CPUs()
	h.BookedMemMB += req.MemMB()
	h.BookedLLC += req.LLCCap
	p := Placement{HostID: hostID, VM: domain, Request: req}
	h.vms = append(h.vms, p)
	f.placements = append(f.placements, p)
	return p, nil
}

// Remove tears the named VM down wherever it landed: the VM leaves its
// host's World (scheduler runqueues, cache footprint — see
// hv.World.RemoveVM) and its booked vCPUs, memory and llc_cap permit are
// freed for future placements. Removing a VM the fleet does not hold
// returns an error and leaves every booking untouched. The removed
// Placement is returned so callers can read the departed VM's lifetime
// counters.
func (f *Fleet) Remove(name string) (Placement, error) {
	for _, h := range f.hosts {
		for i, p := range h.vms {
			if p.VM.Name != name {
				continue
			}
			// The departing VM's lifetime counters are read by callers of
			// the returned Placement; the host must be current first.
			f.seek(h)
			if err := h.World.RemoveVM(name); err != nil {
				return Placement{}, fmt.Errorf("cluster: host %d: %w", h.ID, err)
			}
			h.BookedCPUs -= p.Request.CPUs()
			h.BookedMemMB -= p.Request.MemMB()
			h.BookedLLC -= p.Request.LLCCap
			h.vms = append(h.vms[:i], h.vms[i+1:]...)
			for j, fp := range f.placements {
				if fp.VM == p.VM {
					f.placements = append(f.placements[:j], f.placements[j+1:]...)
					break
				}
			}
			return p, nil
		}
	}
	return Placement{}, fmt.Errorf("cluster: remove %q: no such VM in the fleet", name)
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
// doing exactly the catch-up the seek needs). Large enough to amortize
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
		h.mu.Lock()
		f.sched.seekLocked(h)
		h.mu.Unlock()
	}
}

// SkipTicks advances the fleet's virtual clock by n ticks without
// simulating anything on the calling goroutine. Hosts catch up lazily:
// each one is fast-forwarded the moment an operation needs its
// simulated state (Place, Remove, Migrate on that host; Barrier for all
// of them), and the background drainers close lags concurrently in the
// meantime. Bookkeeping reads — Fits, FreeLLC, BookedCPUFraction, the
// placement ledgers — never force a catch-up, which is what makes
// replaying a sparse event stream cheap.
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

// Barrier fast-forwards every lagging host to the fleet clock, the
// drainers helping concurrently. After it returns, every host's World
// is at the same virtual time — the prerequisite for whole-fleet reads
// (monitor observations, checkpoints, counter snapshots) — and no
// drainer touches any World until the clock moves again.
func (f *Fleet) Barrier() {
	s := f.sched
	s.nudge()
	for _, h := range f.hosts {
		h.mu.Lock()
		s.seekLocked(h)
		h.mu.Unlock()
	}
}

// seek fast-forwards one host to the fleet clock because an event needs
// its simulated state. Acquiring the host lock also establishes the
// happens-before edge with whichever drainer last advanced the World,
// so the caller may read and mutate it freely afterwards (no drainer
// touches a caught-up host until the clock moves again, and only the
// calling goroutine moves it).
func (f *Fleet) seek(h *Host) {
	h.mu.Lock()
	f.sched.seekLocked(h)
	h.mu.Unlock()
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
// DueChunkTicks of lag per lock hold, park when a whole sweep finds no
// work. Which goroutine runs a host's ticks can never matter — each
// World's tick sequence is fixed by the clock deltas alone — so the
// drainers accelerate the replay without touching its results.
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
			h.mu.Lock()
			if c := s.clock.Load(); h.ran < c {
				step := c - h.ran
				if step > DueChunkTicks {
					step = DueChunkTicks
				}
				h.World.FastForward(int(step))
				h.ran += step
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

// seekLocked closes h's lag on the calling goroutine (h.mu held), in
// int-sized chunks so the uint64 delta cannot truncate on 32-bit
// platforms. World.FastForward elides the tick loop in O(1) while the
// host is empty — an untouched host's idle stretch costs nothing to
// close, which is the lazy engine's headline saving.
func (s *dueScheduler) seekLocked(h *Host) {
	for {
		c := s.clock.Load()
		if h.ran >= c {
			return
		}
		step := c - h.ran
		if step > math.MaxInt32 {
			step = math.MaxInt32
		}
		h.World.FastForward(int(step))
		h.ran += step
	}
}

// FindVM returns the live VM with the given name and its host's ID, or
// (nil, -1). Hosts are scanned in ID order, so duplicated names resolve
// to the lowest host.
func (f *Fleet) FindVM(name string) (*vm.VM, int) {
	for _, h := range f.hosts {
		if v := h.World.FindVM(name); v != nil {
			return v, h.ID
		}
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
