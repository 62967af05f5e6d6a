// Package hv is the virtual testbed: it owns the simulated machine, the
// VMs, and the scheduler, and drives the deterministic tick loop in which
// everything else happens.
//
// Time model (the paper's Xen defaults): a tick is 10 ms of model time
// (machine.CyclesPerTick cycles); a time slice is 3 ticks. Scheduling
// decisions are taken on slice boundaries (or immediately when the current
// vCPU becomes unschedulable), accounting happens every tick — mirroring
// XCS's 30 ms slices with 10 ms ticks.
//
// Within a tick, the cores that have work execute in round-robin chunks of
// ChunkCycles so that parallel vCPUs interleave finely on the shared LLC;
// this is what lets Figure 1's parallel-execution contention emerge
// instead of being an artefact of running cores to completion one by one.
//
// # Performance
//
// The tick loop is the hot path of every experiment sweep — a tick on a
// loaded 4-core host is millions of simulated memory accesses, and the
// Figure 4 matrix alone is 90 worlds. The path is engineered to be
// allocation-free and cache-lean in steady state:
//
//   - workload generators emit steps in batches (workload.BatchGenerator)
//     into a per-vCPU buffer owned by cpu.Context, so the Generator
//     interface is crossed once per 64 steps, not once per step;
//   - cache lookups index dense per-owner stats slices (no maps on the
//     access path) and caches keep LRU recency in a per-set linked list,
//     making both MRU promotion and an unpartitioned victim choice O(1);
//   - the per-tick scratch (core budgets, budget caps, monitor buffers)
//     is pre-allocated in New and reused, so steady-state ticks report
//     0 allocs/op (BenchmarkWorldTick enforces this).
//
// The analytic tier must not pay for exact-tier work. NewVM still builds
// each vCPU's generator there, because its cursor is part of a
// checkpoint, but a Chase phase's permutation is built on the phase's
// first access, so analytic VMs never build one. RemoveVM's flush skips
// any cache the owner holds no lines in, which is every exact cache of
// an analytic host. The bulk executor converts floats through int64,
// a single instruction each way on amd64 (see cpu.RunAnalytic).
//
// Determinism is the contract that lets the hot path be rewritten at all:
// the golden fingerprints in testdata/golden.json (and the fleet golden
// in internal/cluster) pin runs bit-for-bit, so any optimization must
// prove itself arithmetic-preserving before it lands. Profile with
// `kyotobench -cpuprofile` and track ns/op via scripts/bench_json.sh.
package hv

import (
	"cmp"
	"fmt"

	"kyoto/internal/cache"
	"kyoto/internal/cpu"
	"kyoto/internal/machine"
	"kyoto/internal/pmc"
	"kyoto/internal/sched"
	"kyoto/internal/vm"
	"kyoto/internal/workload"
)

// DefaultChunkCycles is the intra-tick interleave granularity (0.1 ms of
// model time): fine enough for parallel contention, coarse enough to be
// cheap.
const DefaultChunkCycles = 10_000

// Config configures a World.
type Config struct {
	// Machine is the hardware description (machine.TableOne, machine.R420
	// or custom).
	Machine machine.Config
	// CyclesPerTick overrides the tick length (default
	// machine.CyclesPerTick). Figure 12 sweeps this.
	CyclesPerTick uint64
	// ChunkCycles overrides the interleave granularity.
	ChunkCycles uint64
	// Seed drives all workload randomness.
	Seed uint64
	// Fidelity selects the cache-model tier: cache.FidelityExact (the
	// zero value — per-access simulation, the goldens' reference) or
	// cache.FidelityAnalytic (closed-form occupancy model, ~100x faster,
	// validated by the cross-validation harness in internal/experiments).
	Fidelity cache.Fidelity
}

// TickHook observes the world once per tick, after execution and charging
// but before the scheduler's end-of-tick accounting. Monitors and
// experiment recorders are hooks.
type TickHook interface {
	OnTick(w *World)
}

// TickHookFunc adapts a function to TickHook.
type TickHookFunc func(w *World)

// OnTick implements TickHook.
func (f TickHookFunc) OnTick(w *World) { f(w) }

// OverheadReporter is optionally implemented by schedulers that consume
// measurable pCPU time themselves (the Kyoto monitoring path, §4.5). The
// reported cycles are deducted from core 0's execution budget each tick,
// modelling monitor work running in dom0.
type OverheadReporter interface {
	TickOverheadCycles() uint64
}

// World is the assembled testbed.
type World struct {
	cfg     Config
	m       *machine.Machine
	sch     sched.Scheduler
	vms     []*vm.VM
	vcpus   []*vm.VCPU
	hooks   []TickHook
	now     uint64
	current []*vm.VCPU // per core
	scratch []uint64   // per-core consumed cycles, reused across ticks
	caps    []uint64   // per-core budget caps, reused across ticks

	// vmSeq is a monotonic ID counter. VM IDs are never reused after
	// RemoveVM: the VM ID seeds workloads and address spaces, so recycling
	// one would alias a live VM's memory behaviour with a departed one's.
	// Only NewVM and checkpointing touch it — never Admit, RemoveVM or
	// the tick loop — which is what lets a fleet build a VM on one
	// goroutine while another advances the world.
	vmSeq int
	// vcpuSeq is the high-water mark of vCPU IDs. Unlike VM IDs, vCPU IDs
	// (the cache attribution owner tags) ARE recycled: RemoveVM releases
	// each departed vCPU's tag — after evicting every line it owns and
	// zeroing its per-cache stats row (cache.ReleaseOwner) — onto
	// freeOwners, and Admit reuses released tags before minting new ones.
	// This keeps the dense per-owner stats slices in every cache bounded
	// by the peak concurrent vCPU population instead of growing with
	// total arrivals, which is what makes million-arrival churn runs
	// possible (and keeps tags far from the uint16 Owner ceiling).
	vcpuSeq    int
	freeOwners []int // released vCPU IDs, reused LIFO
	// vcpuTotal counts every vCPU ever created; it mints vm.VCPU.Seq, the
	// never-recycled scheduler tie-break key.
	vcpuTotal int

	// wakes holds VMs suspended by SuspendVM (migration blackout) and the
	// tick at which each resumes. Empty in steady state: the tick loop
	// pays one length check when no migration is in flight.
	wakes []wake

	// analytic holds the per-socket occupancy models when the world runs
	// on the analytic tier; nil on the exact tier, which is also the
	// tick loop's fidelity dispatch test.
	analytic []*cache.AnalyticLLC
	aparams  cpu.AnalyticParams

	// IdleCycles accumulates, per core, cycles with no vCPU assigned.
	IdleCycles []uint64

	// idleSafe records whether the scheduler and every installed hook
	// carry the sched.IdleTickInvariant marker — the static half of the
	// FastForward eligibility check (the dynamic half is "no VMs, no
	// pending wakes"). Set at construction, cleared by AddHook when a
	// hook without the marker is installed.
	idleSafe bool
}

// New builds a World on the given machine driving the given scheduler.
// Core-count-dependent policies can size themselves from cfg.Machine
// (Sockets x CoresPerSocket).
func New(cfg Config, s sched.Scheduler) (*World, error) {
	m, err := machine.New(cfg.Machine)
	if err != nil {
		return nil, err
	}
	if cfg.CyclesPerTick == 0 {
		cfg.CyclesPerTick = machine.CyclesPerTick
	}
	if cfg.ChunkCycles == 0 {
		cfg.ChunkCycles = DefaultChunkCycles
	}
	if cfg.ChunkCycles > cfg.CyclesPerTick {
		cfg.ChunkCycles = cfg.CyclesPerTick
	}
	w := &World{
		cfg:        cfg,
		m:          m,
		sch:        s,
		current:    make([]*vm.VCPU, m.NumCores()),
		scratch:    make([]uint64, m.NumCores()),
		caps:       make([]uint64, m.NumCores()),
		IdleCycles: make([]uint64, m.NumCores()),
		idleSafe:   schedIdleInvariant(s),
	}
	if cfg.Fidelity == cache.FidelityAnalytic {
		for range m.Sockets() {
			llc, err := cache.NewAnalyticLLC(cfg.Machine.LLC)
			if err != nil {
				return nil, err
			}
			w.analytic = append(w.analytic, llc)
		}
		w.aparams = analyticParams(cfg.Machine)
	}
	return w, nil
}

// analyticParams derives the analytic executor's geometry and latencies
// from the machine description.
func analyticParams(mcfg machine.Config) cpu.AnalyticParams {
	lines := func(c cache.Config) int { return c.SizeBytes / c.LineBytes }
	return cpu.AnalyticParams{
		L1Lines: lines(mcfg.L1), L1Sets: lines(mcfg.L1) / mcfg.L1.Ways, L1Ways: mcfg.L1.Ways,
		L2Lines: lines(mcfg.L2), L2Sets: lines(mcfg.L2) / mcfg.L2.Ways, L2Ways: mcfg.L2.Ways,
		LLCSets: lines(mcfg.LLC) / mcfg.LLC.Ways, LLCWays: mcfg.LLC.Ways,
		LineBytes:     mcfg.L1.LineBytes,
		L1Lat:         float64(mcfg.L1.HitLatencyCycles),
		L2Lat:         float64(mcfg.L2.HitLatencyCycles),
		LLCLat:        float64(mcfg.LLC.HitLatencyCycles),
		MemLat:        float64(mcfg.MemLatencyCycles),
		RemotePenalty: float64(mcfg.RemotePenaltyCycles),
	}
}

// Fidelity returns the cache-model tier the world runs on.
func (w *World) Fidelity() cache.Fidelity {
	if w.analytic != nil {
		return cache.FidelityAnalytic
	}
	return cache.FidelityExact
}

// AnalyticLLC returns the analytic occupancy model of the given socket,
// or nil on the exact tier. Monitors and the cross-validation harness
// read per-owner occupancy fractions from it.
func (w *World) AnalyticLLC(socket int) *cache.AnalyticLLC {
	if w.analytic == nil {
		return nil
	}
	return w.analytic[socket]
}

// LLCOccupancyFraction returns the fraction of the machine's total LLC
// lines owned by the vCPU, summed across sockets — readable on either
// fidelity tier, which is what lets Equation-1 views and the
// cross-validation harness compare occupancy between tiers.
func (w *World) LLCOccupancyFraction(v *vm.VCPU) float64 {
	var owned, capacity float64
	if w.analytic != nil {
		for _, llc := range w.analytic {
			owned += llc.OccupancyLines(v.Owner())
			capacity += llc.Lines()
		}
	} else {
		for _, sock := range w.m.Sockets() {
			cfg := sock.LLC.Config()
			owned += float64(sock.LLC.Occupancy(v.Owner()))
			capacity += float64(cfg.SizeBytes / cfg.LineBytes)
		}
	}
	if capacity == 0 {
		return 0
	}
	return owned / capacity
}

// Machine returns the simulated machine.
func (w *World) Machine() *machine.Machine { return w.m }

// Scheduler returns the scheduling policy.
func (w *World) Scheduler() sched.Scheduler { return w.sch }

// Now returns the number of completed ticks.
func (w *World) Now() uint64 { return w.now }

// NowMillis returns elapsed model time in milliseconds.
func (w *World) NowMillis() float64 {
	return float64(w.now) * float64(w.cfg.CyclesPerTick) / float64(machine.CPUFreqKHz)
}

// CyclesPerTick returns the configured tick length.
func (w *World) CyclesPerTick() uint64 { return w.cfg.CyclesPerTick }

// VMs returns the VMs in creation order.
func (w *World) VMs() []*vm.VM { return w.vms }

// VCPUs returns all vCPUs in id order.
func (w *World) VCPUs() []*vm.VCPU { return w.vcpus }

// FindVM returns the VM with the given name, or nil.
func (w *World) FindVM(name string) *vm.VM {
	for _, m := range w.vms {
		if m.Name == name {
			return m
		}
	}
	return nil
}

// AddHook appends a tick hook.
func (w *World) AddHook(h TickHook) {
	w.hooks = append(w.hooks, h)
	if _, ok := h.(sched.IdleTickInvariant); !ok {
		// A hook without the marker may observe or mutate state every
		// tick (recorders do), so the idle fast-forward must not elide
		// ticks for this world anymore.
		w.idleSafe = false
	}
}

// schedIdleInvariant reports whether s (and, for decorators, its whole
// base chain) promises sched.IdleTickInvariant.
func schedIdleInvariant(s sched.Scheduler) bool {
	if _, ok := s.(sched.IdleTickInvariant); !ok {
		return false
	}
	if d, ok := s.(interface{ Base() sched.Scheduler }); ok {
		return schedIdleInvariant(d.Base())
	}
	return true
}

// AddVM instantiates spec: NewVM followed at once by Admit. A failed
// spec leaves the world exactly as it was.
func (w *World) AddVM(spec vm.Spec) (*vm.VM, error) {
	domain, err := w.NewVM(spec)
	if err != nil {
		return nil, err
	}
	w.Admit(domain)
	return domain, nil
}

// NewVM builds spec's VM without admitting it: it resolves the workload
// profile, checks the spec against the machine and allocates the vCPUs,
// taking the world's next VM ID (which fixes the VM's seed and address
// space). Every way a spec can fail, it fails here. The VM does not run
// until Admit registers it. NewVM touches nothing the tick loop reads,
// so a fleet builds a VM while a drainer advances the same world and
// admits it later, on the host's own timeline.
func (w *World) NewVM(spec vm.Spec) (*vm.VM, error) {
	domain, err := w.newVM(spec, w.vmSeq+1)
	if err != nil {
		return nil, err
	}
	w.vmSeq++
	return domain, nil
}

// Admit registers a VM built by this world's NewVM with the scheduler.
// Each vCPU takes its owner tag now, off the recycled list first (LIFO)
// and then freshly minted past the high-water mark, and its Seq from the
// creation count, so tags and Seqs follow admission order.
func (w *World) Admit(domain *vm.VM) {
	free := w.freeOwners
	nv := len(domain.VCPUs)
	recycled := min(nv, len(free))
	for i, v := range domain.VCPUs {
		tag := w.vcpuSeq + 1 + i - len(free)
		if i < len(free) {
			tag = free[len(free)-1-i]
		}
		identify(v, tag, w.vcpuTotal+1+i)
	}
	w.freeOwners = free[:len(free)-recycled]
	w.vcpuSeq += nv - recycled
	w.vcpuTotal += nv
	for _, v := range domain.VCPUs {
		w.vcpus = append(w.vcpus, v)
		w.sch.Register(v)
	}
	w.vms = append(w.vms, domain)
}

// identify gives a vCPU its owner tag (its ID, which attributes cache
// lines) and its never-recycled scheduler Seq.
func identify(v *vm.VCPU, tag, seq int) {
	v.ID, v.Seq = tag, seq
	v.Ctx.Owner = v.Owner()
	if v.ACtx != nil {
		v.ACtx.Owner = v.Owner()
	}
}

// newVM is the one VM construction recipe, shared by NewVM and
// restoreVM. It resolves spec's profile and defaults, checks the spec
// against the machine, and builds domain id with its vCPUs: each one's
// workload generator, cache context and, on the analytic tier, analytic
// context. The vCPUs carry no owner tag or Seq yet (identify sets them).
// It touches no world or scheduler state.
func (w *World) newVM(spec vm.Spec, id int) (*vm.VM, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	profile := spec.Profile
	if len(profile.Phases) == 0 {
		p, err := workload.Lookup(spec.App)
		if err != nil {
			return nil, err
		}
		profile = p
	}
	nv := max(spec.VCPUs, 1)
	if nv > w.m.NumCores() {
		// Each vCPU costs memory up front, so an unbounded count must
		// fail here rather than allocate.
		return nil, fmt.Errorf("hv: VM %q asks for %d vCPUs, more than the machine's %d cores", spec.Name, nv, w.m.NumCores())
	}
	if spec.HomeNode < 0 || spec.HomeNode >= w.m.NumSockets() {
		return nil, fmt.Errorf("hv: VM %q home node %d out of range", spec.Name, spec.HomeNode)
	}
	domain := &vm.VM{
		ID:         id,
		Name:       spec.Name,
		App:        profile.Name,
		Weight:     cmp.Or(spec.Weight, vm.DefaultWeight),
		CapPercent: spec.CapPercent,
		LLCCap:     spec.LLCCap,
		HomeNode:   spec.HomeNode,
		Spec:       spec,
		VCPUs:      make([]*vm.VCPU, 0, nv),
	}
	seed := spec.Seed
	if seed == 0 {
		seed = w.cfg.Seed ^ uint64(id)*0x9e3779b97f4a7c15
	}
	for i := 0; i < nv; i++ {
		gen, err := workload.New(profile, seed+uint64(i))
		if err != nil {
			return nil, err
		}
		pin := vm.NoPin
		if i < len(spec.Pins) {
			pin = spec.Pins[i]
		}
		if pin != vm.NoPin && (pin < 0 || pin >= w.m.NumCores()) {
			return nil, fmt.Errorf("hv: VM %q vCPU %d pinned to invalid core %d", spec.Name, i, pin)
		}
		v := &vm.VCPU{
			VM:       domain,
			Index:    i,
			Gen:      gen,
			Pin:      pin,
			LastCore: vm.NoPin,
		}
		v.Ctx = cpu.Context{
			Gen:      gen,
			AddrBase: uint64(id) << 36,
			Counters: &v.Counters,
		}
		if w.analytic != nil {
			actx, err := cpu.NewAnalyticContext(profile, w.aparams, 0, &v.Counters)
			if err != nil {
				return nil, err
			}
			v.ACtx = actx
		}
		domain.VCPUs = append(domain.VCPUs, v)
	}
	return domain, nil
}

// VMRemovalHook is optionally implemented by tick hooks that keep per-VM
// or per-vCPU state (monitors, recorders); RemoveVM notifies them so
// long-running churn scenarios do not leak state for departed VMs.
type VMRemovalHook interface {
	OnRemoveVM(domain *vm.VM)
}

// RemoveVM tears the named VM down: its vCPUs leave the scheduler
// runqueues, any core currently assigned one idles, every cache line the
// VM still holds is invalidated and its owner tags are released for reuse
// (cache.ReleaseOwner — departures free their LLC footprint to the
// survivors and keep per-owner stats slices bounded under churn), and
// hooks implementing VMRemovalHook are notified. The scheduler must
// implement sched.Remover (all built-in policies do). The VM's counters
// remain readable by the caller, who typically snapshots them before
// removal for lifetime statistics.
func (w *World) RemoveVM(name string) error {
	domain := w.FindVM(name)
	if domain == nil {
		return fmt.Errorf("hv: remove %q: no such VM", name)
	}
	if err := w.CheckRemovable(name); err != nil {
		return err
	}
	remover := w.sch.(sched.Remover)
	for _, v := range domain.VCPUs {
		remover.Unregister(v)
		for coreID, cur := range w.current {
			if cur == v {
				w.current[coreID] = nil
			}
		}
		// Release the vCPU's owner tag everywhere it may have run: every
		// private level and every socket's LLC. ReleaseOwner both evicts
		// the lines (departures free their footprint to the survivors) and
		// zeroes the tag's stats rows, so the tag can be recycled for a
		// future vCPU without inheriting this one's attribution history.
		// Cold path, O(lines).
		for _, core := range w.m.Cores() {
			core.Path.L1D.ReleaseOwner(v.Owner())
			core.Path.L2.ReleaseOwner(v.Owner())
		}
		for _, sock := range w.m.Sockets() {
			sock.LLC.ReleaseOwner(v.Owner())
		}
		for _, llc := range w.analytic {
			llc.ReleaseOwner(v.Owner())
		}
		w.freeOwners = append(w.freeOwners, v.ID)
		for i, wv := range w.vcpus {
			if wv == v {
				w.vcpus = append(w.vcpus[:i], w.vcpus[i+1:]...)
				break
			}
		}
	}
	for i, m := range w.vms {
		if m == domain {
			w.vms = append(w.vms[:i], w.vms[i+1:]...)
			break
		}
	}
	// Drop any pending migration wake-up: the domain is gone.
	for i := 0; i < len(w.wakes); {
		if w.wakes[i].domain == domain {
			w.wakes = append(w.wakes[:i], w.wakes[i+1:]...)
			continue
		}
		i++
	}
	for _, h := range w.hooks {
		if rh, ok := h.(VMRemovalHook); ok {
			rh.OnRemoveVM(domain)
		}
	}
	return nil
}

// CheckRemovable returns the error RemoveVM(name) would give for a VM
// the world holds: its scheduler, or the base a decorator (core.Kyoto)
// delegates to, cannot unregister vCPUs. It reads only the scheduler's
// type, never simulated state, so a fleet checks a removal when it is
// issued and applies it later on the host's timeline.
func (w *World) CheckRemovable(name string) error {
	if _, ok := w.sch.(sched.Remover); !ok {
		return fmt.Errorf("hv: remove %q: scheduler %s does not support removal", name, w.sch.Name())
	}
	// Check the wrapped policy too, so an unremovable base surfaces as a
	// clean error instead of a panic mid-removal.
	if d, ok := w.sch.(interface{ Base() sched.Scheduler }); ok {
		if _, ok := d.Base().(sched.Remover); !ok {
			return fmt.Errorf("hv: remove %q: base scheduler %s does not support removal", name, d.Base().Name())
		}
	}
	return nil
}

// wake schedules the end of one VM's migration blackout.
type wake struct {
	domain *vm.VM
	at     uint64 // first tick at which the VM may run again
}

// SuspendVM takes the VM off-CPU for the next ticks ticks — the blackout
// window of a live migration (the stop-and-copy phase the Figure 9
// dedication study pays for real). While suspended, the VM's vCPUs are
// unschedulable under every policy; the VM resumes automatically once the
// window elapses. Suspending an already-suspended VM extends the blackout
// to whichever deadline is later. ticks <= 0 is a no-op.
func (w *World) SuspendVM(domain *vm.VM, ticks int) {
	if domain == nil || ticks <= 0 {
		return
	}
	at := w.now + uint64(ticks)
	domain.Down = true
	for i := range w.wakes {
		if w.wakes[i].domain == domain {
			if w.wakes[i].at < at {
				w.wakes[i].at = at
			}
			return
		}
	}
	w.wakes = append(w.wakes, wake{domain: domain, at: at})
}

// processWakes clears the Down flag of every VM whose blackout has
// elapsed. Called from tick only while suspensions exist.
func (w *World) processWakes() {
	kept := w.wakes[:0]
	for _, wk := range w.wakes {
		if w.now >= wk.at {
			wk.domain.Down = false
		} else {
			kept = append(kept, wk)
		}
	}
	w.wakes = kept
}

// MustAddVM is AddVM but panics on error, for statically valid scenarios.
func (w *World) MustAddVM(spec vm.Spec) *vm.VM {
	m, err := w.AddVM(spec)
	if err != nil {
		panic(err)
	}
	return m
}

// RunTicks advances the world n ticks.
func (w *World) RunTicks(n int) {
	for i := 0; i < n; i++ {
		w.tick()
	}
}

// FastForward advances the world n ticks, bit-identically to
// RunTicks(n), eliding the tick loop entirely when the world provably
// holds no simulated activity. On an idle-eligible world — no VMs, no
// pending wakes, no stale core assignment, and a scheduler plus hooks
// that all promise sched.IdleTickInvariant — one tick's only mutations
// are now++, one CyclesPerTick of idle accounting per core, and (on the
// analytic tier) one empty occupancy epoch per socket; all three have
// exact closed forms, applied here in O(cores + sockets) regardless of
// n. Any world that fails the eligibility check is ticked normally, so
// FastForward is always safe to substitute for RunTicks. The fleet's
// lazy per-host clocks use it to close an untouched host's idle stretch
// in constant time — the elision that makes event-horizon replay faster
// than ticking every host every tick, not merely deferred
// (TestFastForwardIdentity pins the equivalence).
func (w *World) FastForward(n int) {
	if n <= 0 {
		return
	}
	if !w.idleEligible() {
		w.RunTicks(n)
		return
	}
	ticks := uint64(n)
	for i := range w.IdleCycles {
		w.IdleCycles[i] += ticks * w.cfg.CyclesPerTick
	}
	for _, llc := range w.analytic {
		llc.SkipEpochs(ticks)
	}
	w.now += ticks
}

// idleEligible reports whether every one of the next ticks would be a
// provable no-op beyond the closed-form mutations FastForward applies.
// No VM can appear mid-run (Admit happens between RunTicks calls), so
// checking at entry covers the whole window.
func (w *World) idleEligible() bool {
	if !w.idleSafe || len(w.vms) != 0 || len(w.wakes) != 0 {
		return false
	}
	for _, cur := range w.current {
		if cur != nil {
			return false
		}
	}
	return true
}

// RunUntil advances the world until pred returns true or maxTicks elapse,
// returning the number of ticks run.
func (w *World) RunUntil(pred func(*World) bool, maxTicks int) int {
	for i := 0; i < maxTicks; i++ {
		if pred(w) {
			return i
		}
		w.tick()
	}
	return maxTicks
}

// tick executes one scheduler tick.
func (w *World) tick() {
	if len(w.wakes) > 0 {
		w.processWakes()
	}
	cores := w.m.Cores()
	sliceBoundary := w.now%machine.TicksPerSlice == 0

	// 1. Scheduling decisions: keep the current assignment inside a
	// slice, re-pick at boundaries or when the incumbent cannot run.
	for _, core := range cores {
		cur := w.current[core.ID]
		if cur != nil && !sliceBoundary && cur.Schedulable() && cur.AllowedOn(core.ID) {
			continue
		}
		next := w.sch.PickNext(core, w.now)
		w.current[core.ID] = next
		if next != nil {
			w.bind(next, core)
		}
	}

	// 2. Overhead deduction (monitoring work, modelled on core 0).
	budgets := w.scratch[:len(cores)]
	for i := range budgets {
		budgets[i] = 0
	}
	overhead := uint64(0)
	if r, ok := w.sch.(OverheadReporter); ok {
		overhead = r.TickOverheadCycles()
		if overhead > w.cfg.CyclesPerTick {
			overhead = w.cfg.CyclesPerTick
		}
	}

	// 3. Interleaved execution. Sub-tick budget limits (credit caps) come
	// from the scheduler when it implements sched.BudgetLimiter.
	limiter, _ := w.sch.(sched.BudgetLimiter)
	caps := w.caps[:len(cores)]
	for _, core := range cores {
		caps[core.ID] = ^uint64(0)
		if v := w.current[core.ID]; v != nil && limiter != nil {
			caps[core.ID] = limiter.TickBudget(v, w.now)
		}
	}
	tickBudget := w.cfg.CyclesPerTick
	chunk := w.cfg.ChunkCycles
	for target := chunk; ; target += chunk {
		if target > tickBudget {
			target = tickBudget
		}
		for _, core := range cores {
			v := w.current[core.ID]
			if v == nil {
				continue
			}
			limit := target
			if core.ID == 0 && overhead > 0 {
				// dom0 monitoring steals the head of core 0's tick.
				if limit <= overhead {
					continue
				}
				limit -= overhead
			}
			if c := caps[core.ID]; c != ^uint64(0) {
				// Spread the capped budget evenly across the tick so a
				// capped vCPU interleaves with its neighbours instead of
				// bursting at the tick head (Xen's credit burn has the
				// same pacing effect at its finer accounting quantum).
				scaled := c * target / tickBudget
				if limit > scaled {
					limit = scaled
				}
			}
			if budgets[core.ID] < limit {
				if w.analytic != nil {
					budgets[core.ID] += cpu.RunAnalytic(v.ACtx, limit-budgets[core.ID])
				} else {
					budgets[core.ID] += cpu.Run(&v.Ctx, limit-budgets[core.ID])
				}
			}
		}
		if target == tickBudget {
			break
		}
	}

	// 4. Charging and idle accounting.
	for _, core := range cores {
		v := w.current[core.ID]
		if v == nil {
			w.IdleCycles[core.ID] += tickBudget
			continue
		}
		w.sch.ChargeTick(v, budgets[core.ID], w.now)
	}

	// 5. Hooks (monitors, recorders).
	for _, h := range w.hooks {
		h.OnTick(w)
	}

	// 6. End-of-tick policy accounting; on the analytic tier the
	// occupancy recurrence advances one epoch per tick.
	for _, llc := range w.analytic {
		llc.EndEpoch()
	}
	w.sch.EndTick(w.now)
	w.now++
}

// bind points the vCPU's execution context at its new core.
func (w *World) bind(v *vm.VCPU, core *machine.Core) {
	v.Ctx.Path = &core.Path
	v.Ctx.Remote = v.VM.HomeNode != core.SocketID
	if w.analytic != nil {
		v.ACtx.LLC = w.analytic[core.SocketID]
		v.ACtx.Remote = v.Ctx.Remote
	}
	v.LastCore = core.ID
}

// CurrentOn returns the vCPU currently assigned to core, or nil.
func (w *World) CurrentOn(coreID int) *vm.VCPU { return w.current[coreID] }

// SnapshotVMs returns each VM's aggregate counters, keyed by VM name.
// Experiments snapshot before and after a measurement window and take
// deltas.
func (w *World) SnapshotVMs() map[string]pmc.Counters {
	return w.SnapshotVMsInto(nil)
}

// SnapshotVMsInto fills dst with each VM's aggregate counters and returns
// it, allocating only when dst is nil. Periodic samplers (per-tick hooks,
// fleet monitors) pass their previous map back to snapshot without
// re-allocating; entries for VMs no longer in the world are not removed.
func (w *World) SnapshotVMsInto(dst map[string]pmc.Counters) map[string]pmc.Counters {
	if dst == nil {
		dst = make(map[string]pmc.Counters, len(w.vms))
	}
	for _, m := range w.vms {
		dst[m.Name] = m.Counters()
	}
	return dst
}
