// Rebalancing policies: the reactive face of the placement debate. The
// paper's Kyoto argument is proactive — book llc_cap at admission and any
// placement is safe — while real IaaS operators also react, watching the
// fleet and live-migrating noisy VMs after the fact. A Rebalancer is that
// reaction, planned from the same Equation-1 pollution indicator the
// on-host Kyoto monitor enforces with; the MigrationSweep experiment puts
// the two side by side on one trace.

package cluster

import (
	"fmt"
	"slices"

	"kyoto/internal/core"
	"kyoto/internal/pmc"
)

// DefaultRebalanceThreshold is the Equation-1 pollution rate above which
// the built-in rebalancers consider a VM a polluter worth migrating: one
// full Figure-5 permit (llc_cap 250). Below it, migration costs more than
// the contention it relieves.
const DefaultRebalanceThreshold = 250

// DefaultMigrationCooldown is the per-VM hysteresis of the built-in
// rebalancers: after a VM is migrated, it is ineligible for this many
// subsequent rebalance epochs. Without it the reactive policy ping-pongs:
// moving the worst polluter makes its destination the next epoch's
// hottest host, and the same VM bounces straight back. Two epochs lets
// the migrated VM's cold-cache transient decay before its rate is judged
// again.
const DefaultMigrationCooldown = 2

// VMLoad is one VM's pollution observation over the last rebalance epoch.
type VMLoad struct {
	// Name and App identify the VM.
	Name string
	App  string
	// HostID is where the VM currently runs.
	HostID int
	// Rate is the VM's Equation-1 pollution (LLC misses per busy
	// millisecond) over the epoch window.
	Rate float64
	// Request echoes the VM's booking, for feasibility checks.
	Request Request
}

// RebalanceView is the fleet snapshot a Rebalancer plans from: per-VM
// pollution rates over the last epoch in deterministic order (host ID,
// then placement order), plus the per-host sums.
type RebalanceView struct {
	// VMs lists every placed VM's epoch observation.
	VMs []VMLoad
	// HostRates sums Rate per host, indexed by host ID.
	HostRates []float64
}

// FleetMonitor derives RebalanceViews from a fleet: it snapshots every
// VM's lifetime counters at each Observe call and reports the Equation-1
// pollution rate over the delta — the fleet-level analogue of the on-host
// monitors in internal/monitor, and deliberately independent of whether
// per-host Kyoto enforcement is active, so unprotected first-fit fleets
// can be rebalanced from the same signal. Counters survive migration
// (vm.VM.Carried), so a VM moved mid-epoch still reports one continuous
// rate.
type FleetMonitor struct {
	prev map[string]pmc.Counters

	// view and live are Observe's buffers, reused across epochs so a
	// steady-state observation allocates nothing.
	view RebalanceView
	live map[string]bool
}

// NewFleetMonitor returns a monitor whose first Observe covers each VM's
// whole residency so far.
func NewFleetMonitor() *FleetMonitor {
	return &FleetMonitor{prev: make(map[string]pmc.Counters), live: make(map[string]bool)}
}

// Observe builds the epoch view and advances the per-VM snapshots.
// Departed VMs are forgotten, so long churn runs do not leak state. The
// view shares the monitor's buffers: it is valid until the next Observe.
// An observation reads every VM's counters — simulated state — so it is
// a global barrier: every lagging host is fast-forwarded to the fleet
// clock first. This is what makes a rebalance epoch the synchronization
// point of a lazily advanced replay.
func (m *FleetMonitor) Observe(f *Fleet) RebalanceView {
	f.Barrier()
	view := &m.view
	view.VMs = view.VMs[:0]
	view.HostRates = slices.Grow(view.HostRates[:0], len(f.hosts))[:len(f.hosts)]
	clear(view.HostRates)
	clear(m.live)
	for _, h := range f.hosts {
		for _, p := range h.vms {
			cur := p.VM.Counters()
			rate := core.Equation1Value(cur.Delta(m.prev[p.VM.Name]))
			m.prev[p.VM.Name] = cur
			m.live[p.VM.Name] = true
			view.VMs = append(view.VMs, VMLoad{
				Name: p.VM.Name, App: p.VM.App, HostID: h.ID,
				Rate: rate, Request: p.Request,
			})
			view.HostRates[h.ID] += rate
		}
	}
	for name := range m.prev {
		if !m.live[name] {
			delete(m.prev, name)
		}
	}
	return *view
}

// Rebalancer plans live migrations from an epoch's fleet view.
// Implementations must be deterministic (ties break toward the lowest
// host ID / earliest placement) and must not mutate the hosts; the replay
// engine applies the plan through Fleet.Migrate. Implementations may
// carry per-replay state (the built-ins track per-VM migration
// cooldowns), so one instance serves one replay.
type Rebalancer interface {
	// Name identifies the policy in reports and CLI flags.
	Name() string
	// Plan returns the migrations to perform this epoch, in order.
	Plan(hosts []*Host, view RebalanceView) []Migration
}

// Migration is one planned move.
type Migration struct {
	// VMName is the VM to move.
	VMName string
	// SrcHost and DstHost are the endpoints.
	SrcHost, DstHost int
	// Reason explains the decision for reports.
	Reason string
}

// migrationCooldown is the per-VM hysteresis state the built-in
// rebalancers share: which epoch each VM was last migrated in, plus the
// epoch counter the Plan calls advance. A rebalancer instance therefore
// belongs to one replay — build a fresh one per run (RebalancerByName
// does), or plans would leak cooldowns across unrelated fleets.
type migrationCooldown struct {
	epoch     uint64
	lastMoved map[string]uint64

	// live is the set of the epoch's VMs, which Signature also reads to
	// forget departed VMs' detectors. rates and room are the eviction
	// planner's running copies of host heat and headroom. All three are
	// kept so an epoch reuses the last one's buffers; they are scratch,
	// not state: checkpoints omit them.
	live  map[string]bool
	rates []float64
	room  []headroom
}

// advance starts a new epoch and forgets departed VMs so long churn runs
// do not leak state.
func (c *migrationCooldown) advance(view RebalanceView) {
	c.epoch++
	if c.lastMoved == nil {
		c.lastMoved = make(map[string]uint64)
	}
	if c.live == nil {
		c.live = make(map[string]bool, len(view.VMs))
	}
	clear(c.live)
	for i := range view.VMs {
		c.live[view.VMs[i].Name] = true
	}
	for name := range c.lastMoved {
		if !c.live[name] {
			delete(c.lastMoved, name)
		}
	}
}

// eligible reports whether the VM is off cooldown for the current epoch.
func (c *migrationCooldown) eligible(name string, cooldownEpochs int) bool {
	moved, ok := c.lastMoved[name]
	return !ok || c.epoch-moved > uint64(cooldownEpochs)
}

// moved records the VM as migrated this epoch.
func (c *migrationCooldown) moved(name string) { c.lastMoved[name] = c.epoch }

// beginEpoch is the shared epoch prologue of every built-in rebalancer:
// advance the cooldown bookkeeping, resolve the Threshold and
// CooldownEpochs knobs to their defaults in one place, and return the
// epoch's eviction planner. Reactive, TopologyAware and Signature all
// start their Plan here, so the knob-defaulting rules cannot drift
// between policies.
func (c *migrationCooldown) beginEpoch(view RebalanceView, thresholdKnob float64, cooldownKnob int) evictionPlanner {
	c.advance(view)
	return evictionPlanner{cd: c, cooldown: cooldownEpochs(cooldownKnob), thr: threshold(thresholdKnob)}
}

// cooldownEpochs resolves the knob: 0 means the default, negative
// disables the hysteresis entirely.
func cooldownEpochs(n int) int {
	if n == 0 {
		return DefaultMigrationCooldown
	}
	if n < 0 {
		return 0
	}
	return n
}

// Reactive is the classic hotspot-chasing rebalancer an IaaS operator
// runs without Kyoto: find the host with the highest summed pollution,
// and if its worst polluter exceeds the threshold, evict that VM to the
// least-polluted host with capacity headroom. It reacts to contention
// after tenants have already suffered it — the contrast the paper's
// admission-time permits are measured against.
//
// Plans carry per-VM cooldown state, so a Reactive value is stateful:
// use one instance per replay and do not share it across goroutines.
type Reactive struct {
	// Threshold is the per-VM Equation-1 rate below which no migration is
	// worth its cost (default DefaultRebalanceThreshold).
	Threshold float64
	// CooldownEpochs is the per-VM hysteresis: a VM that was just
	// migrated is ineligible for this many subsequent epochs, so the
	// policy cannot bounce the same VM between hosts on consecutive
	// plans. 0 selects DefaultMigrationCooldown; negative disables.
	CooldownEpochs int

	cd migrationCooldown
}

// Name implements Rebalancer.
func (*Reactive) Name() string { return "reactive" }

// Plan implements Rebalancer: at most one migration per epoch, worst
// eligible polluter of the hottest host to the coolest feasible host.
func (r *Reactive) Plan(hosts []*Host, view RebalanceView) []Migration {
	p := r.cd.beginEpoch(view, r.Threshold, r.CooldownEpochs)
	p.maxMoves = 1
	p.reason = func(v *VMLoad, dst int, _ bool) string {
		return fmt.Sprintf("eq1 %.0f on hottest host %d, coolest fit %d", v.Rate, v.HostID, dst)
	}
	return p.plan(hosts, view, hottestHost(view))
}

// TopologyAware is the heterogeneity-exploiting rebalancer: the same
// hotspot detection as Reactive, but polluters are steered onto hosts
// with a larger LLC (HostOverride machines) where the same miss stream
// pollutes a smaller fraction of the cache — the placement the
// capacity-only placers cannot express because they reason about vCPUs
// and memory alone. Falls back to Reactive's coolest-host choice when no
// bigger-LLC host fits.
//
// Like Reactive, plans carry per-VM cooldown state: one instance per
// replay.
type TopologyAware struct {
	// Threshold is the per-VM Equation-1 rate below which no migration is
	// worth its cost (default DefaultRebalanceThreshold).
	Threshold float64
	// CooldownEpochs is the per-VM hysteresis, as in Reactive
	// (0 = DefaultMigrationCooldown, negative disables).
	CooldownEpochs int

	cd migrationCooldown
}

// Name implements Rebalancer.
func (*TopologyAware) Name() string { return "topo" }

// Plan implements Rebalancer: Reactive's single eviction, but a
// feasible bigger-LLC host wins over a cooler one.
func (t *TopologyAware) Plan(hosts []*Host, view RebalanceView) []Migration {
	p := t.cd.beginEpoch(view, t.Threshold, t.CooldownEpochs)
	p.maxMoves = 1
	p.biggerLLC = true
	p.reason = func(v *VMLoad, dst int, bigger bool) string {
		if bigger {
			return fmt.Sprintf("eq1 %.0f, bigger-LLC host %d (%d KB > %d KB)",
				v.Rate, dst, hostLLCBytes(hosts[dst])/1024, hostLLCBytes(hosts[v.HostID])/1024)
		}
		return fmt.Sprintf("eq1 %.0f, no bigger LLC, coolest fit %d", v.Rate, dst)
	}
	return p.plan(hosts, view, hottestHost(view))
}

// threshold resolves the zero value to the default.
func threshold(t float64) float64 {
	if t == 0 {
		return DefaultRebalanceThreshold
	}
	return t
}

// hottestHost returns the source list of the hotspot-chasing policies:
// the host with the highest summed rate (lowest ID on ties), or nothing
// when no host pollutes at all.
func hottestHost(view RebalanceView) []int {
	src, srcRate := -1, 0.0
	for id, rate := range view.HostRates {
		if rate > srcRate {
			src, srcRate = id, rate
		}
	}
	if src == -1 {
		return nil
	}
	return []int{src}
}

// evictionPlanner is the one eviction loop every built-in rebalancer
// plans through, and so the one place that decides why a VM moves
// where. The policies differ only in the sources they pass, the move
// cap, an extra candidate filter, the topology rule and their reason
// strings.
type evictionPlanner struct {
	cd       *migrationCooldown
	cooldown int
	thr      float64
	// maxMoves caps the plan's length; negative means no cap.
	maxMoves int
	// biggerLLC sends a VM to the coolest feasible host with a larger
	// LLC than its source when there is one, hot or not (TopologyAware).
	biggerLLC bool
	// keep is an extra candidate filter; nil keeps every VM.
	keep func(v *VMLoad) bool
	// reason explains a move; bigger reports that the topology rule
	// chose dst.
	reason func(v *VMLoad, dst int, bigger bool) string
}

// plan visits the source hosts in order. On each it takes the worst
// eligible VM at or above the threshold (ties toward the earliest
// placement) and moves it to the coolest host with headroom, which must
// be strictly cooler than the source unless the topology rule picked a
// bigger-LLC host: moving between equally hot hosts would ping-pong the
// polluter without relieving anything. Every move books against running
// copies of the hosts' heat and headroom, so each move sees the fleet as
// the previous ones leave it and applying the plan in order through
// Fleet.Migrate stays feasible.
func (p *evictionPlanner) plan(hosts []*Host, view RebalanceView, sources []int) []Migration {
	rates := append(p.cd.rates[:0], view.HostRates...)
	room := p.cd.room[:0]
	for _, h := range hosts {
		room = append(room, h.headroom)
	}
	p.cd.rates, p.cd.room = rates, room
	var moves []Migration
	for _, src := range sources {
		if p.maxMoves >= 0 && len(moves) >= p.maxMoves {
			break
		}
		v := p.worst(view, src)
		if v == nil {
			continue
		}
		srcLLC := hostLLCBytes(hosts[src])
		dst, bigger := -1, -1
		for _, h := range hosts {
			if h.ID == src || !room[h.ID].fits(v.Request, h.kyoto != nil) {
				continue
			}
			if p.biggerLLC && hostLLCBytes(h) > srcLLC && (bigger == -1 || rates[h.ID] < rates[bigger]) {
				bigger = h.ID
			}
			if dst == -1 || rates[h.ID] < rates[dst] {
				dst = h.ID
			}
		}
		if bigger != -1 {
			dst = bigger
		} else if dst == -1 || rates[dst] >= rates[src] {
			continue
		}
		p.cd.moved(v.Name)
		moves = append(moves, Migration{
			VMName: v.Name, SrcHost: src, DstHost: dst, Reason: p.reason(v, dst, bigger != -1),
		})
		rates[src] -= v.Rate
		rates[dst] += v.Rate
		room[src].release(v.Request)
		room[dst].book(v.Request)
	}
	return moves
}

// worst returns the highest-rate VM on host src that clears the
// threshold, is off cooldown and passes keep, or nil. VMs on cooldown
// are invisible to the selection, so when a host's worst polluter is
// cooling down its next-worst eligible VM is considered instead.
func (p *evictionPlanner) worst(view RebalanceView, src int) *VMLoad {
	var worst *VMLoad
	for i := range view.VMs {
		v := &view.VMs[i]
		if v.HostID != src || v.Rate < p.thr || !p.cd.eligible(v.Name, p.cooldown) || (p.keep != nil && !p.keep(v)) {
			continue
		}
		if worst == nil || v.Rate > worst.Rate {
			worst = v
		}
	}
	return worst
}

// hostLLCBytes returns the host's total last-level cache capacity.
func hostLLCBytes(h *Host) int {
	cfg := h.World.Machine().Config()
	return cfg.LLC.SizeBytes * cfg.Sockets
}

// RebalancerByName returns a fresh instance of the built-in rebalancing
// policy with the given CLI name; "none" or the empty string return nil
// (no rebalancing). Each call builds a new instance because the built-ins
// carry per-replay cooldown state.
func RebalancerByName(name string) (Rebalancer, error) {
	switch name {
	case "", "none":
		return nil, nil
	case "reactive":
		return &Reactive{}, nil
	case "topo":
		return &TopologyAware{}, nil
	case "signature":
		return &Signature{}, nil
	default:
		return nil, fmt.Errorf("cluster: unknown rebalancer %q (want none, reactive, topo or signature)", name)
	}
}

// RebalancerNames lists the built-in rebalancer names for CLI help.
func RebalancerNames() []string { return []string{"none", "reactive", "topo", "signature"} }
