package core

import (
	"fmt"
	"sort"

	"kyoto/internal/machine"
	"kyoto/internal/sched"
	"kyoto/internal/vm"
)

// Measurement is one VM's attributed pollution for the tick that just
// executed, produced by a monitor (internal/monitor) and fed to the Kyoto
// scheduler before its end-of-tick accounting.
type Measurement struct {
	// VM is the measured domain.
	VM *vm.VM
	// Misses is the estimated number of LLC misses attributable to the
	// VM during the tick.
	Misses float64
	// Rate is the estimated pollution rate (indicator units, misses per
	// millisecond) behind Misses; kept for reporting (Fig 5 bottom).
	Rate float64
}

// Option configures the Kyoto scheduler.
type Option func(*Kyoto)

// WithBanking lets VMs accumulate unused pollution quota beyond one
// slice's allowance ("carbon credits"). The paper's design refills at most
// one slice of quota; banking is an extension evaluated in the ablation
// benches.
func WithBanking(maxSlices float64) Option {
	return func(k *Kyoto) { k.bankSlices = maxSlices }
}

// DefaultOverheadCycles is the per-tick monitoring cost the Kyoto
// scheduler charges to core 0, modelling the perfctr-xen collection path
// whose (negligible) cost §4.5 / Figure 12 measures. ~500 cycles against
// a 1M-cycle tick is 0.05%: "near zero", matching Figure 12.
const DefaultOverheadCycles = 500

// Kyoto is the pollution-enforcing scheduler: it delegates all CPU
// scheduling to a base policy and adds the paper's pollution-quota ledger.
//
//	KS4Xen    = New(sched.NewCredit(n))
//	KS4Linux  = New(sched.NewCFS())
//	KS4Pisces = New(sched.NewPisces())
//
// Each tick, monitors feed per-VM Measurements; EndTick debits each VM's
// quota. A VM whose quota goes negative is marked PollutionBlocked — the
// base scheduler then cannot run it (the paper's "priority OVER"), so the
// processor acts as the enforcement lever (§4.1). On slice boundaries
// every permitted VM earns its booked llc_cap worth of quota back.
type Kyoto struct {
	base       sched.Scheduler
	ledgers    map[*vm.VM]*ledger
	vmsInOrder []*vm.VM
	registered map[*vm.VCPU]bool
	vcpuCount  map[*vm.VM]int
	pending    []Measurement
	bankSlices float64
}

// ledger is one VM's pollution account.
type ledger struct {
	// balance is the quota in misses; negative means the VM owes.
	balance float64
	// lastRate is the most recent measured pollution rate (reporting).
	lastRate float64
	// lastMisses is the most recent tick's attributed misses.
	lastMisses float64
}

var _ sched.Scheduler = (*Kyoto)(nil)
var _ sched.Remover = (*Kyoto)(nil)

// New wraps base with Kyoto pollution enforcement.
func New(base sched.Scheduler, opts ...Option) *Kyoto {
	k := &Kyoto{
		base:       base,
		ledgers:    make(map[*vm.VM]*ledger),
		registered: make(map[*vm.VCPU]bool),
		vcpuCount:  make(map[*vm.VM]int),
		bankSlices: 1,
	}
	for _, o := range opts {
		o(k)
	}
	return k
}

// Name implements sched.Scheduler.
func (k *Kyoto) Name() string { return "kyoto+" + k.base.Name() }

// Base returns the wrapped scheduler.
func (k *Kyoto) Base() sched.Scheduler { return k.base }

// IdleTickInvariant implements sched.IdleTickInvariant for the
// decorator's own state: with no registered VMs, EndTick finds no
// pending measurements and no ledgers to refill, so it only delegates.
// hv additionally requires the base scheduler to carry the marker
// (checked through Base), so a Kyoto-wrapped non-invariant policy does
// not qualify.
func (k *Kyoto) IdleTickInvariant() {}

// TickOverheadCycles implements hv.OverheadReporter.
func (k *Kyoto) TickOverheadCycles() uint64 { return DefaultOverheadCycles }

// Register implements sched.Scheduler.
func (k *Kyoto) Register(v *vm.VCPU) {
	if _, ok := k.ledgers[v.VM]; !ok {
		// Start with one slice of quota so a fresh VM is schedulable.
		k.ledgers[v.VM] = &ledger{balance: k.sliceQuota(v.VM)}
		k.vmsInOrder = append(k.vmsInOrder, v.VM)
	}
	if !k.registered[v] {
		k.registered[v] = true
		k.vcpuCount[v.VM]++
	}
	k.base.Register(v)
}

// Unregister implements sched.Remover: the departing VM's pollution
// ledger is closed when its last vCPU leaves, so long-running churn
// scenarios do not accumulate dead accounts. The base scheduler must
// itself implement sched.Remover (all built-in policies do); wrapping a
// base that cannot remove vCPUs is a static misconfiguration, and
// silently skipping the base removal would leave departed vCPUs
// schedulable — so it panics, like Pisces.Register on an unpinned vCPU.
func (k *Kyoto) Unregister(v *vm.VCPU) {
	r, ok := k.base.(sched.Remover)
	if !ok {
		panic(fmt.Sprintf("core: base scheduler %s does not implement sched.Remover; cannot remove vCPUs through the Kyoto decorator", k.base.Name()))
	}
	r.Unregister(v)
	// Never-registered (or already-unregistered) vCPUs are a no-op, per
	// the Remover contract — a stray double-removal must not collapse a
	// live sibling's ledger.
	if !k.registered[v] {
		return
	}
	delete(k.registered, v)
	k.vcpuCount[v.VM]--
	if k.vcpuCount[v.VM] > 0 {
		return
	}
	delete(k.vcpuCount, v.VM)
	delete(k.ledgers, v.VM)
	for i, domain := range k.vmsInOrder {
		if domain == v.VM {
			k.vmsInOrder = append(k.vmsInOrder[:i], k.vmsInOrder[i+1:]...)
			break
		}
	}
}

// PickNext implements sched.Scheduler by delegation; pollution blocking is
// enforced through vm.VCPU.Schedulable, which every base policy honours.
func (k *Kyoto) PickNext(core *machine.Core, now uint64) *vm.VCPU {
	return k.base.PickNext(core, now)
}

// ChargeTick implements sched.Scheduler by delegation.
func (k *Kyoto) ChargeTick(v *vm.VCPU, wallCycles uint64, now uint64) {
	k.base.ChargeTick(v, wallCycles, now)
}

// TickBudget implements sched.BudgetLimiter by delegation, so base-policy
// caps keep working under the Kyoto decorator.
func (k *Kyoto) TickBudget(v *vm.VCPU, now uint64) uint64 {
	if bl, ok := k.base.(sched.BudgetLimiter); ok {
		return bl.TickBudget(v, now)
	}
	return ^uint64(0)
}

// Feed delivers this tick's measurements. Monitors call it from their
// OnTick hook, which the testbed runs before EndTick.
func (k *Kyoto) Feed(ms []Measurement) {
	k.pending = append(k.pending, ms...)
}

// EndTick implements sched.Scheduler: debit quotas with the fed
// measurements, punish or absolve, and refill on slice boundaries.
func (k *Kyoto) EndTick(now uint64) {
	for _, m := range k.pending {
		l, ok := k.ledgers[m.VM]
		if !ok {
			continue
		}
		l.lastRate = m.Rate
		l.lastMisses = m.Misses
		if m.VM.LLCCap <= 0 {
			continue // no permit booked: never punished
		}
		l.balance -= m.Misses
	}
	k.pending = k.pending[:0]

	// Refill earned quota at slice boundaries (§3.2: "at the end of each
	// time slice, VMs earn a specific amount of pollution quota based on
	// their booked llc_cap").
	refill := (now+1)%machine.TicksPerSlice == 0
	for _, domain := range k.vmsInOrder {
		l := k.ledgers[domain]
		if domain.LLCCap <= 0 {
			domain.PollutionBlocked = false
			continue
		}
		if refill {
			q := k.sliceQuota(domain)
			l.balance += q
			if maxBank := q * k.bankSlices; l.balance > maxBank {
				l.balance = maxBank
			}
		}
		blocked := l.balance < 0
		if blocked {
			domain.Punishments++
		}
		domain.PollutionBlocked = blocked
	}

	k.base.EndTick(now)
}

// sliceQuota converts a VM's booked llc_cap (misses per millisecond) into
// the quota earned per slice (misses per slice).
func (k *Kyoto) sliceQuota(domain *vm.VM) float64 {
	return domain.LLCCap * float64(machine.TickMillis) * float64(machine.TicksPerSlice)
}

// QuotaBalance returns a VM's current quota balance in misses (Fig 5
// bottom plots this ledger).
func (k *Kyoto) QuotaBalance(domain *vm.VM) float64 {
	if l, ok := k.ledgers[domain]; ok {
		return l.balance
	}
	return 0
}

// LastRate returns the VM's most recent measured pollution rate.
func (k *Kyoto) LastRate(domain *vm.VM) float64 {
	if l, ok := k.ledgers[domain]; ok {
		return l.lastRate
	}
	return 0
}

// LastMisses returns the VM's most recent tick's attributed misses.
func (k *Kyoto) LastMisses(domain *vm.VM) float64 {
	if l, ok := k.ledgers[domain]; ok {
		return l.lastMisses
	}
	return 0
}

// VMs returns the domains with ledgers, in registration order (copy).
func (k *Kyoto) VMs() []*vm.VM {
	out := make([]*vm.VM, len(k.vmsInOrder))
	copy(out, k.vmsInOrder)
	return out
}

// RankByIndicator orders application names by descending indicator value —
// the Figure 4 analysis helper. values maps name to the indicator value.
func RankByIndicator(values map[string]float64) []string {
	names := make([]string, 0, len(values))
	for n := range values {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		vi, vj := values[names[i]], values[names[j]]
		if vi != vj {
			return vi > vj
		}
		return names[i] < names[j]
	})
	return names
}
