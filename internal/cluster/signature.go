// Signature-based rebalancing: instead of reacting to instantaneous
// Equation-1 threshold crossings, watch each VM's pollution-rate series
// through a streaming change-point detector (internal/detect) and plan
// migrations only on confirmed regime shifts. The detector absorbs the
// one-epoch spikes a raw threshold fires on, so the policy migrates on
// behaviour changes, not noise — and because confirmed shifts are rare,
// it can afford to plan a batch of moves per epoch instead of one.

package cluster

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"

	"kyoto/internal/detect"
)

// DefaultSignatureMaxMoves caps a Signature plan's batch: at most this
// many migrations per rebalance epoch. Confirmed change points arrive
// in bursts when a noisy tenant lands, and moving the whole burst in
// one epoch beats dribbling it out — but an unbounded batch could churn
// half the fleet on a pathological trace.
const DefaultSignatureMaxMoves = 4

// DefaultSignatureEpochTicks is the assumed tick length of one
// rebalance epoch for lifetime amortization, matching the replay
// engine's default rebalance cadence (arrivals.DefaultRebalanceEvery).
// Callers driving the replay at a different cadence should set
// Signature.EpochTicks to match.
const DefaultSignatureEpochTicks = 12

// DefaultAmortizeEpochs is how many rebalance epochs of expected
// remaining lifetime a one-permit VM must have before a migration is
// worth its evicted cache footprint; VMs with bigger footprints need
// proportionally longer.
const DefaultAmortizeEpochs = 2

// LifetimeEstimator predicts how much longer a VM is expected to run
// given how long it has run already. The arrivals package implements it
// from a trace's empirical lifetime distribution; the Signature
// rebalancer uses it to skip migrations that would not amortize.
type LifetimeEstimator interface {
	// ExpectedRemainingTicks returns the expected remaining lifetime, in
	// ticks, of a VM that has been running for age ticks.
	ExpectedRemainingTicks(age uint64) float64
}

// ChangePoint is one confirmed regime shift in a VM's pollution-rate
// series, as logged by the Signature rebalancer.
type ChangePoint struct {
	// Epoch is the rebalance epoch ordinal (1-based) the shift was
	// confirmed in.
	Epoch uint64 `json:"epoch"`
	// VM and App identify the series.
	VM  string `json:"vm"`
	App string `json:"app"`
	// Rate is the Equation-1 rate observed in the confirming epoch.
	Rate float64 `json:"rate"`
	// Direction is "up" or "down".
	Direction string `json:"direction"`
}

// Signature is the change-detection rebalancer: one detect.Detector per
// VM, fed that VM's per-epoch Equation-1 rate. A confirmed upward
// change point on any VM's series is evidence its *host's* regime
// shifted — the victim-side signal of the signature-based detection
// literature: when a polluter lands, it is the neighbours' miss rates
// that jump, since the polluter itself has polluted from birth and its
// own series never shifts. The policy therefore fires only on confirmed
// change points, and responds on each shifted host by evicting that
// host's worst polluter above Threshold. Candidate moves are scored
// with migration-cost awareness — a VM whose expected remaining
// lifetime will not amortize its evicted cache footprint is left alone
// — and emitted as a batched plan of up to MaxMoves migrations toward
// the coolest feasible hosts.
//
// Like the other built-ins, a Signature value carries per-replay state
// (detectors, VM ages, cooldowns, the change-point log): use one
// instance per replay and do not share it across goroutines.
type Signature struct {
	// Threshold is the minimum Equation-1 rate a confirmed change point
	// must reach before it is acted on (default
	// DefaultRebalanceThreshold): a VM that shifted regimes but still
	// pollutes lightly is not worth moving.
	Threshold float64
	// CooldownEpochs is the per-VM hysteresis, as in Reactive
	// (0 = DefaultMigrationCooldown, negative disables).
	CooldownEpochs int
	// Detector configures the per-VM change-point detectors (zero value
	// = detect defaults). Set knobs before the first Plan; later changes
	// do not affect detectors already created.
	Detector detect.Config
	// MaxMoves caps the batch size of one plan
	// (0 = DefaultSignatureMaxMoves, negative removes the cap).
	MaxMoves int
	// EpochTicks converts epoch-counted VM ages to ticks for the
	// lifetime amortization check (0 = DefaultSignatureEpochTicks; set
	// to the replay's rebalance cadence when it differs).
	EpochTicks uint64
	// AmortizeEpochs is the expected-remaining-lifetime floor, in
	// epochs per permit of footprint (0 = DefaultAmortizeEpochs,
	// negative disables the check).
	AmortizeEpochs float64
	// Lifetimes estimates remaining VM lifetimes for the amortization
	// check; nil disables the check.
	Lifetimes LifetimeEstimator

	cd     migrationCooldown
	det    map[string]*detect.Detector
	ages   map[string]uint64
	log    []ChangePoint
	detErr error
	// shifted marks the epoch's regime-shifted hosts; it is scratch,
	// reused across epochs, and checkpoints omit it.
	shifted []bool
}

// Name implements Rebalancer.
func (*Signature) Name() string { return "signature" }

// Validate reports whether the Detector knobs are usable. Plan falls
// back to the detect defaults on a bad config (it cannot return an
// error); callers that accept knobs from users should Validate first.
func (g *Signature) Validate() error {
	_, err := detect.New(g.Detector)
	return err
}

// ChangePoints returns a copy of every confirmed change point so far,
// in confirmation order (epoch, then view order within the epoch).
func (g *Signature) ChangePoints() []ChangePoint {
	return append([]ChangePoint(nil), g.log...)
}

// newDetector builds one per-VM detector, falling back to the defaults
// when the configured knobs are out of domain (recorded for Validate).
func (g *Signature) newDetector() *detect.Detector {
	d, err := detect.New(g.Detector)
	if err != nil {
		g.detErr = err
		d, _ = detect.New(detect.Config{})
	}
	return d
}

// Plan implements Rebalancer: step every VM's detector with this
// epoch's rate (in view order, so plans are deterministic), log the
// confirmed change points, mark the hosts with an upward change point
// as regime-shifted, then plan a batch of evictions — each shifted
// host's worst polluter that clears the rate threshold, the cooldown
// and the lifetime-amortization check. Destinations are chosen coolest
// first with capacity accounting across the whole batch, so applying
// the plan in order through Fleet.Migrate stays feasible.
func (g *Signature) Plan(hosts []*Host, view RebalanceView) []Migration {
	p := g.cd.beginEpoch(view, g.Threshold, g.CooldownEpochs)
	if g.det == nil {
		g.det = make(map[string]*detect.Detector)
		g.ages = make(map[string]uint64)
	}

	// Step the detectors; an upward change point on any VM marks its
	// host as shifted this epoch.
	shifted := slices.Grow(g.shifted[:0], len(view.HostRates))[:len(view.HostRates)]
	clear(shifted)
	g.shifted = shifted
	for i := range view.VMs {
		v := &view.VMs[i]
		g.ages[v.Name]++
		d := g.det[v.Name]
		if d == nil {
			d = g.newDetector()
			g.det[v.Name] = d
		}
		dir, err := d.Step(v.Rate)
		if err != nil || dir == detect.None {
			continue
		}
		g.log = append(g.log, ChangePoint{
			Epoch: g.cd.epoch, VM: v.Name, App: v.App, Rate: v.Rate, Direction: dir.String(),
		})
		if dir == detect.Up && v.HostID >= 0 && v.HostID < len(shifted) {
			shifted[v.HostID] = true
		}
	}
	for name := range g.det {
		if !g.cd.live[name] {
			delete(g.det, name)
			delete(g.ages, name)
		}
	}

	// Order the shifted hosts hottest first (ties toward the lower ID),
	// so a capped batch spends its moves where the contention is.
	var order []int
	for id, s := range shifted {
		if s {
			order = append(order, id)
		}
	}
	sort.SliceStable(order, func(i, j int) bool {
		if view.HostRates[order[i]] != view.HostRates[order[j]] {
			return view.HostRates[order[i]] > view.HostRates[order[j]]
		}
		return order[i] < order[j]
	})

	// The eviction candidate is each shifted host's worst eligible
	// polluter — usually the newcomer whose arrival the victims'
	// detectors just confirmed — provided its move amortizes.
	p.maxMoves = g.MaxMoves
	if p.maxMoves == 0 {
		p.maxMoves = DefaultSignatureMaxMoves
	}
	p.keep = g.amortizes
	p.reason = func(v *VMLoad, dst int, _ bool) string {
		return fmt.Sprintf("change point on host %d, evicting eq1 %.0f to coolest fit %d", v.HostID, v.Rate, dst)
	}
	return p.plan(hosts, view, order)
}

// amortizes reports whether migrating the VM is expected to pay for
// itself: its expected remaining lifetime must cover AmortizeEpochs
// rebalance epochs per permit of booked cache footprint. With no
// estimator the check is disabled.
func (g *Signature) amortizes(v *VMLoad) bool {
	if g.Lifetimes == nil {
		return true
	}
	amortize := g.AmortizeEpochs
	if amortize == 0 {
		amortize = DefaultAmortizeEpochs
	}
	if amortize < 0 {
		return true
	}
	epochTicks := g.EpochTicks
	if epochTicks == 0 {
		epochTicks = DefaultSignatureEpochTicks
	}
	footprint := v.Request.LLCCap / DefaultLLCCapPerCore
	if footprint < 1 {
		footprint = 1 // even a capless VM costs at least one permit of warm cache
	}
	remaining := g.Lifetimes.ExpectedRemainingTicks(g.ages[v.Name] * epochTicks)
	return remaining >= amortize*float64(epochTicks)*footprint
}

// signatureVMState is one VM's detector state and age, name-sorted in
// the serialized form.
type signatureVMState struct {
	Name     string       `json:"name"`
	Age      uint64       `json:"age"`
	Detector detect.State `json:"detector"`
}

// signatureState is the serialized form of a Signature's per-replay
// state: cooldowns, per-VM detectors and ages, and the change-point
// log.
type signatureState struct {
	Cooldown json.RawMessage    `json:"cooldown"`
	VMs      []signatureVMState `json:"vms,omitempty"`
	Log      []ChangePoint      `json:"log,omitempty"`
}

// CaptureRebalanceState implements StatefulRebalancer. The encoding is
// canonical (VMs name-sorted), so identical states serialize to
// identical bytes whatever map iteration order produced them.
func (g *Signature) CaptureRebalanceState() (json.RawMessage, error) {
	cd, err := g.cd.capture()
	if err != nil {
		return nil, err
	}
	st := signatureState{Cooldown: cd, Log: append([]ChangePoint(nil), g.log...)}
	for name, d := range g.det {
		st.VMs = append(st.VMs, signatureVMState{Name: name, Age: g.ages[name], Detector: d.State()})
	}
	sort.Slice(st.VMs, func(i, j int) bool { return st.VMs[i].Name < st.VMs[j].Name })
	return json.Marshal(st)
}

// RestoreRebalanceState implements StatefulRebalancer.
func (g *Signature) RestoreRebalanceState(data json.RawMessage) error {
	var st signatureState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("cluster: signature state: %w", err)
	}
	if err := g.cd.restore(st.Cooldown); err != nil {
		return err
	}
	g.det = make(map[string]*detect.Detector, len(st.VMs))
	g.ages = make(map[string]uint64, len(st.VMs))
	for _, vs := range st.VMs {
		d := g.newDetector()
		if err := d.SetState(vs.Detector); err != nil {
			return fmt.Errorf("cluster: signature state for %q: %w", vs.Name, err)
		}
		g.det[vs.Name] = d
		g.ages[vs.Name] = vs.Age
	}
	g.log = append([]ChangePoint(nil), st.Log...)
	return nil
}
