package cluster

// One Kyoto host, built and checkpointed in one place. The paper patches
// each system's own scheduler (Xen, KVM, Pisces), so a host is one
// recipe: a base scheduler, wrapped by the Kyoto ledger when enforcement
// is on, plus the pollution monitor that feeds the ledger. The public
// kyoto.World, every fleet Host, the warm-start sweep's worlds and every
// paper figure's world (experiments.Scenario) are all a Node.

import (
	"cmp"
	"errors"
	"fmt"

	"kyoto/internal/cache"
	"kyoto/internal/core"
	"kyoto/internal/hv"
	"kyoto/internal/machine"
	"kyoto/internal/monitor"
	"kyoto/internal/pmc"
	"kyoto/internal/sched"
)

// NodeConfig is what NewNode assembles a host from. Machine and Seed are
// used as given: defaults and per-host seed derivation are the caller's.
type NodeConfig struct {
	// Machine is the host's hardware.
	Machine machine.Config
	// Seed drives the world's randomness (hv.Config.Seed).
	Seed uint64
	// Fidelity selects the cache-model tier (hv.Config.Fidelity).
	Fidelity cache.Fidelity
	// NewSched builds the base scheduler for the machine's core count;
	// nil selects the Xen credit scheduler, the paper's baseline.
	NewSched func(cores int) sched.Scheduler
	// EnableKyoto wraps the base scheduler with pollution enforcement
	// and attaches a monitor.
	EnableKyoto bool
	// ShadowMonitor selects the trace-replay monitor instead of the exact
	// per-vCPU counters when Kyoto is enabled.
	ShadowMonitor bool
	// Indicator is the counter monitor's pollution metric; zero selects
	// Equation 1.
	Indicator core.Indicator
	// CyclesPerTick overrides the tick length (hv.Config.CyclesPerTick;
	// zero keeps machine.CyclesPerTick). Figure 12 sweeps it.
	CyclesPerTick uint64
	// BankSlices caps how many slices of unused pollution quota a VM may
	// bank (core.WithBanking); zero keeps the paper's one slice. The
	// banking ablation raises it.
	BankSlices float64
}

// Node is one assembled Kyoto host: a World, its Kyoto ledger and the
// monitor feeding it.
type Node struct {
	// World is the host's simulated testbed.
	World *hv.World

	kyoto *core.Kyoto
	// oracle is the counter monitor, when attached; its sampler state is
	// part of every checkpoint.
	oracle *monitor.Oracle
	// shadow marks the trace-replay monitor, whose buffers no checkpoint
	// can hold.
	shadow bool
}

// NewNode builds a host from c.
func NewNode(c NodeConfig) (*Node, error) {
	if c.EnableKyoto && c.ShadowMonitor && c.Fidelity == cache.FidelityAnalytic {
		return nil, fmt.Errorf("cluster: the shadow monitor replays per-access traces, which the analytic tier does not produce — use the counter monitor or exact fidelity")
	}
	cores := c.Machine.Sockets * c.Machine.CoresPerSocket
	var base sched.Scheduler
	if c.NewSched != nil {
		base = c.NewSched(cores)
	} else {
		base = sched.NewCredit(cores)
	}
	n := &Node{}
	s := base
	if c.EnableKyoto {
		n.kyoto = core.New(base, core.WithBanking(cmp.Or(c.BankSlices, 1)))
		s = n.kyoto
	}
	w, err := hv.New(hv.Config{
		Machine: c.Machine, CyclesPerTick: c.CyclesPerTick, Seed: c.Seed, Fidelity: c.Fidelity,
	}, s)
	if err != nil {
		return nil, err
	}
	n.World = w
	switch {
	case !c.EnableKyoto:
	case c.ShadowMonitor:
		n.shadow = true
		w.AddHook(monitor.NewShadowSim(n.kyoto, c.Machine, 0))
	default:
		n.oracle = monitor.NewOracle(n.kyoto, cmp.Or(c.Indicator, core.Equation1))
		w.AddHook(n.oracle)
	}
	return n, nil
}

// Kyoto returns the host's pollution ledger when enforcement is on, else
// nil.
func (n *Node) Kyoto() *core.Kyoto { return n.kyoto }

// NodeState is one host's checkpoint: the hypervisor state plus the
// counter monitor's sampler snapshots (present exactly when the host
// attaches one).
type NodeState struct {
	World  *hv.WorldState `json:"world"`
	Oracle []pmc.Counters `json:"oracle,omitempty"`
}

// errShadowCheckpoint refuses to checkpoint a shadow-monitored host.
var errShadowCheckpoint = errors.New("cluster: the shadow-sim monitor's trace buffers are not checkpointable — use the counter monitor")

// CaptureState checkpoints the host. Call it only between ticks.
func (n *Node) CaptureState() (NodeState, error) {
	if n.shadow {
		return NodeState{}, errShadowCheckpoint
	}
	ws, err := n.World.CaptureState()
	if err != nil {
		return NodeState{}, err
	}
	st := NodeState{World: ws}
	if n.oracle != nil {
		st.Oracle = n.oracle.CaptureState(n.World.VCPUs())
	}
	return st, nil
}

// RestoreState overlays a checkpoint onto a freshly built host of the
// identical configuration.
func (n *Node) RestoreState(st *NodeState) error {
	switch {
	case n.shadow:
		return errShadowCheckpoint
	case st.World == nil:
		return fmt.Errorf("cluster: host state has no world")
	}
	if err := n.World.RestoreState(st.World); err != nil {
		return err
	}
	if n.oracle != nil {
		return n.oracle.RestoreState(n.World.VCPUs(), st.Oracle)
	}
	return nil
}
