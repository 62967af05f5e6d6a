package kyoto

// The cluster facade: a Fleet of simulated hosts behind a placement
// policy, the layer on which the paper's cluster-scoped argument runs.
// Contention-aware placement (PlacerSpread) needs to know every VM's
// behaviour and still degenerates as the fleet fills; Kyoto admission
// (PlacerKyoto) books llc_cap like any other resource and makes whatever
// placement results safe.

import (
	"fmt"

	"kyoto/internal/cluster"
)

// ErrUnplaceable is wrapped by Cluster.Place when no host can take the
// VM — capacity exhaustion under any policy, or a permit rejection under
// PlacerKyoto. Test with errors.Is.
var ErrUnplaceable = cluster.ErrUnplaceable

// PlacerKind selects a built-in placement policy.
type PlacerKind int

// Placement policies.
const (
	// PlacerFirstFit is contention-blind first-fit bin-packing on vCPU
	// and memory (the IaaS default).
	PlacerFirstFit PlacerKind = iota
	// PlacerSpread is contention-aware placement balancing Figure-4
	// aggressiveness across hosts (the related-work approach).
	PlacerSpread
	// PlacerKyoto is Kyoto admission control: llc_cap is booked as a
	// first-class resource and VMs whose permits oversubscribe every
	// host are rejected.
	PlacerKyoto
)

// placerOf maps the public enum to the internal policy.
func placerOf(kind PlacerKind) (cluster.Placer, error) {
	switch kind {
	case PlacerFirstFit:
		return cluster.FirstFit{}, nil
	case PlacerSpread:
		return cluster.Spread{}, nil
	case PlacerKyoto:
		return cluster.Admission{}, nil
	default:
		return nil, fmt.Errorf("kyoto: unknown placer kind %d", kind)
	}
}

// PlacerKindByName returns the policy with the given CLI name (see
// PlacerNames); the name set lives with the policies themselves.
func PlacerKindByName(name string) (PlacerKind, error) {
	p, err := cluster.PlacerByName(name)
	if err != nil {
		return 0, err
	}
	switch p.(type) {
	case cluster.FirstFit:
		return PlacerFirstFit, nil
	case cluster.Spread:
		return PlacerSpread, nil
	case cluster.Admission:
		return PlacerKyoto, nil
	}
	return 0, fmt.Errorf("kyoto: placer %q has no public kind", name)
}

// PlacerNames lists the built-in placement policy names.
func PlacerNames() []string { return cluster.PlacerNames() }

// ClusterConfig assembles a simulated fleet.
type ClusterConfig struct {
	// Hosts is the fleet size (at least 1).
	Hosts int
	// World is the per-host template: machine, scheduler, Kyoto
	// enforcement, monitor and seed, exactly as for NewWorld. Host i
	// derives its own seed from World.Seed.
	World WorldConfig
	// Placer picks the placement policy (default PlacerFirstFit).
	Placer PlacerKind
	// HostMemoryMB overrides each host's memory capacity for admission
	// (default the machine's MainMemoryMB).
	HostMemoryMB int
	// HostLLCBudget overrides each host's pollution-permit budget in
	// Equation-1 units (default cores x 250, the paper's Figure-5
	// booking per core).
	HostLLCBudget float64
	// HostOverrides customizes individual hosts by ID (machine, memory,
	// permit budget), making the fleet heterogeneous; hosts without an
	// entry are stamped from the template.
	HostOverrides map[int]HostOverride
	// Workers caps RunTicks concurrency (default GOMAXPROCS).
	Workers int
}

// ClusterVMSpec asks a cluster for a VM: the usual VMSpec plus the
// memory booking the placement policies bin-pack on.
type ClusterVMSpec struct {
	VMSpec
	// MemoryMB is the VM's booked memory (default 64 MB, 1/8 of the
	// scaled Table-1 host).
	MemoryMB int
}

// ClusterPlacement records where a VM landed.
type ClusterPlacement struct {
	// HostID is the chosen host.
	HostID int
	// VM is the instantiated domain on that host.
	VM *VM
}

// Cluster is a running simulated fleet.
type Cluster struct {
	// fleet never lags: RunTicks, Place and Remove end in a barrier, so
	// every host's World, read through Host or a VM, sits at the fleet
	// clock with every placement and removal applied.
	fleet *cluster.Fleet
	hosts []*World

	// cfg is the construction config, retained so SnapshotCluster can
	// digest it into the envelope (ResumeCluster must match it exactly).
	cfg ClusterConfig
}

// NewCluster builds a fleet of cfg.Hosts identical hosts.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	placer, err := placerOf(cfg.Placer)
	if err != nil {
		return nil, err
	}
	nc, err := nodeConfig(cfg.World)
	if err != nil {
		return nil, err
	}
	f, err := cluster.New(cluster.Config{
		Hosts: cfg.Hosts,
		Template: cluster.HostTemplate{
			Machine:       nc.Machine,
			NewSched:      nc.NewSched,
			EnableKyoto:   nc.EnableKyoto,
			ShadowMonitor: nc.ShadowMonitor,
			Indicator:     nc.Indicator,
			Seed:          nc.Seed,
			Fidelity:      nc.Fidelity,
			MemoryMB:      cfg.HostMemoryMB,
			LLCBudget:     cfg.HostLLCBudget,
		},
		Overrides: cfg.HostOverrides,
		Placer:    placer,
		Workers:   cfg.Workers,
	})
	if err != nil {
		return nil, err
	}
	c := &Cluster{fleet: f, cfg: cfg}
	for _, h := range f.Hosts() {
		c.hosts = append(c.hosts, &World{node: h.Node, inCluster: true})
	}
	return c, nil
}

// Place asks the policy for a host and instantiates the VM there. The
// error reports a policy rejection (Kyoto admission refusing an
// oversubscribing permit) or fleet exhaustion.
func (c *Cluster) Place(spec ClusterVMSpec) (ClusterPlacement, error) {
	p, err := c.fleet.Place(cluster.Request{Spec: spec.VMSpec, MemoryMB: spec.MemoryMB})
	if err != nil {
		return ClusterPlacement{}, err
	}
	c.fleet.Barrier()
	return ClusterPlacement{HostID: p.HostID, VM: p.VM}, nil
}

// Remove tears the named VM down wherever it landed, freeing its booked
// vCPUs, memory and llc_cap permit and evicting its cache footprint.
// Removing a VM the fleet does not hold returns an error and changes
// nothing. The departed VM is returned with its lifetime counters intact.
func (c *Cluster) Remove(name string) (*VM, error) {
	p, err := c.fleet.Remove(name)
	if err != nil {
		return nil, err
	}
	c.fleet.Barrier()
	return p.VM, nil
}

// Migrate live-migrates the named VM to dstHost, carrying its lifetime
// counters and punishments along. The migration pays the real costs: the
// VM's cache footprint on the source is evicted, the destination starts
// cold, and a positive downtime suspends the VM for that many ticks on
// arrival (the stop-and-copy blackout). Booked vCPUs, memory and llc_cap
// move with the VM; a destination without headroom (including permit
// headroom on Kyoto-enforcing hosts) fails with ErrUnplaceable and
// changes nothing. Migrating a VM to its current host is a free no-op.
func (c *Cluster) Migrate(name string, dstHost int, downtime int) (ClusterPlacement, error) {
	p, err := c.fleet.Migrate(name, dstHost, downtime)
	if err != nil {
		return ClusterPlacement{}, err
	}
	return ClusterPlacement{HostID: p.HostID, VM: p.VM}, nil
}

// RunTicks advances every host n scheduler ticks, fanning hosts out
// across a bounded worker pool. Hosts are independent worlds, so the
// result is bit-identical to running them one after another.
func (c *Cluster) RunTicks(n int) { c.fleet.RunTicks(n) }

// Hosts returns the fleet size.
func (c *Cluster) Hosts() int { return c.fleet.Size() }

// Host returns host i as a World, giving access to its VMs, clock and
// Kyoto ledger.
func (c *Cluster) Host(i int) *World { return c.hosts[i] }

// Placements returns every successful placement in request order.
func (c *Cluster) Placements() []ClusterPlacement {
	ps := c.fleet.Placements()
	out := make([]ClusterPlacement, len(ps))
	for i, p := range ps {
		out[i] = ClusterPlacement{HostID: p.HostID, VM: p.VM}
	}
	return out
}

// FindVM returns the named VM and its host ID, or (nil, -1).
func (c *Cluster) FindVM(name string) (*VM, int) { return c.fleet.FindVM(name) }
