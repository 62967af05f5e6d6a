// Placement policies: the two solution families the paper contrasts
// (contention-aware placement vs Kyoto admission) plus the contention-blind
// baseline both are measured against.
package cluster

import (
	"errors"
	"fmt"
)

// ErrUnplaceable is wrapped by Fleet.Place when no host can take a VM.
var ErrUnplaceable = errors.New("no host can take the VM")

// Placer picks a host for a request. Implementations must be
// deterministic: the same fleet state and request always yield the same
// host (ties break toward the lowest host ID), so fleet scenarios are
// reproducible bit for bit.
type Placer interface {
	// Name identifies the policy in reports and CLI flags.
	Name() string
	// Place returns the chosen host's ID, or an error wrapping
	// ErrUnplaceable when every host is unsuitable. It must not mutate
	// the hosts; Fleet.Place does the booking.
	Place(hosts []*Host, req Request) (int, error)
}

// FirstFit is contention-blind first-fit bin-packing on vCPU and memory —
// what a capacity-only IaaS scheduler does, and the placement Kyoto
// permits make safe.
type FirstFit struct{}

// Name implements Placer.
func (FirstFit) Name() string { return "first-fit" }

// Place implements Placer.
func (FirstFit) Place(hosts []*Host, req Request) (int, error) {
	for _, h := range hosts {
		if h.Fits(req) {
			return h.ID, nil
		}
	}
	return -1, fmt.Errorf("first-fit: %w (need %d vCPU, %d MB)", ErrUnplaceable, req.CPUs(), req.MemMB())
}

// aggressiveness maps the ten Figure-4 applications to their measured
// real aggressiveness — the average degradation (percent) each inflicts
// across the nine co-runners, in the paper's o1 order. These are the
// weights a contention-aware placer balances; apps outside the study get
// a mid-pack default.
var aggressiveness = map[string]float64{
	"blockie": 35, // bursty wiper: #1 inflicted damage
	"lbm":     30, // steady polluter
	"mcf":     22,
	"soplex":  18,
	"milc":    15, // huge miss count, but self-thrashing
	"omnetpp": 10,
	"gcc":     8,
	"xalan":   4,
	"astar":   2,
	"bzip":    1,
}

// defaultAggressiveness is assumed for applications outside the Figure-4
// study (micro-benchmarks, povray, custom profiles).
const defaultAggressiveness = 5

// AggressivenessOf returns the Figure-4 aggressiveness weight used by the
// Spread policy for the named application.
func AggressivenessOf(app string) float64 {
	if a, ok := aggressiveness[app]; ok {
		return a
	}
	return defaultAggressiveness
}

// Spread is the related-work strawman: contention-aware placement that
// balances the fleet's aggressiveness load, steering polluters away from
// each other (and from everyone else) using the Figure-4 aggressiveness
// data. It needs global knowledge of every VM's behaviour ahead of time —
// exactly the omniscience the paper argues real IaaS operators lack — and
// its optimal form is NP-hard; this greedy online version is the standard
// approximation.
type Spread struct{}

// Name implements Placer.
func (Spread) Name() string { return "spread" }

// Place implements Placer: pick the feasible host with the least booked
// aggressiveness, lowest ID on ties.
func (Spread) Place(hosts []*Host, req Request) (int, error) {
	best, bestLoad := -1, 0.0
	for _, h := range hosts {
		if !h.Fits(req) {
			continue
		}
		load := 0.0
		for _, p := range h.vms {
			load += AggressivenessOf(p.VM.App)
		}
		if best == -1 || load < bestLoad {
			best, bestLoad = h.ID, load
		}
	}
	if best == -1 {
		return -1, fmt.Errorf("spread: %w (need %d vCPU, %d MB)", ErrUnplaceable, req.CPUs(), req.MemMB())
	}
	return best, nil
}

// Admission is Kyoto admission control: llc_cap is a first-class booked
// resource like vCPUs and memory. A VM must book a pollution permit, and
// a host whose permits are fully subscribed rejects further polluters —
// the cluster-level half of the Kyoto contract (the per-host scheduler
// enforces the permits the placement admitted). Co-location is otherwise
// free: any host with permit headroom will do, no behavioural knowledge
// required.
type Admission struct{}

// Name implements Placer.
func (Admission) Name() string { return "kyoto" }

// Place implements Placer: first host where vCPUs, memory AND the
// pollution permit fit; rejection (not overload) when permits
// oversubscribe everywhere.
func (Admission) Place(hosts []*Host, req Request) (int, error) {
	if req.LLCCap <= 0 {
		return -1, fmt.Errorf("kyoto admission: VM %q books no llc_cap permit: %w", req.Name, ErrUnplaceable)
	}
	permitShort := false
	for _, h := range hosts {
		if h.fits(req, true) {
			return h.ID, nil
		}
		permitShort = permitShort || h.Fits(req)
	}
	if permitShort {
		return -1, fmt.Errorf("kyoto admission: llc_cap %.0f oversubscribes every host's permit budget: %w", req.LLCCap, ErrUnplaceable)
	}
	return -1, fmt.Errorf("kyoto admission: %w (need %d vCPU, %d MB)", ErrUnplaceable, req.CPUs(), req.MemMB())
}

// PlacerByName returns the built-in policy with the given CLI name.
func PlacerByName(name string) (Placer, error) {
	switch name {
	case "", "first-fit":
		return FirstFit{}, nil
	case "spread":
		return Spread{}, nil
	case "kyoto":
		return Admission{}, nil
	default:
		return nil, fmt.Errorf("cluster: unknown placer %q (want first-fit, spread or kyoto)", name)
	}
}

// PlacerNames lists the built-in policy names for CLI help.
func PlacerNames() []string { return []string{"first-fit", "spread", "kyoto"} }
