package cluster

// Fleet checkpoint support: capture every host's world (plus its counter
// monitor) together with the placement bookkeeping the placer bin-packs
// on, and restore the lot onto a freshly built fleet of the identical
// configuration. CaptureState is a global barrier: every lazily lagging
// host is fast-forwarded to the fleet clock first, so the captured
// worlds all sit at one common tick boundary (the only place hv worlds
// checkpoint) and the envelope's per-host clocks agree — which is what
// lets a resumed run keep advancing lazily and still end bit-identical.

import "fmt"

// HostPlacementState is one VM placed on a host: its name (the key it is
// found under after the world restore) and the original request whose
// bookings Remove must return.
type HostPlacementState struct {
	Name    string  `json:"name"`
	Request Request `json:"request"`
}

// HostState is one host's serialized state: its Kyoto host's checkpoint,
// whose fields encoding/json promotes in place, plus the bookings.
type HostState struct {
	NodeState

	BookedCPUs  int     `json:"booked_cpus"`
	BookedMemMB int     `json:"booked_mem_mb"`
	BookedLLC   float64 `json:"booked_llc"`

	VMs []HostPlacementState `json:"vms,omitempty"`
}

// PlacementRef identifies one fleet-level placement by host and VM name,
// preserving request order.
type PlacementRef struct {
	HostID int    `json:"host_id"`
	Name   string `json:"name"`
}

// FleetState is the complete serialized state of a Fleet between
// RunTicks calls.
type FleetState struct {
	Hosts      []HostState    `json:"hosts"`
	Placements []PlacementRef `json:"placements,omitempty"`
}

// CaptureState serializes the fleet: every host's world and monitor,
// the resource bookings, and both placement orders.
func (f *Fleet) CaptureState() (*FleetState, error) {
	f.Barrier()
	st := &FleetState{}
	for _, h := range f.hosts {
		ns, err := h.Node.CaptureState()
		if err != nil {
			return nil, fmt.Errorf("cluster: host %d: %w", h.ID, err)
		}
		hs := HostState{
			NodeState:   ns,
			BookedCPUs:  h.BookedCPUs,
			BookedMemMB: h.BookedMemMB,
			BookedLLC:   h.BookedLLC,
		}
		for _, p := range h.vms {
			hs.VMs = append(hs.VMs, HostPlacementState{Name: p.VM.Name, Request: p.Request})
		}
		st.Hosts = append(st.Hosts, hs)
	}
	for _, p := range f.placements {
		st.Placements = append(st.Placements, PlacementRef{HostID: p.HostID, Name: p.VM.Name})
	}
	return st, nil
}

// RestoreState overlays a captured fleet state onto a freshly built
// fleet of the identical configuration (the snapshot envelope's config
// digest enforces the identity; this method validates shape).
func (f *Fleet) RestoreState(st *FleetState) error {
	if len(st.Hosts) != len(f.hosts) {
		return fmt.Errorf("cluster: state holds %d hosts, fleet has %d", len(st.Hosts), len(f.hosts))
	}
	if len(f.placements) != 0 {
		return fmt.Errorf("cluster: restore target must be a freshly built fleet (%d placements live)", len(f.placements))
	}
	// CaptureState barriers, so a well-formed snapshot holds every host
	// at one common tick; reject anything else up front — restoring
	// misaligned clocks would silently skew every later lazy delta.
	for i := 1; i < len(st.Hosts); i++ {
		if st.Hosts[i].World == nil || st.Hosts[0].World == nil {
			continue // Node.RestoreState reports the missing world per host
		}
		if st.Hosts[i].World.Now != st.Hosts[0].World.Now {
			return fmt.Errorf("cluster: state holds host clocks at ticks %d and %d — a fleet snapshot must be captured at a barrier", st.Hosts[0].World.Now, st.Hosts[i].World.Now)
		}
	}
	// Operations still on the hosts' timelines would otherwise land on
	// the restored worlds.
	f.Barrier()
	for i, h := range f.hosts {
		hs := &st.Hosts[i]
		if err := h.Node.RestoreState(&hs.NodeState); err != nil {
			return fmt.Errorf("cluster: host %d: %w", h.ID, err)
		}
		h.BookedCPUs = hs.BookedCPUs
		h.BookedMemMB = hs.BookedMemMB
		h.BookedLLC = hs.BookedLLC
		for _, ps := range hs.VMs {
			domain := h.World.FindVM(ps.Name)
			if domain == nil {
				return fmt.Errorf("cluster: host %d placement references VM %q, which its world does not hold", h.ID, ps.Name)
			}
			h.vms = append(h.vms, Placement{HostID: h.ID, VM: domain, Request: ps.Request})
		}
	}
	for _, ref := range st.Placements {
		if ref.HostID < 0 || ref.HostID >= len(f.hosts) {
			return fmt.Errorf("cluster: placement references host %d, fleet has hosts 0..%d", ref.HostID, len(f.hosts)-1)
		}
		var found *Placement
		for i := range f.hosts[ref.HostID].vms {
			if f.hosts[ref.HostID].vms[i].VM.Name == ref.Name {
				found = &f.hosts[ref.HostID].vms[i]
				break
			}
		}
		if found == nil {
			return fmt.Errorf("cluster: placement references VM %q on host %d, which does not hold it", ref.Name, ref.HostID)
		}
		f.placements = append(f.placements, *found)
	}
	// The lazy clocks are relative to the restore point: every restored
	// world sits at the same (captured) tick, so the fleet starts over
	// with zero lag everywhere and advances in deltas from here. Host
	// locks order these resets against any drainer activity, and a
	// fresh-fleet clock of zero means no drainer ran before this point.
	f.sched.clock.Store(0)
	for _, h := range f.hosts {
		h.mu.Lock()
		h.ran = 0
		h.mu.Unlock()
	}
	return nil
}
