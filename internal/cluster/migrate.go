// Live migration: moving a VM between hosts of a running fleet, paying the
// costs a real migration pays — the cache footprint built up on the source
// is lost (hv releases every line on RemoveVM), the destination starts
// cold, and an optional blackout window models the stop-and-copy downtime.
// The rebalancing policies in rebalancer.go decide *which* VM moves where;
// Fleet.Migrate is the mechanism.

package cluster

import "fmt"

// Migrate moves the named VM to dstHost, preserving its lifetime counters
// and punishment count across the move: the domain is torn down on its
// current host (evicting its cache footprint — the migration's warm-state
// cost) and re-instantiated on the destination with the same request, its
// accumulated counters carried over (vm.VM.Carried), and its workload
// profile restarting deterministically from the destination host's seed.
// A positive downtime suspends the migrated VM for that many ticks on the
// destination, modelling the stop-and-copy blackout.
//
// Booked vCPUs, memory and llc_cap move with the VM. The destination must
// have capacity headroom; on a Kyoto-enforcing host the llc_cap permit
// must fit too, so migration cannot oversubscribe what admission enforced
// (the error wraps ErrUnplaceable — test with errors.Is). Migrating a VM
// to the host it already occupies is a no-op returning the existing
// placement: no flush, no downtime, no cost. Unknown VMs and out-of-range
// hosts are errors that leave the fleet untouched.
func (f *Fleet) Migrate(name string, dstHost int, downtime int) (Placement, error) {
	if dstHost < 0 || dstHost >= len(f.hosts) {
		return Placement{}, fmt.Errorf("cluster: migrate %q: no such host %d (fleet has hosts 0..%d)", name, dstHost, len(f.hosts)-1)
	}
	src, idx := f.findPlacement(name)
	if src == nil {
		return Placement{}, fmt.Errorf("cluster: migrate %q: no such VM in the fleet", name)
	}
	p := src.vms[idx]
	if src.ID == dstHost {
		return p, nil
	}
	dst := f.hosts[dstHost]
	if !dst.Fits(p.Request) {
		return Placement{}, fmt.Errorf("cluster: migrate %q to host %d: %w (need %d vCPU, %d MB; host has %d vCPU, %d MB free)",
			name, dstHost, ErrUnplaceable, p.Request.CPUs(), p.Request.MemMB(), dst.FreeCPUs(), dst.FreeMemMB())
	}
	if !dst.fits(p.Request, dst.kyoto != nil) {
		return Placement{}, fmt.Errorf("cluster: migrate %q to host %d: %w (llc_cap %.0f exceeds the host's free permit %.0f)",
			name, dstHost, ErrUnplaceable, p.Request.LLCCap, dst.FreeLLC())
	}

	// Both endpoints are about to be read and mutated (the source's
	// lifetime counters are carried over; the destination's world clock
	// anchors the suspend window), so both must reach the fleet clock
	// with their timelines applied.
	f.seek(src)
	f.seek(dst)

	// Instantiate on the destination first so a spec the destination's
	// machine cannot host (home node or pin out of range on a smaller
	// override host) fails cleanly with the source untouched.
	carried := p.VM.Counters()
	punishments := p.VM.Punishments
	domain, err := dst.World.AddVM(p.Request.Spec)
	if err != nil {
		return Placement{}, fmt.Errorf("cluster: migrate %q to host %d: %w", name, dstHost, err)
	}
	if err := src.World.RemoveVM(name); err != nil {
		// Unreachable with the built-in schedulers (all implement
		// sched.Remover and the VM demonstrably exists); unwind the
		// destination copy so the fleet is unchanged either way.
		_ = dst.World.RemoveVM(name)
		return Placement{}, fmt.Errorf("cluster: migrate %q: source host %d: %w", name, src.ID, err)
	}
	domain.Carried = carried
	domain.Punishments = punishments

	src.release(p.Request)
	dst.book(p.Request)

	moved := Placement{HostID: dstHost, VM: domain, Request: p.Request}
	src.vms = append(src.vms[:idx], src.vms[idx+1:]...)
	dst.vms = append(dst.vms, moved)
	for i, fp := range f.placements {
		if fp.VM == p.VM {
			f.placements[i] = moved
			break
		}
	}
	dst.World.SuspendVM(domain, downtime)
	return moved, nil
}

// findPlacement locates the named VM, returning its host and index within
// the host's placement list, or (nil, -1).
func (f *Fleet) findPlacement(name string) (*Host, int) {
	for _, h := range f.hosts {
		for i, p := range h.vms {
			if p.VM.Name == name {
				return h, i
			}
		}
	}
	return nil, -1
}
