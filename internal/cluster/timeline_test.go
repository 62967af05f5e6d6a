package cluster

// Host timelines: Place and Remove book at once and leave the World
// change on the host's timeline. These tests lock the two promises that
// makes: a bad spec still fails in Place, and when the timeline is
// applied — by whom, how far behind — never changes a result.

import (
	"fmt"
	"strings"
	"testing"

	"kyoto/internal/cache"
	"kyoto/internal/pmc"
	"kyoto/internal/vm"
	"kyoto/internal/workload"
)

// TestBadSpecFailsInPlace: every way a spec can fail is checked when
// the VM is built, in Place, so the error is synchronous, nothing is
// booked and nothing reaches a host's timeline.
func TestBadSpecFailsInPlace(t *testing.T) {
	oddStride, err := workload.Lookup("lbm")
	if err != nil {
		t.Fatal(err)
	}
	oddStride.Phases = append([]workload.Phase(nil), oddStride.Phases...)
	oddStride.Phases[0].Kind = workload.Strided
	oddStride.Phases[0].StrideBytes = 100
	cases := []struct {
		name string
		spec vm.Spec
		want string
		// exactOK marks a spec only the analytic tier cannot run.
		exactOK bool
	}{
		{"unknown app", vm.Spec{Name: "x", App: "no-such-app"}, `cluster: host 0: workload: unknown profile "no-such-app"`, false},
		{"vCPUs over cores", vm.Spec{Name: "x", App: "gcc", VCPUs: 5}, `cluster: host 0: hv: VM "x" asks for 5 vCPUs, more than the machine's 4 cores`, false},
		{"home node", vm.Spec{Name: "x", App: "gcc", HomeNode: 3}, `cluster: host 0: hv: VM "x" home node 3 out of range`, false},
		{"pin", vm.Spec{Name: "x", App: "gcc", VCPUs: 2, Pins: []int{0, 99}}, `cluster: host 0: hv: VM "x" vCPU 1 pinned to invalid core 99`, false},
		{"unaligned stride", vm.Spec{Name: "x", Profile: oddStride}, `cluster: host 0: cpu: analytic tier needs line-aligned strides, got 100`, true},
	}
	for _, fid := range []cache.Fidelity{cache.FidelityExact, cache.FidelityAnalytic} {
		for _, c := range cases {
			t.Run(fmt.Sprintf("%v/%s", fid, c.name), func(t *testing.T) {
				f, err := New(Config{Hosts: 2, Template: HostTemplate{Seed: 1, Fidelity: fid}, Placer: firstHost{}})
				if err != nil {
					t.Fatal(err)
				}
				_, err = f.Place(Request{Spec: c.spec})
				if fid == cache.FidelityExact && c.exactOK {
					if err != nil {
						t.Fatalf("the exact tier runs any stride, got %v", err)
					}
					return
				}
				if err == nil || err.Error() != c.want {
					t.Fatalf("Place error %v, want %q", err, c.want)
				}
				for _, h := range f.Hosts() {
					if got := bookings(h); got != [3]float64{} {
						t.Fatalf("host %d booked %v for a failed spec", h.ID, got)
					}
					if n := h.pending(); n != 0 {
						t.Fatalf("host %d holds %d pending operations after a failed spec", h.ID, n)
					}
				}
				if len(f.Placements()) != 0 {
					t.Fatal("a failed spec left a placement")
				}
			})
		}
	}
}

// firstHost places every VM on host 0 without reading its ledger, so a
// spec reaches the host's checks whatever it asks for.
type firstHost struct{}

func (firstHost) Name() string                        { return "first-host" }
func (firstHost) Place([]*Host, Request) (int, error) { return 0, nil }

// churnHostZero drives a 3-host first-fit fleet through a churn that
// issues far more than maxPendingOps operations to host 0 between
// barriers, and returns a fingerprint of every VM's identity and
// counters, departed ones included. With sync set, every operation is
// followed by a Barrier: the reference schedule, in which each World
// change happens when it is issued. check runs after every operation.
func churnHostZero(t *testing.T, workers int, sync bool, check func(f *Fleet)) string {
	t.Helper()
	f, err := New(Config{
		Hosts:    3,
		Template: HostTemplate{Seed: 5, Fidelity: cache.FidelityAnalytic},
		Workers:  workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	after := func() {
		if sync {
			f.Barrier()
		}
		check(f)
	}
	apps := []string{"gcc", "lbm", "mcf", "soplex"}
	place := func(name, app string) {
		t.Helper()
		if _, err := f.Place(Request{Spec: vm.Spec{Name: name, App: app}}); err != nil {
			t.Fatal(err)
		}
		after()
	}
	// Fill host 0's four cores, then put two VMs on host 1.
	for i := 0; i < 6; i++ {
		place(fmt.Sprintf("v%d", i), apps[i%len(apps)])
	}
	const rounds = 3 * maxPendingOps
	final := make([]pmc.Counters, rounds)
	for i := 0; i < rounds; i++ {
		// Retire one of host 0's VMs and let first-fit refill its slot.
		name := fmt.Sprintf("v%d", i%4)
		if i >= 4 {
			name = fmt.Sprintf("c%d", i-4)
		}
		if _, err := f.RemoveInto(name, &final[i]); err != nil {
			t.Fatal(err)
		}
		after()
		f.SkipTicks(uint64(i % 3))
		place(fmt.Sprintf("c%d", i), apps[i%len(apps)])
		f.SkipTicks(2)
	}
	f.Barrier()
	h := pmc.FoldSeed
	for _, c := range final {
		h = c.Fold(h)
	}
	for _, host := range f.Hosts() {
		for _, v := range host.World.VMs() {
			h = pmc.FoldUint64(h, uint64(v.ID))
			for _, c := range v.VCPUs {
				h = pmc.FoldUint64(h, uint64(c.ID))
				h = pmc.FoldUint64(h, uint64(c.Seq))
				h = c.Counters.Fold(h)
			}
		}
	}
	return fmt.Sprintf("%016x", h)
}

// TestTimelineBoundAndScheduleIndependence: however many drainers apply
// the timelines, and whether each operation is applied at once or long
// after, the fleet ends bit-identical; and no host ever holds more than
// maxPendingOps pending operations. Run it under -race.
func TestTimelineBoundAndScheduleIndependence(t *testing.T) {
	peak := 0
	bounded := func(f *Fleet) {
		for _, h := range f.Hosts() {
			n := h.pending()
			if n > maxPendingOps {
				t.Fatalf("host %d holds %d pending operations, bound %d", h.ID, n, maxPendingOps)
			}
			peak = max(peak, n)
		}
	}
	want := churnHostZero(t, 1, true, bounded)
	for _, workers := range []int{1, 0, 4} {
		peak = 0
		if got := churnHostZero(t, workers, false, bounded); got != want {
			t.Errorf("workers %d: fingerprint %s, want %s (operations applied when issued)", workers, got, want)
		}
		if workers == 1 && peak != maxPendingOps {
			// Without drainers only the bound's own catch-up applies
			// host 0's timeline, so the queue must fill to the bound.
			t.Errorf("workers 1: peak pending %d, want the bound %d", peak, maxPendingOps)
		}
	}
}

// TestObserveSteadyStateAllocatesNothing: a rebalance observation, and
// the cooldown bookkeeping every built-in rebalancer's epoch starts
// with, reuse their buffers on a fleet whose VMs do not change.
func TestObserveSteadyStateAllocatesNothing(t *testing.T) {
	f, err := New(Config{Hosts: 3, Template: HostTemplate{Seed: 2, Fidelity: cache.FidelityAnalytic}, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, app := range []string{"gcc", "lbm", "mcf", "soplex", "omnetpp", "bzip"} {
		if _, err := f.Place(Request{Spec: vm.Spec{Name: fmt.Sprintf("v%d", i), App: app}}); err != nil {
			t.Fatal(err)
		}
	}
	mon := NewFleetMonitor()
	// Warm up past the analytic tier's first-epoch transients, as the
	// lazy-advancement gate in internal/arrivals does.
	f.RunTicks(512)
	var cd migrationCooldown
	cd.advance(mon.Observe(f))
	allocs := testing.AllocsPerRun(20, func() {
		f.RunTicks(3)
		cd.advance(mon.Observe(f))
	})
	if allocs != 0 {
		t.Fatalf("steady-state Observe and cooldown advance allocate %v times per epoch, want 0", allocs)
	}
	if view := mon.Observe(f); len(view.VMs) != 6 || len(view.HostRates) != 3 || !strings.HasPrefix(view.VMs[0].Name, "v") {
		t.Fatalf("view after reuse: %d VMs, %d hosts", len(view.VMs), len(view.HostRates))
	}
}
