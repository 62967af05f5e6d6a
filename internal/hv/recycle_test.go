package hv

// Owner-tag recycling and migration-blackout regression tests: the churn
// fixes that keep long-running fleets bounded. The ROADMAP's owner-ID
// growth note is pinned here — per-owner cache stats slices must not grow
// with total arrivals.

import (
	"testing"

	"kyoto/internal/machine"
	"kyoto/internal/vm"
)

func TestOwnerTagsAreRecycledAndStatsStayBounded(t *testing.T) {
	w := mkWorld(t, machine.TableOne())
	llc := w.Machine().Sockets()[0].LLC
	baseline := llc.OwnersTracked()

	// Churn far more arrivals than the presized owner population: without
	// recycling, monotonically minted tags force the dense stats slices
	// to grow with total arrivals (the ROADMAP bug); with it, the slices
	// stay at the peak-concurrency watermark.
	for i := 0; i < 200; i++ {
		if _, err := w.AddVM(vm.Spec{Name: "churner", App: "gcc"}); err != nil {
			t.Fatal(err)
		}
		w.RunTicks(2)
		if err := w.RemoveVM("churner"); err != nil {
			t.Fatal(err)
		}
	}
	if got := llc.OwnersTracked(); got != baseline {
		t.Fatalf("LLC tracks %d owners after 200 arrivals (baseline %d): stats slices grew with churn", got, baseline)
	}
	for _, core := range w.Machine().Cores() {
		if got := core.Path.L1D.OwnersTracked(); got != baseline {
			t.Fatalf("L1D tracks %d owners, want %d", got, baseline)
		}
	}
}

func TestRecycledTagStartsWithCleanStats(t *testing.T) {
	w := mkWorld(t, machine.TableOne())
	first := w.MustAddVM(vm.Spec{Name: "old", App: "lbm"})
	w.RunTicks(6)
	owner := first.VCPUs[0].Owner()
	llc := w.Machine().Sockets()[0].LLC
	if llc.Stats(owner).Accesses == 0 {
		t.Fatal("lbm issued no LLC accesses in 6 ticks")
	}
	if err := w.RemoveVM("old"); err != nil {
		t.Fatal(err)
	}
	if got := llc.Stats(owner).Accesses; got != 0 {
		t.Fatalf("released tag still reports %d accesses", got)
	}
	if got := llc.Occupancy(owner); got != 0 {
		t.Fatalf("released tag still owns %d lines", got)
	}

	second := w.MustAddVM(vm.Spec{Name: "new", App: "gcc"})
	v := second.VCPUs[0]
	if v.Owner() != owner {
		t.Fatalf("tag not recycled: got %d, want %d", v.Owner(), owner)
	}
	if v.Seq == first.VCPUs[0].Seq {
		t.Fatal("scheduler sequence numbers must never be recycled")
	}
	if second.ID == first.ID {
		t.Fatal("VM IDs must never be recycled (they seed address spaces)")
	}
}

func TestSuspendVMBlackoutAndWake(t *testing.T) {
	w := mkWorld(t, machine.TableOne())
	d := w.MustAddVM(vm.Spec{Name: "v", App: "gcc"})
	w.RunTicks(3)
	before := d.Counters()

	w.SuspendVM(d, 5)
	if !d.Down {
		t.Fatal("SuspendVM must set Down")
	}
	w.RunTicks(5)
	if got := d.Counters(); got.Instructions != before.Instructions {
		t.Fatalf("suspended VM retired %d instructions", got.Instructions-before.Instructions)
	}
	w.RunTicks(3)
	if d.Down {
		t.Fatal("VM still down after its blackout elapsed")
	}
	if got := d.Counters(); got.Instructions <= before.Instructions {
		t.Fatal("VM made no progress after waking")
	}

	// Extending while down keeps the later deadline; a zero/negative
	// blackout is a no-op.
	w.SuspendVM(d, 2)
	w.SuspendVM(d, 6)
	w.RunTicks(4)
	if !d.Down {
		t.Fatal("extension must keep the VM down past the earlier deadline")
	}
	w.RunTicks(4)
	if d.Down {
		t.Fatal("VM must wake after the extended blackout")
	}
	w.SuspendVM(d, 0)
	if d.Down {
		t.Fatal("zero-tick suspension must be a no-op")
	}
}

func TestRemoveVMWhileSuspendedDropsWake(t *testing.T) {
	w := mkWorld(t, machine.TableOne())
	d := w.MustAddVM(vm.Spec{Name: "v", App: "gcc"})
	w.SuspendVM(d, 50)
	if err := w.RemoveVM("v"); err != nil {
		t.Fatal(err)
	}
	if len(w.wakes) != 0 {
		t.Fatalf("%d stale wake entries after removal", len(w.wakes))
	}
	// The world keeps ticking without the departed VM's wake firing.
	w.RunTicks(60)
}
