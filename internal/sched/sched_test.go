package sched

import (
	"testing"

	"kyoto/internal/machine"
	"kyoto/internal/vm"
)

// mkMachine builds the Table-1 machine for scheduling tests.
func mkMachine(t *testing.T) *machine.Machine {
	t.Helper()
	return machine.MustNew(machine.TableOne())
}

// mkVCPU builds a lone vCPU in its own single-vCPU VM.
func mkVCPU(id int, weight int64, pin int) *vm.VCPU {
	domain := &vm.VM{ID: id, Name: "vm", Weight: weight}
	v := &vm.VCPU{VM: domain, ID: id, Pin: pin, LastCore: vm.NoPin}
	domain.VCPUs = []*vm.VCPU{v}
	return v
}

func TestCreditPickPrefersUnder(t *testing.T) {
	m := mkMachine(t)
	c := NewCredit(4)
	a := mkVCPU(1, 256, vm.NoPin)
	b := mkVCPU(2, 256, vm.NoPin)
	c.Register(a)
	c.Register(b)
	b.OverPriority = true
	if got := c.PickNext(m.Core(0), 0); got != a {
		t.Fatalf("picked %v, want UNDER vCPU a", got)
	}
}

func TestCreditNoDoubleAssignSameTick(t *testing.T) {
	m := mkMachine(t)
	c := NewCredit(4)
	a := mkVCPU(1, 256, vm.NoPin)
	c.Register(a)
	if got := c.PickNext(m.Core(0), 5); got != a {
		t.Fatal("first pick must return the only vCPU")
	}
	if got := c.PickNext(m.Core(1), 5); got != nil {
		t.Fatal("same vCPU handed to two cores in one tick")
	}
	if got := c.PickNext(m.Core(0), 6); got != a {
		t.Fatal("next tick must pick again")
	}
}

func TestCreditRespectsPinning(t *testing.T) {
	m := mkMachine(t)
	c := NewCredit(4)
	a := mkVCPU(1, 256, 2)
	c.Register(a)
	if got := c.PickNext(m.Core(0), 0); got != nil {
		t.Fatal("pinned vCPU must not run on core 0")
	}
	if got := c.PickNext(m.Core(2), 0); got != a {
		t.Fatal("pinned vCPU must run on its core")
	}
}

func TestCreditRespectsPollutionBlock(t *testing.T) {
	m := mkMachine(t)
	c := NewCredit(4)
	a := mkVCPU(1, 256, vm.NoPin)
	c.Register(a)
	a.VM.PollutionBlocked = true
	if got := c.PickNext(m.Core(0), 0); got != nil {
		t.Fatal("pollution-blocked vCPU must not be scheduled")
	}
}

func TestCreditRoundRobinFairness(t *testing.T) {
	m := mkMachine(t)
	c := NewCredit(1)
	a := mkVCPU(1, 256, 0)
	b := mkVCPU(2, 256, 0)
	c.Register(a)
	c.Register(b)
	counts := map[*vm.VCPU]int{}
	for tick := uint64(0); tick < 100; tick++ {
		v := c.PickNext(m.Core(0), tick)
		counts[v]++
		c.ChargeTick(v, machine.CyclesPerTick, tick)
		c.EndTick(tick)
	}
	if counts[a] < 45 || counts[b] < 45 {
		t.Fatalf("unfair rotation: %d vs %d", counts[a], counts[b])
	}
}

func TestCreditWeightsShareCredits(t *testing.T) {
	c := NewCredit(1)
	heavy := mkVCPU(1, 512, 0)
	light := mkVCPU(2, 256, 0)
	c.Register(heavy)
	c.Register(light)
	// Trigger a refill at a slice boundary.
	c.EndTick(machine.TicksPerSlice - 1)
	if heavy.RemainCredit <= light.RemainCredit {
		t.Fatalf("weighted refill wrong: heavy %d, light %d", heavy.RemainCredit, light.RemainCredit)
	}
}

func TestCreditOverAfterBurn(t *testing.T) {
	c := NewCredit(1)
	a := mkVCPU(1, 256, 0)
	c.Register(a)
	c.ChargeTick(a, 10*machine.CyclesPerTick, 0)
	if !a.OverPriority {
		t.Fatal("vCPU must be OVER after burning through its credit")
	}
	// Refill restores UNDER.
	c.EndTick(machine.TicksPerSlice - 1)
	c.EndTick(2*machine.TicksPerSlice - 1)
	c.EndTick(3*machine.TicksPerSlice - 1)
	if a.RemainCredit <= 0 {
		t.Skipf("credit still negative after refills: %d", a.RemainCredit)
	}
	if a.OverPriority {
		t.Fatal("refilled vCPU must be UNDER")
	}
}

func TestCreditCapBlocksAndResets(t *testing.T) {
	c := NewCredit(4)
	a := mkVCPU(1, 256, 0)
	a.VM.CapPercent = 50
	c.Register(a)
	window := uint64(machine.CyclesPerTick) * machine.TicksPerSlice
	c.ChargeTick(a, window/2, 0) // exactly the 50% budget
	if !a.CapBlocked {
		t.Fatal("cap budget spent, vCPU must be blocked")
	}
	if got := c.TickBudget(a, 1); got != 0 {
		t.Fatalf("tick budget = %d, want 0", got)
	}
	c.EndTick(machine.TicksPerSlice - 1) // window reset
	if a.CapBlocked {
		t.Fatal("cap must reset at the window boundary")
	}
	if got := c.TickBudget(a, 3); got != window/2 {
		t.Fatalf("fresh budget = %d, want %d", got, window/2)
	}
}

func TestCreditTickBudgetUncapped(t *testing.T) {
	c := NewCredit(4)
	a := mkVCPU(1, 256, 0)
	c.Register(a)
	if got := c.TickBudget(a, 0); got != ^uint64(0) {
		t.Fatalf("uncapped budget = %d", got)
	}
}

func TestCFSPicksMinVruntime(t *testing.T) {
	m := mkMachine(t)
	c := NewCFS()
	a := mkVCPU(1, 256, vm.NoPin)
	b := mkVCPU(2, 256, vm.NoPin)
	c.Register(a)
	c.Register(b)
	a.VRuntime = 100
	b.VRuntime = 50
	if got := c.PickNext(m.Core(0), 0); got != b {
		t.Fatal("CFS must pick the minimum vruntime")
	}
}

func TestCFSWeightedCharge(t *testing.T) {
	c := NewCFS()
	heavy := mkVCPU(1, 512, vm.NoPin)
	light := mkVCPU(2, 256, vm.NoPin)
	c.Register(heavy)
	c.Register(light)
	c.ChargeTick(heavy, 1000, 0)
	c.ChargeTick(light, 1000, 0)
	if heavy.VRuntime >= light.VRuntime {
		t.Fatalf("heavier VM must accrue vruntime slower: %d vs %d", heavy.VRuntime, light.VRuntime)
	}
}

func TestCFSFairnessOverTime(t *testing.T) {
	m := mkMachine(t)
	c := NewCFS()
	a := mkVCPU(1, 256, 0)
	b := mkVCPU(2, 256, 0)
	c.Register(a)
	c.Register(b)
	counts := map[*vm.VCPU]int{}
	for tick := uint64(0); tick < 100; tick++ {
		v := c.PickNext(m.Core(0), tick)
		counts[v]++
		c.ChargeTick(v, machine.CyclesPerTick, tick)
		c.EndTick(tick)
	}
	if counts[a] != 50 || counts[b] != 50 {
		t.Fatalf("CFS rotation: %d vs %d", counts[a], counts[b])
	}
}

func TestCFSNewcomerNotStarved(t *testing.T) {
	c := NewCFS()
	old := mkVCPU(1, 256, vm.NoPin)
	c.Register(old)
	old.VRuntime = 1_000_000
	late := mkVCPU(2, 256, vm.NoPin)
	c.Register(late)
	if late.VRuntime != 1_000_000 {
		t.Fatalf("newcomer vruntime = %d, want the current minimum", late.VRuntime)
	}
}

func TestPiscesStaticOwnership(t *testing.T) {
	m := mkMachine(t)
	p := NewPisces()
	a := mkVCPU(1, 0, 0)
	b := mkVCPU(2, 0, 1)
	p.Register(a)
	p.Register(b)
	for tick := uint64(0); tick < 5; tick++ {
		if p.PickNext(m.Core(0), tick) != a || p.PickNext(m.Core(1), tick) != b {
			t.Fatal("enclave must always own its core")
		}
	}
	if p.PickNext(m.Core(2), 0) != nil {
		t.Fatal("unowned core must idle")
	}
}

func TestPiscesRejectsUnpinned(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unpinned enclave must panic")
		}
	}()
	NewPisces().Register(mkVCPU(1, 0, vm.NoPin))
}

func TestPiscesRejectsDoubleOwnership(t *testing.T) {
	p := NewPisces()
	p.Register(mkVCPU(1, 0, 0))
	defer func() {
		if recover() == nil {
			t.Fatal("double core ownership must panic")
		}
	}()
	p.Register(mkVCPU(2, 0, 0))
}

func TestPiscesHonoursPollutionBlock(t *testing.T) {
	m := mkMachine(t)
	p := NewPisces()
	a := mkVCPU(1, 0, 0)
	p.Register(a)
	a.VM.PollutionBlocked = true
	if p.PickNext(m.Core(0), 0) != nil {
		t.Fatal("blocked enclave must be duty-cycled off its core")
	}
}

func TestSchedulerNames(t *testing.T) {
	if NewCredit(1).Name() != "credit" || NewCFS().Name() != "cfs" || NewPisces().Name() != "pisces" {
		t.Fatal("scheduler names changed")
	}
}
