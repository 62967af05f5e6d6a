package core

import (
	"math"
	"testing"

	"kyoto/internal/machine"
	"kyoto/internal/pmc"
	"kyoto/internal/sched"
	"kyoto/internal/vm"
)

func TestEquation1Value(t *testing.T) {
	d := pmc.Counters{LLCMisses: 500, UnhaltedCycles: machine.CPUFreqKHz} // 1 ms busy
	if got := Equation1Value(d); got != 500 {
		t.Fatalf("eq1 = %v, want 500 misses/ms", got)
	}
	if Equation1Value(pmc.Counters{}) != 0 {
		t.Fatal("zero cycles must give 0")
	}
}

func TestRawLLCMValue(t *testing.T) {
	d := pmc.Counters{LLCMisses: 500, UnhaltedCycles: machine.CPUFreqKHz, HaltedCycles: machine.CPUFreqKHz}
	if got := RawLLCMValue(d); got != 250 {
		t.Fatalf("llcm = %v, want 250 (wall-normalized)", got)
	}
	if RawLLCMValue(pmc.Counters{}) != 0 {
		t.Fatal("zero wall must give 0")
	}
}

func TestIndicatorDispatch(t *testing.T) {
	d := pmc.Counters{LLCMisses: 100, UnhaltedCycles: machine.CPUFreqKHz, HaltedCycles: machine.CPUFreqKHz}
	if Equation1.Value(d) != 100 || RawLLCM.Value(d) != 50 {
		t.Fatal("indicator dispatch wrong")
	}
	if Equation1.String() != "equation1" || RawLLCM.String() != "llcm" {
		t.Fatal("indicator names wrong")
	}
	if Indicator(99).Value(d) != 0 {
		t.Fatal("unknown indicator must yield 0")
	}
}

func TestHaltsSeparateTheIndicators(t *testing.T) {
	// The Figure 4 mechanism: halting dilutes wall-normalized LLCM but
	// not busy-normalized Equation 1.
	busy := pmc.Counters{LLCMisses: 1000, UnhaltedCycles: 10 * machine.CPUFreqKHz}
	halty := busy
	halty.HaltedCycles = 30 * machine.CPUFreqKHz
	if Equation1Value(busy) != Equation1Value(halty) {
		t.Fatal("halts must not change equation 1")
	}
	if RawLLCMValue(halty) >= RawLLCMValue(busy) {
		t.Fatal("halts must dilute raw LLCM")
	}
}

func TestBusyWallMillis(t *testing.T) {
	d := pmc.Counters{UnhaltedCycles: 2 * machine.CPUFreqKHz, HaltedCycles: machine.CPUFreqKHz}
	if BusyMillis(d) != 2 || WallMillis(d) != 3 {
		t.Fatalf("busy/wall = %v/%v", BusyMillis(d), WallMillis(d))
	}
}

// mkDomain builds a single-vCPU VM with a permit.
func mkDomain(id int, cap float64) *vm.VM {
	d := &vm.VM{ID: id, Name: "vm", Weight: 256, LLCCap: cap}
	v := &vm.VCPU{VM: d, ID: id, Pin: vm.NoPin, LastCore: vm.NoPin}
	d.VCPUs = []*vm.VCPU{v}
	return d
}

func mkKyoto(domains ...*vm.VM) *Kyoto {
	k := New(sched.NewCredit(4))
	for _, d := range domains {
		k.Register(d.VCPUs[0])
	}
	return k
}

func TestKyotoName(t *testing.T) {
	k := New(sched.NewCredit(4))
	if k.Name() != "kyoto+credit" {
		t.Fatalf("name = %q", k.Name())
	}
	if k.Base().Name() != "credit" {
		t.Fatal("base accessor wrong")
	}
}

func TestQuotaStartsAtOneSlice(t *testing.T) {
	d := mkDomain(1, 100)
	k := mkKyoto(d)
	want := 100.0 * machine.TickMillis * machine.TicksPerSlice
	if got := k.QuotaBalance(d); got != want {
		t.Fatalf("initial quota = %v, want %v", got, want)
	}
}

func TestPollutionBlockAndPunishment(t *testing.T) {
	d := mkDomain(1, 100) // 3000 misses per slice allowed
	k := mkKyoto(d)
	k.Feed([]Measurement{{VM: d, Misses: 10_000, Rate: 1000}})
	k.EndTick(0) // not a refill boundary (refill at (now+1)%3==0 -> now=2)
	if !d.PollutionBlocked {
		t.Fatal("over-quota VM must be blocked")
	}
	if d.Punishments != 1 {
		t.Fatalf("punishments = %d", d.Punishments)
	}
	if k.LastMisses(d) != 10_000 || k.LastRate(d) != 1000 {
		t.Fatal("measurement bookkeeping wrong")
	}
	// Earn back over slices: 10000-3000 initial... balance = 3000-10000
	// = -7000; refills add 3000 per slice.
	for now := uint64(1); now < 10; now++ {
		k.EndTick(now)
	}
	if d.PollutionBlocked {
		t.Fatalf("quota should have recovered, balance %v", k.QuotaBalance(d))
	}
}

func TestNoPermitNeverPunished(t *testing.T) {
	d := mkDomain(1, 0) // no permit booked
	k := mkKyoto(d)
	k.Feed([]Measurement{{VM: d, Misses: 1e9}})
	k.EndTick(0)
	if d.PollutionBlocked || d.Punishments != 0 {
		t.Fatal("VM without a permit must never be pollution-punished")
	}
}

func TestQuotaClampWithoutBanking(t *testing.T) {
	d := mkDomain(1, 100)
	k := mkKyoto(d)
	// Many idle slices: balance must stay clamped at one slice's quota.
	for now := uint64(0); now < 30; now++ {
		k.EndTick(now)
	}
	want := 100.0 * machine.TickMillis * machine.TicksPerSlice
	if got := k.QuotaBalance(d); got != want {
		t.Fatalf("clamped balance = %v, want %v", got, want)
	}
}

func TestBankingAccumulates(t *testing.T) {
	d := mkDomain(1, 100)
	k := New(sched.NewCredit(4), WithBanking(4))
	k.Register(d.VCPUs[0])
	for now := uint64(0); now < 30; now++ {
		k.EndTick(now)
	}
	slice := 100.0 * machine.TickMillis * machine.TicksPerSlice
	if got := k.QuotaBalance(d); math.Abs(got-4*slice) > 1e-9 {
		t.Fatalf("banked balance = %v, want %v", got, 4*slice)
	}
}

func TestSteadyStateAtBookedRate(t *testing.T) {
	// A VM polluting exactly at its booked rate must (almost) never be
	// punished in steady state.
	d := mkDomain(1, 100)
	k := mkKyoto(d)
	punished := 0
	for now := uint64(0); now < 300; now++ {
		k.Feed([]Measurement{{VM: d, Misses: 100 * machine.TickMillis}})
		k.EndTick(now)
		if d.PollutionBlocked {
			punished++
		}
	}
	if punished > 3 {
		t.Fatalf("VM at booked rate punished %d/300 ticks", punished)
	}
}

func TestSustainedOverbookedRateIsThrottled(t *testing.T) {
	d := mkDomain(1, 100)
	k := mkKyoto(d)
	blockedTicks := 0
	for now := uint64(0); now < 300; now++ {
		misses := 0.0
		if !d.PollutionBlocked {
			misses = 3 * 100 * machine.TickMillis // 3x the permit
		}
		k.Feed([]Measurement{{VM: d, Misses: misses}})
		k.EndTick(now)
		if d.PollutionBlocked {
			blockedTicks++
		}
	}
	// At 3x the rate, the VM should be blocked roughly 2/3 of the time.
	if blockedTicks < 150 || blockedTicks > 280 {
		t.Fatalf("blocked %d/300 ticks, want ~200", blockedTicks)
	}
}

func TestOverheadConfigurable(t *testing.T) {
	k := New(sched.NewCredit(4))
	if k.TickOverheadCycles() != DefaultOverheadCycles {
		t.Fatal("default overhead wrong")
	}
}

func TestVMsReturnsCopy(t *testing.T) {
	d := mkDomain(1, 10)
	k := mkKyoto(d)
	vs := k.VMs()
	if len(vs) != 1 || vs[0] != d {
		t.Fatal("VMs() wrong")
	}
	vs[0] = nil
	if k.VMs()[0] != d {
		t.Fatal("VMs() must return a copy")
	}
}

func TestRankByIndicator(t *testing.T) {
	order := RankByIndicator(map[string]float64{"a": 1, "b": 5, "c": 3})
	if order[0] != "b" || order[1] != "c" || order[2] != "a" {
		t.Fatalf("order = %v", order)
	}
}

func TestUnknownVMMeasurementIgnored(t *testing.T) {
	d := mkDomain(1, 100)
	k := mkKyoto(d)
	ghost := mkDomain(2, 100)
	k.Feed([]Measurement{{VM: ghost, Misses: 1e9}})
	k.EndTick(0) // must not panic or affect d
	if d.PollutionBlocked {
		t.Fatal("unrelated measurement affected registered VM")
	}
}

// TestUnregisterIsIdempotent locks the Remover contract: a double (or
// never-registered) Unregister must not collapse a live VM's ledger.
func TestUnregisterIsIdempotent(t *testing.T) {
	k := New(sched.NewCredit(2))
	domain := &vm.VM{ID: 1, Name: "m", LLCCap: 250, Weight: 256}
	v0 := &vm.VCPU{VM: domain, ID: 1}
	v1 := &vm.VCPU{VM: domain, ID: 2}
	domain.VCPUs = []*vm.VCPU{v0, v1}
	k.Register(v0)
	k.Register(v1)
	k.Unregister(v0)
	k.Unregister(v0) // double removal: must be a no-op
	if got := len(k.VMs()); got != 1 {
		t.Fatalf("ledger collapsed by double Unregister: %d VMs", got)
	}
	if k.QuotaBalance(domain) == 0 {
		t.Fatal("live VM lost its quota ledger")
	}
	k.Unregister(v1) // last real vCPU: now the ledger closes
	if got := len(k.VMs()); got != 0 {
		t.Fatalf("ledger not closed after last vCPU left: %d VMs", got)
	}
}
