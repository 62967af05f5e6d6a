package cache

import (
	"math"
	"strings"
	"testing"
)

func testAnalyticConfig() Config {
	// 1024 lines: 64KB / 64B.
	return Config{Name: "LLC", SizeBytes: 64 * 1024, Ways: 8, LineBytes: 64, HitLatencyCycles: 45}
}

func newAnalytic(t *testing.T) *AnalyticLLC {
	t.Helper()
	a, err := NewAnalyticLLC(testAnalyticConfig())
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestFidelityStringAndParse(t *testing.T) {
	cases := []struct {
		in   string
		want Fidelity
	}{
		{"", FidelityExact},
		{"exact", FidelityExact},
		{"analytic", FidelityAnalytic},
	}
	for _, c := range cases {
		got, err := ParseFidelity(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseFidelity(%q) = %v, %v", c.in, got, err)
		}
	}
	if _, err := ParseFidelity("quantum"); err == nil || !strings.Contains(err.Error(), "quantum") {
		t.Errorf("ParseFidelity(quantum) err = %v, want unknown-fidelity error", err)
	}
	if FidelityExact.String() != "exact" || FidelityAnalytic.String() != "analytic" {
		t.Errorf("String() = %q, %q", FidelityExact, FidelityAnalytic)
	}
	if s := Fidelity(42).String(); !strings.Contains(s, "42") {
		t.Errorf("Fidelity(42).String() = %q", s)
	}
}

func TestNewAnalyticLLCRejectsBadConfig(t *testing.T) {
	if _, err := NewAnalyticLLC(Config{Name: "broken"}); err == nil {
		t.Error("invalid config must be rejected")
	}
	if _, err := NewAnalyticLLC(testAnalyticConfig()); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestAnalyticLLCAccessors(t *testing.T) {
	a := newAnalytic(t)
	if a.Config() != testAnalyticConfig() {
		t.Errorf("Config() = %+v", a.Config())
	}
	if a.Lines() != 1024 {
		t.Errorf("Lines() = %v, want 1024", a.Lines())
	}
	if a.Epoch() != 0 {
		t.Errorf("fresh model Epoch() = %d", a.Epoch())
	}
	a.EndEpoch()
	if a.Epoch() != 1 {
		t.Errorf("Epoch() after EndEpoch = %d", a.Epoch())
	}
	// Unknown owners read as zero without growing state.
	if a.OccupancyLines(5000) != 0 || a.OccupancyFraction(5000) != 0 {
		t.Error("unknown owner must have zero occupancy")
	}
}

func TestAnalyticLLCFillsBecomeOccupancy(t *testing.T) {
	a := newAnalytic(t)
	a.SetFootprint(1, 600)
	a.Reference(1, 200)
	if a.OccupancyLines(1) != 0 {
		t.Error("fills must not land before EndEpoch")
	}
	a.EndEpoch()
	if got := a.OccupancyLines(1); got != 200 {
		t.Errorf("occupancy after uncontended epoch = %v, want 200", got)
	}
	if got := a.OccupancyFraction(1); math.Abs(got-200.0/1024) > 1e-12 {
		t.Errorf("OccupancyFraction = %v", got)
	}
	// Footprint clamps growth: 500 more fills cannot push past 600.
	a.Reference(1, 500)
	a.EndEpoch()
	if got := a.OccupancyLines(1); got != 600 {
		t.Errorf("occupancy clamped to footprint: got %v, want 600", got)
	}
	// An epoch with no fills leaves occupancy alone (no eviction pressure).
	a.EndEpoch()
	if got := a.OccupancyLines(1); got != 600 {
		t.Errorf("idle epoch changed occupancy: %v", got)
	}
}

func TestAnalyticLLCEvictionSharesProportionally(t *testing.T) {
	a := newAnalytic(t)
	// Fill the cache with two owners at 512 lines each, then let owner 2
	// keep filling: owner 1 must lose lines in proportion to its share.
	a.SetFootprint(1, 1024)
	a.SetFootprint(2, 1024)
	a.Reference(1, 512)
	a.Reference(2, 512)
	a.EndEpoch()
	a.Reference(2, 256)
	a.EndEpoch()
	o1, o2 := a.OccupancyLines(1), a.OccupancyLines(2)
	if o1 >= 512 {
		t.Errorf("idle owner kept %v lines under pressure, want < 512", o1)
	}
	if o2 <= o1 {
		t.Errorf("filling owner %v not above idle owner %v", o2, o1)
	}
	if total := o1 + o2; total > a.Lines()+1e-9 {
		t.Errorf("total occupancy %v exceeds capacity %v", total, a.Lines())
	}
}

func TestAnalyticLLCSteadyStateProportionalToFills(t *testing.T) {
	a := newAnalytic(t)
	a.SetFootprint(1, 1024)
	a.SetFootprint(2, 1024)
	for i := 0; i < 400; i++ {
		a.Reference(1, 300)
		a.Reference(2, 100)
		a.EndEpoch()
	}
	// Fixed point: O_i/C = M_i/ΣM.
	f1, f2 := a.OccupancyFraction(1), a.OccupancyFraction(2)
	if math.Abs(f1-0.75) > 0.02 || math.Abs(f2-0.25) > 0.02 {
		t.Errorf("steady-state shares = %.3f, %.3f, want 0.75, 0.25", f1, f2)
	}
}

func TestAnalyticLLCShrunkFootprintDecays(t *testing.T) {
	a := newAnalytic(t)
	a.SetFootprint(1, 800)
	a.Reference(1, 800)
	a.EndEpoch()
	if a.OccupancyLines(1) != 800 {
		t.Fatalf("setup: occupancy = %v", a.OccupancyLines(1))
	}
	// Phase change to a smaller footprint: the surplus is not dropped
	// instantly, only reclaimed by eviction pressure.
	a.SetFootprint(1, 100)
	a.EndEpoch()
	if got := a.OccupancyLines(1); got != 800 {
		t.Errorf("surplus dropped without pressure: %v", got)
	}
	a.SetFootprint(2, 1024)
	a.Reference(2, 1024)
	a.EndEpoch()
	if got := a.OccupancyLines(1); got >= 800 {
		t.Errorf("eviction pressure failed to reclaim surplus: %v", got)
	}
}

func TestAnalyticLLCFlushAndRelease(t *testing.T) {
	a := newAnalytic(t)
	a.SetFootprint(1, 400)
	a.Reference(1, 400)
	a.EndEpoch()
	a.FlushOwner(1)
	if a.OccupancyLines(1) != 0 {
		t.Error("FlushOwner left occupancy behind")
	}
	// Footprint survives a flush so the owner can refill after migration.
	a.Reference(1, 200)
	a.EndEpoch()
	if got := a.OccupancyLines(1); got != 200 {
		t.Errorf("post-flush refill = %v, want 200", got)
	}
	a.Reference(1, 50) // pending fills that Release must drop
	a.ReleaseOwner(1)
	a.EndEpoch()
	if a.OccupancyLines(1) != 0 {
		t.Error("ReleaseOwner left state behind")
	}
	// Both are no-ops for owners beyond the tracked range.
	a.FlushOwner(9999)
	a.ReleaseOwner(9999)
}

func TestAnalyticLLCOwnerGrowth(t *testing.T) {
	a := newAnalytic(t)
	base := a.OwnersTracked()
	a.Reference(Owner(base+3), 10)
	if got := a.OwnersTracked(); got <= base+3 {
		t.Errorf("OwnersTracked = %d after touching owner %d", got, base+3)
	}
	grown := a.OwnersTracked()
	a.SetFootprint(Owner(grown+1), 5)
	if a.OwnersTracked() <= grown+1 {
		t.Errorf("SetFootprint did not grow owner state")
	}
}
