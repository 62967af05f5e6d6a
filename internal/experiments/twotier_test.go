package experiments

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"kyoto/internal/cache"
)

// TestTwoTierTraceSweep exercises the broad-then-confirm pipeline on the
// committed golden trace: the analytic pass must rank all three placers,
// the confirmation rows must come from the exact tier, and the rendered
// tables must pair the two.
func TestTwoTierTraceSweep(t *testing.T) {
	res, err := TwoTierTraceSweep(GoldenSweepTrace(), GoldenTraceSweepConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.TopK != 2 || len(res.Confirmed) != 2 {
		t.Fatalf("TopK = %d, confirmed = %d, want 2 and 2", res.TopK, len(res.Confirmed))
	}
	if len(res.Analytic.Rows) != 3 {
		t.Fatalf("broad pass rows = %d, want all 3 placers", len(res.Analytic.Rows))
	}
	// Confirmation order follows the analytic p99 ranking (best first).
	byPlacer := map[string]FleetSweepRow{}
	for _, row := range res.Analytic.Rows {
		byPlacer[row.Placer] = row
	}
	if a, b := byPlacer[res.Confirmed[0].Placer].P99, byPlacer[res.Confirmed[1].Placer].P99; a < b {
		t.Errorf("confirmation order not by analytic p99: %v before %v", a, b)
	}
	for _, row := range res.Confirmed {
		if row.P99 <= 0 || row.P99 > 1 {
			t.Errorf("confirmed %s p99 = %v, want a (0,1] normalized floor", row.Placer, row.P99)
		}
	}

	tables := res.Tables()
	if len(tables) != 2 {
		t.Fatalf("Tables() = %d tables, want broad + confirmation", len(tables))
	}
	if !strings.Contains(tables[0].Title, "analytic broad pass") {
		t.Errorf("broad table title = %q", tables[0].Title)
	}
	if got := len(tables[1].Rows); got != 2 {
		t.Errorf("confirmation table rows = %d, want 2", got)
	}
	rendered := tables[0].String() + tables[1].String()
	for _, placer := range []string{res.Confirmed[0].Placer, res.Confirmed[1].Placer} {
		if !strings.Contains(rendered, placer) {
			t.Errorf("rendered two-tier output missing placer %q", placer)
		}
	}
}

// TestTwoTierTopKDefaultsAndClamps pins the topK edge cases: <=0 selects
// DefaultConfirmTopK, and a request beyond the arm count confirms
// everything rather than failing.
func TestTwoTierTopKDefaultsAndClamps(t *testing.T) {
	res, err := TwoTierTraceSweep(GoldenSweepTrace(), GoldenTraceSweepConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.TopK != DefaultConfirmTopK {
		t.Errorf("TopK = %d, want DefaultConfirmTopK %d", res.TopK, DefaultConfirmTopK)
	}
	res, err = TwoTierTraceSweep(GoldenSweepTrace(), GoldenTraceSweepConfig(), 99)
	if err != nil {
		t.Fatal(err)
	}
	if res.TopK != 3 || len(res.Confirmed) != 3 {
		t.Errorf("over-large topK: TopK = %d, confirmed = %d, want clamp to 3", res.TopK, len(res.Confirmed))
	}
}

// TestTwoTierTraceConfirmsLikeFullExactSweep pins that the confirmation
// pass is the ordinary exact trace sweep cut to the leading arms: each
// confirmed row equals the full exact sweep's row for that placer.
func TestTwoTierTraceConfirmsLikeFullExactSweep(t *testing.T) {
	res, err := TwoTierTraceSweep(GoldenSweepTrace(), GoldenTraceSweepConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := GoldenTraceSweepConfig()
	cfg.Fidelity = cache.FidelityExact
	full, err := TraceSweep(GoldenSweepTrace(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	exact := map[string]FleetSweepRow{}
	for _, row := range full.Rows {
		exact[row.Placer] = row
	}
	for _, row := range res.Confirmed {
		if !reflect.DeepEqual(row, exact[row.Placer]) {
			t.Errorf("confirmed %s row differs from the full exact sweep:\n%+v\n%+v", row.Placer, row, exact[row.Placer])
		}
	}
}

// TestTwoTierFig4ConfirmsLikeFullExactStudy pins the Figure 4 two-tier
// mode: the attackers are the analytic study's leaders, and each one's
// exact aggressiveness equals the full exact study's, bit for bit.
func TestTwoTierFig4ConfirmsLikeFullExactStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the Figure 4 study on both tiers")
	}
	res, err := TwoTierFig4(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.TopK != 2 || !reflect.DeepEqual(res.Attackers, res.Analytic.Apps[:2]) {
		t.Fatalf("TopK = %d, attackers = %v, want the analytic leaders %v", res.TopK, res.Attackers, res.Analytic.Apps[:2])
	}
	if len(res.ExactAggressiveness) != 2 {
		t.Fatalf("exact aggressiveness for %d apps, want 2", len(res.ExactAggressiveness))
	}
	full, err := Fig4(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range res.Attackers {
		got, want := res.ExactAggressiveness[a], full.Aggressiveness[a]
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s exact aggressiveness = %v, full exact study = %v", a, got, want)
		}
	}
	if got := len(res.Tables()[1].Rows); got != 2 {
		t.Errorf("confirmation table rows = %d, want 2", got)
	}
}
