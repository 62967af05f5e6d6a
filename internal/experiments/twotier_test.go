package experiments

import (
	"strings"
	"testing"
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
