package experiments

import (
	"testing"

	"kyoto/internal/cache"
)

// TestFig4AnalyticSweep runs the full Figure 4 indicator study (10 solo
// runs + the 90-pair matrix) on the analytic tier — cheap enough for
// short mode, and the exact shape the broad pass of a two-tier sweep
// executes. The exact-tier numbers are pinned by the calibration lock;
// here the assertions are structural: complete orderings, sane
// aggressiveness values, and a fidelity-tagged config digest that
// refuses to merge with exact-tier shards.
func TestFig4AnalyticSweep(t *testing.T) {
	s := newFig4(1, cache.FidelityAnalytic)
	r, err := s.runInProcess()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Apps) != 10 || len(r.O1) != 10 || len(r.O2) != 10 || len(r.O3) != 10 {
		t.Fatalf("incomplete orderings: apps %d, o1 %d, o2 %d, o3 %d",
			len(r.Apps), len(r.O1), len(r.O2), len(r.O3))
	}
	for _, app := range r.Apps {
		if r.Aggressiveness[app] < 0 {
			t.Fatalf("%s aggressiveness %v < 0", app, r.Aggressiveness[app])
		}
		if r.LLCM[app] <= 0 || r.Equation1[app] < 0 {
			t.Fatalf("%s indicators: LLCM %v, eq1 %v", app, r.LLCM[app], r.Equation1[app])
		}
	}
	for _, tau := range []float64{r.TauLLCM, r.TauEq1, r.PaperTauLLCM, r.PaperTauEq1} {
		if tau < -1 || tau > 1 {
			t.Fatalf("Kendall tau %v outside [-1, 1]", tau)
		}
	}
	if tbl := r.Table(); len(tbl.Rows) < len(r.Apps) {
		t.Fatalf("Figure 4 table has %d rows for %d apps", len(tbl.Rows), len(r.Apps))
	}
	if exact := newFig4(1, cache.FidelityExact).ConfigFingerprint(); exact == s.ConfigFingerprint() {
		t.Fatal("analytic config digest equals the exact-tier digest — mixed-fidelity shards would merge")
	}
}
