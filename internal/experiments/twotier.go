package experiments

// Two-tier sweeps: broad on the analytic fast tier, confirmed on the
// exact tier. The analytic tier trades per-access cache simulation for a
// once-per-tick occupancy recurrence (internal/cache.AnalyticLLC), which
// makes it cheap enough to sweep configurations wholesale — but its miss
// rates are modeled, not simulated. The two-tier mode uses each tier for
// what it is good at: the analytic pass ranks every arm, and only the
// top-k arms are re-run on the exact tier, so the expensive model is
// spent where the decision actually lands. Both passes are deterministic,
// so a two-tier run is reproducible end to end.

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"kyoto/internal/arrivals"
	"kyoto/internal/cache"
	"kyoto/internal/sweep"
	"kyoto/internal/workload"
)

// DefaultConfirmTopK is how many leading arms a two-tier sweep re-runs
// on the exact tier when the caller does not say.
const DefaultConfirmTopK = 1

// TwoTierTraceResult pairs the broad analytic trace sweep with the exact
// re-runs of its leading arms.
type TwoTierTraceResult struct {
	// Analytic is the full broad-pass sweep result.
	Analytic *FleetSweepResult
	// TopK is the number of arms confirmed exact.
	TopK int
	// Confirmed holds the exact-tier rows of the top-k arms, in the
	// analytic pass's p99 ranking order (best floor first).
	Confirmed []FleetSweepRow
}

// runTwoTier runs every two-tier sweep: it runs broad, the analytic
// sweep, through eng, takes the topK leading arms of its ranking, and
// runs the exact sweep confirm builds for those leaders through the
// same engine. topK <= 0 selects DefaultConfirmTopK; it is clamped to
// the number of ranked arms. Returns the leaders, best first.
func runTwoTier(eng sweep.Engine, broad sweep.Sweep, rank func() []string, topK int, confirm func(leaders []string) (sweep.Sweep, error)) ([]string, error) {
	if topK <= 0 {
		topK = DefaultConfirmTopK
	}
	if err := eng.Run(broad); err != nil {
		return nil, err
	}
	ranked := rank()
	leaders := ranked[:min(topK, len(ranked))]
	exact, err := confirm(leaders)
	if err != nil {
		return nil, err
	}
	return leaders, eng.Run(exact)
}

// TwoTierTraceSweep runs the three-placer trace sweep two-tier: the
// whole sweep on the analytic tier, then the topK arms with the best
// analytic p99 normalized-performance floor again on the exact tier
// (with exact solo baselines, so the confirmation rows normalize against
// the same tier they ran on). topK <= 0 selects DefaultConfirmTopK.
func TwoTierTraceSweep(tr arrivals.Trace, cfg FleetSweepConfig, topK int) (*TwoTierTraceResult, error) {
	acfg, ecfg := cfg, cfg
	acfg.Fidelity, ecfg.Fidelity = cache.FidelityAnalytic, cache.FidelityExact
	broad, err := NewTraceSweeper(tr, acfg)
	if err != nil {
		return nil, err
	}
	var exact *FleetSweeper
	leaders, err := runTwoTier(sweep.Engine{Workers: cfg.Workers}, broad, func() []string {
		ranked := slices.Clone(broad.Result().Rows)
		sort.SliceStable(ranked, func(i, j int) bool { return ranked[i].P99 > ranked[j].P99 })
		placers := make([]string, len(ranked))
		for i, row := range ranked {
			placers[i] = row.Placer
		}
		return placers
	}, topK, func(leaders []string) (sweep.Sweep, error) {
		if exact, err = NewTraceSweeper(tr, ecfg); err != nil {
			return nil, err
		}
		// Cut the exact sweeper to the leading arms, in ranking order:
		// its plan is then the exact solo baselines plus those replays.
		arms := make([]fleetArm, len(leaders))
		for i, placer := range leaders {
			arms[i] = exact.arms[slices.IndexFunc(exact.arms, func(a fleetArm) bool { return a.placer.Name() == placer })]
		}
		exact.arms = arms
		return exact, nil
	})
	if err != nil {
		return nil, err
	}
	return &TwoTierTraceResult{Analytic: broad.Result(), TopK: len(leaders), Confirmed: exact.Result().Rows}, nil
}

// Tables renders the broad analytic table and the exact-confirmation
// comparison.
func (r TwoTierTraceResult) Tables() []Table {
	broad := r.Analytic.Table()
	broad.Title += " [analytic broad pass]"
	confirm := Table{
		Title: fmt.Sprintf("Two-tier confirmation: top %d arm(s) re-run exact", r.TopK),
		Note: "the analytic pass ranks arms by p99 normalized perf; only the leaders pay for the exact tier\n" +
			"|err| = |analytic - exact| of the p99 floor",
		Columns: []string{"placer", "p99 analytic", "p99 exact", "p99 |err|", "rej rate analytic", "rej rate exact"},
	}
	byPlacer := make(map[string]FleetSweepRow, len(r.Analytic.Rows))
	for _, row := range r.Analytic.Rows {
		byPlacer[row.Placer] = row
	}
	for _, row := range r.Confirmed {
		a := byPlacer[row.Placer]
		confirm.AddRow(row.Placer, a.P99, row.P99, math.Abs(a.P99-row.P99),
			fmt.Sprintf("%.1f%%", 100*a.RejectionRate),
			fmt.Sprintf("%.1f%%", 100*row.RejectionRate))
	}
	return []Table{broad, confirm}
}

// TwoTierFig4Result pairs the broad analytic Figure 4 study with the
// exact re-measurement of its most aggressive applications.
type TwoTierFig4Result struct {
	// Analytic is the full broad-pass indicator study.
	Analytic Fig4Result
	// TopK is the number of attackers confirmed exact.
	TopK int
	// Attackers are the confirmed apps, most analytic-aggressive first.
	Attackers []string
	// ExactAggressiveness is each confirmed attacker's aggressiveness
	// re-measured on the exact tier (average degradation inflicted across
	// the nine co-runners, percent).
	ExactAggressiveness map[string]float64
}

// TwoTierFig4 runs the Figure 4 indicator study two-tier: the whole
// 10-solo + 90-pair sweep on the analytic tier, then only the topK most
// aggressive attackers' rows (their 9 pairings each, plus the exact solo
// baselines) on the exact tier — k*9+10 exact worlds instead of 100.
// topK <= 0 selects DefaultConfirmTopK.
func TwoTierFig4(seed uint64, topK int) (*TwoTierFig4Result, error) {
	broad := newFig4(seed, cache.FidelityAnalytic)
	var exact *figSweep[json.RawMessage, map[string]float64]
	attackers, err := runTwoTier(sweep.Engine{}, broad, func() []string { return broad.res.Apps }, topK,
		func(attackers []string) (sweep.Sweep, error) {
			// The Figure 4 plan cut to the solo baselines and the
			// attackers' pairings, folded into their aggressiveness.
			apps := workload.Figure4Apps()
			exact = &figSweep[json.RawMessage, map[string]float64]{
				name: "fig4", seed: seed,
				fold: func(payloads []json.RawMessage) (map[string]float64, []Table, error) {
					_, cells, err := fig4Decode(apps, payloads)
					return fig4Aggressiveness(cells), nil, err
				},
			}
			for _, arm := range fig4Arms(apps, seed, cache.FidelityExact) {
				rest, pair := strings.CutPrefix(arm.key, "pair/")
				if attacker, _, _ := strings.Cut(rest, "/"); !pair || slices.Contains(attackers, attacker) {
					exact.arms = append(exact.arms, arm)
				}
			}
			return exact, nil
		})
	if err != nil {
		return nil, err
	}
	return &TwoTierFig4Result{Analytic: broad.res, TopK: len(attackers), Attackers: slices.Clone(attackers), ExactAggressiveness: exact.res}, nil
}

// Tables renders the broad analytic study and the exact-confirmation
// comparison.
func (r TwoTierFig4Result) Tables() []Table {
	broad := r.Analytic.Table()
	broad.Title += " [analytic broad pass]"
	confirm := Table{
		Title:   fmt.Sprintf("Two-tier confirmation: top %d attacker(s) re-run exact", r.TopK),
		Note:    "aggressiveness = avg % degradation inflicted across the 9 co-runners; |err| in percentage points",
		Columns: []string{"app", "aggressiveness analytic", "aggressiveness exact", "|err| pts"},
	}
	for _, a := range r.Attackers {
		confirm.AddRow(a, r.Analytic.Aggressiveness[a], r.ExactAggressiveness[a],
			math.Abs(r.Analytic.Aggressiveness[a]-r.ExactAggressiveness[a]))
	}
	return []Table{broad, confirm}
}
