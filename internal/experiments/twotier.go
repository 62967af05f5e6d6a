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
	"sort"

	"kyoto/internal/arrivals"
	"kyoto/internal/cache"
	"kyoto/internal/stats"
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

// TwoTierTraceSweep runs the three-placer trace sweep two-tier: the
// whole sweep on the analytic tier, then the topK arms with the best
// analytic p99 normalized-performance floor again on the exact tier
// (with exact solo baselines, so the confirmation rows normalize against
// the same tier they ran on). topK <= 0 selects DefaultConfirmTopK.
func TwoTierTraceSweep(tr arrivals.Trace, cfg FleetSweepConfig, topK int) (*TwoTierTraceResult, error) {
	if topK <= 0 {
		topK = DefaultConfirmTopK
	}
	acfg := cfg
	acfg.Fidelity = cache.FidelityAnalytic
	ares, err := TraceSweep(tr, acfg)
	if err != nil {
		return nil, err
	}
	ranked := append([]FleetSweepRow(nil), ares.Rows...)
	sort.SliceStable(ranked, func(i, j int) bool { return ranked[i].P99 > ranked[j].P99 })
	if topK > len(ranked) {
		topK = len(ranked)
	}

	ecfg := cfg
	ecfg.Fidelity = cache.FidelityExact
	es, err := NewTraceSweeper(tr, ecfg)
	if err != nil {
		return nil, err
	}
	// Exact solo baselines plus the top-k arm replays, as the exact
	// sweeper's own jobs, fanned out like any sweep.
	keys := make([]string, 0, len(es.apps)+topK)
	for _, app := range es.apps {
		keys = append(keys, "solo/"+app)
	}
	for i := 0; i < topK; i++ {
		keys = append(keys, "arm/"+ranked[i].Placer)
	}
	raws := make([]json.RawMessage, len(keys))
	if err := ForEach(len(keys), cfg.Workers, func(i int) error {
		raw, err := es.Run(sweep.Job{Sweep: es.Name(), Key: keys[i]})
		raws[i] = raw
		return err
	}); err != nil {
		return nil, err
	}
	solo, err := es.soloBaselines(raws)
	if err != nil {
		return nil, err
	}
	res := &TwoTierTraceResult{Analytic: ares, TopK: topK}
	for i := len(es.apps); i < len(keys); i++ {
		var p fleetArmPayload
		if err := json.Unmarshal(raws[i], &p); err != nil {
			return nil, fmt.Errorf("%s payload: %w", keys[i], err)
		}
		res.Confirmed = append(res.Confirmed, es.row(p, solo))
	}
	return res, nil
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
	if topK <= 0 {
		topK = DefaultConfirmTopK
	}
	s := NewFig4SweeperFidelity(seed, cache.FidelityAnalytic)
	if err := (sweep.Engine{}).Run(s); err != nil {
		return nil, err
	}
	ares := *s.Result()
	if topK > len(ares.Apps) {
		topK = len(ares.Apps)
	}
	attackers := append([]string(nil), ares.Apps[:topK]...)

	apps := workload.Figure4Apps()
	keys := make([]string, 0, len(apps)+topK*(len(apps)-1))
	for _, app := range apps {
		keys = append(keys, "solo/"+app)
	}
	for _, a := range attackers {
		for _, b := range apps {
			if a != b {
				keys = append(keys, "pair/"+a+"/"+b)
			}
		}
	}
	raws := make([]json.RawMessage, len(keys))
	if err := ForEach(len(keys), 0, func(i int) error {
		raw, err := fig4RunJob(sweep.Job{Sweep: "fig4", Key: keys[i]}, seed, cache.FidelityExact)
		raws[i] = raw
		return err
	}); err != nil {
		return nil, err
	}
	soloIPC := make(map[string]float64, len(apps))
	for i := range apps {
		var p fig4SoloPayload
		if err := json.Unmarshal(raws[i], &p); err != nil {
			return nil, fmt.Errorf("%s payload: %w", keys[i], err)
		}
		soloIPC[p.App] = p.IPC
	}
	inflicted := make(map[string][]float64, topK)
	for i := len(apps); i < len(keys); i++ {
		var p fig4PairPayload
		if err := json.Unmarshal(raws[i], &p); err != nil {
			return nil, fmt.Errorf("%s payload: %w", keys[i], err)
		}
		deg := stats.DegradationPercent(soloIPC[p.Victim], p.VictimIPC)
		if deg < 0 {
			deg = 0
		}
		inflicted[p.Attacker] = append(inflicted[p.Attacker], deg)
	}
	exact := make(map[string]float64, topK)
	for _, a := range attackers {
		exact[a] = stats.Mean(inflicted[a])
	}
	return &TwoTierFig4Result{Analytic: ares, TopK: topK, Attackers: attackers, ExactAggressiveness: exact}, nil
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
