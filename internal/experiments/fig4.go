package experiments

import (
	"encoding/json"
	"fmt"

	"kyoto/internal/cache"
	"kyoto/internal/cluster"
	"kyoto/internal/core"
	"kyoto/internal/stats"
	"kyoto/internal/sweep"
	"kyoto/internal/vm"
	"kyoto/internal/workload"
)

// Fig4Result is the §4.2 indicator study: for the ten Figure 4
// applications, the solo-run values of both pollution indicators, the
// measured real aggressiveness (average degradation inflicted on the nine
// co-runner applications), and the Kendall's-tau agreement of each
// indicator's ordering with the real one.
type Fig4Result struct {
	// Apps lists the applications in descending real-aggressiveness order
	// (the measured o1).
	Apps []string
	// Aggressiveness is the average degradation (percent) each app
	// inflicts across all pairings.
	Aggressiveness map[string]float64
	// LLCM and Equation1 are the solo indicator values (misses/ms).
	LLCM      map[string]float64
	Equation1 map[string]float64
	// O1, O2, O3 are the measured orderings (real, LLCM, Equation 1).
	O1, O2, O3 []string
	// TauLLCM and TauEq1 are Kendall's tau of O2 and O3 against O1.
	TauLLCM float64
	TauEq1  float64
	// PaperTauLLCM and PaperTauEq1 are the taus computed from the
	// orderings the paper reports, for side-by-side comparison.
	PaperTauLLCM float64
	PaperTauEq1  float64
}

// fig4SoloPayload is one app's solo characterization: IPC plus both
// pollution indicators.
type fig4SoloPayload struct {
	App  string  `json:"app"`
	IPC  float64 `json:"ipc"`
	LLCM float64 `json:"llcm"`
	Eq1  float64 `json:"eq1"`
}

// fig4PairPayload is one parallel-execution cell: the victim's IPC when
// co-run with the attacker.
type fig4PairPayload struct {
	Attacker  string  `json:"attacker"`
	Victim    string  `json:"victim"`
	VictimIPC float64 `json:"victim_ipc"`
}

// fig4Pairs enumerates the pairwise matrix in canonical (attacker-major)
// order.
func fig4Pairs(apps []string) [][2]string {
	pairs := make([][2]string, 0, len(apps)*(len(apps)-1))
	for _, a := range apps {
		for _, b := range apps {
			if a != b {
				pairs = append(pairs, [2]string{a, b})
			}
		}
	}
	return pairs
}

// fig4Arms builds the shared solo + pairwise plan of the Figure 4 sweeps
// on the given tier: one solo job per app, then one job per ordered
// pair. The two payload shapes differ, so each job returns its payload
// already encoded.
func fig4Arms(apps []string, seed uint64, fid cache.Fidelity) []figArm[json.RawMessage] {
	arms := make([]figArm[json.RawMessage], 0, len(apps)*len(apps))
	for _, app := range apps {
		sc := soloScenario(app, seed)
		sc.Fidelity = fid
		arms = append(arms, figArm[json.RawMessage]{"solo/" + app, func() (json.RawMessage, error) {
			r, err := Run(sc)
			if err != nil {
				return nil, err
			}
			d := r.PerVM["solo"]
			return json.Marshal(fig4SoloPayload{
				App: app, IPC: d.IPC(), LLCM: core.RawLLCMValue(d), Eq1: core.Equation1Value(d),
			})
		}})
	}
	for _, p := range fig4Pairs(apps) {
		attacker, victim := p[0], p[1]
		arms = append(arms, figArm[json.RawMessage]{"pair/" + attacker + "/" + victim, func() (json.RawMessage, error) {
			r, err := Run(Scenario{
				NodeConfig: cluster.NodeConfig{Seed: seed, Fidelity: fid},
				VMs: []vm.Spec{
					pinned("attacker", attacker, 0),
					pinned("victim", victim, 1),
				},
			})
			if err != nil {
				return nil, err
			}
			return json.Marshal(fig4PairPayload{Attacker: attacker, Victim: victim, VictimIPC: r.IPC("victim")})
		}})
	}
	return arms
}

// fig4Cell is one decoded pair job: the victim's IPC degradation
// (percent) when co-run with the attacker.
type fig4Cell struct {
	attacker, victim string
	deg              float64
}

// fig4Decode decodes a Figure 4 plan's payloads: the solo payloads in
// apps order, then any subset of the pair payloads in plan order. It
// returns the solo characterizations and each pair's degradation.
func fig4Decode(apps []string, payloads []json.RawMessage) ([]fig4SoloPayload, []fig4Cell, error) {
	solo := make([]fig4SoloPayload, len(apps))
	soloIPC := make(map[string]float64, len(apps))
	for i, app := range apps {
		if err := json.Unmarshal(payloads[i], &solo[i]); err != nil {
			return nil, nil, fmt.Errorf("solo/%s payload: %w", app, err)
		}
		soloIPC[app] = solo[i].IPC
	}
	cells := make([]fig4Cell, len(payloads)-len(apps))
	for i, raw := range payloads[len(apps):] {
		var p fig4PairPayload
		if err := json.Unmarshal(raw, &p); err != nil {
			return nil, nil, fmt.Errorf("pair payload %d: %w", i, err)
		}
		cells[i] = fig4Cell{p.Attacker, p.Victim, stats.DegradationPercent(soloIPC[p.Victim], p.VictimIPC)}
	}
	return solo, cells, nil
}

// fig4Aggressiveness averages the degradation each attacker inflicts
// across its cells, counting a co-run speedup as no degradation.
func fig4Aggressiveness(cells []fig4Cell) map[string]float64 {
	inflicted := make(map[string][]float64)
	for _, c := range cells {
		deg := c.deg
		if deg < 0 {
			deg = 0
		}
		inflicted[c.attacker] = append(inflicted[c.attacker], deg)
	}
	agg := make(map[string]float64, len(inflicted))
	for a, degs := range inflicted {
		agg[a] = stats.Mean(degs)
	}
	return agg
}

// Fig4 runs the indicator study: 10 solo runs plus the full pairwise
// parallel-execution matrix (90 runs), the largest single sweep in the
// harness and the reference workload for process-level sharding.
func Fig4(seed uint64) (Fig4Result, error) { return newFig4(seed, cache.FidelityExact).runInProcess() }

// Fig4Sweep is Figure 4 as a sweep on the given tier; the broad pass of
// a two-tier run is its analytic form.
func Fig4Sweep(seed uint64, fid cache.Fidelity) Experiment { return newFig4(seed, fid) }

// newFig4 folds the Figure 4 plan into the orderings and Kendall taus.
// Its seed metrics are the two indicator-agreement taus of the one arm.
func newFig4(seed uint64, fid cache.Fidelity) *figSweep[json.RawMessage, Fig4Result] {
	apps := workload.Figure4Apps()
	return &figSweep[json.RawMessage, Fig4Result]{
		name: "fig4", config: seedConfig{seed, fidelityTag(fid)},
		arms: fig4Arms(apps, seed, fid),
		fold: func(payloads []json.RawMessage) (Fig4Result, []Table, error) {
			res, err := fig4Fold(apps, payloads)
			return res, []Table{res.Table()}, err
		},
		metrics: []string{"tau_llcm", "tau_eq1"},
		metricRows: func(r Fig4Result) []sweep.MetricRow {
			return []sweep.MetricRow{{Arm: "fig4", Values: []float64{r.TauLLCM, r.TauEq1}}}
		},
		reseed: func(seed uint64) *figSweep[json.RawMessage, Fig4Result] { return newFig4(seed, fid) },
	}
}

// fig4Fold folds the solo indicators and pairwise degradations into the
// orderings and Kendall taus.
func fig4Fold(apps []string, payloads []json.RawMessage) (Fig4Result, error) {
	solo, cells, err := fig4Decode(apps, payloads)
	if err != nil {
		return Fig4Result{}, err
	}
	res := Fig4Result{
		Aggressiveness: fig4Aggressiveness(cells),
		LLCM:           make(map[string]float64, len(apps)),
		Equation1:      make(map[string]float64, len(apps)),
	}
	for _, p := range solo {
		res.LLCM[p.App] = p.LLCM
		res.Equation1[p.App] = p.Eq1
	}
	res.O1 = stats.RankByValue(res.Aggressiveness)
	res.O2 = stats.RankByValue(res.LLCM)
	res.O3 = stats.RankByValue(res.Equation1)
	res.Apps = res.O1

	if res.TauLLCM, err = stats.KendallTau(res.O2, res.O1); err != nil {
		return res, err
	}
	if res.TauEq1, err = stats.KendallTau(res.O3, res.O1); err != nil {
		return res, err
	}
	if res.PaperTauLLCM, err = stats.KendallTau(workload.PaperOrderO2(), workload.PaperOrderO1()); err != nil {
		return res, err
	}
	if res.PaperTauEq1, err = stats.KendallTau(workload.PaperOrderO3(), workload.PaperOrderO1()); err != nil {
		return res, err
	}
	return res, nil
}

// Table renders the study as the paper's Figure 4 panels.
func (r Fig4Result) Table() Table {
	t := Table{
		Title: "Figure 4: Equation 1 vs LLCM as the llc_cap indicator",
		Note: "aggressiveness = avg % degradation inflicted across the 9 co-runners (parallel execution);\n" +
			"indicators measured on solo runs, misses per ms",
		Columns: []string{"app", "avg aggressiveness %", "LLCM", "equation1"},
	}
	for _, app := range r.Apps {
		t.AddRow(app, r.Aggressiveness[app], r.LLCM[app], r.Equation1[app])
	}
	t.Rows = append(t.Rows, []string{"", "", "", ""})
	t.Rows = append(t.Rows, []string{"o1 (real)", fmt.Sprint(r.O1), "", ""})
	t.Rows = append(t.Rows, []string{"o2 (LLCM)", fmt.Sprint(r.O2), "", ""})
	t.Rows = append(t.Rows, []string{"o3 (eq1)", fmt.Sprint(r.O3), "", ""})
	t.Rows = append(t.Rows, []string{"tau(o2,o1)", formatFloat(r.TauLLCM), "paper:", formatFloat(r.PaperTauLLCM)})
	t.Rows = append(t.Rows, []string{"tau(o3,o1)", formatFloat(r.TauEq1), "paper:", formatFloat(r.PaperTauEq1)})
	return t
}
