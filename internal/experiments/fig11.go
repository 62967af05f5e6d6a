package experiments

import (
	"kyoto/internal/cluster"
	"kyoto/internal/core"
	"kyoto/internal/hv"
	"kyoto/internal/machine"
	"kyoto/internal/monitor"
	"kyoto/internal/stats"
	"kyoto/internal/vm"
	"kyoto/internal/workload"
)

// Fig11Result is the §4.5 monitoring-equivalence study: Equation-1 values
// per application obtained with socket dedication vs without it, on a
// contended host. The paper's point: the values (and hence the ordering
// Kyoto bills from) barely change, so the cheap strategies are usable.
//
// We compare three estimators against the solo ground truth:
//   - dedicated: the Dedication monitor's clean windows (migrations),
//   - in-place: raw per-VM counters while contended (no dedication),
//   - shadow: the McSimA+-substitute trace replay (no dedication).
type Fig11Result struct {
	Apps      []string
	Solo      map[string]float64
	Dedicated map[string]float64
	InPlace   map[string]float64
	Shadow    map[string]float64
	// TauDedicated etc. are Kendall taus of each estimator's ordering
	// against the solo ordering.
	TauDedicated float64
	TauInPlace   float64
	TauShadow    float64
}

// Fig11 runs the colocated measurement studies on the R420.
func Fig11(seed uint64) (Fig11Result, error) { return newFig11(seed).runInProcess() }

// Fig11Sweep is Figure 11 as a sweep.
func Fig11Sweep(seed uint64) Experiment { return newFig11(seed) }

// newFig11 plans each app's solo ground truth, then the contended host:
// all ten apps pinned round-robin onto socket 0 of the R420, with the
// Dedication and ShadowSim monitors observing. Each payload is a
// partial result: the solo jobs fill Solo, the contended job the three
// estimates.
func newFig11(seed uint64) *figSweep[Fig11Result, Fig11Result] {
	apps := workload.Figure4Apps()
	s := &figSweep[Fig11Result, Fig11Result]{name: "fig11", config: seedConfig{Seed: seed}}
	for _, app := range apps {
		s.arms = append(s.arms, scenarioArm("solo/"+app, soloScenario(app, seed), func(r Result) Fig11Result {
			return Fig11Result{Solo: map[string]float64{app: core.Equation1Value(r.PerVM["solo"])}}
		}))
	}
	s.arms = append(s.arms, figArm[Fig11Result]{"contended", func() (Fig11Result, error) {
		mcfg := machine.R420(seed)
		ded := monitor.NewDedication(nil, core.Equation1)
		// Phased applications need windows covering a full phase period
		// (the paper samples ~1 billion cycles, tens of scaled ticks).
		ded.WindowTicks = 6
		shadow := monitor.NewShadowSim(nil, mcfg, 0)
		vms := make([]vm.Spec, 0, len(apps))
		for i, app := range apps {
			vms = append(vms, vm.Spec{Name: app, App: app, Pins: []int{i % 4}})
		}
		run, err := Run(Scenario{
			NodeConfig: cluster.NodeConfig{Machine: mcfg, Seed: seed},
			VMs:        vms,
			Hooks:      []hv.TickHook{ded, shadow},
			Warmup:     15,
			Measure:    10 * 8 * 2, // two full dedication rotations
		})
		if err != nil {
			return Fig11Result{}, err
		}
		res := Fig11Result{
			InPlace:   make(map[string]float64, len(apps)),
			Dedicated: make(map[string]float64, len(apps)),
			Shadow:    make(map[string]float64, len(apps)),
		}
		for _, app := range apps {
			res.InPlace[app] = core.Equation1Value(run.PerVM[app])
		}
		for _, domain := range run.World.VMs() {
			res.Dedicated[domain.Name] = ded.LastRate[domain]
			res.Shadow[domain.Name] = shadow.LastRate[domain]
		}
		return res, nil
	}})
	s.fold = func(ps []Fig11Result) (Fig11Result, []Table, error) {
		res := ps[len(apps)]
		res.Apps, res.Solo = apps, make(map[string]float64, len(apps))
		for i, app := range apps {
			res.Solo[app] = ps[i].Solo[app]
		}
		soloOrder := stats.RankByValue(res.Solo)
		var err error
		if res.TauDedicated, err = stats.KendallTau(stats.RankByValue(res.Dedicated), soloOrder); err != nil {
			return res, nil, err
		}
		if res.TauInPlace, err = stats.KendallTau(stats.RankByValue(res.InPlace), soloOrder); err != nil {
			return res, nil, err
		}
		if res.TauShadow, err = stats.KendallTau(stats.RankByValue(res.Shadow), soloOrder); err != nil {
			return res, nil, err
		}
		return res, []Table{res.Table()}, nil
	}
	return s
}

// Table renders the comparison.
func (r Fig11Result) Table() Table {
	t := Table{
		Title:   "Figure 11: socket dedication vs cheaper llc_cap_act estimators (equation 1)",
		Note:    "ten contended apps on one socket; taus compare each estimator's ordering to the solo ordering",
		Columns: []string{"app", "solo (truth)", "dedicated", "in-place", "shadow replay"},
	}
	for _, app := range r.Apps {
		t.AddRow(app, r.Solo[app], r.Dedicated[app], r.InPlace[app], r.Shadow[app])
	}
	t.Rows = append(t.Rows, []string{"kendall tau vs solo", "1", formatFloat(r.TauDedicated), formatFloat(r.TauInPlace), formatFloat(r.TauShadow)})
	return t
}
