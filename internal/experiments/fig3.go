package experiments

import (
	"fmt"

	"kyoto/internal/cluster"
	"kyoto/internal/stats"
	"kyoto/internal/vm"
	"kyoto/internal/workload"
)

// Fig3Caps is the disruptor computing-capacity sweep (percent of a core).
var Fig3Caps = []int{20, 40, 60, 80, 100}

// Fig3Result is the §4.1 "processor is a good lever" experiment: the
// degradation of each sensitive VM when co-run with vdis1 (lbm) whose CPU
// cap sweeps Fig3Caps. The paper's claim is that degradation increases
// (approximately linearly) with the disruptor's computing capacity, which
// is what makes the CPU an effective lever for pollution control.
type Fig3Result struct {
	// Degradation[app] aligns with Caps: degradation percent per cap.
	Degradation map[string][]float64
	// PearsonR[app] is the linear-correlation coefficient of the curve.
	PearsonR map[string]float64
	// Caps echoes Fig3Caps.
	Caps []int
}

// Fig3 runs the sweep for vsen1..3 against vdis1.
func Fig3(seed uint64) (Fig3Result, error) {
	sens := []string{workload.VSen1, workload.VSen2, workload.VSen3}

	solos := make([]Scenario, len(sens))
	for i, app := range sens {
		solos[i] = soloScenario(app, seed)
	}
	soloRes, err := RunAll(solos)
	if err != nil {
		return Fig3Result{}, err
	}
	soloIPC := make(map[string]float64, len(sens))
	for i, app := range sens {
		soloIPC[app] = soloRes[i].PerVM["solo"].IPC()
	}

	type key struct {
		app string
		cap int
	}
	var keys []key
	var scenarios []Scenario
	for _, app := range sens {
		for _, c := range Fig3Caps {
			keys = append(keys, key{app, c})
			scenarios = append(scenarios, Scenario{
				NodeConfig: cluster.NodeConfig{Seed: seed},
				VMs: []vm.Spec{
					pinned("sen", app, 0),
					{Name: "dis", App: workload.VDis1, Pins: []int{1}, CapPercent: c},
				},
			})
		}
	}
	results, err := RunAll(scenarios)
	if err != nil {
		return Fig3Result{}, err
	}

	out := Fig3Result{
		Degradation: make(map[string][]float64, len(sens)),
		PearsonR:    make(map[string]float64, len(sens)),
		Caps:        Fig3Caps,
	}
	for i, k := range keys {
		deg := stats.DegradationPercent(soloIPC[k.app], results[i].IPC("sen"))
		if deg < 0 {
			deg = 0
		}
		out.Degradation[k.app] = append(out.Degradation[k.app], deg)
	}
	caps := make([]float64, len(Fig3Caps))
	for i, c := range Fig3Caps {
		caps[i] = float64(c)
	}
	for _, app := range sens {
		r, err := stats.PearsonR(caps, out.Degradation[app])
		if err != nil {
			r = 0
		}
		out.PearsonR[app] = r
	}
	return out, nil
}

// Table renders the sweep.
func (r Fig3Result) Table() Table {
	t := Table{
		Title: "Figure 3: sensitive-VM degradation vs vdis1 (lbm) computing capacity",
		Note:  "the processor is the lever: reducing a polluter's CPU reduces its aggressiveness",
	}
	t.Columns = []string{"vsen \\ cap%"}
	for _, c := range r.Caps {
		t.Columns = append(t.Columns, fmt.Sprintf("%d%%", c))
	}
	t.Columns = append(t.Columns, "pearson r")
	for _, app := range []string{workload.VSen1, workload.VSen2, workload.VSen3} {
		row := []interface{}{app}
		for _, d := range r.Degradation[app] {
			row = append(row, d)
		}
		row = append(row, r.PearsonR[app])
		t.AddRow(row...)
	}
	return t
}
