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
func Fig3(seed uint64) (Fig3Result, error) { return newFig3(seed).result() }

// Fig3Sweep is Figure 3 as a sweep.
func Fig3Sweep(seed uint64) Experiment { return newFig3(seed) }

// fig3Sens are the sensitive VMs of Figure 3.
var fig3Sens = []string{workload.VSen1, workload.VSen2, workload.VSen3}

// newFig3 plans each sensitive app's solo baseline, then every (app,
// cap) cell; each payload is the sensitive VM's IPC.
func newFig3(seed uint64) *figSweep[float64, Fig3Result] {
	s := &figSweep[float64, Fig3Result]{name: "fig3", seed: seed}
	for _, app := range fig3Sens {
		s.arms = append(s.arms, ipcArm("solo/"+app, soloScenario(app, seed), "solo"))
	}
	for _, app := range fig3Sens {
		for _, c := range Fig3Caps {
			s.arms = append(s.arms, ipcArm(fmt.Sprintf("%s/cap%d", app, c), Scenario{
				NodeConfig: cluster.NodeConfig{Seed: seed},
				VMs: []vm.Spec{
					pinned("sen", app, 0),
					{Name: "dis", App: workload.VDis1, Pins: []int{1}, CapPercent: c},
				},
			}, "sen"))
		}
	}
	s.fold = func(ipc []float64) (Fig3Result, []Table, error) {
		solo, cells := ipc[:len(fig3Sens)], ipc[len(fig3Sens):]
		out := Fig3Result{
			Degradation: make(map[string][]float64, len(fig3Sens)),
			PearsonR:    make(map[string]float64, len(fig3Sens)),
			Caps:        Fig3Caps,
		}
		caps := make([]float64, len(Fig3Caps))
		for i, c := range Fig3Caps {
			caps[i] = float64(c)
		}
		for ai, app := range fig3Sens {
			for range Fig3Caps {
				out.Degradation[app] = append(out.Degradation[app], degradation(solo[ai], cells[0]))
				cells = cells[1:]
			}
			r, err := stats.PearsonR(caps, out.Degradation[app])
			if err != nil {
				r = 0
			}
			out.PearsonR[app] = r
		}
		return out, []Table{out.Table()}, nil
	}
	return s
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
	for _, app := range fig3Sens {
		row := []interface{}{app}
		for _, d := range r.Degradation[app] {
			row = append(row, d)
		}
		row = append(row, r.PearsonR[app])
		t.AddRow(row...)
	}
	return t
}
