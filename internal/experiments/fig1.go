package experiments

import (
	"fmt"

	"kyoto/internal/cache"
	"kyoto/internal/cluster"
	"kyoto/internal/vm"
)

// ExecMode is one of the paper's §2.2.4 co-location modes.
type ExecMode int

// Execution modes of Figure 1.
const (
	// Alternative time-shares the representative and disruptive VMs on
	// the same core.
	Alternative ExecMode = iota + 1
	// Parallel runs them simultaneously on different cores of the same
	// socket (shared LLC).
	Parallel
	// Combined does both: one disruptor shares the core, a second
	// disruptor runs on a neighbouring core.
	Combined
)

// String returns the mode name.
func (m ExecMode) String() string {
	switch m {
	case Alternative:
		return "alternative"
	case Parallel:
		return "parallel"
	case Combined:
		return "combined"
	default:
		return fmt.Sprintf("ExecMode(%d)", int(m))
	}
}

// Fig1Result is the §2.2.5 contention assessment: performance degradation
// of each class's representative VM against each class's disruptive VM
// under the three execution modes.
type Fig1Result struct {
	// Degradation[mode][rep][dis] is the rep's IPC degradation percent.
	Degradation map[ExecMode]map[string]map[string]float64
	// Reps and Dis list the VM labels in class order (v1..v3).
	Reps []string
	Dis  []string
}

// microRep and microDis name the §2.2 micro-benchmark profiles per class.
var (
	microReps = []string{"micro-c1-rep", "micro-c2-rep", "micro-c3-rep"}
	microDis  = []string{"micro-c1-dis", "micro-c2-dis", "micro-c3-dis"}
)

// fig1Modes lists the execution modes in presentation order.
var fig1Modes = []ExecMode{Alternative, Parallel, Combined}

// Fig1 runs the 3 reps x (1 alone + 3 modes x 3 disruptors) grid.
func Fig1(seed uint64) (Fig1Result, error) {
	return Fig1Fidelity(seed, cache.FidelityExact)
}

// Fig1Fidelity is Fig1 with an explicit cache-model tier; the
// cross-validation harness runs the grid on both tiers and compares.
func Fig1Fidelity(seed uint64, fid cache.Fidelity) (Fig1Result, error) {
	return newFig1(seed, fid).result()
}

// Fig1Sweep is Figure 1 as a sweep.
func Fig1Sweep(seed uint64) Experiment { return newFig1(seed, cache.FidelityExact) }

// newFig1 plans each rep's solo baseline, then every (mode, rep, dis)
// cell; each payload is the rep's IPC.
func newFig1(seed uint64, fid cache.Fidelity) *figSweep[float64, Fig1Result] {
	s := &figSweep[float64, Fig1Result]{name: "fig1", seed: seed, fid: fid}
	for _, rep := range microReps {
		sc := soloScenario(rep, seed)
		sc.Fidelity = fid
		s.arms = append(s.arms, ipcArm("solo/"+rep, sc, "solo"))
	}
	for _, mode := range fig1Modes {
		for _, rep := range microReps {
			for _, dis := range microDis {
				sc := fig1Scenario(mode, rep, dis, seed)
				sc.Fidelity = fid
				s.arms = append(s.arms, ipcArm(mode.String()+"/"+rep+"/"+dis, sc, "rep"))
			}
		}
	}
	s.fold = func(ipc []float64) (Fig1Result, []Table, error) {
		solo, cells := ipc[:len(microReps)], ipc[len(microReps):]
		out := Fig1Result{
			Degradation: make(map[ExecMode]map[string]map[string]float64, len(fig1Modes)),
			Reps:        microReps,
			Dis:         microDis,
		}
		for _, mode := range fig1Modes {
			out.Degradation[mode] = make(map[string]map[string]float64, len(microReps))
			for ri, rep := range microReps {
				row := make(map[string]float64, len(microDis))
				for _, dis := range microDis {
					row[dis] = degradation(solo[ri], cells[0])
					cells = cells[1:]
				}
				out.Degradation[mode][rep] = row
			}
		}
		return out, out.Tables(), nil
	}
	return s
}

// fig1Scenario builds one cell's scenario.
func fig1Scenario(mode ExecMode, rep, dis string, seed uint64) Scenario {
	var vms []vm.Spec
	switch mode {
	case Alternative:
		vms = []vm.Spec{
			pinned("rep", rep, 0),
			pinned("dis", dis, 0),
		}
	case Parallel:
		vms = []vm.Spec{
			pinned("rep", rep, 0),
			pinned("dis", dis, 1),
		}
	default: // Combined
		vms = []vm.Spec{
			pinned("rep", rep, 0),
			pinned("dis-alt", dis, 0),
			pinned("dis-par", dis, 1),
		}
	}
	s := Scenario{NodeConfig: cluster.NodeConfig{Seed: seed}, VMs: vms}
	// Alternative/combined time-share one core: keep the same measured
	// window but longer warmup so both VMs settle into slice rotation.
	s.Warmup = 15
	s.Measure = 42
	return s
}

// Tables renders the three panels of Figure 1.
func (r Fig1Result) Tables() []Table {
	out := make([]Table, 0, 3)
	for _, mode := range fig1Modes {
		t := Table{
			Title:   fmt.Sprintf("Figure 1 (%s execution): %% degradation of representative VMs", mode),
			Columns: []string{"rep \\ dis", "v1dis (C1)", "v2dis (C2)", "v3dis (C3)"},
		}
		for _, rep := range r.Reps {
			row := []interface{}{rep}
			for _, dis := range r.Dis {
				row = append(row, r.Degradation[mode][rep][dis])
			}
			t.AddRow(row...)
		}
		out = append(out, t)
	}
	return out
}
