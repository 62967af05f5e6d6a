package experiments

import (
	"fmt"

	"kyoto/internal/cache"
	"kyoto/internal/cluster"
	"kyoto/internal/stats"
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

// Fig1 runs the 3 reps x (1 alone + 3 modes x 3 disruptors) grid.
func Fig1(seed uint64) (Fig1Result, error) {
	return Fig1Fidelity(seed, cache.FidelityExact)
}

// Fig1Fidelity is Fig1 with an explicit cache-model tier; the
// cross-validation harness runs the grid on both tiers and compares.
func Fig1Fidelity(seed uint64, fid cache.Fidelity) (Fig1Result, error) {
	modes := []ExecMode{Alternative, Parallel, Combined}

	// Baselines: each rep alone on core 0.
	solos := make([]Scenario, len(microReps))
	for i, rep := range microReps {
		solos[i] = soloScenario(rep, seed)
		solos[i].Fidelity = fid
	}
	soloRes, err := RunAll(solos)
	if err != nil {
		return Fig1Result{}, err
	}
	soloIPC := make(map[string]float64, len(microReps))
	for i, rep := range microReps {
		soloIPC[rep] = soloRes[i].PerVM["solo"].IPC()
	}

	type key struct {
		mode ExecMode
		rep  string
		dis  string
	}
	var keys []key
	var scenarios []Scenario
	for _, mode := range modes {
		for _, rep := range microReps {
			for _, dis := range microDis {
				keys = append(keys, key{mode, rep, dis})
				sc := fig1Scenario(mode, rep, dis, seed)
				sc.Fidelity = fid
				scenarios = append(scenarios, sc)
			}
		}
	}
	results, err := RunAll(scenarios)
	if err != nil {
		return Fig1Result{}, err
	}

	out := Fig1Result{
		Degradation: make(map[ExecMode]map[string]map[string]float64, len(modes)),
		Reps:        microReps,
		Dis:         microDis,
	}
	for _, mode := range modes {
		out.Degradation[mode] = make(map[string]map[string]float64, len(microReps))
		for _, rep := range microReps {
			out.Degradation[mode][rep] = make(map[string]float64, len(microDis))
		}
	}
	for i, k := range keys {
		deg := stats.DegradationPercent(soloIPC[k.rep], results[i].IPC("rep"))
		if deg < 0 {
			deg = 0
		}
		out.Degradation[k.mode][k.rep][k.dis] = deg
	}
	return out, nil
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
	for _, mode := range []ExecMode{Alternative, Parallel, Combined} {
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
