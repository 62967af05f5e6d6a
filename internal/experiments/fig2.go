package experiments

import (
	"fmt"

	"kyoto/internal/cluster"
	"kyoto/internal/hv"
	"kyoto/internal/vm"
)

// Fig2Ticks is the timeline length: the paper zooms into the first six
// time slices (18 ticks); we keep 21 for one slice of margin.
const Fig2Ticks = 21

// Fig2Result is the §2.2.5 zoom-in: the per-tick LLC miss count of the
// most penalized VM type (micro-c2-rep) in the four situations, from a
// cold start — showing the data-loading spike when alone, the zigzag
// reload pattern under alternative execution, and the sustained misses
// under parallel execution.
type Fig2Result struct {
	// Series maps situation name to the rep VM's per-tick LLC misses.
	Series map[string][]float64
	// Situations lists the series in presentation order.
	Situations []string
}

// Fig2 runs the four situations with a per-tick recorder and no warmup
// (the cold start is the point).
func Fig2(seed uint64) (Fig2Result, error) { return newFig2(seed).runInProcess() }

// Fig2Sweep is Figure 2 as a sweep.
func Fig2Sweep(seed uint64) Experiment { return newFig2(seed) }

// newFig2 plans one job per situation, whose payload is the rep VM's
// per-tick LLC misses.
func newFig2(seed uint64) *figSweep[[]float64, Fig2Result] {
	rep := "micro-c2-rep"
	dis := "micro-c2-dis"
	situations := []struct {
		name string
		vms  []vm.Spec
	}{
		{"alone", []vm.Spec{pinned("rep", rep, 0)}},
		{"alternative", []vm.Spec{pinned("rep", rep, 0), pinned("dis", dis, 0)}},
		{"parallel", []vm.Spec{pinned("rep", rep, 0), pinned("dis", dis, 1)}},
		{"alter+para", []vm.Spec{pinned("rep", rep, 0), pinned("dis", dis, 0), pinned("dis2", dis, 1)}},
	}
	s := &figSweep[[]float64, Fig2Result]{name: "fig2", config: seedConfig{Seed: seed}}
	for _, sit := range situations {
		s.arms = append(s.arms, figArm[[]float64]{sit.name, func() ([]float64, error) {
			rec := NewLLCMissSeries()
			_, err := Run(Scenario{
				NodeConfig: cluster.NodeConfig{Seed: seed},
				VMs:        sit.vms,
				Hooks:      []hv.TickHook{rec},
				Warmup:     1, // snapshot boundary only; recording starts at tick 0
				Measure:    Fig2Ticks,
			})
			series := rec.Values["rep"]
			if len(series) > Fig2Ticks {
				series = series[:Fig2Ticks]
			}
			return series, err
		}})
	}
	s.fold = func(series [][]float64) (Fig2Result, []Table, error) {
		out := Fig2Result{Series: make(map[string][]float64, len(situations))}
		for i, sit := range situations {
			out.Series[sit.name] = series[i]
			out.Situations = append(out.Situations, sit.name)
		}
		return out, []Table{out.Table()}, nil
	}
	return s
}

// Table renders the timelines as rows of per-tick miss counts.
func (r Fig2Result) Table() Table {
	t := Table{
		Title: "Figure 2: LLC misses (LLCM) per 10ms tick of v2rep, first slices from cold start",
		Note:  "1 time slice = 3 ticks; alternative execution reloads at each slice start (zigzag)",
	}
	t.Columns = []string{"situation"}
	for i := 0; i < Fig2Ticks; i++ {
		t.Columns = append(t.Columns, fmt.Sprintf("t%d", i))
	}
	for _, sit := range r.Situations {
		row := []interface{}{sit}
		for _, v := range r.Series[sit] {
			row = append(row, v)
		}
		t.AddRow(row...)
	}
	return t
}
