package experiments

import (
	"fmt"

	"kyoto/internal/cluster"
	"kyoto/internal/machine"
	"kyoto/internal/vm"
)

// Fig12TickMillis is the time-slice sweep (milliseconds per tick).
var Fig12TickMillis = []int{3, 5, 10, 15, 20, 30}

// fig12Work is the instruction budget whose completion time is measured.
const fig12Work = 60_000_000

// Fig12Result is the §4.5 monitoring-overhead study: two CPU-bound povray
// VMs time-share one core; KS4Xen's per-tick PMC collection runs more
// often as the tick shrinks, yet execution time stays at the XCS level —
// the overhead is "near zero".
type Fig12Result struct {
	TickMillis []int
	// ExecXCS and ExecKyoto align with TickMillis (model milliseconds of
	// the measured VM's completion time).
	ExecXCS   []float64
	ExecKyoto []float64
}

// Fig12 runs the sweep.
func Fig12(seed uint64) (Fig12Result, error) { return newFig12(seed).result() }

// Fig12Sweep is Figure 12 as a sweep.
func Fig12Sweep(seed uint64) Experiment { return newFig12(seed) }

// newFig12 plans an XCS and a KS4Xen job per tick length; each payload
// is the measured VM's completion time.
func newFig12(seed uint64) *figSweep[float64, Fig12Result] {
	s := &figSweep[float64, Fig12Result]{name: "fig12", seed: seed}
	for _, ms := range Fig12TickMillis {
		for _, kyoto := range []bool{false, true} {
			s.arms = append(s.arms, figArm[float64]{fmt.Sprintf("tick%dms/kyoto=%t", ms, kyoto), func() (float64, error) {
				return fig12Run(seed, ms, kyoto)
			}})
		}
	}
	s.fold = func(exec []float64) (Fig12Result, []Table, error) {
		res := Fig12Result{
			TickMillis: Fig12TickMillis,
			ExecXCS:    make([]float64, len(Fig12TickMillis)),
			ExecKyoto:  make([]float64, len(Fig12TickMillis)),
		}
		for i := range Fig12TickMillis {
			res.ExecXCS[i], res.ExecKyoto[i] = exec[2*i], exec[2*i+1]
		}
		return res, []Table{res.Table()}, nil
	}
	return s
}

// fig12Run measures VM "a"'s completion time with the given tick length.
func fig12Run(seed uint64, tickMs int, kyoto bool) (float64, error) {
	s := Scenario{NodeConfig: cluster.NodeConfig{
		Seed:          seed,
		CyclesPerTick: uint64(tickMs) * machine.CPUFreqKHz,
		EnableKyoto:   kyoto,
	}}
	for _, name := range []string{"a", "b"} {
		s.VMs = append(s.VMs, vm.Spec{Name: name, App: "povray", Pins: []int{0}, LLCCap: Fig5LLCCap})
	}
	maxTicks := 4_000_000 / tickMs // bound total model time at 4000s/1000
	ticks, err := runUntilRetired(s, "a", fig12Work, maxTicks)
	return float64(ticks) * float64(tickMs), err
}

// Table renders the two curves.
func (r Fig12Result) Table() Table {
	t := Table{
		Title:   "Figure 12: KS4Xen monitoring overhead across scheduling tick lengths",
		Note:    "two povray VMs share one core; completion time of fixed work (model ms)",
		Columns: []string{"tick (ms)", "exec time XCS", "exec time KS4Xen", "overhead %"},
	}
	for i, ms := range r.TickMillis {
		x, k := r.ExecXCS[i], r.ExecKyoto[i]
		over := 0.0
		if x > 0 {
			over = 100 * (k - x) / x
		}
		t.AddRow(ms, x, k, over)
	}
	return t
}
