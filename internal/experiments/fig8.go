package experiments

import (
	"fmt"

	"kyoto/internal/cluster"
	"kyoto/internal/machine"
	"kyoto/internal/sched"
	"kyoto/internal/vm"
	"kyoto/internal/workload"
)

// fig8Work is the fixed instruction budget whose completion time Figure 8
// measures (~30 solo ticks of gcc on the scaled machine).
const fig8Work = 25_000_000

// fig8MaxTicks bounds the runs.
const fig8MaxTicks = 2_000

// Fig8Result is the §4.4 Pisces comparison: execution time of vsen1 as a
// Pisces enclave, alone vs co-located with a vdis1 enclave on the same
// socket, under plain Pisces and under KS4Pisces. Pisces removes
// hypervisor-level interference by construction, but the shared LLC still
// leaks ~24% performance; KS4Pisces closes the gap.
type Fig8Result struct {
	// ExecTimeMillis[system][situation] in model milliseconds;
	// system is "pisces" or "ks4pisces", situation "alone"/"colocated".
	PiscesAlone        float64
	PiscesColocated    float64
	KS4PiscesAlone     float64
	KS4PiscesColocated float64
}

// Fig8 runs the four bars, each an independent world.
func Fig8(seed uint64) (Fig8Result, error) { return newFig8(seed).runInProcess() }

// Fig8Sweep is Figure 8 as a sweep.
func Fig8Sweep(seed uint64) Experiment { return newFig8(seed) }

// newFig8 plans one job per bar, whose payload is vsen1's completion
// time.
func newFig8(seed uint64) *figSweep[float64, Fig8Result] {
	s := &figSweep[float64, Fig8Result]{name: "fig8", config: seedConfig{Seed: seed}}
	for _, kyoto := range []bool{false, true} {
		for _, colocated := range []bool{false, true} {
			s.arms = append(s.arms, figArm[float64]{fmt.Sprintf("kyoto=%t/colocated=%t", kyoto, colocated), func() (float64, error) {
				return fig8Run(seed, colocated, kyoto)
			}})
		}
	}
	s.fold = func(ms []float64) (Fig8Result, []Table, error) {
		res := Fig8Result{PiscesAlone: ms[0], PiscesColocated: ms[1], KS4PiscesAlone: ms[2], KS4PiscesColocated: ms[3]}
		return res, []Table{res.Table()}, nil
	}
	return s
}

// fig8Run measures vsen1's completion time for fig8Work instructions.
func fig8Run(seed uint64, colocated, kyoto bool) (float64, error) {
	s := Scenario{
		NodeConfig: cluster.NodeConfig{
			Seed:        seed,
			NewSched:    func(int) sched.Scheduler { return sched.NewPisces() },
			EnableKyoto: kyoto,
		},
		VMs: []vm.Spec{{Name: "sen", App: workload.VSen1, Pins: []int{0}, LLCCap: Fig5LLCCap}},
	}
	if colocated {
		s.VMs = append(s.VMs, vm.Spec{Name: "dis", App: workload.VDis1, Pins: []int{1}, LLCCap: Fig5LLCCap})
	}
	ticks, err := runUntilRetired(s, "sen", fig8Work, fig8MaxTicks)
	return float64(ticks) * machine.TickMillis, err
}

// Table renders the four bars.
func (r Fig8Result) Table() Table {
	t := Table{
		Title:   "Figure 8: Kyoto vs Pisces — vsen1 execution time (model ms)",
		Note:    "Pisces isolates everything but the LLC; KS4Pisces adds the pollution permit",
		Columns: []string{"system", "vsen1 alone", "vsen1 colocated (vdis1)", "slowdown %"},
	}
	slow := func(alone, col float64) float64 {
		if alone == 0 {
			return 0
		}
		return 100 * (col - alone) / alone
	}
	t.AddRow("Pisces", r.PiscesAlone, r.PiscesColocated, slow(r.PiscesAlone, r.PiscesColocated))
	t.AddRow("KS4Pisces", r.KS4PiscesAlone, r.KS4PiscesColocated, slow(r.KS4PiscesAlone, r.KS4PiscesColocated))
	return t
}
