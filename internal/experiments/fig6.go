package experiments

import (
	"fmt"

	"kyoto/internal/cluster"
	"kyoto/internal/vm"
	"kyoto/internal/workload"
)

// Fig6Counts is the colocated-disruptor sweep (the paper's x axis).
var Fig6Counts = []int{1, 2, 4, 6, 8, 10, 13, 14, 15}

// Fig6Result is the §4.3 scalability study: vsen1 (booked 250) co-located
// with N vdis1 VMs (booked 50 each) under KS4Xen. The paper's claim:
// vsen1's performance is kept whatever the number of disruptors.
type Fig6Result struct {
	// Counts echoes Fig6Counts.
	Counts []int
	// NormPerf aligns with Counts: vsen1 IPC / solo IPC under KS4Xen.
	NormPerf []float64
	// NormPerfXCS is the plain-XCS contrast (not in the paper's figure,
	// but the baseline that shows what Kyoto prevents).
	NormPerfXCS []float64
}

// Fig6 runs the sweep.
func Fig6(seed uint64) (Fig6Result, error) { return newFig6(seed).runInProcess() }

// Fig6Sweep is Figure 6 as a sweep.
func Fig6Sweep(seed uint64) Experiment { return newFig6(seed) }

// newFig6 plans vsen1's solo baseline, then a KS4Xen and an XCS job per
// disruptor count; each payload is vsen1's IPC.
func newFig6(seed uint64) *figSweep[float64, Fig6Result] {
	s := &figSweep[float64, Fig6Result]{name: "fig6", config: seedConfig{Seed: seed}}
	s.arms = append(s.arms, ipcArm("solo", soloScenario(workload.VSen1, seed), "solo"))
	for _, n := range Fig6Counts {
		vms := []vm.Spec{
			{Name: "sen", App: workload.VSen1, Pins: []int{0}, LLCCap: Fig5LLCCap},
		}
		for j := 0; j < n; j++ {
			vms = append(vms, vm.Spec{
				Name:   fmt.Sprintf("dis%d", j),
				App:    workload.VDis1,
				LLCCap: Fig6DisLLCCap,
			})
		}
		for _, kyoto := range []bool{true, false} {
			s.arms = append(s.arms, ipcArm(fmt.Sprintf("dis%d/kyoto=%t", n, kyoto), Scenario{
				NodeConfig: cluster.NodeConfig{Seed: seed, EnableKyoto: kyoto},
				VMs:        vms,
				Measure:    45,
			}, "sen"))
		}
	}
	s.fold = func(ipc []float64) (Fig6Result, []Table, error) {
		res := Fig6Result{
			Counts:      Fig6Counts,
			NormPerf:    make([]float64, len(Fig6Counts)),
			NormPerfXCS: make([]float64, len(Fig6Counts)),
		}
		for i := range Fig6Counts {
			res.NormPerf[i] = ipc[1+2*i] / ipc[0]
			res.NormPerfXCS[i] = ipc[2+2*i] / ipc[0]
		}
		return res, []Table{res.Table()}, nil
	}
	return s
}

// Table renders the sweep.
func (r Fig6Result) Table() Table {
	t := Table{
		Title:   "Figure 6: KS4Xen scalability — vsen1 normalized perf vs # colocated 50-cap vdis1",
		Note:    "paper shows ~1.0 across the sweep; XCS column added as contrast",
		Columns: []string{"# disruptor vCPUs", "vsen1 norm perf (KS4Xen)", "vsen1 norm perf (XCS)"},
	}
	for i, n := range r.Counts {
		t.AddRow(n, r.NormPerf[i], r.NormPerfXCS[i])
	}
	return t
}
