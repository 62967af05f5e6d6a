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
func Fig6(seed uint64) (Fig6Result, error) {
	solo, err := Run(soloScenario(workload.VSen1, seed))
	if err != nil {
		return Fig6Result{}, err
	}
	soloIPC := solo.PerVM["solo"].IPC()

	res := Fig6Result{
		Counts:      Fig6Counts,
		NormPerf:    make([]float64, len(Fig6Counts)),
		NormPerfXCS: make([]float64, len(Fig6Counts)),
	}
	// Every sweep point is an independent pair of worlds: fan them out.
	err = ForEach(len(Fig6Counts), 0, func(i int) error {
		n := Fig6Counts[i]
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

		s := Scenario{NodeConfig: cluster.NodeConfig{Seed: seed, EnableKyoto: true}, VMs: vms, Measure: 45}
		ks, err := Run(s)
		if err != nil {
			return err
		}
		res.NormPerf[i] = ks.IPC("sen") / soloIPC

		s.EnableKyoto = false
		xcs, err := Run(s)
		if err != nil {
			return err
		}
		res.NormPerfXCS[i] = xcs.IPC("sen") / soloIPC
		return nil
	})
	if err != nil {
		return Fig6Result{}, err
	}
	return res, nil
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
