package experiments

import (
	"sync"

	"kyoto/internal/cluster"
	"kyoto/internal/sched"
	"kyoto/internal/workload"
)

// KS4LinuxResult validates the paper's claim that the Kyoto approach
// "can easily be implemented within other systems" (§1): the same permit
// configuration enforced through all three patched schedulers — Xen
// credit (KS4Xen), CFS (KS4Linux) and Pisces (KS4Pisces) — protects the
// sensitive VM equally, because enforcement rides on the generic
// pollution-block flag rather than on any one policy's internals.
type KS4LinuxResult struct {
	// NormPerf[system] is vsen1's normalized performance colocated with
	// vdis1 under the Kyoto-extended scheduler.
	NormPerf map[string]float64
	// NormPerfBase[system] is the same under the unmodified scheduler.
	NormPerfBase map[string]float64
	// Systems lists presentation order.
	Systems []string
}

// KS4Linux runs the vsen1-vs-vdis1 pairing on the three systems.
func KS4Linux(seed uint64) (KS4LinuxResult, error) {
	res := KS4LinuxResult{
		NormPerf:     make(map[string]float64, 3),
		NormPerfBase: make(map[string]float64, 3),
		Systems:      []string{"KS4Xen (credit)", "KS4Linux (cfs)", "KS4Pisces (pisces)"},
	}
	solo, err := Run(soloScenario(workload.VSen1, seed))
	if err != nil {
		return res, err
	}
	soloIPC := solo.PerVM["solo"].IPC()

	bases := map[string]func(int) sched.Scheduler{
		"KS4Xen (credit)":    nil, // the credit scheduler
		"KS4Linux (cfs)":     func(int) sched.Scheduler { return sched.NewCFS() },
		"KS4Pisces (pisces)": func(int) sched.Scheduler { return sched.NewPisces() },
	}
	// The three systems are independent world pairs: fan them out. The
	// result maps are pre-sized and each worker writes distinct keys.
	var mu sync.Mutex
	err = ForEach(len(res.Systems), 0, func(i int) error {
		system := res.Systems[i]
		s := Scenario{
			NodeConfig: cluster.NodeConfig{Seed: seed, NewSched: bases[system]},
			VMs:        fig5VMs(workload.VDis1),
			Measure:    45,
		}
		base, err := Run(s)
		if err != nil {
			return err
		}

		s.EnableKyoto = true
		ks, err := Run(s)
		if err != nil {
			return err
		}
		mu.Lock()
		res.NormPerfBase[system] = base.IPC("sen") / soloIPC
		res.NormPerf[system] = ks.IPC("sen") / soloIPC
		mu.Unlock()
		return nil
	})
	return res, err
}

// Table renders the cross-system comparison.
func (r KS4LinuxResult) Table() Table {
	t := Table{
		Title:   "Kyoto across virtualization systems (vsen1 vs vdis1, llc_cap 250)",
		Note:    "the same permit protects vsen1 under every patched scheduler (§1's portability claim)",
		Columns: []string{"system", "vsen1 norm perf (Kyoto)", "vsen1 norm perf (base)"},
	}
	for _, s := range r.Systems {
		t.AddRow(s, r.NormPerf[s], r.NormPerfBase[s])
	}
	return t
}
