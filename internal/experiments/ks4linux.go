package experiments

import (
	"fmt"

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
func KS4Linux(seed uint64) (KS4LinuxResult, error) { return newKS4Linux(seed).result() }

// KS4LinuxSweep is the cross-system comparison as a sweep.
func KS4LinuxSweep(seed uint64) Experiment { return newKS4Linux(seed) }

// ks4Systems lists the three systems in presentation order with their
// base schedulers.
var ks4Systems = []struct {
	name     string
	newSched func(int) sched.Scheduler
}{
	{"KS4Xen (credit)", nil}, // the credit scheduler
	{"KS4Linux (cfs)", func(int) sched.Scheduler { return sched.NewCFS() }},
	{"KS4Pisces (pisces)", func(int) sched.Scheduler { return sched.NewPisces() }},
}

// newKS4Linux plans vsen1's solo baseline, then a base and a Kyoto job
// per system; each payload is vsen1's IPC.
func newKS4Linux(seed uint64) *figSweep[float64, KS4LinuxResult] {
	s := &figSweep[float64, KS4LinuxResult]{name: "ks4linux", seed: seed}
	s.arms = append(s.arms, ipcArm("solo", soloScenario(workload.VSen1, seed), "solo"))
	for _, sys := range ks4Systems {
		for _, kyoto := range []bool{false, true} {
			s.arms = append(s.arms, ipcArm(fmt.Sprintf("%s/kyoto=%t", sys.name, kyoto), Scenario{
				NodeConfig: cluster.NodeConfig{Seed: seed, NewSched: sys.newSched, EnableKyoto: kyoto},
				VMs:        fig5VMs(workload.VDis1),
				Measure:    45,
			}, "sen"))
		}
	}
	s.fold = func(ipc []float64) (KS4LinuxResult, []Table, error) {
		res := KS4LinuxResult{
			NormPerf:     make(map[string]float64, len(ks4Systems)),
			NormPerfBase: make(map[string]float64, len(ks4Systems)),
		}
		for i, sys := range ks4Systems {
			res.Systems = append(res.Systems, sys.name)
			res.NormPerfBase[sys.name] = ipc[1+2*i] / ipc[0]
			res.NormPerf[sys.name] = ipc[2+2*i] / ipc[0]
		}
		return res, []Table{res.Table()}, nil
	}
	return s
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
