package experiments

import (
	"fmt"

	"kyoto/internal/cluster"
	"kyoto/internal/core"
	"kyoto/internal/hv"
	"kyoto/internal/pmc"
	"kyoto/internal/vm"
	"kyoto/internal/workload"
)

// Paper booking levels (§4.3): the paper books 250k for the Figure 5 VMs
// and 50k for the Figure 6 disruptors. Our Equation-1 unit is misses per
// busy millisecond on the scaled clock, so the same labels map to 250/50
// (README's introduction gives the 1:16 capacity and 1:28 clock scaling).
const (
	Fig5LLCCap    = 250
	Fig6DisLLCCap = 50
)

// Fig5Timeline is the per-tick trace of the vdis1 comparison (Fig 5
// bottom): whether the disruptor ran, its measured llc_cap, and its
// pollution-quota balance.
type Fig5Timeline struct {
	// RanXCS[t] is 1 when vdis1 consumed CPU at tick t under plain XCS.
	RanXCS []float64
	// RanKyoto[t] is the same under KS4Xen.
	RanKyoto []float64
	// Rate[t] is the measured llc_cap (Equation 1) under KS4Xen.
	Rate []float64
	// Quota[t] is the pollution-quota balance under KS4Xen (misses).
	Quota []float64
}

// Fig5Result is the §4.3 effectiveness study.
type Fig5Result struct {
	// NormPerf[dis] is vsen1's IPC under KS4Xen co-located with dis,
	// normalized to its solo IPC (paper: ~1.0 for all three disruptors).
	NormPerf map[string]float64
	// NormPerfXCS[dis] is the same under plain XCS (the contrast).
	NormPerfXCS map[string]float64
	// PunishSen[dis] and PunishDis[dis] count pollution punishments.
	PunishSen map[string]uint64
	PunishDis map[string]uint64
	// Timeline traces the vdis1 (lbm) run.
	Timeline Fig5Timeline
	// Disruptors lists the order.
	Disruptors []string
}

// fig5TimelineTicks is the timeline length (the paper plots ~70 ticks).
const fig5TimelineTicks = 70

// Fig5 runs vsen1 against each disruptor under XCS and KS4Xen.
func Fig5(seed uint64) (Fig5Result, error) { return newFig5(seed).runInProcess() }

// Fig5Sweep is Figure 5 as a sweep.
func Fig5Sweep(seed uint64) Experiment { return newFig5(seed) }

// fig5Payload is one Figure 5 job's outcome: vsen1's IPC and both VMs'
// punishments, or the vdis1 timeline.
type fig5Payload struct {
	IPC       float64      `json:"ipc"`
	PunishSen uint64       `json:"punish_sen"`
	PunishDis uint64       `json:"punish_dis"`
	Timeline  Fig5Timeline `json:"timeline"`
}

// newFig5 plans vsen1's solo baseline, an XCS and a KS4Xen job per
// disruptor, then the vdis1 timeline.
func newFig5(seed uint64) *figSweep[fig5Payload, Fig5Result] {
	disruptors := []string{workload.VDis1, workload.VDis2, workload.VDis3}
	read := func(r Result) fig5Payload {
		return fig5Payload{
			IPC:       r.IPC("sen"),
			PunishSen: r.World.FindVM("sen").Punishments,
			PunishDis: r.World.FindVM("dis").Punishments,
		}
	}
	s := &figSweep[fig5Payload, Fig5Result]{name: "fig5", config: seedConfig{Seed: seed}}
	s.arms = append(s.arms, scenarioArm("solo", soloScenario(workload.VSen1, seed), func(r Result) fig5Payload {
		return fig5Payload{IPC: r.IPC("solo")}
	}))
	for _, dis := range disruptors {
		for _, kyoto := range []bool{false, true} {
			s.arms = append(s.arms, scenarioArm(fmt.Sprintf("%s/kyoto=%t", dis, kyoto), Scenario{
				NodeConfig: cluster.NodeConfig{Seed: seed, EnableKyoto: kyoto},
				VMs:        fig5VMs(dis),
				Measure:    45,
			}, read))
		}
	}
	s.arms = append(s.arms, figArm[fig5Payload]{"timeline", func() (fig5Payload, error) {
		tl, err := fig5Timeline(seed)
		return fig5Payload{Timeline: tl}, err
	}})
	s.fold = func(ps []fig5Payload) (Fig5Result, []Table, error) {
		res := Fig5Result{
			NormPerf:    make(map[string]float64, len(disruptors)),
			NormPerfXCS: make(map[string]float64, len(disruptors)),
			PunishSen:   make(map[string]uint64, len(disruptors)),
			PunishDis:   make(map[string]uint64, len(disruptors)),
			Disruptors:  disruptors,
		}
		soloIPC := ps[0].IPC
		for i, dis := range disruptors {
			xcs, ks := ps[1+2*i], ps[2+2*i]
			res.NormPerfXCS[dis] = xcs.IPC / soloIPC
			res.NormPerf[dis] = ks.IPC / soloIPC
			res.PunishSen[dis] = ks.PunishSen
			res.PunishDis[dis] = ks.PunishDis
		}
		res.Timeline = ps[len(ps)-1].Timeline
		return res, res.Tables(), nil
	}
	return s
}

// fig5VMs builds the vsen1+disruptor pair with the paper's bookings.
func fig5VMs(dis string) []vm.Spec {
	return []vm.Spec{
		{Name: "sen", App: workload.VSen1, Pins: []int{0}, LLCCap: Fig5LLCCap},
		{Name: "dis", App: dis, Pins: []int{1}, LLCCap: Fig5LLCCap},
	}
}

// fig5Timeline records the vdis1 run/rate/quota traces.
func fig5Timeline(seed uint64) (Fig5Timeline, error) {
	var tl Fig5Timeline

	// XCS run trace.
	xcsRec := NewTickSeries(func(_ *vm.VM, delta pmc.Counters, _ *hv.World) float64 {
		if delta.WallCycles() > 0 {
			return 1
		}
		return 0
	})
	s := Scenario{
		NodeConfig: cluster.NodeConfig{Seed: seed},
		VMs:        fig5VMs(workload.VDis1),
		Hooks:      []hv.TickHook{xcsRec},
		Warmup:     1,
		Measure:    fig5TimelineTicks,
	}
	if _, err := Run(s); err != nil {
		return tl, err
	}
	tl.RanXCS = xcsRec.Values["dis"]

	// KS4Xen run trace: CPU usage, measured rate, quota ledger.
	var rate, quota, ran []float64
	rec := NewTickSeries(func(domain *vm.VM, delta pmc.Counters, w *hv.World) float64 {
		if domain.Name != "dis" {
			return 0
		}
		if delta.WallCycles() > 0 {
			ran = append(ran, 1)
		} else {
			ran = append(ran, 0)
		}
		rate = append(rate, core.Equation1Value(delta))
		quota = append(quota, w.Scheduler().(*core.Kyoto).QuotaBalance(domain))
		return 0
	})
	s.EnableKyoto = true
	s.Hooks = []hv.TickHook{rec}
	if _, err := Run(s); err != nil {
		return tl, err
	}
	tl.RanKyoto, tl.Rate, tl.Quota = ran, rate, quota
	return tl, nil
}

// Tables renders the three panels.
func (r Fig5Result) Tables() []Table {
	perf := Table{
		Title: "Figure 5 (top): KS4Xen keeps vsen1 performance under contention",
		Note: fmt.Sprintf("llc_cap booked: %d for every VM; normalized to vsen1 solo IPC; punishments over the run",
			Fig5LLCCap),
		Columns: []string{"disruptor", "vsen1 norm perf (KS4Xen)", "vsen1 norm perf (XCS)", "punishments sen", "punishments dis"},
	}
	for _, dis := range r.Disruptors {
		perf.AddRow(dis, r.NormPerf[dis], r.NormPerfXCS[dis], r.PunishSen[dis], r.PunishDis[dis])
	}

	tl := Table{
		Title:   "Figure 5 (bottom): vdis1 (lbm) timeline under XCS vs KS4Xen",
		Note:    "KS4Xen deprives the VM of the processor whenever measured llc_cap exhausts the booked quota",
		Columns: []string{"tick", "ran (XCS)", "ran (KS4Xen)", "measured llc_cap", "quota balance"},
	}
	for t := 0; t < len(r.Timeline.RanKyoto) && t < len(r.Timeline.RanXCS); t++ {
		tl.AddRow(t, r.Timeline.RanXCS[t], r.Timeline.RanKyoto[t], r.Timeline.Rate[t], r.Timeline.Quota[t])
	}
	return []Table{perf, tl}
}
