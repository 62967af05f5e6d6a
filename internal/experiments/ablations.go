package experiments

import (
	"fmt"

	"kyoto/internal/cluster"
	"kyoto/internal/core"
	"kyoto/internal/sweep"
	"kyoto/internal/vm"
	"kyoto/internal/workload"
)

// This file holds the design-choice ablations (kyotobench's "ablations"
// experiment; README, "Scaling sweeps") — extensions beyond the paper that quantify the alternatives its related
// work section argues against. The three studies are independent, so each
// is one job of the suite's sweep (AblationsSweep).

// AblationIndicator reruns the Fig 5 vsen1-vs-vdis1 scenario with the
// oracle monitor measuring by each indicator, returning vsen1's
// normalized performance under Equation 1 and under raw LLCM. The two
// arms are bit-identical (0.96361871286879763 at seed 1): core.Kyoto's
// EndTick debits each measurement's Misses, which no indicator changes,
// and keeps Rate only for reporting. The indicator therefore shapes the
// reported llc_cap_act, not enforcement, and this ablation compares
// nothing until the ledger charges by rate.
func AblationIndicator(seed uint64) (eq1Perf, llcmPerf float64, err error) {
	solo, err := Run(soloScenario(workload.VSen1, seed))
	if err != nil {
		return 0, 0, err
	}
	soloIPC := solo.PerVM["solo"].IPC()

	run := func(ind core.Indicator) (float64, error) {
		r, err := Run(Scenario{
			NodeConfig: cluster.NodeConfig{Seed: seed, EnableKyoto: true, Indicator: ind},
			VMs:        fig5VMs(workload.VDis1),
			Measure:    45,
		})
		if err != nil {
			return 0, err
		}
		return r.IPC("sen") / soloIPC, nil
	}
	if eq1Perf, err = run(core.Equation1); err != nil {
		return 0, 0, err
	}
	if llcmPerf, err = run(core.RawLLCM); err != nil {
		return 0, 0, err
	}
	return eq1Perf, llcmPerf, nil
}

// AblationPartitioning compares Kyoto enforcement against an idealized
// UCP-style hardware partitioning of the LLC (half the ways per VM) on the
// Fig 5 scenario. Partitioning needs hardware the paper's datacenters lack;
// Kyoto approximates its isolation in software.
func AblationPartitioning(seed uint64) (kyotoPerf, partPerf float64, err error) {
	solo, err := Run(soloScenario(workload.VSen1, seed))
	if err != nil {
		return 0, 0, err
	}
	soloIPC := solo.PerVM["solo"].IPC()

	// Kyoto arm.
	kr, err := Run(Scenario{
		NodeConfig: cluster.NodeConfig{Seed: seed, EnableKyoto: true},
		VMs:        fig5VMs(workload.VDis1),
		Measure:    45,
	})
	if err != nil {
		return 0, 0, err
	}
	kyotoPerf = kr.IPC("sen") / soloIPC

	// Way-partitioned arm: plain XCS, but the LLC is split 10/10 ways.
	s := Scenario{
		NodeConfig: cluster.NodeConfig{Seed: seed},
		VMs: []vm.Spec{
			{Name: "sen", App: workload.VSen1, Pins: []int{0}},
			{Name: "dis", App: workload.VDis1, Pins: []int{1}},
		},
		Measure: 45,
	}
	w, err := s.build()
	if err != nil {
		return 0, 0, err
	}
	llc := w.Machine().Socket(0).LLC
	llc.SetPartition(w.FindVM("sen").VCPUs[0].Owner(), 0x003FF) // ways 0-9
	llc.SetPartition(w.FindVM("dis").VCPUs[0].Owner(), 0xFFC00) // ways 10-19
	partPerf = s.measure(w).IPC("sen") / soloIPC
	return kyotoPerf, partPerf, nil
}

// AblationBanking measures the cost of letting polluters bank unused quota
// ("carbon credits"): vsen1's normalized performance against a bursty
// blockie polluter without banking vs with 4 slices of banking.
func AblationBanking(seed uint64) (noBank, bank float64, err error) {
	solo, err := Run(soloScenario(workload.VSen1, seed))
	if err != nil {
		return 0, 0, err
	}
	soloIPC := solo.PerVM["solo"].IPC()

	run := func(bankSlices float64) (float64, error) {
		r, err := Run(Scenario{
			NodeConfig: cluster.NodeConfig{Seed: seed, EnableKyoto: true, BankSlices: bankSlices},
			VMs:        fig5VMs(workload.VDis2), // blockie: the bursty wiper
			Measure:    60,
		})
		if err != nil {
			return 0, err
		}
		return r.IPC("sen") / soloIPC, nil
	}
	if noBank, err = run(0); err != nil {
		return 0, 0, err
	}
	if bank, err = run(4); err != nil {
		return 0, 0, err
	}
	return noBank, bank, nil
}

// ablationArms names the independent studies in plan order; each job
// returns the pair of normalized performances its study contrasts.
var ablationArms = []struct {
	key  string
	run  func(seed uint64) (a, b float64, err error)
	rows [2][2]string // {ablation, arm} labels for the A and B values
	arms [2]string    // seed-sweep arm names of the A and B values
}{
	{"indicator", AblationIndicator, [2][2]string{
		{"quota indicator", "equation 1 (paper)"},
		{"quota indicator", "raw LLCM"},
	}, [2]string{"indicator/eq1", "indicator/llcm"}},
	{"partitioning", AblationPartitioning, [2][2]string{
		{"vs hardware partitioning", "KS4Xen (software)"},
		{"vs hardware partitioning", "UCP-style 10/10 ways"},
	}, [2]string{"partitioning/ks4xen", "partitioning/ucp"}},
	{"banking", AblationBanking, [2][2]string{
		{"quota banking (vs blockie)", "no banking (paper)"},
		{"quota banking (vs blockie)", "bank 4 slices"},
	}, [2]string{"banking/none", "banking/bank4"}},
}

// ablationPayload is one study's pair of outcomes.
type ablationPayload struct {
	A float64 `json:"a"`
	B float64 `json:"b"`
}

// AblationsSweep is the ablation suite as a sweep: one job per
// design-choice study, merged into one table.
func AblationsSweep(seed uint64) Experiment { return newAblations(seed) }

// newAblations plans one job per study of ablationArms. Its seed
// metrics split each study's A and B outcomes into separate arms
// sharing the one normalized-performance metric.
func newAblations(seed uint64) *figSweep[ablationPayload, []ablationPayload] {
	s := &figSweep[ablationPayload, []ablationPayload]{name: "ablations", config: seedConfig{Seed: seed}}
	for _, arm := range ablationArms {
		s.arms = append(s.arms, figArm[ablationPayload]{"ablation/" + arm.key, func() (ablationPayload, error) {
			a, b, err := arm.run(seed)
			if err != nil {
				return ablationPayload{}, fmt.Errorf("%s ablation: %w", arm.key, err)
			}
			return ablationPayload{A: a, B: b}, nil
		}})
	}
	s.fold = func(ps []ablationPayload) ([]ablationPayload, []Table, error) {
		t := Table{
			Title:   "Ablations: design choices around the Kyoto mechanism",
			Note:    "vsen1 normalized performance on the Figure 5 scenario unless stated",
			Columns: []string{"ablation", "arm", "vsen1 norm perf"},
		}
		for i, arm := range ablationArms {
			t.AddRow(arm.rows[0][0], arm.rows[0][1], ps[i].A)
			t.AddRow(arm.rows[1][0], arm.rows[1][1], ps[i].B)
		}
		return ps, []Table{t}, nil
	}
	s.metrics = []string{"vsen1_norm"}
	s.metricRows = func(ps []ablationPayload) []sweep.MetricRow {
		rows := make([]sweep.MetricRow, 0, 2*len(ablationArms))
		for i, arm := range ablationArms {
			rows = append(rows,
				sweep.MetricRow{Arm: arm.arms[0], Values: []float64{ps[i].A}},
				sweep.MetricRow{Arm: arm.arms[1], Values: []float64{ps[i].B}},
			)
		}
		return rows
	}
	s.reseed = newAblations
	return s
}
