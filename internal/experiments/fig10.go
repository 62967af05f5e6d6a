package experiments

import (
	"kyoto/internal/cluster"
	"kyoto/internal/core"
	"kyoto/internal/vm"
)

// Fig10Result is the §4.5 skip-heuristic justification: llc_cap_act
// (Equation 1) measured in place (not isolated, co-located) vs isolated,
// for the two situations where isolation is avoidable:
//
//  1. hmmer — a vCPU with very low LLC misses — measured while co-located
//     with three disruptors: contention cannot inflate a working set that
//     lives in the private caches, so in-place == isolated.
//  2. bzip — a normal vCPU — measured while co-located only with hmmer
//     vCPUs: quiet co-runners cannot inflate its counters either.
type Fig10Result struct {
	HmmerNotIsolated float64
	HmmerIsolated    float64
	BzipNotIsolated  float64
	BzipIsolated     float64
	// BzipWithDisruptors is the control the heuristics protect against:
	// bzip measured in place among disruptors (inflated).
	BzipWithDisruptors float64
}

// Fig10 runs the five measurements concurrently (each is an independent
// world).
func Fig10(seed uint64) (Fig10Result, error) {
	var res Fig10Result

	scenarios := []Scenario{
		// hmmer among disruptors (in place).
		{NodeConfig: cluster.NodeConfig{Seed: seed}, VMs: []vm.Spec{
			pinned("target", "hmmer", 0),
			pinned("d1", "lbm", 1),
			pinned("d2", "blockie", 2),
			pinned("d3", "mcf", 3),
		}},
		soloScenario("hmmer", seed),
		// bzip among hmmers (in place).
		{NodeConfig: cluster.NodeConfig{Seed: seed}, VMs: []vm.Spec{
			pinned("target", "bzip", 0),
			pinned("h1", "hmmer", 1),
			pinned("h2", "hmmer", 2),
			pinned("h3", "hmmer", 3),
		}},
		soloScenario("bzip", seed),
		// Control: bzip among disruptors (what the heuristics must avoid
		// treating as bzip's own pollution).
		{NodeConfig: cluster.NodeConfig{Seed: seed}, VMs: []vm.Spec{
			pinned("target", "bzip", 0),
			pinned("d1", "lbm", 1),
			pinned("d2", "blockie", 2),
			pinned("d3", "mcf", 3),
		}},
	}
	rs, err := RunAll(scenarios)
	if err != nil {
		return res, err
	}
	eq1 := func(r Result, name string) float64 {
		return core.Equation1Value(r.PerVM[name])
	}
	res.HmmerNotIsolated = eq1(rs[0], "target")
	res.HmmerIsolated = eq1(rs[1], "solo")
	res.BzipNotIsolated = eq1(rs[2], "target")
	res.BzipIsolated = eq1(rs[3], "solo")
	res.BzipWithDisruptors = eq1(rs[4], "target")
	return res, nil
}

// Table renders the bars.
func (r Fig10Result) Table() Table {
	t := Table{
		Title:   "Figure 10: vCPU isolation can be skipped in two situations (llc_cap_act, eq 1)",
		Note:    "pairs should match; the control row shows why quiet co-runners are required",
		Columns: []string{"measurement", "not isolated", "isolated", "co-runners"},
	}
	t.AddRow("hmmer", r.HmmerNotIsolated, r.HmmerIsolated, "lbm+blockie+mcf")
	t.AddRow("bzip", r.BzipNotIsolated, r.BzipIsolated, "3x hmmer")
	t.AddRow("bzip (control)", r.BzipWithDisruptors, r.BzipIsolated, "lbm+blockie+mcf")
	return t
}
