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

// Fig10 runs the five measurements, each an independent world.
func Fig10(seed uint64) (Fig10Result, error) { return newFig10(seed).runInProcess() }

// Fig10Sweep is Figure 10 as a sweep.
func Fig10Sweep(seed uint64) Experiment { return newFig10(seed) }

// newFig10 plans one job per measurement, whose payload is the measured
// VM's Equation-1 value.
func newFig10(seed uint64) *figSweep[float64, Fig10Result] {
	eq1 := func(key string, sc Scenario, name string) figArm[float64] {
		return scenarioArm(key, sc, func(r Result) float64 { return core.Equation1Value(r.PerVM[name]) })
	}
	s := &figSweep[float64, Fig10Result]{name: "fig10", config: seedConfig{Seed: seed}, arms: []figArm[float64]{
		// hmmer among disruptors (in place).
		eq1("hmmer/in-place", Scenario{NodeConfig: cluster.NodeConfig{Seed: seed}, VMs: []vm.Spec{
			pinned("target", "hmmer", 0),
			pinned("d1", "lbm", 1),
			pinned("d2", "blockie", 2),
			pinned("d3", "mcf", 3),
		}}, "target"),
		eq1("hmmer/isolated", soloScenario("hmmer", seed), "solo"),
		// bzip among hmmers (in place).
		eq1("bzip/in-place", Scenario{NodeConfig: cluster.NodeConfig{Seed: seed}, VMs: []vm.Spec{
			pinned("target", "bzip", 0),
			pinned("h1", "hmmer", 1),
			pinned("h2", "hmmer", 2),
			pinned("h3", "hmmer", 3),
		}}, "target"),
		eq1("bzip/isolated", soloScenario("bzip", seed), "solo"),
		// Control: bzip among disruptors (what the heuristics must avoid
		// treating as bzip's own pollution).
		eq1("bzip/control", Scenario{NodeConfig: cluster.NodeConfig{Seed: seed}, VMs: []vm.Spec{
			pinned("target", "bzip", 0),
			pinned("d1", "lbm", 1),
			pinned("d2", "blockie", 2),
			pinned("d3", "mcf", 3),
		}}, "target"),
	}}
	s.fold = func(v []float64) (Fig10Result, []Table, error) {
		res := Fig10Result{
			HmmerNotIsolated:   v[0],
			HmmerIsolated:      v[1],
			BzipNotIsolated:    v[2],
			BzipIsolated:       v[3],
			BzipWithDisruptors: v[4],
		}
		return res, []Table{res.Table()}, nil
	}
	return s
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
