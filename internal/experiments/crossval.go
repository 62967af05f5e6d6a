package experiments

// Cross-validation of the analytic fast tier against the exact model.
//
// The analytic tier (internal/cache.AnalyticLLC + cpu.RunAnalytic) is
// only useful if its errors are known and bounded, so this harness runs
// the repo's committed golden configurations — the Figure 1 contention
// grid, the Figure 4 indicator study, and the trace/migration sweeps
// whose shard fingerprints are pinned in testdata/golden_sweep.json —
// on BOTH tiers and reports the analytic tier's error on each headline
// metric against a declared budget. TestCrossValidationBudgets asserts
// every budget holds, so the budgets below are commitments, not
// documentation: loosening one is a reviewable diff.
//
// Budgets are set from measured errors with roughly 2x headroom (the
// measured values are recorded next to each constant), wide enough to
// absorb drift from unrelated tuning but tight enough that a broken
// analytic model — occupancy leak, wrong miss-rate split, broken
// renormalization — blows through them immediately.

import (
	"fmt"
	"math"

	"kyoto/internal/arrivals"
	"kyoto/internal/cache"
	"kyoto/internal/cluster"
	"kyoto/internal/stats"
	"kyoto/internal/vm"
)

// Declared error budgets, one per cross-validated metric. Units match
// the metric: percentage points for degradation/aggressiveness and
// rejection rates, absolute normalized-performance units for p99
// floors, absolute fractions for LLC occupancy shares.
const (
	// BudgetFig1MeanPts bounds the mean |degradation error| across the
	// 27 Figure 1 cells (measured ~4.0 pts).
	BudgetFig1MeanPts = 10.0
	// BudgetFig1MaxPts bounds the worst single Figure 1 cell (measured
	// ~22.6 pts; the alternative-mode cells are the hardest because the
	// analytic tier models slice rotation with epoch-grained occupancy).
	BudgetFig1MaxPts = 40.0
	// BudgetFig4MeanPts bounds the mean |aggressiveness error| across
	// the ten Figure 4 applications (measured ~4.5 pts).
	BudgetFig4MeanPts = 10.0
	// BudgetFig4RankDisagreement bounds 1 - KendallTau between the two
	// tiers' aggressiveness rankings (measured ~0.18, i.e. tau ~0.82;
	// with ten apps tau is quantized in steps of ~0.044). The ranking is
	// what the two-tier sweep trusts the fast tier for, so it gets its
	// own budget independent of the magnitudes.
	BudgetFig4RankDisagreement = 0.35
	// BudgetTraceP99 bounds the per-placer |p99 normalized-performance
	// error| on the committed trace-sweep golden (measured ~0.13).
	BudgetTraceP99 = 0.30
	// BudgetTraceRejectionPts bounds the per-placer |rejection-rate
	// error| in percentage points on the same golden (measured 0.0:
	// admission decisions depend on permits and capacity, which the
	// analytic tier reproduces exactly).
	BudgetTraceRejectionPts = 5.0
	// BudgetMigrationP99 bounds the per-combination |p99 error| on the
	// committed migration-sweep golden (measured ~0.13).
	BudgetMigrationP99 = 0.30
	// BudgetMigrationRejectionPts is BudgetTraceRejectionPts for the
	// migration sweep's nine rebalancer x placer combinations.
	BudgetMigrationRejectionPts = 5.0
	// BudgetOccupancyFraction bounds the per-VM |LLC occupancy fraction
	// error| of a contended four-app world (measured ~0.12). Occupancy
	// is the analytic tier's state variable, so this is the most direct
	// check of the Markov recurrence itself.
	BudgetOccupancyFraction = 0.25
)

// GoldenSweepTrace returns the committed churn trace behind the
// trace-sweep-2h and migration-sweep-2h shard goldens: eight
// permit-booking VMs with staggered lifetimes on a 2-host fleet, plus
// one permit-less VM that only Kyoto admission rejects. The shard
// determinism test pins the sweeps' merged fingerprints over exactly
// this trace, which is what makes it a golden the cross-validation
// harness must run.
func GoldenSweepTrace() arrivals.Trace {
	return arrivals.Trace{Events: []arrivals.Event{
		{Submit: 0, Lifetime: 18, Name: "a", App: "gcc", LLCCap: 250},
		{Submit: 0, Lifetime: 24, Name: "b", App: "lbm", LLCCap: 250},
		{Submit: 3, Lifetime: 18, Name: "c", App: "omnetpp", LLCCap: 250},
		{Submit: 6, Lifetime: 21, Name: "d", App: "blockie", LLCCap: 250},
		{Submit: 9, Lifetime: 15, Name: "e", App: "astar", LLCCap: 250},
		{Submit: 12, Name: "noperm", App: "mcf"},
		{Submit: 15, Lifetime: 15, Name: "f", App: "lbm", LLCCap: 250},
		{Submit: 18, Lifetime: 12, Name: "g", App: "gcc", LLCCap: 250},
		{Submit: 21, Lifetime: 12, Name: "h", App: "bzip", LLCCap: 250},
	}}
}

// GoldenTraceSweepConfig is the trace-sweep-2h golden configuration.
func GoldenTraceSweepConfig() FleetSweepConfig {
	return FleetSweepConfig{Hosts: 2, Seed: 5, DrainTicks: 6}
}

// GoldenMigrationSweepConfig is the migration-sweep-2h golden
// configuration.
func GoldenMigrationSweepConfig() FleetSweepConfig {
	return FleetSweepConfig{
		Hosts: 2, Seed: 5, DrainTicks: 6, BigLLCFactor: 2,
		Pending: arrivals.PendingFIFO, Downtime: 2,
	}
}

// CrossValCheck is one cross-validated metric: the figure it came from,
// both tiers' values (aggregates where the figure has many cells), the
// error and its declared budget.
type CrossValCheck struct {
	Figure string
	Metric string
	// Exact and Analytic are the metric's value on each tier. For
	// aggregate metrics (mean/max over cells) they are the values of
	// the worst cell, so the table stays readable.
	Exact    float64
	Analytic float64
	// Err is the analytic tier's error in the metric's own units.
	Err float64
	// Budget is the declared bound Err must stay under.
	Budget float64
}

// Pass reports whether the error is within budget.
func (c CrossValCheck) Pass() bool { return c.Err <= c.Budget }

// CrossValResult is the harness output: every check, in figure order.
type CrossValResult struct {
	Checks []CrossValCheck
}

// Pass reports whether every check is within budget.
func (r *CrossValResult) Pass() bool {
	for _, c := range r.Checks {
		if !c.Pass() {
			return false
		}
	}
	return true
}

// Failures returns the checks that blew their budget.
func (r *CrossValResult) Failures() []CrossValCheck {
	var out []CrossValCheck
	for _, c := range r.Checks {
		if !c.Pass() {
			out = append(out, c)
		}
	}
	return out
}

// Table renders the per-figure, per-metric error report.
func (r *CrossValResult) Table() Table {
	t := Table{
		Title: "Cross-validation: analytic tier vs exact model on the committed goldens",
		Note: "err is the analytic tier's error in the metric's units; budget is the declared bound\n" +
			"(asserted by TestCrossValidationBudgets); exact/analytic are the worst cell's values",
		Columns: []string{"figure", "metric", "exact", "analytic", "err", "budget", "ok"},
	}
	for _, c := range r.Checks {
		ok := "pass"
		if !c.Pass() {
			ok = "FAIL"
		}
		t.AddRow(c.Figure, c.Metric, c.Exact, c.Analytic, c.Err, c.Budget, ok)
	}
	return t
}

// CrossValFigures lists the figures CrossValidate knows, in run order.
var CrossValFigures = []string{"fig1", "fig4", "trace", "migration", "occupancy"}

// CrossValidate runs the requested golden figures on both fidelity
// tiers and returns the per-metric error report. No figures means all
// of CrossValFigures. seed drives the Figure 1/4 grids and the
// occupancy scenario; the trace and migration sweeps run their golden
// configurations verbatim (those pin their own seed, because the shard
// determinism test pins fingerprints over exactly that configuration).
func CrossValidate(seed uint64, figures ...string) (*CrossValResult, error) {
	if len(figures) == 0 {
		figures = CrossValFigures
	}
	s, err := newCrossVal(seed, figures)
	if err != nil {
		return nil, err
	}
	return s.result()
}

// CrossValSweep is the whole cross-validation as a sweep.
func CrossValSweep(seed uint64) Experiment {
	s, _ := newCrossVal(seed, CrossValFigures) // every CrossValFigures entry is known
	return s
}

// crossValChecks maps each cross-validated figure to its checks.
var crossValChecks = map[string]func(seed uint64) ([]CrossValCheck, error){
	"fig1": crossValFig1,
	"fig4": crossValFig4,
	"trace": crossValSweep("trace-sweep-2h", TraceSweep, GoldenTraceSweepConfig(),
		BudgetTraceP99, BudgetTraceRejectionPts),
	"migration": crossValSweep("migration-sweep-2h", MigrationSweep, GoldenMigrationSweepConfig(),
		BudgetMigrationP99, BudgetMigrationRejectionPts),
	"occupancy": crossValOccupancy,
}

// newCrossVal plans one job per requested figure, whose payload is its
// checks.
func newCrossVal(seed uint64, figures []string) (*figSweep[[]CrossValCheck, *CrossValResult], error) {
	s := &figSweep[[]CrossValCheck, *CrossValResult]{name: "crossval", seed: seed}
	for _, fig := range figures {
		check, ok := crossValChecks[fig]
		if !ok {
			return nil, fmt.Errorf("crossval: unknown figure %q (have %v)", fig, CrossValFigures)
		}
		s.arms = append(s.arms, figArm[[]CrossValCheck]{fig, func() ([]CrossValCheck, error) {
			checks, err := check(seed)
			if err != nil {
				return nil, fmt.Errorf("crossval %s: %w", fig, err)
			}
			return checks, nil
		}})
	}
	s.fold = func(checks [][]CrossValCheck) (*CrossValResult, []Table, error) {
		res := &CrossValResult{}
		for _, c := range checks {
			res.Checks = append(res.Checks, c...)
		}
		return res, []Table{res.Table()}, nil
	}
	return s, nil
}

// crossValFig1 compares the 27 degradation cells of the Figure 1
// contention grid: mean and worst-cell absolute error in points. Cells
// are visited in the grid's presentation order, so the sum and the
// worst cell reported on a tie do not depend on map order.
func crossValFig1(seed uint64) ([]CrossValCheck, error) {
	exact, err := Fig1Fidelity(seed, cache.FidelityExact)
	if err != nil {
		return nil, err
	}
	analytic, err := Fig1Fidelity(seed, cache.FidelityAnalytic)
	if err != nil {
		return nil, err
	}
	var sum, worst float64
	var n int
	var worstE, worstA float64
	for _, mode := range fig1Modes {
		for _, rep := range exact.Reps {
			for _, dis := range exact.Dis {
				e, a := exact.Degradation[mode][rep][dis], analytic.Degradation[mode][rep][dis]
				d := math.Abs(a - e)
				sum += d
				n++
				if d > worst {
					worst, worstE, worstA = d, e, a
				}
			}
		}
	}
	return []CrossValCheck{
		{
			Figure: "fig1", Metric: "degradation mean |err| (pts)",
			Exact: worstE, Analytic: worstA, Err: sum / float64(n), Budget: BudgetFig1MeanPts,
		},
		{
			Figure: "fig1", Metric: "degradation max |err| (pts)",
			Exact: worstE, Analytic: worstA, Err: worst, Budget: BudgetFig1MaxPts,
		},
	}, nil
}

// crossValFig4 compares aggressiveness magnitudes and, separately, the
// aggressiveness ranking (what the two-tier sweep trusts the fast tier
// for) between the tiers.
func crossValFig4(seed uint64) ([]CrossValCheck, error) {
	exact, err := newFig4(seed, cache.FidelityExact).result()
	if err != nil {
		return nil, err
	}
	analytic, err := newFig4(seed, cache.FidelityAnalytic).result()
	if err != nil {
		return nil, err
	}
	var sum, worst, worstE, worstA float64
	for _, app := range exact.Apps {
		e, a := exact.Aggressiveness[app], analytic.Aggressiveness[app]
		d := math.Abs(a - e)
		sum += d
		if d > worst {
			worst, worstE, worstA = d, e, a
		}
	}
	tau, err := stats.KendallTau(stats.RankByValue(analytic.Aggressiveness),
		stats.RankByValue(exact.Aggressiveness))
	if err != nil {
		return nil, err
	}
	return []CrossValCheck{
		{
			Figure: "fig4", Metric: "aggressiveness mean |err| (pts)",
			Exact: worstE, Analytic: worstA, Err: sum / float64(len(exact.Apps)), Budget: BudgetFig4MeanPts,
		},
		{
			Figure: "fig4", Metric: "ranking disagreement (1 - Kendall tau)",
			Exact: 1, Analytic: tau, Err: 1 - tau, Budget: BudgetFig4RankDisagreement,
		},
	}, nil
}

// crossValSweep returns the checks of a committed fleet-sweep golden
// (run on GoldenSweepTrace at cfg, whatever the seed): worst per-arm p99
// normalized-performance error and worst rejection-rate error.
func crossValSweep(figure string, sweepFn func(arrivals.Trace, FleetSweepConfig) (*FleetSweepResult, error),
	cfg FleetSweepConfig, p99Budget, rejBudget float64) func(uint64) ([]CrossValCheck, error) {
	return func(uint64) ([]CrossValCheck, error) {
		run := func(fid cache.Fidelity) (*FleetSweepResult, error) {
			c := cfg
			c.Fidelity = fid
			return sweepFn(GoldenSweepTrace(), c)
		}
		exact, err := run(cache.FidelityExact)
		if err != nil {
			return nil, err
		}
		analytic, err := run(cache.FidelityAnalytic)
		if err != nil {
			return nil, err
		}
		type armID struct{ placer, rebalancer string }
		byArm := make(map[armID]FleetSweepRow, len(analytic.Rows))
		for _, row := range analytic.Rows {
			byArm[armID{row.Placer, row.Rebalancer}] = row
		}
		var worstP99, p99E, p99A, worstRej, rejE, rejA float64
		for _, e := range exact.Rows {
			a := byArm[armID{e.Placer, e.Rebalancer}]
			if d := math.Abs(a.P99 - e.P99); d > worstP99 {
				worstP99, p99E, p99A = d, e.P99, a.P99
			}
			if d := 100 * math.Abs(a.RejectionRate-e.RejectionRate); d > worstRej {
				worstRej, rejE, rejA = d, 100*e.RejectionRate, 100*a.RejectionRate
			}
		}
		return []CrossValCheck{
			{
				Figure: figure, Metric: "p99 normalized perf max |err|",
				Exact: p99E, Analytic: p99A, Err: worstP99, Budget: p99Budget,
			},
			{
				Figure: figure, Metric: "rejection rate max |err| (pts)",
				Exact: rejE, Analytic: rejA, Err: worstRej, Budget: rejBudget,
			},
		}, nil
	}
}

// crossValOccupancy contends four Figure 4 applications on one machine
// and compares each VM's end-of-run LLC occupancy fraction between the
// tiers — the most direct check of the Markov occupancy recurrence,
// with no performance model in between. VMs are compared in placement
// order, so the worst VM reported on a tie is fixed.
func crossValOccupancy(seed uint64) ([]CrossValCheck, error) {
	occupancy := func(fid cache.Fidelity) ([]float64, error) {
		r, err := Run(Scenario{
			NodeConfig: cluster.NodeConfig{Seed: seed, Fidelity: fid},
			VMs: []vm.Spec{
				pinned("mcf", "mcf", 0),
				pinned("gcc", "gcc", 1),
				pinned("blockie", "blockie", 2),
				pinned("astar", "astar", 3),
			},
		})
		if err != nil {
			return nil, err
		}
		var out []float64
		for _, m := range r.World.VMs() {
			var frac float64
			for _, v := range m.VCPUs {
				frac += r.World.LLCOccupancyFraction(v)
			}
			out = append(out, frac)
		}
		return out, nil
	}
	exact, err := occupancy(cache.FidelityExact)
	if err != nil {
		return nil, err
	}
	analytic, err := occupancy(cache.FidelityAnalytic)
	if err != nil {
		return nil, err
	}
	var worst, worstE, worstA float64
	for i, e := range exact {
		a := analytic[i]
		if d := math.Abs(a - e); d > worst {
			worst, worstE, worstA = d, e, a
		}
	}
	return []CrossValCheck{{
		Figure: "occupancy", Metric: "LLC occupancy fraction max |err|",
		Exact: worstE, Analytic: worstA, Err: worst, Budget: BudgetOccupancyFraction,
	}}, nil
}
