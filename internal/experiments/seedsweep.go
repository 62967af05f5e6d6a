package experiments

// Seedable adapters: every sweeper in the harness can be replicated
// under consecutive RNG seeds by sweep.SeedSweeper, turning its single
// numbers into distributions with confidence intervals. Each adapter
// supplies the three hooks the seed sweep needs — an independent
// reseeded copy, the fixed metric list, and per-arm metric rows read
// off the merged result (FleetSweeper carries its own, driven by its
// preset's metric list) — plus SeedSweepTable, the one renderer behind
// `kyotosim -seeds` and `kyotobench -seeds`.

import (
	"fmt"

	"kyoto/internal/stats"
	"kyoto/internal/sweep"
)

// Reseed implements sweep.Seedable for the Figure 4 indicator study.
func (s *Fig4Sweeper) Reseed(seed uint64) (sweep.Seedable, error) {
	return NewFig4Sweeper(seed), nil
}

// MetricNames implements sweep.Seedable.
func (s *Fig4Sweeper) MetricNames() []string { return []string{"tau_llcm", "tau_eq1"} }

// MetricRows implements sweep.Seedable: the study is one arm whose
// metrics are the two indicator-agreement taus.
func (s *Fig4Sweeper) MetricRows() []sweep.MetricRow {
	if s.res == nil {
		return nil
	}
	return []sweep.MetricRow{{Arm: "fig4", Values: []float64{s.res.TauLLCM, s.res.TauEq1}}}
}

// ablationArmNames names the six ablation outcomes (A and B of each
// study, in ablationArms order) as seed-sweep arms.
var ablationArmNames = map[string][2]string{
	"indicator":    {"indicator/eq1", "indicator/llcm"},
	"partitioning": {"partitioning/ks4xen", "partitioning/ucp"},
	"banking":      {"banking/none", "banking/bank4"},
}

// Reseed implements sweep.Seedable for the ablation suite.
func (s *AblationSweeper) Reseed(seed uint64) (sweep.Seedable, error) {
	return NewAblationSweeper(seed), nil
}

// MetricNames implements sweep.Seedable.
func (s *AblationSweeper) MetricNames() []string { return []string{"vsen1_norm"} }

// MetricRows implements sweep.Seedable: each study's A and B outcomes
// become separate arms sharing the one normalized-performance metric.
func (s *AblationSweeper) MetricRows() []sweep.MetricRow {
	if s.vals == nil {
		return nil
	}
	rows := make([]sweep.MetricRow, 0, 2*len(ablationArms))
	for i, arm := range ablationArms {
		names := ablationArmNames[arm.key]
		rows = append(rows,
			sweep.MetricRow{Arm: names[0], Values: []float64{s.vals[i].A}},
			sweep.MetricRow{Arm: names[1], Values: []float64{s.vals[i].B}},
		)
	}
	return rows
}

// SeedSweepTable renders a merged seed sweep as the arm x metric table
// the CLIs print: sample mean with its normal-approximation CI, and the
// p50/p95/p99 of the across-seed distribution with seeded-bootstrap
// CIs. Every number is a pure function of the merged result, so the
// rendering is bit-identical for every shard count.
func SeedSweepTable(r *sweep.SeedSweepResult) (Table, error) {
	if r == nil {
		return Table{}, fmt.Errorf("experiments: seed sweep has no merged result")
	}
	pct := int(100 * r.Confidence)
	t := Table{
		Title: fmt.Sprintf("Seed sweep: %s, %d seeds (base %d)", r.Sweep, r.Seeds, r.BaseSeed),
		Note: fmt.Sprintf("each metric aggregated across %d seeds; mean ± half-width of the %d%% normal-approximation CI; "+
			"pXX [lo, hi] = across-seed percentile with %d%% bootstrap CI (%d resamples, seed %d)",
			r.Seeds, pct, pct, r.Resamples, r.BootstrapSeed),
		Columns: []string{"arm", "metric", fmt.Sprintf("mean ± %d%% CI", pct), "p50", "p95", "p99"},
	}
	for _, arm := range r.Arms {
		for mi, metric := range r.Metrics {
			sum := arm.Summaries[mi]
			mci, err := sum.MeanCI(r.Confidence)
			if err != nil {
				return Table{}, fmt.Errorf("experiments: %s/%s: %w", arm.Arm, metric, err)
			}
			cells := []interface{}{arm.Arm, metric, stats.FormatMeanCI(sum.Mean(), mci.Halfwidth())}
			for _, p := range []float64{50, 95, 99} {
				point, err := sum.Percentile(p)
				if err != nil {
					return Table{}, fmt.Errorf("experiments: %s/%s p%v: %w", arm.Arm, metric, p, err)
				}
				ci, err := sum.PercentileCI(p, r.Confidence, r.Resamples, r.BootstrapSeed)
				if err != nil {
					return Table{}, fmt.Errorf("experiments: %s/%s p%v CI: %w", arm.Arm, metric, p, err)
				}
				cells = append(cells, fmt.Sprintf("%.3f [%.3f, %.3f]", point, ci.Lo, ci.Hi))
			}
			t.AddRow(cells...)
		}
	}
	return t, nil
}
