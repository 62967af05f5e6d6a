package experiments

// Seed sweeps: sweep.SeedSweeper replicates a sweep under consecutive
// RNG seeds, turning its single numbers into distributions with
// confidence intervals. The seedable sweeps carry their own hooks — an
// independent reseeded copy, the fixed metric list, and per-arm metric
// rows read off the merged result: FleetSweeper from its preset's
// metric list, Figure 4 and the ablations through figSweep's seedHook.
// SeedSweepTable is the one renderer behind `kyotosim -seeds` and
// `kyotobench -seeds`.

import (
	"fmt"

	"kyoto/internal/stats"
	"kyoto/internal/sweep"
)

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
