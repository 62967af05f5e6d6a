package sweep

// Seed sweeps: the same experiment repeated under many RNG seeds, with
// per-metric distributions instead of single numbers. A SeedSweeper
// wraps any Seedable sweep and is itself a Sweep, so the whole seed
// grid rides the existing shard machinery — plan, envelopes, merge —
// and a 1000-seed run fans out across processes exactly like any other
// sweep. At merge time each seed's payloads are folded by that seed's
// inner sweep and its metrics accumulate into stats.Summary multisets,
// whose merge-order insensitivity makes the final means, percentiles
// and confidence intervals bit-identical for every shard count.

import (
	"encoding/json"
	"fmt"

	"kyoto/internal/stats"
)

// MetricRow is one arm's metric values for a single seed, aligned with
// the owning sweep's MetricNames.
type MetricRow struct {
	// Arm identifies the experiment arm, e.g. "kyoto" or "kyoto/reactive".
	Arm string
	// Values holds one value per metric name, in MetricNames order.
	Values []float64
}

// Seedable is a sweep that can be replicated under a different RNG seed
// and report scalar metrics after merging. Implementations live in
// internal/experiments (the fleet sweeps, Figure 4, the ablations).
type Seedable interface {
	Sweep
	// Reseed returns an independent copy of this sweep configured to run
	// under the given seed; everything else about the configuration is
	// identical. The copy's plan must have the same length, keys and
	// order as the original's.
	Reseed(seed uint64) (Seedable, error)
	// MetricNames lists the scalar metrics this sweep reports after
	// Merge, in a fixed order (e.g. "p99_norm", "rej_rate").
	MetricNames() []string
	// MetricRows reports, after Merge, one row per experiment arm with
	// one value per metric name. Arms must appear in the same order for
	// every reseeded copy.
	MetricRows() []MetricRow
}

// SeedSweepConfig parameterizes a SeedSweeper.
type SeedSweepConfig struct {
	// Seeds is the number of replications; required, >= 1.
	Seeds int
	// BaseSeed is the first seed; replication i runs under BaseSeed+i.
	// Defaults to 1; 0 is rejected because some sweeps normalize seed 0
	// to 1, which would alias the first two replications.
	BaseSeed uint64
	// Confidence is the two-sided CI level for reported intervals.
	// Defaults to 0.95.
	Confidence float64
	// Resamples is the bootstrap replication count for percentile CIs.
	// Defaults to stats.DefaultBootstrapResamples.
	Resamples int
	// BootstrapSeed seeds the bootstrap resampler. Defaults to 1.
	BootstrapSeed uint64
}

// withDefaults validates and fills in the defaulted fields.
func (c SeedSweepConfig) withDefaults() (SeedSweepConfig, error) {
	if c.Seeds < 1 {
		return c, fmt.Errorf("seed sweep: seeds must be >= 1, got %d", c.Seeds)
	}
	if c.BaseSeed == 0 {
		c.BaseSeed = 1
	}
	if c.Confidence == 0 {
		c.Confidence = 0.95
	}
	if !(c.Confidence > 0 && c.Confidence < 1) {
		return c, fmt.Errorf("seed sweep: confidence %v outside (0, 1)", c.Confidence)
	}
	if c.Resamples == 0 {
		c.Resamples = stats.DefaultBootstrapResamples
	}
	if c.Resamples < 1 {
		return c, fmt.Errorf("seed sweep: resamples must be >= 1, got %d", c.Resamples)
	}
	if c.BootstrapSeed == 0 {
		c.BootstrapSeed = 1
	}
	return c, nil
}

// SeedSweepArm is one experiment arm's per-metric sample distributions
// across all seeds.
type SeedSweepArm struct {
	// Arm echoes the inner sweep's arm identity.
	Arm string `json:"arm"`
	// Summaries holds one Summary per metric, aligned with
	// SeedSweepResult.Metrics. Each Summary has exactly Seeds samples.
	Summaries []stats.Summary `json:"summaries"`
}

// SeedSweepResult is the merged outcome of a seed sweep: for every
// (arm, metric) pair, the full distribution of that metric over the
// seeds, ready for mean/percentile/CI queries.
type SeedSweepResult struct {
	// Sweep names the inner sweep that was replicated.
	Sweep string `json:"sweep"`
	// BaseSeed, Seeds, Confidence, Resamples and BootstrapSeed echo the
	// configuration the statistics were computed under.
	Seeds         int     `json:"seeds"`
	BaseSeed      uint64  `json:"base_seed"`
	Confidence    float64 `json:"confidence"`
	Resamples     int     `json:"resamples"`
	BootstrapSeed uint64  `json:"bootstrap_seed"`
	// Metrics lists the metric names, defining the Summaries order of
	// every arm.
	Metrics []string `json:"metrics"`
	// Arms holds one entry per experiment arm, in the inner sweep's
	// canonical arm order.
	Arms []SeedSweepArm `json:"arms"`
}

// Arm returns the named arm's distributions, or an error if absent.
func (r *SeedSweepResult) Arm(name string) (SeedSweepArm, error) {
	for _, a := range r.Arms {
		if a.Arm == name {
			return a, nil
		}
	}
	return SeedSweepArm{}, fmt.Errorf("seed sweep: no arm %q", name)
}

// Metric returns the named metric's Summary for the given arm.
func (r *SeedSweepResult) Metric(arm, metric string) (stats.Summary, error) {
	a, err := r.Arm(arm)
	if err != nil {
		return stats.Summary{}, err
	}
	for i, m := range r.Metrics {
		if m == metric {
			return a.Summaries[i], nil
		}
	}
	return stats.Summary{}, fmt.Errorf("seed sweep: no metric %q", metric)
}

// SeedSweeper replicates a Seedable sweep across consecutive seeds and
// aggregates its metrics into distributions. It is itself a Sweep: the
// plan is the concatenation of every seed's inner plan in seed-major
// order, so shards cut across seeds and arms alike.
type SeedSweeper struct {
	cfg    SeedSweepConfig
	proto  Seedable
	inners []Seedable // one reseeded copy per replication
	plan   []Job      // inners[0]'s plan, the template for all seeds
	res    *SeedSweepResult
}

// NewSeedSweeper builds a seed sweep over the given prototype. The
// prototype itself is never run; replication i runs a Reseed copy under
// seed BaseSeed+i.
func NewSeedSweeper(proto Seedable, cfg SeedSweepConfig) (*SeedSweeper, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if len(proto.MetricNames()) == 0 {
		return nil, fmt.Errorf("seed sweep: sweep %s reports no metrics", proto.Name())
	}
	s := &SeedSweeper{cfg: cfg, proto: proto, inners: make([]Seedable, cfg.Seeds)}
	for i := range s.inners {
		inner, err := proto.Reseed(cfg.BaseSeed + uint64(i))
		if err != nil {
			return nil, fmt.Errorf("seed sweep: reseed %d: %w", cfg.BaseSeed+uint64(i), err)
		}
		s.inners[i] = inner
	}
	s.plan = s.inners[0].Plan()
	if len(s.plan) == 0 {
		return nil, fmt.Errorf("seed sweep: sweep %s plans no jobs", proto.Name())
	}
	for i := 1; i < len(s.inners); i++ {
		p := s.inners[i].Plan()
		if len(p) != len(s.plan) {
			return nil, fmt.Errorf("seed sweep: reseeded plan has %d jobs, seed %d has %d", len(p), cfg.BaseSeed, len(s.plan))
		}
		for j := range p {
			if p[j].Key != s.plan[j].Key {
				return nil, fmt.Errorf("seed sweep: reseeded plan job %d is %q, seed %d has %q", j, p[j].Key, cfg.BaseSeed, s.plan[j].Key)
			}
		}
	}
	return s, nil
}

// Name identifies the seed sweep by its inner sweep.
func (s *SeedSweeper) Name() string { return "seed-sweep/" + s.proto.Name() }

// Plan enumerates Seeds x len(inner plan) jobs in seed-major order. Job
// keys are "seed/<seed>/<inner key>"; the round-robin shard partition
// therefore interleaves seeds and arms across shards.
func (s *SeedSweeper) Plan() []Job {
	inner := len(s.plan)
	plan := make([]Job, 0, s.cfg.Seeds*inner)
	for i := 0; i < s.cfg.Seeds; i++ {
		seed := s.cfg.BaseSeed + uint64(i)
		for j, job := range s.plan {
			params := map[string]string{"seed": fmt.Sprint(seed)}
			for k, v := range job.Params {
				params[k] = v
			}
			plan = append(plan, Job{
				Sweep:  s.Name(),
				Key:    fmt.Sprintf("seed/%d/%s", seed, job.Key),
				Index:  i*inner + j,
				Seed:   seed,
				Params: params,
			})
		}
	}
	return plan
}

// Run executes one job by delegating to the owning seed's inner sweep.
// Safe for concurrent use when the inner sweep's Run is (the Sweep
// contract): the inner copies are built eagerly in NewSeedSweeper, so
// Run only reads shared state.
func (s *SeedSweeper) Run(job Job) (json.RawMessage, error) {
	inner := len(s.plan)
	if job.Index < 0 || job.Index >= s.cfg.Seeds*inner {
		return nil, fmt.Errorf("seed sweep: job index %d out of range", job.Index)
	}
	rep, j := job.Index/inner, job.Index%inner
	return s.inners[rep].Run(s.inners[rep].Plan()[j])
}

// Merge splits the payloads into per-seed blocks, folds each block with
// its seed's inner sweep, and accumulates the inner metric rows into
// per-(arm, metric) Summaries. Payloads arrive in plan order (the Merge
// contract), so every statistic is computed from the identical sample
// multiset whatever the shard count was.
func (s *SeedSweeper) Merge(payloads []json.RawMessage) error {
	inner := len(s.plan)
	if len(payloads) != s.cfg.Seeds*inner {
		return fmt.Errorf("seed sweep: %d payloads, want %d", len(payloads), s.cfg.Seeds*inner)
	}
	res := &SeedSweepResult{
		Sweep:         s.proto.Name(),
		Seeds:         s.cfg.Seeds,
		BaseSeed:      s.cfg.BaseSeed,
		Confidence:    s.cfg.Confidence,
		Resamples:     s.cfg.Resamples,
		BootstrapSeed: s.cfg.BootstrapSeed,
		Metrics:       append([]string(nil), s.proto.MetricNames()...),
	}
	armIndex := make(map[string]int)
	// Samples are collected per (arm, metric) in seed order and folded
	// with one batched AddAll per cell at the end: a single linear merge
	// instead of Seeds repeated sorted insertions (which are quadratic in
	// the seed count), bit-identical to the sequential Adds by AddAll's
	// contract.
	var samples [][][]float64
	for i := 0; i < s.cfg.Seeds; i++ {
		if err := s.inners[i].Merge(payloads[i*inner : (i+1)*inner]); err != nil {
			return fmt.Errorf("seed sweep: seed %d: %w", s.cfg.BaseSeed+uint64(i), err)
		}
		rows := s.inners[i].MetricRows()
		if i == 0 {
			for _, row := range rows {
				if _, dup := armIndex[row.Arm]; dup {
					return fmt.Errorf("seed sweep: duplicate arm %q", row.Arm)
				}
				armIndex[row.Arm] = len(res.Arms)
				res.Arms = append(res.Arms, SeedSweepArm{
					Arm:       row.Arm,
					Summaries: make([]stats.Summary, len(res.Metrics)),
				})
				cells := make([][]float64, len(res.Metrics))
				for mi := range cells {
					cells[mi] = make([]float64, 0, s.cfg.Seeds)
				}
				samples = append(samples, cells)
			}
		}
		if len(rows) != len(res.Arms) {
			return fmt.Errorf("seed sweep: seed %d reports %d arms, seed %d reported %d", s.cfg.BaseSeed+uint64(i), len(rows), s.cfg.BaseSeed, len(res.Arms))
		}
		for _, row := range rows {
			ai, ok := armIndex[row.Arm]
			if !ok {
				return fmt.Errorf("seed sweep: seed %d reports unknown arm %q", s.cfg.BaseSeed+uint64(i), row.Arm)
			}
			if len(row.Values) != len(res.Metrics) {
				return fmt.Errorf("seed sweep: arm %q reports %d values for %d metrics", row.Arm, len(row.Values), len(res.Metrics))
			}
			for mi, v := range row.Values {
				samples[ai][mi] = append(samples[ai][mi], v)
			}
		}
	}
	for ai := range res.Arms {
		for mi := range res.Arms[ai].Summaries {
			if err := res.Arms[ai].Summaries[mi].AddAll(samples[ai][mi]...); err != nil {
				return fmt.Errorf("seed sweep: arm %q metric %q: %w", res.Arms[ai].Arm, res.Metrics[mi], err)
			}
		}
	}
	s.res = res
	return nil
}

// Result returns the merged statistics, or nil before Merge.
func (s *SeedSweeper) Result() *SeedSweepResult { return s.res }

// ConfigFingerprint digests the seed-sweep configuration together with
// the inner sweep's own configuration digest, so shards run under
// different seed counts, base seeds or inner flags refuse to merge.
func (s *SeedSweeper) ConfigFingerprint() string {
	spec, _ := json.Marshal(struct {
		Sweep    string `json:"sweep"`
		Seeds    int    `json:"seeds"`
		BaseSeed uint64 `json:"base_seed"`
		Inner    string `json:"inner"`
	}{s.proto.Name(), s.cfg.Seeds, s.cfg.BaseSeed, configFingerprint(s.proto)})
	return FingerprintPayload(spec)
}
