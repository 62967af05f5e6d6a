package experiments

// Every paper experiment is one sweep. An experiment is a list of arms —
// solo baselines, co-runner pairs, disruptor counts, scheduler arms —
// each an independent world, and a fold that turns the arms' outcomes
// into the figure. figSweep is that shape once: each arm is one job of
// a sweep.Sweep whose payload is the arm's outcome, and every cross-arm
// computation (normalizing by a solo baseline, ranking, correlating)
// happens in the fold. So any experiment runs in-process through
// sweep.Engine, or sharded across processes and merged, with the same
// bytes either way. The paper figures and the fleet sweeps (trace,
// migration, detection) alike are figSweeps; it is the package's only
// sweep.Sweep.

import (
	"encoding/json"
	"fmt"

	"kyoto/internal/sweep"
)

// Experiment is one kyotobench experiment: a sweep whose merged result
// renders as the paper's tables. figSweep implements it.
type Experiment interface {
	sweep.Sweep
	// Tables renders the merged result; it is nil until Merge ran.
	Tables() []Table
}

// figArm is one job of a figSweep: its key and the run producing its
// payload.
type figArm[P any] struct {
	key string
	run func() (P, error)
}

// figSweep is one experiment as a sweep: its arms, in plan order, each
// returning a payload P, and a fold of the payloads, in the same order,
// into the result R and its tables.
type figSweep[P, R any] struct {
	name string
	// config is the configuration the envelope digest covers: seedConfig
	// for a figure, traceConfig for a fleet sweep. Shards of different
	// configurations refuse to merge.
	config any
	arms   []figArm[P]
	fold   func(ps []P) (R, []Table, error)
	// workers caps the in-process job fan-out (0 = GOMAXPROCS).
	workers int
	// metrics, when set with metricRows and reseed, lets
	// sweep.SeedSweeper replicate the experiment under consecutive seeds
	// (kyotobench -seeds): the metric names, the per-arm metric rows of
	// a merged result, and the constructor of a reseeded copy.
	metrics    []string
	metricRows func(R) []sweep.MetricRow
	reseed     func(seed uint64) *figSweep[P, R]

	res    R
	tables []Table
}

// seedConfig is a figure's config digest: its seed, plus the fidelity
// tag off the exact tier.
type seedConfig struct {
	Seed     uint64 `json:"seed"`
	Fidelity string `json:"fidelity,omitempty"`
}

// scenarioArm is the arm that runs sc and reports read of its result.
func scenarioArm[P any](key string, sc Scenario, read func(Result) P) figArm[P] {
	return figArm[P]{key, func() (P, error) {
		r, err := Run(sc)
		if err != nil {
			var zero P
			return zero, err
		}
		return read(r), nil
	}}
}

// ipcArm is the arm whose payload is the named VM's IPC in sc: every
// solo baseline and most co-location cells.
func ipcArm(key string, sc Scenario, vm string) figArm[float64] {
	return scenarioArm(key, sc, func(r Result) float64 { return r.IPC(vm) })
}

// Name implements sweep.Sweep.
func (s *figSweep[P, R]) Name() string { return s.name }

// ConfigFingerprint implements sweep.ConfigFingerprinter: the digest of
// the JSON config. A marshal error degrades to a sentinel (still caught
// at merge: both sides would need the same failure).
func (s *figSweep[P, R]) ConfigFingerprint() string {
	data, err := json.Marshal(s.config)
	if err != nil {
		return "unmarshalable-config"
	}
	return sweep.FingerprintPayload(data)
}

// Plan implements sweep.Sweep: one job per arm.
func (s *figSweep[P, R]) Plan() []sweep.Job {
	jobs := make([]sweep.Job, len(s.arms))
	for i, a := range s.arms {
		jobs[i] = sweep.Job{Sweep: s.name, Key: a.key, Index: i}
	}
	return jobs
}

// Run implements sweep.Sweep.
func (s *figSweep[P, R]) Run(job sweep.Job) (json.RawMessage, error) {
	if job.Index < 0 || job.Index >= len(s.arms) || s.arms[job.Index].key != job.Key {
		return nil, fmt.Errorf("unknown job key %q", job.Key)
	}
	p, err := s.arms[job.Index].run()
	if err != nil {
		return nil, err
	}
	return json.Marshal(p)
}

// Merge implements sweep.Sweep: decode the payloads and fold them.
func (s *figSweep[P, R]) Merge(payloads []json.RawMessage) error {
	if len(payloads) != len(s.arms) {
		return fmt.Errorf("%s: %d payloads for %d arms", s.name, len(payloads), len(s.arms))
	}
	ps := make([]P, len(payloads))
	for i, raw := range payloads {
		if err := json.Unmarshal(raw, &ps[i]); err != nil {
			return fmt.Errorf("%s payload: %w", s.arms[i].key, err)
		}
	}
	res, tables, err := s.fold(ps)
	if err != nil {
		return err
	}
	s.res, s.tables = res, tables
	return nil
}

// Tables implements Experiment.
func (s *figSweep[P, R]) Tables() []Table { return s.tables }

// Result returns the folded result; it is the zero R until Merge ran.
func (s *figSweep[P, R]) Result() R { return s.res }

// runInProcess runs the sweep in-process and returns its folded result:
// the path behind every FigN function and fleet sweep.
func (s *figSweep[P, R]) runInProcess() (R, error) {
	if err := (sweep.Engine{Workers: s.workers}).Run(s); err != nil {
		var zero R
		return zero, err
	}
	return s.res, nil
}

// Reseed implements sweep.Seedable.
func (s *figSweep[P, R]) Reseed(seed uint64) (sweep.Seedable, error) {
	if s.reseed == nil {
		return nil, fmt.Errorf("experiments: %s reports no seed metrics", s.name)
	}
	return s.reseed(seed), nil
}

// MetricNames implements sweep.Seedable; it is empty for an experiment
// without seed metrics, which sweep.NewSeedSweeper refuses.
func (s *figSweep[P, R]) MetricNames() []string { return s.metrics }

// MetricRows implements sweep.Seedable.
func (s *figSweep[P, R]) MetricRows() []sweep.MetricRow {
	if s.metricRows == nil || s.tables == nil {
		return nil
	}
	return s.metricRows(s.res)
}
