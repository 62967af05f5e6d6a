// Package result is the replay benchmark's file format and arithmetic:
// the BENCHMARK.json spec, the per-run results file, and the quartile
// summary both the benchmark and the comparator report. Quartiles follow
// Python's statistics.quantiles(values, n=4) (the "exclusive" method), so
// a spread computed here matches one computed by any script that reads
// the same values.
package result

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// SpecMetric is one metric declared in BENCHMARK.json.
type SpecMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// Spec is the part of BENCHMARK.json the benchmark and the comparator
// read.
type Spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []SpecMetric `json:"end_to_end"`
	PerLayer []SpecMetric `json:"per_layer"`
}

// LoadSpec reads a BENCHMARK.json file.
func LoadSpec(path string) (*Spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// BestOf is how many of a run's best repetitions its reported value
// averages. Load from outside the process only ever slows a replay
// down, for stretches of seconds to minutes, so a run's fastest
// repetitions estimate the program's own speed, while its median moves
// with how much of the run the host was busy.
const BestOf = 3

// Metric is one metric of one run: the value it reports and the summary
// of the per-repetition samples behind it (a single sample for the
// traced run's per-layer numbers).
type Metric struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	IQR    float64   `json:"iqr"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	N      int       `json:"n"`
	Values []float64 `json:"values,omitempty"`
}

// Summarize reports the mean of the BestOf best samples (the highest
// when higher is better, else the lowest; all of them when there are
// fewer), with the samples' median, quartile spread, extremes and count.
func Summarize(unit string, higherBetter bool, samples []float64) Metric {
	m := Metric{Unit: unit, N: len(samples), Values: append([]float64(nil), samples...)}
	if len(samples) == 0 {
		return m
	}
	best := append([]float64(nil), samples...)
	sort.Float64s(best)
	if higherBetter {
		best = best[max(0, len(best)-BestOf):]
	} else {
		best = best[:min(len(best), BestOf)]
	}
	for _, v := range best {
		m.Value += v / float64(len(best))
	}
	q1, q2, q3 := Quartiles(samples)
	m.Median, m.IQR = q2, q3-q1
	m.Min, m.Max = math.Inf(1), math.Inf(-1)
	for _, v := range samples {
		m.Min = math.Min(m.Min, v)
		m.Max = math.Max(m.Max, v)
	}
	return m
}

// Quartiles returns the three cut points of statistics.quantiles(xs,
// n=4) under Python's default exclusive method; with a single sample all
// three are that sample.
func Quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n := len(d)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return d[0], d[0], d[0]
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// Median returns the middle quartile.
func Median(xs []float64) float64 {
	_, m, _ := Quartiles(xs)
	return m
}

// Provenance says where and how a results file was measured.
type Provenance struct {
	Commit     string `json:"commit"`
	Dirty      bool   `json:"dirty"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Seed       uint64 `json:"seed"`
	Reps       int    `json:"reps"`
}

// LedgerRow is one span name's share of a traced replay.
type LedgerRow struct {
	Name  string  `json:"name"`
	Count int     `json:"count"`
	SelfS float64 `json:"self_s"`
}

// Ledger splits the traced run's wall time into span self times plus a
// residual: the rows' SelfS and ResidualS add up to WallS.
type Ledger struct {
	WallS     float64     `json:"wall_s"`
	Rows      []LedgerRow `json:"rows"`
	ResidualS float64     `json:"residual_s"`
}

// File is one benchmark invocation's results: one workload at one seed.
type File struct {
	Workload   string            `json:"workload"`
	Seed       uint64            `json:"seed"`
	Seconds    int               `json:"seconds"`
	Trace      bool              `json:"trace"`
	Provenance Provenance        `json:"provenance"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Metrics    map[string]Metric `json:"metrics"`
	Ledger     *Ledger           `json:"ledger,omitempty"`
}

// Load reads a results file.
func Load(path string) (*File, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}
