package main

import (
	"testing"

	"kyoto/bench/result"
)

// runs builds one side: one results file per value, seeds 1, 2, ...
func runs(metric string, vals ...float64) side {
	s := make(side, len(vals))
	for i, v := range vals {
		s[i] = &result.File{Seed: uint64(i + 1), Metrics: map[string]result.Metric{metric: {Value: v}}}
	}
	return s
}

func TestJudge(t *testing.T) {
	rate := result.SpecMetric{Name: "events_per_s", Better: "higher", Bound: 0.1}
	steady := runs("events_per_s", 100, 101, 99, 100, 102, 98, 100, 101, 99, 100)
	cases := []struct {
		name   string
		change side
		want   string
	}{
		{"same", runs("events_per_s", 101, 100, 100, 99, 100, 99, 101, 100, 98, 102), "within bound"},
		{"faster in every pair", runs("events_per_s", 120, 121, 119, 120, 122, 118, 120, 121, 119, 120), "improved"},
		// 8 of 10 wins is not enough for a claim, and 5% is within bound.
		{"faster in 8 of 10", runs("events_per_s", 106, 106, 106, 106, 106, 106, 106, 106, 90, 90), "within bound"},
		{"slower past the bound", runs("events_per_s", 85, 86, 84, 85, 87, 83, 85, 86, 84, 85), "regressed"},
		{"noisy", runs("events_per_s", 70, 130, 80, 120, 100, 75, 125, 95, 105, 100), "unresolved"},
	}
	for _, c := range cases {
		if got := judge(rate, steady, c.change).label; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}

	// Lower-is-better metrics flip the direction.
	setup := result.SpecMetric{Name: "setup_s", Better: "lower", Bound: 0.2}
	if got := judge(setup, runs("setup_s", 1, 1, 1), runs("setup_s", 1.5, 1.5, 1.5)).label; got != "regressed" {
		t.Errorf("slower set-up: verdict %q, want regressed", got)
	}
}
