// Package stats provides the small statistical toolkit the evaluation
// harness needs: central moments, normalization, rank correlation
// (Kendall's tau, used by the paper's Figure 4 analysis) and simple series
// containers for rendering paper-style tables.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty is returned by aggregations that require at least one sample.
var ErrEmpty = errors.New("stats: empty sample set")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(xs)))
}

// Min returns the smallest element of xs. It returns an error for an empty
// slice so callers cannot silently treat "no data" as zero.
func Min(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m, nil
}

// Max returns the largest element of xs.
func Max(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m, nil
}

// Percentile returns the p-th percentile of xs (p in [0, 100]) using
// linear interpolation between closest ranks — the estimator behind the
// fleet-wide p50/p95/p99 normalized-performance reports. xs is not
// modified. An empty sample set returns ErrEmpty.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if !(p >= 0 && p <= 100) { // inverted so NaN is rejected too
		return 0, fmt.Errorf("stats: percentile %v outside [0, 100]", p)
	}
	for _, x := range xs {
		if math.IsNaN(x) {
			// sort.Float64s leaves NaNs in unspecified positions, which
			// would silently corrupt every rank after them.
			return 0, fmt.Errorf("stats: percentile over NaN sample")
		}
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// DegradationPercent returns the slowdown of observed relative to baseline,
// in percent: 100 * (baseline - observed) / baseline for "higher is better"
// metrics such as IPC. A negative result means observed beat the baseline.
func DegradationPercent(baseline, observed float64) float64 {
	if baseline == 0 {
		return 0
	}
	return 100 * (baseline - observed) / baseline
}

// KendallTau computes Kendall's rank correlation coefficient (tau-a)
// between two orderings of the same item set.
//
// Each argument lists item identifiers from best to worst (the paper's o1,
// o2, o3 orderings of application aggressiveness). The result is in
// [-1, 1]: 1 means identical orderings, -1 means exactly reversed. An error
// is returned if the orderings are not permutations of each other or have
// fewer than two items.
func KendallTau(a, b []string) (float64, error) {
	n := len(a)
	if n != len(b) {
		return 0, fmt.Errorf("stats: orderings have different lengths %d and %d", n, len(b))
	}
	if n < 2 {
		return 0, fmt.Errorf("stats: need at least 2 items, got %d", n)
	}
	posB := make(map[string]int, n)
	for i, id := range b {
		if _, dup := posB[id]; dup {
			return 0, fmt.Errorf("stats: duplicate item %q in second ordering", id)
		}
		posB[id] = i
	}
	seen := make(map[string]bool, n)
	ranks := make([]int, n) // ranks[i] = position in b of the item at position i in a
	for i, id := range a {
		if seen[id] {
			return 0, fmt.Errorf("stats: duplicate item %q in first ordering", id)
		}
		seen[id] = true
		p, ok := posB[id]
		if !ok {
			return 0, fmt.Errorf("stats: item %q missing from second ordering", id)
		}
		ranks[i] = p
	}
	concordant, discordant := 0, 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if ranks[i] < ranks[j] {
				concordant++
			} else {
				discordant++
			}
		}
	}
	pairs := n * (n - 1) / 2
	return float64(concordant-discordant) / float64(pairs), nil
}

// RankByValue returns the item identifiers ordered by descending value
// (ties broken by identifier for determinism). It is used to turn measured
// aggressiveness or indicator values into an ordering for KendallTau.
func RankByValue(values map[string]float64) []string {
	ids := make([]string, 0, len(values))
	for id := range values {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		vi, vj := values[ids[i]], values[ids[j]]
		if vi != vj {
			return vi > vj
		}
		return ids[i] < ids[j]
	})
	return ids
}

// PearsonR returns the Pearson correlation coefficient between xs and ys.
// It is used to verify Figure 3's "degradation grows linearly with
// disruptor capacity" claim.
func PearsonR(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("stats: length mismatch %d vs %d", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return 0, fmt.Errorf("stats: need at least 2 points, got %d", len(xs))
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, errors.New("stats: zero variance input")
	}
	return sxy / math.Sqrt(sxx*syy), nil
}
