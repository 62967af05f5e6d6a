package result

import "testing"

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
	} {
		if q1, q2, q3 := Quartiles(c.xs); q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("Quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestSummarizeAveragesBestSamples(t *testing.T) {
	samples := []float64{5, 1, 4, 2, 3}
	if got := Summarize("events/s", true, samples).Value; got != 4 {
		t.Errorf("higher is better: value %v, want mean of 5, 4, 3 = 4", got)
	}
	if got := Summarize("s", false, samples).Value; got != 2 {
		t.Errorf("lower is better: value %v, want mean of 1, 2, 3 = 2", got)
	}
	if got := Summarize("s", false, []float64{7}).Value; got != 7 {
		t.Errorf("one sample: value %v, want 7", got)
	}
}
