package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("mean of empty must be 0")
	}
	if !almost(Mean([]float64{1, 2, 3, 4}), 2.5) {
		t.Fatal("mean wrong")
	}
}

func TestStdDev(t *testing.T) {
	if StdDev([]float64{5}) != 0 {
		t.Fatal("stddev of singleton must be 0")
	}
	if !almost(StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9}), 2) {
		t.Fatalf("stddev = %v, want 2", StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9}))
	}
}

func TestMinMax(t *testing.T) {
	if _, err := Min(nil); err == nil {
		t.Fatal("Min of empty must error")
	}
	if _, err := Max(nil); err == nil {
		t.Fatal("Max of empty must error")
	}
	mn, _ := Min([]float64{3, -1, 2})
	mx, _ := Max([]float64{3, -1, 2})
	if mn != -1 || mx != 3 {
		t.Fatalf("min/max = %v/%v", mn, mx)
	}
}

func TestDegradationPercent(t *testing.T) {
	if !almost(DegradationPercent(2, 1), 50) {
		t.Fatal("50% degradation expected")
	}
	if !almost(DegradationPercent(2, 2), 0) {
		t.Fatal("0% expected")
	}
	if DegradationPercent(0, 1) != 0 {
		t.Fatal("zero baseline must not blow up")
	}
	if DegradationPercent(1, 2) >= 0 {
		t.Fatal("improvement must be negative")
	}
}

func TestKendallTauIdentical(t *testing.T) {
	o := []string{"a", "b", "c", "d"}
	tau, err := KendallTau(o, o)
	if err != nil || !almost(tau, 1) {
		t.Fatalf("tau = %v err %v, want 1", tau, err)
	}
}

func TestKendallTauReversed(t *testing.T) {
	tau, err := KendallTau([]string{"a", "b", "c", "d"}, []string{"d", "c", "b", "a"})
	if err != nil || !almost(tau, -1) {
		t.Fatalf("tau = %v err %v, want -1", tau, err)
	}
}

func TestKendallTauPaperValues(t *testing.T) {
	// The paper's Figure 4 orderings: tau(o2,o1) and tau(o3,o1).
	o1 := []string{"blockie", "lbm", "mcf", "soplex", "milc", "omnetpp", "gcc", "xalan", "astar", "bzip"}
	o2 := []string{"milc", "lbm", "soplex", "mcf", "blockie", "gcc", "omnetpp", "xalan", "astar", "bzip"}
	o3 := []string{"lbm", "blockie", "milc", "mcf", "soplex", "gcc", "omnetpp", "xalan", "astar", "bzip"}
	t2, err := KendallTau(o2, o1)
	if err != nil {
		t.Fatal(err)
	}
	t3, err := KendallTau(o3, o1)
	if err != nil {
		t.Fatal(err)
	}
	if !(t3 > t2) {
		t.Fatalf("paper requires tau(o3,o1)=%v > tau(o2,o1)=%v", t3, t2)
	}
	if math.Abs(t2-0.6) > 1e-9 || math.Abs(t3-(37.0/45))*45 > 1e-6 {
		t.Fatalf("taus = %v, %v; want 0.600 and %v", t2, t3, 37.0/45)
	}
}

func TestKendallTauErrors(t *testing.T) {
	if _, err := KendallTau([]string{"a"}, []string{"a"}); err == nil {
		t.Fatal("single item must error")
	}
	if _, err := KendallTau([]string{"a", "b"}, []string{"a"}); err == nil {
		t.Fatal("length mismatch must error")
	}
	if _, err := KendallTau([]string{"a", "b"}, []string{"a", "c"}); err == nil {
		t.Fatal("different item sets must error")
	}
	if _, err := KendallTau([]string{"a", "a"}, []string{"a", "b"}); err == nil {
		t.Fatal("duplicates must error")
	}
	if _, err := KendallTau([]string{"a", "b"}, []string{"b", "b"}); err == nil {
		t.Fatal("duplicates in second must error")
	}
}

func TestKendallTauSymmetricRange(t *testing.T) {
	f := func(seed int64) bool {
		// Build a deterministic shuffle of 6 items from the seed.
		items := []string{"a", "b", "c", "d", "e", "f"}
		shuffled := append([]string(nil), items...)
		s := uint64(seed)
		for i := len(shuffled) - 1; i > 0; i-- {
			s = s*6364136223846793005 + 1442695040888963407
			j := int(s % uint64(i+1))
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		}
		tau1, err1 := KendallTau(items, shuffled)
		tau2, err2 := KendallTau(shuffled, items)
		if err1 != nil || err2 != nil {
			return false
		}
		return almost(tau1, tau2) && tau1 >= -1 && tau1 <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRankByValue(t *testing.T) {
	order := RankByValue(map[string]float64{"a": 1, "b": 3, "c": 2})
	if order[0] != "b" || order[1] != "c" || order[2] != "a" {
		t.Fatalf("order = %v", order)
	}
	// Ties broken lexicographically for determinism.
	order = RankByValue(map[string]float64{"z": 1, "y": 1, "x": 1})
	if order[0] != "x" || order[2] != "z" {
		t.Fatalf("tie order = %v", order)
	}
}

func TestPearsonR(t *testing.T) {
	r, err := PearsonR([]float64{1, 2, 3}, []float64{2, 4, 6})
	if err != nil || !almost(r, 1) {
		t.Fatalf("perfect correlation: r = %v err %v", r, err)
	}
	r, err = PearsonR([]float64{1, 2, 3}, []float64{6, 4, 2})
	if err != nil || !almost(r, -1) {
		t.Fatalf("perfect anti-correlation: r = %v err %v", r, err)
	}
	if _, err := PearsonR([]float64{1}, []float64{1}); err == nil {
		t.Fatal("too few points must error")
	}
	if _, err := PearsonR([]float64{1, 1}, []float64{1, 2}); err == nil {
		t.Fatal("zero variance must error")
	}
	if _, err := PearsonR([]float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("length mismatch must error")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if _, err := Percentile(nil, 50); err == nil {
		t.Fatal("empty sample must error")
	}
	if _, err := Percentile(xs, 101); err == nil {
		t.Fatal("out-of-range p must error")
	}
	for _, tc := range []struct{ p, want float64 }{
		{0, 1}, {100, 4}, {50, 2.5}, {25, 1.75},
	} {
		got, err := Percentile(xs, tc.p)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Fatalf("p%v = %v, want %v", tc.p, got, tc.want)
		}
	}
	if xs[0] != 4 {
		t.Fatal("Percentile must not reorder its input")
	}
	one, _ := Percentile([]float64{7}, 99)
	if one != 7 {
		t.Fatalf("single sample p99 = %v", one)
	}
}

func TestPercentileRejectsNaN(t *testing.T) {
	if _, err := Percentile([]float64{1, 2}, math.NaN()); err == nil {
		t.Fatal("NaN percentile must error, not panic")
	}
}
