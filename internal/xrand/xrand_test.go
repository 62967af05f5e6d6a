package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d/100 draws collided across seeds", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	r := New(7)
	c1 := r.Split()
	c2 := r.Split()
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("split children produced identical first draws")
	}
}

func TestUint64nBounds(t *testing.T) {
	f := func(seed uint64, n uint64) bool {
		if n == 0 {
			return New(seed).Uint64n(0) == 0
		}
		v := New(seed).Uint64n(n)
		return v < n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(3)
	if r.Intn(0) != 0 || r.Intn(-5) != 0 {
		t.Fatal("Intn of non-positive n must be 0")
	}
	for i := 0; i < 1000; i++ {
		if v := r.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d out of range", v)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(11)
	sum := 0.0
	const n = 10000
	for i := 0; i < n; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.02 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(13)
	hits := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.25) > 0.02 {
		t.Fatalf("Bool(0.25) hit rate = %v", frac)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(17)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("Perm not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestUniformity(t *testing.T) {
	// Chi-squared-ish sanity over 16 buckets.
	r := New(23)
	var buckets [16]int
	const n = 160000
	for i := 0; i < n; i++ {
		buckets[r.Uint64n(16)]++
	}
	for i, c := range buckets {
		if math.Abs(float64(c)-n/16) > n/16*0.05 {
			t.Fatalf("bucket %d count %d deviates more than 5%%", i, c)
		}
	}
}

func TestZeroValueUsable(t *testing.T) {
	var r Rand
	// Must not panic; first draws must still look random-ish.
	a, b := r.Uint64(), r.Uint64()
	if a == b {
		t.Fatal("zero-value generator repeated itself")
	}
}

func TestAdvanceMatchesDraws(t *testing.T) {
	for _, n := range []uint64{0, 1, 7, 1 << 20} {
		drawn, jumped := New(0xdecafbad), New(0xdecafbad)
		for i := uint64(0); i < n; i++ {
			drawn.Uint64()
		}
		jumped.Advance(n)
		if drawn.State() != jumped.State() {
			t.Fatalf("Advance(%d) state %#x, %d draws reach %#x", n, jumped.State(), n, drawn.State())
		}
		if a, b := drawn.Uint64(), jumped.Uint64(); a != b {
			t.Fatalf("after Advance(%d): next draw %#x, want %#x", n, b, a)
		}
	}
}
