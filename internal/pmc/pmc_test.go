package pmc

import (
	"testing"
	"testing/quick"
)

func TestAddAndDelta(t *testing.T) {
	var a Counters
	a.Add(Counters{Instructions: 10, UnhaltedCycles: 20, LLCMisses: 3})
	a.Add(Counters{Instructions: 5, HaltedCycles: 7, LLCMisses: 1})
	if a.Instructions != 15 || a.UnhaltedCycles != 20 || a.HaltedCycles != 7 || a.LLCMisses != 4 {
		t.Fatalf("add wrong: %+v", a)
	}
	d := a.Delta(Counters{Instructions: 10, LLCMisses: 3})
	if d.Instructions != 5 || d.LLCMisses != 1 || d.UnhaltedCycles != 20 {
		t.Fatalf("delta wrong: %+v", d)
	}
}

func TestWallCycles(t *testing.T) {
	c := Counters{UnhaltedCycles: 70, HaltedCycles: 30}
	if c.WallCycles() != 100 {
		t.Fatalf("wall = %d", c.WallCycles())
	}
}

func TestIPC(t *testing.T) {
	if (Counters{}).IPC() != 0 {
		t.Fatal("zero cycles must give IPC 0")
	}
	c := Counters{Instructions: 50, UnhaltedCycles: 100}
	if c.IPC() != 0.5 {
		t.Fatalf("IPC = %v", c.IPC())
	}
}

func TestMPKI(t *testing.T) {
	if (Counters{}).MissesPerKiloInstr() != 0 {
		t.Fatal("zero instructions must give MPKI 0")
	}
	c := Counters{Instructions: 2000, LLCMisses: 4}
	if c.MissesPerKiloInstr() != 2 {
		t.Fatalf("MPKI = %v", c.MissesPerKiloInstr())
	}
}

func TestSampler(t *testing.T) {
	var src Counters
	s := NewSampler(&src)
	src.Add(Counters{Instructions: 100, LLCMisses: 5})
	if d := s.Peek(); d.Instructions != 100 {
		t.Fatalf("peek = %+v", d)
	}
	if d := s.Sample(); d.Instructions != 100 || d.LLCMisses != 5 {
		t.Fatalf("first sample = %+v", d)
	}
	src.Add(Counters{Instructions: 50})
	if d := s.Sample(); d.Instructions != 50 || d.LLCMisses != 0 {
		t.Fatalf("second sample = %+v", d)
	}
	if d := s.Sample(); d != (Counters{}) {
		t.Fatalf("idle sample = %+v, want zero", d)
	}
}

// Property: Delta inverts Add for monotonic counters.
func TestQuickAddDeltaInverse(t *testing.T) {
	f := func(a, b Counters) bool {
		sum := a
		sum.Add(b)
		return sum.Delta(a) == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: samples over a sequence of increments sum to the total.
func TestQuickSamplerConservation(t *testing.T) {
	f := func(incs []uint32) bool {
		var src Counters
		s := NewSampler(&src)
		var sampled, total uint64
		for _, inc := range incs {
			src.Add(Counters{Instructions: uint64(inc)})
			total += uint64(inc)
			sampled += s.Sample().Instructions
		}
		return sampled == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFoldFingerprint(t *testing.T) {
	a := Counters{Instructions: 1, LLCMisses: 2}
	b := Counters{Instructions: 1, LLCMisses: 2}
	if a.Fold(FoldSeed) != b.Fold(FoldSeed) {
		t.Fatal("equal counters must fold to equal hashes")
	}
	c := Counters{Instructions: 2, LLCMisses: 1}
	if a.Fold(FoldSeed) == c.Fold(FoldSeed) {
		t.Fatal("field swap must change the fold (fields are position-sensitive)")
	}
	if a.Fold(FoldSeed) == (Counters{}).Fold(FoldSeed) {
		t.Fatal("non-zero counters must not collide with the zero block")
	}
	// Chaining is order-sensitive: fold(a, then c) != fold(c, then a).
	if c.Fold(a.Fold(FoldSeed)) == a.Fold(c.Fold(FoldSeed)) {
		t.Fatal("fold chains must be order-sensitive")
	}
}

// FoldByte is FoldUint64 specialised to a single byte: the identity must
// hold for every byte value from any chain state, or every payload
// fingerprint and golden that switched to it would shift.
func TestFoldByteMatchesFoldUint64(t *testing.T) {
	p8 := uint64(1)
	for i := 0; i < 8; i++ {
		p8 *= foldPrime
	}
	if p8 != foldPrime8 {
		t.Fatalf("foldPrime8 = %#x, want foldPrime^8 = %#x", foldPrime8, p8)
	}
	// The chain states are FoldSeed, then 299 splitmix64 outputs from
	// a fixed seed, so they cover arbitrary bit patterns rather than
	// only states a fold can reach.
	h, state := FoldSeed, uint64(7)
	for i := 0; i < 300; i++ {
		for b := 0; b < 256; b++ {
			if got, want := FoldByte(h, byte(b)), FoldUint64(h, uint64(b)); got != want {
				t.Fatalf("h=%#x b=%#x: FoldByte %#x, FoldUint64 %#x", h, b, got, want)
			}
		}
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		h = z ^ z>>31
	}
}
