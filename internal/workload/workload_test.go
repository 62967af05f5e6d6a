package workload

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"kyoto/internal/xrand"
)

func chasePhase(wss int, ratio float64) Phase {
	return Phase{Kind: Chase, WSSBytes: wss, MemRatio: ratio, Instructions: 100_000}
}

func testProfile(phases ...Phase) Profile {
	return Profile{Name: "test", Class: C2, BaseCPI: 1, Phases: phases}
}

func TestPhaseValidate(t *testing.T) {
	tests := []struct {
		name string
		ph   Phase
		ok   bool
	}{
		{"chase ok", chasePhase(4096, 0.5), true},
		{"zero wss", Phase{Kind: Chase, MemRatio: 0.5, Instructions: 1}, false},
		{"zero memratio", Phase{Kind: Chase, WSSBytes: 64, Instructions: 1}, false},
		{"memratio > 1", Phase{Kind: Chase, WSSBytes: 64, MemRatio: 1.5, Instructions: 1}, false},
		{"compute with memratio", Phase{Kind: Compute, MemRatio: 0.5, Instructions: 1}, false},
		{"compute ok", Phase{Kind: Compute, Instructions: 1}, true},
		{"zero instructions", Phase{Kind: Compute}, false},
		{"halt 1.0", Phase{Kind: Compute, HaltFrac: 1, Instructions: 1}, false},
		{"bad writes", Phase{Kind: Chase, WSSBytes: 64, MemRatio: 0.5, Writes: 2, Instructions: 1}, false},
		{"bad mlp", Phase{Kind: Chase, WSSBytes: 64, MemRatio: 0.5, MLP: 100, Instructions: 1}, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.ph.Validate()
			if tc.ok && err != nil {
				t.Fatalf("want ok, got %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("want error")
			}
		})
	}
}

func TestProfileValidate(t *testing.T) {
	if err := (Profile{}).Validate(); err == nil {
		t.Fatal("empty profile must not validate")
	}
	if err := (Profile{Name: "x", BaseCPI: 1}).Validate(); err == nil {
		t.Fatal("no phases must not validate")
	}
	if err := (Profile{Name: "x", Phases: []Phase{chasePhase(64, 0.5)}}).Validate(); err == nil {
		t.Fatal("zero CPI must not validate")
	}
	if err := testProfile(chasePhase(4096, 0.5)).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMemRatioIsHonoured(t *testing.T) {
	for _, ratio := range []float64{0.1, 0.25, 0.5, 0.9, 1.0} {
		g := MustNew(testProfile(chasePhase(64*1024, ratio)), 1)
		var instrs, accesses uint64
		for i := 0; i < 20000; i++ {
			st := g.Next()
			instrs += uint64(st.Instrs)
			if st.HasAccess {
				accesses++
			}
		}
		got := float64(accesses) / float64(instrs)
		if math.Abs(got-ratio) > 0.02 {
			t.Fatalf("ratio %v: measured %v", ratio, got)
		}
	}
}

func TestChaseVisitsWholeWorkingSet(t *testing.T) {
	const wss = 64 * 64 // 64 lines
	g := MustNew(testProfile(chasePhase(wss, 1.0)), 3)
	seen := make(map[uint64]bool)
	for i := 0; i < 64; i++ {
		st := g.Next()
		if !st.HasAccess {
			t.Fatal("MemRatio 1 must access every step")
		}
		if st.Addr >= wss {
			t.Fatalf("address %#x outside working set", st.Addr)
		}
		seen[st.Addr/64] = true
	}
	if len(seen) != 64 {
		t.Fatalf("chase visited %d/64 lines in one period", len(seen))
	}
}

func TestStreamWrapsAndStrides(t *testing.T) {
	ph := Phase{Kind: Stream, WSSBytes: 4 * 64, StrideBytes: 64, MemRatio: 1, Instructions: 100}
	g := MustNew(testProfile(ph), 1)
	want := []uint64{0, 64, 128, 192, 0, 64}
	for i, w := range want {
		st := g.Next()
		if st.Addr != w {
			t.Fatalf("step %d addr = %d, want %d", i, st.Addr, w)
		}
	}
}

func TestStridedConcentratesSets(t *testing.T) {
	// Stride 1024 over 64KB: line indexes are multiples of 16.
	ph := Phase{Kind: Strided, WSSBytes: 64 * 1024, StrideBytes: 1024, MemRatio: 1, Instructions: 10_000}
	g := MustNew(testProfile(ph), 1)
	for i := 0; i < 200; i++ {
		st := g.Next()
		if (st.Addr/64)%16 != 0 {
			t.Fatalf("strided address %#x not on stride grid", st.Addr)
		}
	}
}

func TestUniformRandomStaysInWSS(t *testing.T) {
	ph := Phase{Kind: UniformRandom, WSSBytes: 128 * 64, MemRatio: 1, Instructions: 10_000}
	g := MustNew(testProfile(ph), 9)
	for i := 0; i < 1000; i++ {
		st := g.Next()
		if st.Addr >= 128*64 {
			t.Fatalf("address %#x outside working set", st.Addr)
		}
	}
}

func TestPhaseCyclingAndPersistence(t *testing.T) {
	// Stream phase resumes where it left off across phase switches.
	stream := Phase{Kind: Stream, WSSBytes: 1 << 20, StrideBytes: 64, MemRatio: 1, Instructions: 4}
	compute := Phase{Kind: Compute, Instructions: 8}
	g := MustNew(testProfile(stream, compute), 1)
	var addrs []uint64
	for len(addrs) < 8 {
		st := g.Next()
		if st.HasAccess {
			addrs = append(addrs, st.Addr)
		}
	}
	for i := 1; i < len(addrs); i++ {
		if addrs[i] != addrs[i-1]+64 {
			t.Fatalf("stream did not persist across phases: %v", addrs)
		}
	}
}

func TestHaltFracPropagates(t *testing.T) {
	ph := chasePhase(4096, 0.5)
	ph.HaltFrac = 0.25
	g := MustNew(testProfile(ph), 1)
	if st := g.Next(); st.HaltFrac != 0.25 {
		t.Fatalf("HaltFrac = %v", st.HaltFrac)
	}
}

func TestWritesFraction(t *testing.T) {
	ph := chasePhase(4096, 1.0)
	ph.Writes = 0.5
	g := MustNew(testProfile(ph), 5)
	writes := 0
	const n = 4000
	for i := 0; i < n; i++ {
		if g.Next().IsWrite {
			writes++
		}
	}
	if frac := float64(writes) / n; math.Abs(frac-0.5) > 0.05 {
		t.Fatalf("write fraction = %v", frac)
	}
}

func TestDeterministicStreams(t *testing.T) {
	p := MustLookup("gcc")
	a := MustNew(p, 42)
	b := MustNew(p, 42)
	for i := 0; i < 10000; i++ {
		if a.Next() != b.Next() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
}

func TestSeedsDiverge(t *testing.T) {
	p := MustLookup("mcf")
	a := MustNew(p, 1)
	b := MustNew(p, 2)
	same := true
	for i := 0; i < 100; i++ {
		if a.Next().Addr != b.Next().Addr {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical address streams")
	}
}

func TestBuiltinProfilesValid(t *testing.T) {
	for _, name := range Names() {
		p := MustLookup(name)
		if err := p.Validate(); err != nil {
			t.Fatalf("profile %s: %v", name, err)
		}
		g := MustNew(p, 7)
		var instrs uint64
		for i := 0; i < 1000; i++ {
			st := g.Next()
			if st.Instrs == 0 {
				t.Fatalf("profile %s emitted zero-instruction step", name)
			}
			instrs += uint64(st.Instrs)
		}
		if instrs == 0 {
			t.Fatalf("profile %s made no progress", name)
		}
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, err := Lookup("no-such-app"); err == nil {
		t.Fatal("unknown profile must error")
	}
}

func TestFigure4AppsAreProfiles(t *testing.T) {
	for _, name := range Figure4Apps() {
		if _, err := Lookup(name); err != nil {
			t.Fatalf("figure-4 app %s missing: %v", name, err)
		}
	}
	if len(Figure4Apps()) != 10 {
		t.Fatalf("figure 4 needs 10 apps, have %d", len(Figure4Apps()))
	}
}

func TestPaperOrdersArePermutations(t *testing.T) {
	base := map[string]bool{}
	for _, a := range Figure4Apps() {
		base[a] = true
	}
	for _, order := range [][]string{PaperOrderO1(), PaperOrderO2(), PaperOrderO3()} {
		if len(order) != len(base) {
			t.Fatalf("order length %d", len(order))
		}
		seen := map[string]bool{}
		for _, a := range order {
			if !base[a] || seen[a] {
				t.Fatalf("order %v not a permutation", order)
			}
			seen[a] = true
		}
	}
}

func TestClassString(t *testing.T) {
	if C1.String() != "C1" || C3.String() != "C3" {
		t.Fatal("class labels wrong")
	}
}

func TestMaxWSS(t *testing.T) {
	p := testProfile(chasePhase(100, 0.5), Phase{Kind: Stream, WSSBytes: 500, MemRatio: 0.5, Instructions: 10})
	if p.MaxWSSBytes() != 500 {
		t.Fatalf("max wss = %d", p.MaxWSSBytes())
	}
}

// Property: sattolo chains are single cycles covering every line.
func TestQuickSattoloSingleCycle(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%200) + 2
		wss := n * 64
		g := MustNew(testProfile(chasePhase(wss, 1.0)), seed)
		seen := make(map[uint64]bool, n)
		for i := 0; i < n; i++ {
			st := g.Next()
			if seen[st.Addr] {
				return false // revisited before covering the cycle
			}
			seen[st.Addr] = true
		}
		return len(seen) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkWorkloadGen measures step-stream generation for the profiles
// the evaluation leans on hardest: a memory-heavy phase mix (gcc), a pure
// streamer (lbm), and a compute-dominated app (povray).
//
// The new/<app> cases time construction alone. Chase chains are built on
// a phase's first access, not in New, so construction stays a handful of
// allocations whatever the working set (CI gates their allocs/op):
// gcc and povray have Chase phases, mcf has none.
func BenchmarkWorkloadGen(b *testing.B) {
	for _, app := range []string{"gcc", "mcf", "povray"} {
		b.Run("new/"+app, func(b *testing.B) {
			p, err := Lookup(app)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MustNew(p, uint64(i))
			}
		})
	}
	for _, app := range []string{"gcc", "lbm", "povray"} {
		b.Run(app, func(b *testing.B) {
			p, err := Lookup(app)
			if err != nil {
				b.Fatal(err)
			}
			g := MustNew(p, 1)
			b.ReportAllocs()
			b.ResetTimer()
			var instrs uint64
			for i := 0; i < b.N; i++ {
				instrs += uint64(g.Next().Instrs)
			}
			b.ReportMetric(float64(instrs)/float64(b.N), "instrs/step")
		})
	}
	// The batched path the execution engine actually uses: one interface
	// call per 64 steps, steps written in place.
	b.Run("gcc-batch", func(b *testing.B) {
		p, err := Lookup("gcc")
		if err != nil {
			b.Fatal(err)
		}
		g := MustNew(p, 1).(BatchGenerator)
		buf := make([]Step, 64)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i += len(buf) {
			g.NextBatch(buf)
		}
	})
}

// TestNextBatchMatchesNext pins the batch API's arithmetic-preservation
// contract: the batched stream must be bit-identical to repeated Next
// calls, whatever buffer size slices it.
func TestNextBatchMatchesNext(t *testing.T) {
	for _, app := range []string{"gcc", "lbm", "mcf", "povray"} {
		p, err := Lookup(app)
		if err != nil {
			t.Fatal(err)
		}
		serial := MustNew(p, 99)
		batched := MustNew(p, 99).(BatchGenerator)
		buf := make([]Step, 7) // odd size: batches straddle phase boundaries
		for n := 0; n < 3000; n += len(buf) {
			got := batched.NextBatch(buf)
			if got != len(buf) {
				t.Fatalf("%s: NextBatch returned %d, want %d", app, got, len(buf))
			}
			for i := range buf[:got] {
				want := serial.Next()
				if buf[i] != want {
					t.Fatalf("%s: step %d diverged:\nbatch  %+v\nserial %+v", app, n+i, buf[i], want)
				}
			}
		}
	}
}

// newEager is the reference construction chase laziness must reproduce:
// every Chase chain built inside the constructor, drawing from the
// generator's own RNG in phase order.
func newEager(p Profile, seed uint64) *gen {
	g := &gen{
		profile:  p,
		rng:      xrand.New(seed ^ 0x9e3779b9),
		patterns: make([]patternState, len(p.Phases)),
	}
	for i, ph := range p.Phases {
		if ph.Kind == Chase {
			lines := ph.WSSBytes / lineBytes
			if lines < 2 {
				lines = 2
			}
			g.patterns[i].chain = sattolo(lines, g.rng)
		}
	}
	return g
}

// TestLazyChainsMatchEager pins chase laziness to the eager reference:
// the same cursor straight after construction (so checkpoints are
// unchanged) and the same step stream, for every built-in profile.
func TestLazyChainsMatchEager(t *testing.T) {
	for _, name := range Names() {
		p := MustLookup(name)
		for _, seed := range []uint64{1, 99, 1<<63 + 5} {
			lazy, eager := MustNew(p, seed), newEager(p, seed)
			ls, err := CaptureGenState(lazy)
			if err != nil {
				t.Fatal(err)
			}
			es, err := CaptureGenState(eager)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ls, es) {
				t.Fatalf("%s seed %d: state after New\nlazy  %+v\neager %+v", name, seed, ls, es)
			}
			for i := 0; i < 50_000; i++ {
				if a, b := lazy.Next(), eager.Next(); a != b {
					t.Fatalf("%s seed %d: step %d diverged\nlazy  %+v\neager %+v", name, seed, i, a, b)
				}
			}
		}
	}
}

// TestNewBuildsNoChain: construction only fixes where each chain's
// draws start; the permutation waits for the phase's first access.
func TestNewBuildsNoChain(t *testing.T) {
	chased := 0
	for _, name := range Names() {
		g := MustNew(MustLookup(name), 7).(*gen)
		for i, ps := range g.patterns {
			if ps.chain != nil {
				t.Fatalf("%s: New built phase %d's chain", name, i)
			}
			if ps.lines > 0 {
				chased++
			}
		}
	}
	if chased == 0 {
		t.Fatal("no built-in profile has a Chase phase; the test is vacuous")
	}
	g := MustNew(testProfile(chasePhase(4096, 1)), 7).(*gen)
	g.Next()
	if len(g.patterns[0].chain) != 4096/lineBytes {
		t.Fatalf("first chase access built a %d-line chain, want %d", len(g.patterns[0].chain), 4096/lineBytes)
	}
}

// TestRestoreBuildsChainFromSeed: a cursor restored onto a fresh
// generator (whose chains are not built yet) continues the original
// stream, and an out-of-range chase position is refused.
func TestRestoreBuildsChainFromSeed(t *testing.T) {
	p := MustLookup("gcc")
	orig := MustNew(p, 11)
	for i := 0; i < 20_000; i++ {
		orig.Next()
	}
	st, err := CaptureGenState(orig)
	if err != nil {
		t.Fatal(err)
	}
	fresh := MustNew(p, 11)
	if err := RestoreGenState(fresh, st); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20_000; i++ {
		if a, b := orig.Next(), fresh.Next(); a != b {
			t.Fatalf("restored stream diverged at step %d: %+v vs %+v", i, b, a)
		}
	}
	st.Pos[0] = 224 * 1024 / lineBytes
	if err := RestoreGenState(MustNew(p, 11), st); err == nil {
		t.Fatal("chase position past the working set restored without error")
	}
}
