package cpu

// Unit tests of the analytic-tier executor against the same small
// geometry cpu_test.go uses for the exact one: phase compilation
// (footprints, set-concentration, MLP overlap), the bulk counter
// waterfall, and the occupancy-driven mix. World-level behaviour
// (epoch advance, contention ordering, benchmarks) lives in
// internal/hv/analytic_test.go.

import (
	"math"
	"testing"

	"kyoto/internal/cache"
	"kyoto/internal/pmc"
	"kyoto/internal/workload"
)

// testAnalyticParams mirrors testPath's geometry: L1 8 lines (4 sets x
// 2 ways), L2 64 lines (16 x 4), LLC 1024 lines (128 x 8).
func testAnalyticParams() AnalyticParams {
	return AnalyticParams{
		L1Lines: 8, L1Sets: 4, L1Ways: 2,
		L2Lines: 64, L2Sets: 16, L2Ways: 4,
		LLCSets: 128, LLCWays: 8,
		LineBytes: 64,
		L1Lat:     4, L2Lat: 12, LLCLat: 45, MemLat: 180, RemotePenalty: 120,
	}
}

func testAnalyticLLC(t *testing.T) *cache.AnalyticLLC {
	t.Helper()
	llc, err := cache.NewAnalyticLLC(cache.Config{
		Name: "LLC", SizeBytes: 64 * 1024, Ways: 8, LineBytes: 64, HitLatencyCycles: 45,
	})
	if err != nil {
		t.Fatal(err)
	}
	return llc
}

// chaseProfile touches WSS bytes with dependent loads, memRatio accesses
// per instruction.
func chaseProfile(wss int, memRatio float64) workload.Profile {
	return workload.Profile{
		Name: "test-chase", BaseCPI: 1,
		Phases: []workload.Phase{{
			Kind: workload.Chase, WSSBytes: wss, MemRatio: memRatio, Instructions: 10_000,
		}},
	}
}

func newCtx(t *testing.T, p workload.Profile, llc *cache.AnalyticLLC, c *pmc.Counters) *AnalyticContext {
	t.Helper()
	a, err := NewAnalyticContext(p, testAnalyticParams(), 1, c)
	if err != nil {
		t.Fatal(err)
	}
	a.LLC = llc
	return a
}

func TestAnalyticComputeOnly(t *testing.T) {
	p := workload.Profile{
		Name: "test-compute", BaseCPI: 2,
		Phases: []workload.Phase{{Kind: workload.Compute, Instructions: 1000}},
	}
	var c pmc.Counters
	a := newCtx(t, p, nil, &c)
	used := RunAnalytic(a, 1000)
	if used < 1000 {
		t.Fatalf("used = %d, want >= budget 1000", used)
	}
	if c.Accesses != 0 || c.LLCMisses != 0 {
		t.Fatalf("compute phase touched memory: %+v", c)
	}
	if c.Instructions == 0 || c.UnhaltedCycles != used {
		t.Fatalf("counters = %+v, used = %d", c, used)
	}
	if RunAnalytic(a, 0) != 0 {
		t.Fatal("zero budget must consume nothing")
	}
}

func TestAnalyticRejectsInvalidProfile(t *testing.T) {
	if _, err := NewAnalyticContext(workload.Profile{}, testAnalyticParams(), 1, &pmc.Counters{}); err == nil {
		t.Fatal("invalid profile must error")
	}
	misaligned := workload.Profile{
		Name: "test-misaligned", BaseCPI: 1,
		Phases: []workload.Phase{{
			Kind: workload.Strided, WSSBytes: 1 << 20, StrideBytes: 96,
			MemRatio: 0.5, Instructions: 1000,
		}},
	}
	if _, err := NewAnalyticContext(misaligned, testAnalyticParams(), 1, &pmc.Counters{}); err == nil {
		t.Fatal("non-line-aligned stride must error")
	}
}

func TestAnalyticCounterWaterfall(t *testing.T) {
	// Footprint far beyond every level: all accesses must walk the full
	// miss waterfall, and reads+writes must re-add to the misses.
	llc := testAnalyticLLC(t)
	var c pmc.Counters
	a := newCtx(t, chaseProfile(1<<24, 0.4), llc, &c)
	for i := 0; i < 5; i++ {
		RunAnalytic(a, 100_000)
		llc.EndEpoch()
	}
	if c.Accesses == 0 {
		t.Fatal("no memory accesses recorded")
	}
	if c.L1Misses > c.Accesses || c.L2Misses > c.L1Misses || c.LLCMisses > c.L2Misses {
		t.Fatalf("miss waterfall violated: %+v", c)
	}
	if c.LLCReferences != c.L2Misses {
		t.Fatalf("LLC references %d != L2 misses %d", c.LLCReferences, c.L2Misses)
	}
	if got, want := c.MemReads+c.MemWrites, c.LLCMisses; got+2 < want || got > want+2 {
		t.Fatalf("memory traffic %d does not re-add to LLC misses %d", got, want)
	}
	if c.RemoteAccesses != 0 {
		t.Fatalf("local run recorded remote accesses: %d", c.RemoteAccesses)
	}
}

func TestAnalyticDeterministic(t *testing.T) {
	run := func() pmc.Counters {
		llc := testAnalyticLLC(t)
		var c pmc.Counters
		a := newCtx(t, chaseProfile(1<<20, 0.3), llc, &c)
		for i := 0; i < 8; i++ {
			RunAnalytic(a, 50_000)
			llc.EndEpoch()
		}
		return c
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("identical runs diverged:\n%+v\n%+v", a, b)
	}
}

func TestAnalyticRemotePenaltySlowsExecution(t *testing.T) {
	run := func(remote bool) uint64 {
		llc := testAnalyticLLC(t)
		var c pmc.Counters
		a := newCtx(t, chaseProfile(1<<24, 0.5), llc, &c)
		a.Remote = remote
		RunAnalytic(a, 200_000)
		if remote && c.RemoteAccesses == 0 {
			t.Fatal("remote run recorded no remote accesses")
		}
		return c.Instructions
	}
	local, remote := run(false), run(true)
	if remote >= local {
		t.Fatalf("remote memory must slow execution: %d instructions remote vs %d local", remote, local)
	}
}

func TestAnalyticOccupancyWarmupReducesMisses(t *testing.T) {
	// Footprint fits the LLC: as occupancy builds across epochs the LLC
	// hit fraction must rise, so per-epoch misses fall.
	llc := testAnalyticLLC(t)
	var c pmc.Counters
	a := newCtx(t, chaseProfile(32*1024, 0.3), llc, &c)
	missesAt := func() uint64 { return c.LLCMisses }

	RunAnalytic(a, 100_000)
	llc.EndEpoch()
	first := missesAt()
	for i := 0; i < 6; i++ {
		RunAnalytic(a, 100_000)
		llc.EndEpoch()
	}
	before := missesAt()
	RunAnalytic(a, 100_000)
	warm := missesAt() - before
	if warm >= first {
		t.Fatalf("warm epoch misses %d not below cold epoch misses %d", warm, first)
	}
	if f := llc.OccupancyFraction(1); f <= 0 || f > 1 {
		t.Fatalf("implausible occupancy fraction %v", f)
	}
}

func TestAnalyticHaltedPhase(t *testing.T) {
	p := workload.Profile{
		Name: "test-halt", BaseCPI: 1,
		Phases: []workload.Phase{{
			Kind: workload.Compute, Instructions: 1000, HaltFrac: 0.5,
		}},
	}
	var c pmc.Counters
	a := newCtx(t, p, nil, &c)
	used := RunAnalytic(a, 10_000)
	if c.HaltedCycles == 0 {
		t.Fatal("HaltFrac phase recorded no halted cycles")
	}
	if c.UnhaltedCycles+c.HaltedCycles != used {
		t.Fatalf("wall %d != busy %d + halted %d", used, c.UnhaltedCycles, c.HaltedCycles)
	}
}

func TestAnalyticStridedSelfThrash(t *testing.T) {
	// A 2KB stride concentrates the walk into few sets: the effective
	// LLC capacity shrinks below the footprint, so the phase can never
	// go resident and keeps missing to memory even after many epochs.
	p := workload.Profile{
		Name: "test-strided", BaseCPI: 1,
		Phases: []workload.Phase{{
			Kind: workload.Strided, WSSBytes: 1 << 20, StrideBytes: 2048,
			MemRatio: 0.5, MLP: 4, Instructions: 100_000,
		}},
	}
	llc := testAnalyticLLC(t)
	var c pmc.Counters
	a := newCtx(t, p, llc, &c)
	for i := 0; i < 6; i++ {
		RunAnalytic(a, 100_000)
		llc.EndEpoch()
	}
	before := c.LLCMisses
	RunAnalytic(a, 100_000)
	if c.LLCMisses == before {
		t.Fatal("self-thrashing strided phase stopped missing")
	}
}

func TestAnalyticStreamGoesResident(t *testing.T) {
	// A unit-stride stream whose footprint fits the LLC: once occupancy
	// covers the footprint the ramp reaches all-hits, and misses stop.
	p := workload.Profile{
		Name: "test-stream", BaseCPI: 1,
		Phases: []workload.Phase{{
			Kind: workload.Stream, WSSBytes: 16 * 1024,
			MemRatio: 0.5, Instructions: 100_000,
		}},
	}
	llc := testAnalyticLLC(t)
	var c pmc.Counters
	a := newCtx(t, p, llc, &c)
	for i := 0; i < 10; i++ {
		RunAnalytic(a, 100_000)
		llc.EndEpoch()
	}
	before := c.LLCMisses
	RunAnalytic(a, 100_000)
	if got := c.LLCMisses - before; got != 0 {
		t.Fatalf("resident stream still missed %d times", got)
	}
}

// TestAnalyticRestoreRejectsBadAccumulators: every accumulator must be a
// fractional remainder in [0,1), the range the executor's signed
// conversions rely on; anything else is a corrupt checkpoint.
func TestAnalyticRestoreRejectsBadAccumulators(t *testing.T) {
	a := newCtx(t, chaseProfile(1<<20, 0.3), testAnalyticLLC(t), &pmc.Counters{})
	RunAnalytic(a, 50_000)
	good := a.CaptureState()
	if err := a.RestoreState(good); err != nil {
		t.Fatalf("captured state refused: %v", err)
	}
	for _, tc := range []struct {
		name string
		v    float64
	}{
		{"negative", -1},
		{"one", 1},
		{"nan", math.NaN()},
		{"+inf", math.Inf(1)},
	} {
		for _, slot := range []int{0, 8} {
			st := good
			st.Acc[slot] = tc.v
			if err := a.RestoreState(st); err == nil {
				t.Errorf("%s in accumulator %d restored without error", tc.name, slot)
			}
		}
	}
}
