// Package workload synthesizes the memory behaviour of the applications the
// paper evaluates (SPEC CPU2006 subset, blockie, and the micro-benchmarks of
// §2.2.2) as deterministic instruction/access streams.
//
// SPEC binaries cannot run inside the simulator, so each application is
// modelled by a profile built from a small set of mechanisms that the
// contention literature (and the paper's own Figure 4 data) identify as the
// determinants of cache aggressiveness and sensitivity:
//
//   - working-set size relative to the cache levels (the paper's C1/C2/C3
//     classes, §2.2.4),
//   - access pattern: pointer chase (dependent loads, latency-bound),
//     streaming (high footprint velocity), large-stride walks
//     (set-concentrated conflict misses), uniform random,
//   - memory intensity (fraction of instructions that touch memory),
//   - phase structure (bursts of memory activity between compute phases),
//   - halt fraction (cycles the core idles, stopping the unhalted-cycle
//     PMC but not wall time).
//
// Profiles are calibrated against the paper's published orderings; see
// profiles.go and the calibration tests.
package workload

import (
	"fmt"

	"kyoto/internal/xrand"
)

// Step is one unit of execution emitted by a Generator: a run of compute
// instructions optionally followed by a single memory access.
//
// Field order packs the struct into 40 bytes (wide fields first): the
// execution engine writes and reads one Step per simulated step, so its
// size is hot-path-relevant.
type Step struct {
	// Addr is the virtual byte address of the access (valid when HasAccess).
	Addr uint64
	// HaltFrac is the fraction of wall time the application halts during
	// this phase, in [0,1). The execution engine stretches wall time by
	// 1/(1-HaltFrac) without advancing the unhalted-cycle counter.
	HaltFrac float64
	// MLP is the memory-level parallelism of this phase's accesses: the
	// effective divisor on LLC/memory latency from overlapped misses and
	// hardware prefetching. 0 means 1 (fully serialized, e.g. pointer
	// chasing). Streaming patterns reach 4-8 on real hardware.
	MLP float64
	// Instrs is the number of instructions this step retires, including
	// the memory access when HasAccess is set. At least 1.
	Instrs uint32
	// ComputeCycles is the cycle cost of the non-memory instructions.
	ComputeCycles uint32
	// HasAccess reports whether the step ends with a memory access.
	HasAccess bool
	// IsWrite marks stores (valid when HasAccess).
	IsWrite bool
}

// Generator produces an infinite deterministic stream of Steps.
// Implementations are not safe for concurrent use; each vCPU owns one.
type Generator interface {
	// Next returns the next step.
	Next() Step
}

// BatchGenerator is optionally implemented by generators that can emit
// many steps per call. NextBatch must be arithmetic-preserving: filling a
// buffer draws exactly the same RNG values and carries the same fractional
// accumulators as the equivalent sequence of Next calls, so the step
// stream is bit-identical however it is consumed. The execution engine
// (internal/cpu) uses it to amortize the per-step interface dispatch.
type BatchGenerator interface {
	Generator
	// NextBatch fills buf with the next len(buf) steps of the stream and
	// returns the number written (len(buf), except when buf is empty).
	NextBatch(buf []Step) int
}

// PatternKind selects an address-generation mechanism.
type PatternKind int

// Supported patterns.
const (
	// Chase walks a random circular permutation of the working set's
	// lines (the paper's §2.2.2 micro-benchmark): dependent loads with no
	// spatial locality, maximally sensitive to eviction.
	Chase PatternKind = iota + 1
	// Stream walks the working set sequentially with a fixed stride,
	// wrapping at the end: maximal footprint velocity, the signature of
	// lbm/blockie-style polluters.
	Stream
	// Strided is Stream with a large power-of-two stride, concentrating
	// all accesses into a few cache sets: enormous miss counts whose
	// pollution is confined (the milc signature).
	Strided
	// UniformRandom touches uniformly random lines of the working set
	// (the mcf signature).
	UniformRandom
	// Compute performs no memory accesses.
	Compute
)

// String returns the pattern name.
func (k PatternKind) String() string {
	switch k {
	case Chase:
		return "chase"
	case Stream:
		return "stream"
	case Strided:
		return "strided"
	case UniformRandom:
		return "uniform"
	case Compute:
		return "compute"
	default:
		return fmt.Sprintf("PatternKind(%d)", int(k))
	}
}

// Phase describes one phase of an application's periodic behaviour.
type Phase struct {
	// Kind is the address pattern of this phase.
	Kind PatternKind
	// WSSBytes is the phase's working-set size.
	WSSBytes int
	// StrideBytes is the walk stride for Stream/Strided (default 64).
	StrideBytes int
	// MemRatio is the fraction of instructions that access memory, in
	// [0,1]. Zero is allowed only for Compute phases.
	MemRatio float64
	// Instructions is the phase length; generators cycle through phases.
	Instructions uint64
	// HaltFrac is the halted fraction of wall time during this phase.
	HaltFrac float64
	// Writes is the store fraction among memory accesses.
	Writes float64
	// MLP is the phase's memory-level parallelism (see Step.MLP); 0 means
	// 1. Dependent-load patterns (Chase) should leave it at 1; streaming
	// patterns with prefetcher-friendly strides justify 4-8.
	MLP float64
}

// Validate reports configuration errors.
func (p Phase) Validate() error {
	if p.Kind == Compute {
		if p.MemRatio != 0 {
			return fmt.Errorf("workload: compute phase cannot have MemRatio %v", p.MemRatio)
		}
	} else {
		if p.WSSBytes <= 0 {
			return fmt.Errorf("workload: %v phase needs positive WSSBytes, got %d", p.Kind, p.WSSBytes)
		}
		if p.MemRatio <= 0 || p.MemRatio > 1 {
			return fmt.Errorf("workload: MemRatio %v outside (0,1]", p.MemRatio)
		}
	}
	if p.Instructions == 0 {
		return fmt.Errorf("workload: phase needs positive Instructions")
	}
	if p.HaltFrac < 0 || p.HaltFrac >= 1 {
		return fmt.Errorf("workload: HaltFrac %v outside [0,1)", p.HaltFrac)
	}
	if p.Writes < 0 || p.Writes > 1 {
		return fmt.Errorf("workload: Writes %v outside [0,1]", p.Writes)
	}
	if p.MLP < 0 || p.MLP > 64 {
		return fmt.Errorf("workload: MLP %v outside [0,64]", p.MLP)
	}
	return nil
}

// Class is the paper's application taxonomy (§2.2.4): C1 fits in the
// intermediate-level caches (L1+L2), C2 fits in the LLC, C3 exceeds it.
type Class int

// Application classes.
const (
	C1 Class = iota + 1
	C2
	C3
)

// String returns "C1".."C3".
func (c Class) String() string { return fmt.Sprintf("C%d", int(c)) }

// Profile is a named application model.
type Profile struct {
	// Name is the application name as used in the paper ("gcc", "lbm", ...).
	Name string
	// Class is the paper's C1/C2/C3 classification.
	Class Class
	// BaseCPI is the cycle cost of a non-memory instruction.
	BaseCPI float64
	// Phases cycle forever in order.
	Phases []Phase
}

// Validate reports configuration errors.
func (p Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("workload: profile needs a name")
	}
	if len(p.Phases) == 0 {
		return fmt.Errorf("workload: profile %q has no phases", p.Name)
	}
	if p.BaseCPI <= 0 {
		return fmt.Errorf("workload: profile %q BaseCPI %v must be positive", p.Name, p.BaseCPI)
	}
	for i, ph := range p.Phases {
		if err := ph.Validate(); err != nil {
			return fmt.Errorf("profile %q phase %d: %w", p.Name, i, err)
		}
	}
	return nil
}

// MaxWSSBytes returns the largest working set across phases.
func (p Profile) MaxWSSBytes() int {
	m := 0
	for _, ph := range p.Phases {
		if ph.WSSBytes > m {
			m = ph.WSSBytes
		}
	}
	return m
}

// lineBytes is the cache line granularity addresses are generated at.
const lineBytes = 64

// gen implements Generator for a Profile.
type gen struct {
	profile Profile
	rng     *xrand.Rand

	phaseIdx    int
	phaseInstrs uint64 // instructions retired in the current phase
	// patterns holds one persistent state per phase: a phase resumes
	// where it left off when the profile cycles back to it (a program
	// scanning a large structure continues, it does not restart).
	patterns []patternState

	// memAcc is the fractional accumulator implementing MemRatio
	// deterministically (avoids RNG noise in intensity).
	memAcc float64
	// cpiAcc accumulates fractional compute cycles.
	cpiAcc float64
}

// New returns a Generator for profile, seeded with seed. The profile is
// validated; invalid profiles return an error.
func New(profile Profile, seed uint64) (Generator, error) {
	if err := profile.Validate(); err != nil {
		return nil, err
	}
	g := &gen{
		profile:  profile,
		rng:      xrand.New(seed ^ 0x9e3779b9),
		patterns: make([]patternState, len(profile.Phases)),
	}
	for i, ph := range profile.Phases {
		g.patterns[i].init(ph, g.rng)
	}
	return g, nil
}

// MustNew is New but panics on error, for statically known-good profiles.
func MustNew(profile Profile, seed uint64) Generator {
	g, err := New(profile, seed)
	if err != nil {
		panic(err)
	}
	return g
}

// enterPhase switches to phase i, preserving its pattern state.
func (g *gen) enterPhase(i int) {
	g.phaseIdx = i
	g.phaseInstrs = 0
}

// Next implements Generator.
func (g *gen) Next() Step {
	var s Step
	g.nextInto(&s)
	return s
}

// NextBatch implements BatchGenerator. The loop body is the exact Next
// step function, so batch consumption preserves every RNG draw and
// accumulator update of the serial stream.
func (g *gen) NextBatch(buf []Step) int {
	for i := range buf {
		g.nextInto(&buf[i])
	}
	return len(buf)
}

// nextInto writes the next step to out (in place, sparing the caller a
// 40-byte struct copy per step).
func (g *gen) nextInto(out *Step) {
	ph := &g.profile.Phases[g.phaseIdx]

	if ph.Kind == Compute || ph.MemRatio == 0 {
		// Emit the whole remaining phase as a single compute step, capped
		// so steps stay small relative to scheduling chunks.
		const maxChunk = 256
		remain := ph.Instructions - g.phaseInstrs
		n := uint64(maxChunk)
		if remain < n {
			n = remain
		}
		cycles := g.cyclesFor(n)
		g.advance(n)
		*out = Step{
			Instrs:        uint32(n),
			ComputeCycles: cycles,
			HaltFrac:      ph.HaltFrac,
			MLP:           ph.MLP,
		}
		return
	}

	// Number of compute instructions before the next access: from the
	// fractional accumulator, mean (1-m)/m.
	g.memAcc += ph.MemRatio
	gap := uint64(0)
	for g.memAcc < 1 {
		// Accumulate whole instructions until an access is due.
		need := (1 - g.memAcc) / ph.MemRatio
		step := uint64(need)
		if float64(step) < need {
			step++
		}
		gap += step
		g.memAcc += float64(step) * ph.MemRatio
	}
	g.memAcc -= 1

	addr := g.patterns[g.phaseIdx].next(*ph, g.rng)
	isWrite := ph.Writes > 0 && g.rng.Bool(ph.Writes)
	instrs := gap + 1
	cycles := g.cyclesFor(gap)
	g.advance(instrs)
	*out = Step{
		Instrs:        uint32(instrs),
		ComputeCycles: cycles,
		HasAccess:     true,
		Addr:          addr,
		IsWrite:       isWrite,
		HaltFrac:      ph.HaltFrac,
		MLP:           ph.MLP,
	}
}

// cyclesFor converts an instruction count to compute cycles under BaseCPI,
// carrying the fractional remainder across calls.
func (g *gen) cyclesFor(instrs uint64) uint32 {
	g.cpiAcc += float64(instrs) * g.profile.BaseCPI
	c := uint64(g.cpiAcc)
	g.cpiAcc -= float64(c)
	return uint32(c)
}

// advance retires instrs instructions, switching phases when due.
func (g *gen) advance(instrs uint64) {
	g.phaseInstrs += instrs
	if g.phaseInstrs >= g.profile.Phases[g.phaseIdx].Instructions {
		g.enterPhase((g.phaseIdx + 1) % len(g.profile.Phases))
	}
}

// patternState holds per-phase address-generation state.
type patternState struct {
	// Chase: chain[i] is the next line index after i (single cycle),
	// built on the phase's first access from the RNG position chainSeed
	// over lines lines. Until then chain is nil: a generator that never
	// emits a Chase address (the analytic tier builds generators but
	// never draws from them) never pays for the permutation.
	chain     []uint32
	chainSeed uint64
	lines     int
	pos       uint32
	// Stream/Strided: current byte offset.
	offset uint64
}

// init prepares state for phase ph. A Chase phase records where its
// permutation's draws start and jumps rng past them, leaving rng exactly
// where building the chain here would have left it.
func (s *patternState) init(ph Phase, rng *xrand.Rand) {
	*s = patternState{}
	if ph.Kind == Chase {
		s.lines = ph.WSSBytes / lineBytes
		if s.lines < 2 {
			s.lines = 2
		}
		s.chainSeed = rng.State()
		rng.Advance(uint64(s.lines - 1)) // sattolo's draws
	}
}

// next returns the next access address for phase ph.
func (s *patternState) next(ph Phase, rng *xrand.Rand) uint64 {
	switch ph.Kind {
	case Chase:
		if s.chain == nil {
			s.chain = sattolo(s.lines, xrand.New(s.chainSeed))
		}
		s.pos = s.chain[s.pos]
		return uint64(s.pos) * lineBytes
	case Stream, Strided:
		stride := uint64(ph.StrideBytes)
		if stride == 0 {
			stride = lineBytes
		}
		addr := s.offset
		s.offset += stride
		if s.offset >= uint64(ph.WSSBytes) {
			s.offset = 0
		}
		return addr
	case UniformRandom:
		lines := uint64(ph.WSSBytes / lineBytes)
		if lines == 0 {
			lines = 1
		}
		return rng.Uint64n(lines) * lineBytes
	default:
		return 0
	}
}

// sattolo builds a single-cycle random permutation: chain[i] = successor of
// line i, with all n lines on one cycle (so a chase visits the whole
// working set before repeating, like the paper's linked-list walker).
// It takes exactly n-1 draws from rng, which patternState.init relies on.
func sattolo(n int, rng *xrand.Rand) []uint32 {
	perm := make([]uint32, n)
	for i := range perm {
		perm[i] = uint32(i)
	}
	// Sattolo's algorithm produces a uniformly random cyclic permutation.
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i)
		perm[i], perm[j] = perm[j], perm[i]
	}
	// perm is a cycle in one-line notation; convert to successor form.
	chain := make([]uint32, n)
	for i := 0; i < n-1; i++ {
		chain[perm[i]] = perm[i+1]
	}
	chain[perm[n-1]] = perm[0]
	return chain
}
