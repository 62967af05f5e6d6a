// Package pmc models the hardware performance-monitoring counters that
// Kyoto reads (the paper gathers them through a modified perfctr-xen,
// §2.2.3). Each vCPU owns one Counters block that the execution engine
// increments; monitors read deltas over sampling windows exactly as the
// real system reads MSR deltas.
package pmc

// Counters is one vCPU's cumulative counter block.
//
// The paper's Equation 1 uses LLCMisses and UnhaltedCycles; the remaining
// counters support the evaluation harness (IPC, miss ratios, timelines).
type Counters struct {
	// Instructions retired.
	Instructions uint64
	// UnhaltedCycles counts cycles the core spent non-halted while this
	// vCPU was scheduled — the paper's UNHALTED_CORE_CYCLES.
	UnhaltedCycles uint64
	// HaltedCycles counts scheduled wall cycles during which the core was
	// halted (the workload was idling). Wall occupancy of the pCPU is
	// UnhaltedCycles + HaltedCycles.
	HaltedCycles uint64
	// L1Misses, L2Misses count data misses at the private levels.
	L1Misses uint64
	L2Misses uint64
	// LLCReferences counts accesses that reached the LLC (missed L2).
	LLCReferences uint64
	// LLCMisses counts accesses that missed the LLC — the paper's
	// LLC_MISSES counter feeding Equation 1.
	LLCMisses uint64
	// MemReads and MemWrites split LLC misses by direction.
	MemReads  uint64
	MemWrites uint64
	// RemoteAccesses counts memory accesses served by a remote NUMA node.
	RemoteAccesses uint64
	// Accesses counts all data accesses issued.
	Accesses uint64
}

// Add accumulates other into c.
func (c *Counters) Add(other Counters) {
	c.Instructions += other.Instructions
	c.UnhaltedCycles += other.UnhaltedCycles
	c.HaltedCycles += other.HaltedCycles
	c.L1Misses += other.L1Misses
	c.L2Misses += other.L2Misses
	c.LLCReferences += other.LLCReferences
	c.LLCMisses += other.LLCMisses
	c.MemReads += other.MemReads
	c.MemWrites += other.MemWrites
	c.RemoteAccesses += other.RemoteAccesses
	c.Accesses += other.Accesses
}

// Delta returns c - earlier, field-wise. Counters are monotonic, so the
// result is well-defined when earlier is a previous snapshot of c.
func (c Counters) Delta(earlier Counters) Counters {
	return Counters{
		Instructions:   c.Instructions - earlier.Instructions,
		UnhaltedCycles: c.UnhaltedCycles - earlier.UnhaltedCycles,
		HaltedCycles:   c.HaltedCycles - earlier.HaltedCycles,
		L1Misses:       c.L1Misses - earlier.L1Misses,
		L2Misses:       c.L2Misses - earlier.L2Misses,
		LLCReferences:  c.LLCReferences - earlier.LLCReferences,
		LLCMisses:      c.LLCMisses - earlier.LLCMisses,
		MemReads:       c.MemReads - earlier.MemReads,
		MemWrites:      c.MemWrites - earlier.MemWrites,
		RemoteAccesses: c.RemoteAccesses - earlier.RemoteAccesses,
		Accesses:       c.Accesses - earlier.Accesses,
	}
}

// WallCycles returns the pCPU wall cycles this counter block accounts for
// (busy plus halted occupancy).
func (c Counters) WallCycles() uint64 { return c.UnhaltedCycles + c.HaltedCycles }

// FoldSeed is the canonical starting value for Fold chains (the FNV-1a
// 64-bit offset basis).
const FoldSeed uint64 = 14695981039346656037

// foldPrime is the FNV-1a 64-bit prime.
const foldPrime uint64 = 1099511628211

// foldPrime8 is foldPrime⁸ mod 2⁶⁴: FoldUint64's eight byte rounds for a
// value whose high seven bytes are zero, collapsed into one multiply.
const foldPrime8 uint64 = 0x1efac7090aef4a21

// Fold mixes every field of c into a running FNV-style hash and returns
// the new hash. Folding the counters of all vCPUs of a run (in vCPU-id
// order, starting from FoldSeed) yields a stable fingerprint of the whole
// simulation — the golden determinism tests pin these fingerprints so that
// hot-path refactors can prove they are bit-identical.
func (c Counters) Fold(h uint64) uint64 {
	for _, f := range [...]uint64{
		c.Instructions,
		c.UnhaltedCycles,
		c.HaltedCycles,
		c.L1Misses,
		c.L2Misses,
		c.LLCReferences,
		c.LLCMisses,
		c.MemReads,
		c.MemWrites,
		c.RemoteAccesses,
		c.Accesses,
	} {
		h = FoldUint64(h, f)
	}
	return h
}

// FoldUint64 mixes one extra 64-bit value into a Fold chain. Fingerprints
// that cover more than raw counters (placement metadata in fleet churn
// goldens) use it to keep the whole fingerprint in one hash family.
func FoldUint64(h, v uint64) uint64 {
	for i := 0; i < 64; i += 8 {
		h = (h ^ (v >> i & 0xff)) * foldPrime
	}
	return h
}

// FoldByte mixes one byte into a Fold chain. It equals
// FoldUint64(h, uint64(b)) exactly: the first round XORs b in and
// multiplies by the prime, and each of the seven zero high bytes after
// it XORs in nothing and only multiplies by the prime again, so the
// eight multiplies compose into one by foldPrime⁸ (mod 2⁶⁴, where the
// arithmetic wraps). Byte-stream fingerprints (payloads, fingerprint
// strings) fold through it at one multiply per byte instead of eight.
func FoldByte(h uint64, b byte) uint64 {
	return (h ^ uint64(b)) * foldPrime8
}

// IPC returns instructions per unhalted cycle — the paper's §2.2.3
// performance metric. Zero cycles yields 0.
func (c Counters) IPC() float64 {
	if c.UnhaltedCycles == 0 {
		return 0
	}
	return float64(c.Instructions) / float64(c.UnhaltedCycles)
}

// MissesPerKiloInstr returns LLC misses per 1000 instructions (MPKI).
func (c Counters) MissesPerKiloInstr() float64 {
	if c.Instructions == 0 {
		return 0
	}
	return 1000 * float64(c.LLCMisses) / float64(c.Instructions)
}

// Sampler takes periodic snapshots of a Counters block and exposes the
// delta since the previous snapshot, which is how perfctr-xen-style
// monitoring consumes counters.
type Sampler struct {
	src  *Counters
	last Counters
}

// NewSampler starts a sampler over src; the first Sample covers everything
// accumulated so far.
func NewSampler(src *Counters) *Sampler {
	return &Sampler{src: src}
}

// Sample returns the counter delta since the previous Sample (or since
// NewSampler) and advances the snapshot.
func (s *Sampler) Sample() Counters {
	cur := *s.src
	d := cur.Delta(s.last)
	s.last = cur
	return d
}

// Peek returns the delta since the previous Sample without advancing.
func (s *Sampler) Peek() Counters {
	return s.src.Delta(s.last)
}

// Last returns the snapshot taken by the previous Sample (zero before the
// first). Checkpoint/restore captures it so a restored sampler's next
// Sample covers exactly the same window the original's would have.
func (s *Sampler) Last() Counters { return s.last }

// SetLast overwrites the previous-Sample snapshot.
func (s *Sampler) SetLast(c Counters) { s.last = c }
