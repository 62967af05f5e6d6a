// Package xrand provides a small, fast, deterministic pseudo-random number
// generator used throughout the simulator.
//
// The simulator must be reproducible bit-for-bit from a scenario seed, so no
// package in this module may use math/rand's global functions or seed from
// wall-clock time. Every component that needs randomness receives a *Rand
// (or derives one with Split) from the scenario configuration.
//
// The generator is splitmix64 (Steele, Lea, Flood; "Fast Splittable
// Pseudorandom Number Generators", OOPSLA 2014). It is not cryptographically
// secure; it is used only to drive synthetic workloads.
package xrand

// Rand is a deterministic pseudo-random number generator.
//
// The zero value is a valid generator with seed 0. Rand is not safe for
// concurrent use; derive independent generators with Split instead of
// sharing one.
type Rand struct {
	state uint64
}

// New returns a generator seeded with seed.
func New(seed uint64) *Rand {
	return &Rand{state: seed}
}

// Split derives a new, statistically independent generator from r.
// It advances r, so repeated Split calls yield distinct generators.
func (r *Rand) Split() *Rand {
	return &Rand{state: r.Uint64()}
}

// State returns the generator's internal position. Together with SetState
// it lets checkpoint/restore reproduce a stream bit-for-bit: a generator
// restored to a captured state emits exactly the values the original
// would have emitted next.
func (r *Rand) State() uint64 { return r.state }

// SetState rewinds or advances r to a previously captured State.
func (r *Rand) SetState(s uint64) { r.state = s }

// golden is splitmix64's per-draw state increment.
const golden = 0x9e3779b97f4a7c15

// Advance skips n draws in O(1): afterwards r emits exactly what it
// would have after n Uint64 calls. splitmix64's state moves by a
// constant per draw, and Float64, Bool, and Uint64n/Intn with a
// positive bound each take exactly one draw, so Advance(n) also skips n
// calls of those.
func (r *Rand) Advance(n uint64) { r.state += n * golden }

// Uint64 returns the next pseudo-random 64-bit value.
func (r *Rand) Uint64() uint64 {
	r.state += golden
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64n returns a uniform pseudo-random value in [0, n).
// It returns 0 when n is 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		return 0
	}
	// Multiply-shift reduction (Lemire). The slight bias is irrelevant for
	// workload synthesis and avoids a divide on the hot path.
	hi, _ := mul64(r.Uint64(), n)
	return hi
}

// Intn returns a uniform pseudo-random value in [0, n). It returns 0 when
// n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.Uint64n(uint64(n)))
}

// Float64 returns a uniform pseudo-random value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool {
	return r.Float64() < p
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// mul64 returns the 128-bit product of x and y as (hi, lo).
func mul64(x, y uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	x0, x1 := x&mask32, x>>32
	y0, y1 := y&mask32, y>>32
	w0 := x0 * y0
	t := x1*y0 + w0>>32
	w1 := t&mask32 + x0*y1
	hi = x1*y1 + t>>32 + w1>>32
	lo = x * y
	return hi, lo
}
