package cpu

// Analytic-tier executor: the fast-fidelity counterpart of Run. Instead
// of walking the instruction stream step by step, it advances a vCPU in
// bulk — thousands of instructions per call — by pricing the phase's
// average instruction from closed-form hit fractions:
//
//	CPI_busy = BaseCPI + MemRatio · E[lat]
//	E[lat]   = f_L1·L1 + f_L2·L2 + f_LLC·lat_LLC + f_mem·lat_mem
//	wall     = busy / (1 − HaltFrac)
//
// The private-level hit fractions f_L1/f_L2 are static per phase (the
// levels are private, their capacity is fixed); the LLC fraction is
// dynamic, derived each epoch from the owner's fractional occupancy in
// the socket's cache.AnalyticLLC. lat_LLC and lat_mem carry the same
// MLP overlap rule as the exact executor (lat/MLP floored at the L2
// round trip). Counters are updated in bulk with the exact per-access
// semantics of execStep — Accesses, the L1/L2/LLC miss waterfall,
// read/write memory traffic, remote accesses, unhalted and halted
// cycles — through fractional accumulators, so monitors (Equation 1)
// read the analytic tier exactly as they read hardware PMCs.
//
// Hit-fraction model per phase kind, for a level with effective
// capacity A lines and a phase footprint of F distinct lines:
//
//	Chase, UniformRandom:  p_hit = min(1, A/F)       (uniform reuse)
//	Stream, Strided:       p_hit = 0        if F > A (cyclic LRU thrash)
//	                       ramps 0→1 as occupancy covers the footprint
//
// Set-concentration is honoured: a stride of s bytes touches only
// sets/gcd(s/64, sets) of a level's sets, so its effective capacity —
// and the most lines it can ever hold — shrinks by the same factor,
// which is how a 2 KB-strided scan (milc) self-thrashes a 640 KB LLC.

import (
	"fmt"

	"kyoto/internal/cache"
	"kyoto/internal/pmc"
	"kyoto/internal/workload"
)

// AnalyticParams carries the machine geometry and latencies the analytic
// executor prices against; internal/hv derives it from machine.Config.
type AnalyticParams struct {
	// Per-core private levels: capacity in lines, sets and ways.
	L1Lines, L1Sets, L1Ways int
	L2Lines, L2Sets, L2Ways int
	// Shared LLC geometry (capacity lives in cache.AnalyticLLC).
	LLCSets, LLCWays int
	// LineBytes is the line size.
	LineBytes int
	// Hit/memory latencies in cycles, as in cache.Path.
	L1Lat, L2Lat, LLCLat, MemLat, RemotePenalty float64
}

// analyticPhase is one workload phase compiled to closed form.
type analyticPhase struct {
	instrs      uint64
	compute     bool
	memRatio    float64
	writes      float64
	haltStretch float64 // HaltFrac/(1-HaltFrac)
	wallFactor  float64 // 1/(1-HaltFrac)
	cpiBase     float64

	foot       float64 // distinct lines touched
	llcFootCap float64 // most LLC lines the phase can hold (set-concentration)
	streaming  bool    // Stream/Strided: cyclic reuse, all-or-nothing residency
	f1, f2     float64 // static private-level hit fractions
	eBase      float64 // f1*L1Lat + f2*L2Lat
	latLLC     float64 // MLP-overlapped LLC hit latency
	latMem     float64 // MLP-overlapped local memory latency
	latMemRem  float64 // MLP-overlapped remote memory latency
}

// AnalyticContext carries everything needed to execute one vCPU on the
// analytic tier. The hypervisor rebinds LLC/Remote when it migrates the
// vCPU, exactly as it rebinds Context.Path on the exact tier.
type AnalyticContext struct {
	// Owner tags LLC occupancy for attribution.
	Owner cache.Owner
	// LLC is the analytic model of the socket the vCPU currently runs on.
	LLC *cache.AnalyticLLC
	// Remote marks the vCPU's memory as on a remote NUMA node.
	Remote bool
	// Counters receives the PMC increments.
	Counters *pmc.Counters

	phases   []analyticPhase
	phaseIdx int
	phaseRem uint64

	// Cached per-(phase, epoch, binding) mix so the ~100 chunked Run
	// calls per tick recompute the occupancy-derived fractions once.
	mixValid  bool
	mixEpoch  uint64
	mixLLC    *cache.AnalyticLLC
	mixRemote bool
	fLLC      float64
	fMem      float64
	cpiBusy   float64
	wallInstr float64

	// Fractional accumulators carrying sub-unit counter remainders
	// across calls, keeping bulk updates drift-free and deterministic.
	accAccess, accL1M, accL2M, accLLCM float64
	accMemR, accMemW, accRemote        float64
	accBusy, accHalt                   float64
}

// NewAnalyticContext compiles profile against the machine parameters.
// It fails on profiles the closed form cannot price (none of the
// built-in profiles do).
func NewAnalyticContext(profile workload.Profile, p AnalyticParams, owner cache.Owner, counters *pmc.Counters) (*AnalyticContext, error) {
	if err := profile.Validate(); err != nil {
		return nil, err
	}
	a := &AnalyticContext{
		Owner:    owner,
		Counters: counters,
		phases:   make([]analyticPhase, len(profile.Phases)),
	}
	for i, ph := range profile.Phases {
		c, err := compilePhase(profile, ph, p)
		if err != nil {
			return nil, err
		}
		a.phases[i] = c
	}
	a.phaseRem = a.phases[0].instrs
	return a, nil
}

// compilePhase prices one phase's static quantities.
func compilePhase(profile workload.Profile, ph workload.Phase, p AnalyticParams) (analyticPhase, error) {
	c := analyticPhase{
		instrs:     ph.Instructions,
		cpiBase:    profile.BaseCPI,
		wallFactor: 1 / (1 - ph.HaltFrac),
	}
	if ph.HaltFrac > 0 {
		c.haltStretch = ph.HaltFrac / (1 - ph.HaltFrac)
	}
	if ph.Kind == workload.Compute || ph.MemRatio == 0 {
		c.compute = true
		return c, nil
	}
	c.memRatio = ph.MemRatio
	c.writes = ph.Writes
	c.streaming = ph.Kind == workload.Stream || ph.Kind == workload.Strided

	lineStride := 1
	if c.streaming && ph.StrideBytes > p.LineBytes {
		if ph.StrideBytes%p.LineBytes != 0 {
			return c, fmt.Errorf("cpu: analytic tier needs line-aligned strides, got %d", ph.StrideBytes)
		}
		lineStride = ph.StrideBytes / p.LineBytes
	}
	c.foot = float64(ph.WSSBytes / (p.LineBytes * lineStride))
	if c.foot < 1 {
		c.foot = 1
	}
	c.llcFootCap = c.foot
	if eff := effectiveLines(p.LLCSets, p.LLCWays, lineStride); eff < c.llcFootCap {
		c.llcFootCap = eff
	}

	pL1 := c.hitProb(effectiveLines(p.L1Sets, p.L1Ways, lineStride))
	pL2 := c.hitProb(effectiveLines(p.L2Sets, p.L2Ways, lineStride))
	c.f1 = pL1
	c.f2 = pL2 - pL1
	if c.f2 < 0 {
		c.f2 = 0
	}
	c.eBase = c.f1*p.L1Lat + c.f2*p.L2Lat

	c.latLLC = overlapped(p.LLCLat, ph.MLP)
	c.latMem = overlapped(p.MemLat, ph.MLP)
	c.latMemRem = overlapped(p.MemLat+p.RemotePenalty, ph.MLP)
	return c, nil
}

// hitProb is the static residency probability of the phase's footprint
// in a level of eff available lines.
func (c *analyticPhase) hitProb(eff float64) float64 {
	if c.streaming {
		// Cyclic reuse under LRU: all hits once resident, none otherwise.
		if c.foot <= eff {
			return 1
		}
		return 0
	}
	p := eff / c.foot
	if p > 1 {
		p = 1
	}
	return p
}

// effectiveLines is a level's capacity as seen by a pattern whose line
// stride concentrates it into sets/gcd(stride, sets) of the sets.
func effectiveLines(sets, ways, lineStride int) float64 {
	return float64(sets / gcd(lineStride, sets) * ways)
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// overlapped applies the exact executor's MLP rule: latencies at LLC
// level and beyond divide by the phase's MLP, floored at the L2 round
// trip (minOverlappedLatency).
func overlapped(lat, mlp float64) float64 {
	if mlp <= 1 {
		return lat
	}
	o := lat / mlp
	if o < minOverlappedLatency {
		o = minOverlappedLatency
	}
	return o
}

// refreshMix recomputes the occupancy-derived access mix when the phase,
// the epoch, or the binding changed since the last call.
func (a *AnalyticContext) refreshMix(ph *analyticPhase) {
	epoch := uint64(0)
	if a.LLC != nil {
		epoch = a.LLC.Epoch()
	}
	if a.mixValid && a.mixEpoch == epoch && a.mixLLC == a.LLC && a.mixRemote == a.Remote {
		return
	}
	a.mixValid = true
	a.mixEpoch = epoch
	a.mixLLC = a.LLC
	a.mixRemote = a.Remote
	if ph.compute {
		a.fLLC, a.fMem = 0, 0
		a.cpiBusy = ph.cpiBase
		a.wallInstr = a.cpiBusy * ph.wallFactor
		return
	}
	pLLC := 0.0
	if a.LLC != nil {
		a.LLC.SetFootprint(a.Owner, ph.llcFootCap)
		occ := a.LLC.OccupancyLines(a.Owner)
		if ph.streaming {
			// All-or-nothing residency, smoothed: no hits until the
			// occupancy covers half the footprint (and none ever when the
			// footprint cannot fit its sets), then a linear ramp to 1.
			// The ramp damps the refill oscillation a hard threshold
			// would cause at the epoch granularity.
			if ph.foot <= ph.llcFootCap {
				r := occ / ph.foot
				if r > 0.5 {
					pLLC = (r - 0.5) * 2
					if pLLC > 1 {
						pLLC = 1
					}
				}
			}
		} else {
			pLLC = occ / ph.foot
			if pLLC > 1 {
				pLLC = 1
			}
		}
	}
	fLLC := pLLC - ph.f1 - ph.f2
	if fLLC < 0 {
		fLLC = 0
	}
	fMem := 1 - ph.f1 - ph.f2 - fLLC
	if fMem < 0 {
		fMem = 0
	}
	a.fLLC, a.fMem = fLLC, fMem
	latMem := ph.latMem
	if a.Remote {
		latMem = ph.latMemRem
	}
	a.cpiBusy = ph.cpiBase + ph.memRatio*(ph.eBase+fLLC*ph.latLLC+fMem*latMem)
	a.wallInstr = a.cpiBusy * ph.wallFactor
}

// frac adds a fractional increment to an accumulator and returns the
// whole part to credit, leaving the remainder for the next call.
//
// The float conversions in this file go through int64: amd64 converts
// signed integers to and from float64 in one instruction, but unsigned
// ones in a compare-and-branch sequence. Every converted value lies in
// [0, 2^63), where the two agree bit for bit. Here, accumulators start
// at 0 (RestoreState refuses anything outside [0,1)) and only ever add
// non-negative terms, and a bulk step's whole part is far below 2^63.
// In RunAnalytic, used < budget on every iteration and n is at most
// (budget-used)/wallInstr or 1, with budget bounded by the hv tick.
func frac(acc *float64, add float64) uint64 {
	v := *acc + add
	k := int64(v)
	*acc = v - float64(k)
	return uint64(k)
}

// RunAnalytic executes ctx's workload for at most budget wall cycles on
// the analytic tier and returns the wall cycles actually consumed —
// the same contract as Run, at O(phases crossed) instead of O(steps).
// budget must be below 2^63 (hv passes at most one tick's cycles).
// It allocates nothing.
func RunAnalytic(a *AnalyticContext, budget uint64) uint64 {
	if budget == 0 {
		return 0
	}
	var used uint64
	for {
		ph := &a.phases[a.phaseIdx]
		a.refreshMix(ph)
		n := uint64(int64(float64(int64(budget-used)) / a.wallInstr))
		if n == 0 {
			n = 1
		}
		if n > a.phaseRem {
			n = a.phaseRem
		}
		used += a.exec(ph, n)
		a.phaseRem -= n
		if a.phaseRem == 0 {
			a.phaseIdx++
			if a.phaseIdx == len(a.phases) {
				a.phaseIdx = 0
			}
			a.phaseRem = a.phases[a.phaseIdx].instrs
			a.mixValid = false
		}
		if used >= budget {
			return used
		}
	}
}

// exec retires n instructions of the current phase in bulk, updating
// counters with execStep's per-access semantics, and returns the wall
// cycles consumed.
func (a *AnalyticContext) exec(ph *analyticPhase, n uint64) uint64 {
	c := a.Counters
	fn := float64(int64(n))
	c.Instructions += n
	if !ph.compute {
		acc := fn * ph.memRatio
		c.Accesses += frac(&a.accAccess, acc)
		c.L1Misses += frac(&a.accL1M, acc*(1-ph.f1))
		refs := frac(&a.accL2M, acc*(a.fLLC+a.fMem))
		c.L2Misses += refs
		c.LLCReferences += refs
		miss := acc * a.fMem
		c.LLCMisses += frac(&a.accLLCM, miss)
		c.MemWrites += frac(&a.accMemW, miss*ph.writes)
		c.MemReads += frac(&a.accMemR, miss*(1-ph.writes))
		if a.Remote {
			c.RemoteAccesses += frac(&a.accRemote, miss)
		}
		if a.LLC != nil && miss > 0 {
			a.LLC.Reference(a.Owner, miss)
		}
	}
	busy := fn * a.cpiBusy
	b := frac(&a.accBusy, busy)
	c.UnhaltedCycles += b
	wall := b
	if ph.haltStretch > 0 {
		h := frac(&a.accHalt, busy*ph.haltStretch)
		c.HaltedCycles += h
		wall += h
	}
	return wall
}
