package cache

// This file is the package's second fidelity: an analytic LLC-occupancy
// model that replaces per-access simulation with one fixed-cost update
// per epoch (one hypervisor tick). The exact model (cache.go) charges
// ~20ns per simulated access; the analytic model charges nothing per
// access and O(owners) per epoch, which is what makes million-arrival
// sweeps affordable. internal/hv selects the tier at construction via
// Fidelity.
//
// # Model
//
// The LLC is reduced to one number per owner: O_i, the fractional number
// of lines owner i currently holds. Owners report their expected fill
// counts (misses, under write-allocate fills == misses) during the epoch
// via Reference; at the epoch boundary EndEpoch applies one step of the
// Markov occupancy recurrence:
//
//	E      = max(0, ΣM_j − (C − ΣO_j))   // fills that must evict
//	O_i'   = O_i − E·O_i/ΣO_j + M_i      // lose share of evictions, gain fills
//	O_i'   = min(O_i', W_i)              // never grow past the footprint
//	O_i''  = O_i' · min(1, C/ΣO_j')      // renormalize to capacity
//
// where C is the capacity in lines, M_i the owner's fills this epoch and
// W_i the owner's declared footprint (SetFootprint): the number of
// distinct lines its current phase can touch, already reduced for
// set-concentration (a strided pattern that maps to 1/k of the sets can
// hold at most sets/k × ways lines however small its footprint). The
// fixed point of the recurrence is the classical proportional-fill
// steady state O_i/C = M_i/ΣM_j, which is the same first-order behaviour
// the exact LRU model converges to under competing owners.
//
// Miss rates close the loop: internal/cpu's analytic executor derives
// each owner's LLC hit fraction from O_i against its footprint (see
// cpu/analytic.go) and feeds the resulting expected fills back in. The
// two tiers are cross-validated against each other on the committed
// goldens by internal/experiments' CrossValidate harness.

import "fmt"

// Fidelity selects the cache-model tier a simulated world runs on.
type Fidelity int

const (
	// FidelityExact is the per-access set-associative model — the
	// default, and the reference the goldens pin bit-for-bit.
	FidelityExact Fidelity = iota
	// FidelityAnalytic is the epoch-granular occupancy model defined in
	// this file: no per-access work, fixed cost per epoch, validated
	// against FidelityExact within the error budgets declared by the
	// cross-validation harness.
	FidelityAnalytic
)

// String returns the fidelity's CLI name.
func (f Fidelity) String() string {
	switch f {
	case FidelityExact:
		return "exact"
	case FidelityAnalytic:
		return "analytic"
	default:
		return fmt.Sprintf("Fidelity(%d)", int(f))
	}
}

// ParseFidelity parses a CLI fidelity name. The empty string selects
// FidelityExact, matching the zero value.
func ParseFidelity(s string) (Fidelity, error) {
	switch s {
	case "", "exact":
		return FidelityExact, nil
	case "analytic":
		return FidelityAnalytic, nil
	default:
		return FidelityExact, fmt.Errorf("cache: unknown fidelity %q (want exact or analytic)", s)
	}
}

// AnalyticLLC is the analytic-tier stand-in for a socket's shared LLC:
// fractional per-owner occupancy advanced once per epoch, no per-access
// state. Like Cache it is not safe for concurrent use; the hypervisor
// drives it from the single deterministic tick goroutine.
type AnalyticLLC struct {
	cfg   Config
	lines float64
	epoch uint64

	// Dense per-owner state, grown on demand exactly like Cache's stats
	// slices so owner-tag recycling keeps them bounded.
	occ       []float64 // current occupancy, lines
	fills     []float64 // fills reported this epoch
	footprint []float64 // declared footprint cap, lines
}

// NewAnalyticLLC builds the analytic model of the LLC described by cfg.
// The model has no way partitions; the partitioning ablation needs the
// exact tier.
func NewAnalyticLLC(cfg Config) (*AnalyticLLC, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &AnalyticLLC{
		cfg:       cfg,
		lines:     float64(cfg.SizeBytes / cfg.LineBytes),
		occ:       make([]float64, presizeOwners),
		fills:     make([]float64, presizeOwners),
		footprint: make([]float64, presizeOwners),
	}, nil
}

// Config returns the configuration of the modelled cache.
func (a *AnalyticLLC) Config() Config { return a.cfg }

// Lines returns the modelled capacity in lines.
func (a *AnalyticLLC) Lines() float64 { return a.lines }

// Epoch returns the number of completed epochs. Executors key their
// cached occupancy-derived miss mixes on it.
func (a *AnalyticLLC) Epoch() uint64 { return a.epoch }

// grow extends the dense per-owner slices to cover owner.
func (a *AnalyticLLC) grow(owner Owner) {
	n := len(a.occ) * 2
	if n <= int(owner) {
		n = int(owner) + 1
	}
	occ := make([]float64, n)
	copy(occ, a.occ)
	a.occ = occ
	fills := make([]float64, n)
	copy(fills, a.fills)
	a.fills = fills
	fp := make([]float64, n)
	copy(fp, a.footprint)
	a.footprint = fp
}

// Reference reports fills (expected misses, fractional) charged to owner
// during the current epoch. The executor calls it once per run slice;
// the count only takes effect at the next EndEpoch.
func (a *AnalyticLLC) Reference(owner Owner, fills float64) {
	if int(owner) >= len(a.occ) {
		a.grow(owner)
	}
	a.fills[owner] += fills
}

// SetFootprint declares the most lines owner's current phase can keep
// resident (its distinct-line footprint, reduced for set-concentration).
// Occupancy never grows past it; occupancy already above a newly smaller
// footprint decays through eviction pressure rather than instantly.
func (a *AnalyticLLC) SetFootprint(owner Owner, lines float64) {
	if int(owner) >= len(a.occ) {
		a.grow(owner)
	}
	a.footprint[owner] = lines
}

// OccupancyLines returns owner's current occupancy in lines.
func (a *AnalyticLLC) OccupancyLines(owner Owner) float64 {
	if int(owner) >= len(a.occ) {
		return 0
	}
	return a.occ[owner]
}

// OccupancyFraction returns owner's share of the cache's lines, in
// [0,1] — the analytic counterpart of Cache.OccupancyFraction.
func (a *AnalyticLLC) OccupancyFraction(owner Owner) float64 {
	return a.OccupancyLines(owner) / a.lines
}

// EndEpoch advances the occupancy recurrence one step (see the file
// comment) and zeroes the epoch's fill counters. Cost is O(owners);
// it allocates nothing.
func (a *AnalyticLLC) EndEpoch() {
	var occupied, fills float64
	for i := range a.occ {
		occupied += a.occ[i]
		fills += a.fills[i]
	}
	evict := fills - (a.lines - occupied)
	if evict < 0 {
		evict = 0
	}
	var total float64
	for i := range a.occ {
		o := a.occ[i]
		if evict > 0 && occupied > 0 {
			o -= evict * o / occupied
			if o < 0 {
				o = 0
			}
		}
		grown := o + a.fills[i]
		if cap := a.footprint[i]; grown > cap {
			// Fills never push occupancy past the footprint; lines left
			// over from an earlier, larger phase survive until eviction
			// pressure reclaims them.
			if o > cap {
				grown = o
			} else {
				grown = cap
			}
		}
		a.occ[i] = grown
		a.fills[i] = 0
		total += grown
	}
	if total > a.lines {
		scale := a.lines / total
		for i := range a.occ {
			a.occ[i] *= scale
		}
	}
	a.epoch++
}

// SkipEpochs advances the epoch counter n steps without running the
// occupancy recurrence. It is exact — not an approximation — whenever
// every owner's occupancy and fills are zero: EndEpoch on the all-zero
// state computes occupied = fills = 0, eviction pressure
// max(0, 0 - (lines - 0)) = 0, and grows every slot by zero, so the
// only mutation is epoch++. A world with no VMs is in exactly that
// state (ReleaseOwner zeroes each departing owner's slots, and fills
// are reset at every epoch boundary), which is what the hypervisor's
// idle fast-forward relies on. If any slot is non-zero, the recurrence
// is run step by step instead, so SkipEpochs(n) is always bit-identical
// to n calls of EndEpoch.
func (a *AnalyticLLC) SkipEpochs(n uint64) {
	for i := range a.occ {
		if a.occ[i] != 0 || a.fills[i] != 0 {
			for ; n > 0; n-- {
				a.EndEpoch()
			}
			return
		}
	}
	a.epoch += n
}

// FlushOwner zeroes owner's occupancy, modelling the footprint loss of a
// migration; the declared footprint is kept so the owner can refill.
func (a *AnalyticLLC) FlushOwner(owner Owner) {
	if int(owner) < len(a.occ) {
		a.occ[owner] = 0
	}
}

// ReleaseOwner zeroes all of owner's state so the tag can be recycled
// for a future vCPU — the analytic counterpart of Cache.ReleaseOwner.
func (a *AnalyticLLC) ReleaseOwner(owner Owner) {
	if int(owner) < len(a.occ) {
		a.occ[owner] = 0
		a.fills[owner] = 0
		a.footprint[owner] = 0
	}
}

// OwnersTracked returns the capacity of the per-owner slices; the churn
// boundedness tests assert it stays at the peak concurrent population.
func (a *AnalyticLLC) OwnersTracked() int { return len(a.occ) }
