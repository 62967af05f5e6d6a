// Package cache implements the set-associative cache models at the heart of
// the simulated testbed: single LRU caches, per-owner (per-vCPU)
// attribution of fills and evictions, optional UCP-style way partitioning,
// and a multi-level hierarchy (L1 -> L2 -> LLC -> memory) using the
// latencies the paper measured with lmbench (§2.2.4).
//
// Attribution is what makes the Kyoto evaluation possible: every line
// remembers which owner filled it, so the simulator can report both a VM's
// own misses (what hardware PMCs expose) and the evictions it inflicts on
// other VMs (the ground-truth "pollution" that hardware cannot attribute
// when VMs share the LLC in parallel).
//
// The package carries two fidelity tiers, selected by Fidelity. The exact
// tier (this file and hierarchy.go) simulates every access through the
// set-associative structures; the analytic tier (AnalyticLLC, analytic.go)
// replaces per-access work with a per-owner occupancy recurrence advanced
// once per epoch — ~200x faster, with modeled rather than simulated miss
// rates. The analytic model's equations and their assumptions are derived
// in analytic.go's file comment; its error against the exact tier is
// cross-validated on every committed golden by internal/experiments
// (crossval.go), with declared budgets enforced in CI.
package cache

import (
	"fmt"
	"math/bits"
)

// Owner identifies the entity (vCPU) that filled a cache line.
type Owner uint16

// OwnerNone marks an invalid or unattributed line.
const OwnerNone Owner = ^Owner(0)

// MaxOwners bounds the number of distinct owners a cache tracks statistics
// for. 1024 comfortably exceeds the paper's "about a hundred VMs per host".
const MaxOwners = 1024

// Config describes one cache level.
type Config struct {
	// Name labels the cache in reports, e.g. "L1D" or "LLC".
	Name string
	// SizeBytes is the total capacity. Must be Ways*LineBytes*power-of-two.
	SizeBytes int
	// Ways is the associativity.
	Ways int
	// LineBytes is the line size (the paper's machines use 64).
	LineBytes int
	// HitLatencyCycles is the access cost when this level hits, measured
	// from the core (i.e. inclusive of lookup in faster levels), matching
	// how lmbench reports it.
	HitLatencyCycles uint32
}

// Validate checks the geometry and returns a descriptive error when the
// configuration cannot be built.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 || c.LineBytes <= 0 {
		return fmt.Errorf("cache %q: size, ways and line size must be positive (got %d/%d/%d)",
			c.Name, c.SizeBytes, c.Ways, c.LineBytes)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache %q: line size %d is not a power of two", c.Name, c.LineBytes)
	}
	lines := c.SizeBytes / c.LineBytes
	if lines*c.LineBytes != c.SizeBytes {
		return fmt.Errorf("cache %q: size %d is not a multiple of line size %d", c.Name, c.SizeBytes, c.LineBytes)
	}
	if lines%c.Ways != 0 {
		return fmt.Errorf("cache %q: %d lines not divisible by %d ways", c.Name, lines, c.Ways)
	}
	sets := lines / c.Ways
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %q: %d sets is not a power of two", c.Name, sets)
	}
	if c.Ways > 64 {
		return fmt.Errorf("cache %q: %d ways exceeds the 64-way partition mask limit", c.Name, c.Ways)
	}
	return nil
}

// The cache's line metadata is kept in structure-of-arrays form: the hit
// path scans only the dense tags array (8 bytes per way instead of a
// 24-byte line struct), recency is a per-set linked list of byte way
// indices, and validity is one bitmask per set so "any invalid way?" is a
// single mask compare.
// This layout is what makes a simulated memory access cheap enough for
// the multi-thousand-world sweeps; see the package benchmarks.

// OwnerStats aggregates a single owner's activity at one cache level.
type OwnerStats struct {
	// Accesses counts lookups issued by the owner.
	Accesses uint64
	// Misses counts lookups that missed at this level.
	Misses uint64
	// Fills counts lines installed by the owner (== Misses unless the
	// level is bypassed).
	Fills uint64
	// EvictionsInflicted counts valid lines belonging to *other* owners
	// that this owner's fills displaced — the ground-truth pollution the
	// Kyoto principle charges for.
	EvictionsInflicted uint64
	// EvictionsSuffered counts this owner's valid lines displaced by any
	// owner (including itself).
	EvictionsSuffered uint64
	// SelfEvictions counts this owner's lines displaced by its own fills.
	SelfEvictions uint64
}

// Hits returns the owner's hit count at this level.
func (s OwnerStats) Hits() uint64 { return s.Accesses - s.Misses }

// Cache is a single set-associative LRU cache level. Owners may be
// restricted to a way mask (SetPartition), modelling UCP-style cache
// partitioning ([27] in the paper); lookups still search every way.
//
// Cache is not safe for concurrent use: the simulated machine interleaves
// cores deterministically on a single goroutine (see internal/hv), which is
// what makes runs reproducible.
type Cache struct {
	cfg    Config
	tags   []uint64 // sets*ways, set-major; meaningful only where valid
	owners []Owner  // filling owner per line
	valid  []uint64 // per-set bitmask: bit i set = way i holds a line
	// Recency is a doubly-linked list of ways per set (byte indices), so
	// a hit's MRU promotion and a miss's LRU victim are both O(1).
	// lruNext points towards LRU, lruPrev towards MRU.
	lruNext   []uint8 // indexed base+way
	lruPrev   []uint8 // indexed base+way
	lruHead   []uint8 // per set: MRU way
	lruTail   []uint8 // per set: LRU way
	ways      uint32
	setMask   uint64
	lineShift uint
	allWays   uint64 // bitmask of every way

	// Per-owner statistics and occupancy, dense slices indexed by Owner.
	// Owners are small dense ints (vCPU ids, bounded by MaxOwners), so a
	// direct index replaces the map+memo the hot path used to pay for.
	// Both slices grow together on demand; see growOwners.
	stats     []OwnerStats
	occupancy []int
	totals    OwnerStats // aggregate over all owners (kept separately: cheap)

	// partition[o] is owner o's allowed-way mask; owners past its end or
	// with a zero entry may fill any way. Nil until the first
	// SetPartition, so an unpartitioned miss pays one length test.
	partition []uint64
}

// New builds a cache from cfg.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	lines := cfg.SizeBytes / cfg.LineBytes
	sets := lines / cfg.Ways
	c := &Cache{
		cfg:       cfg,
		tags:      make([]uint64, lines),
		owners:    make([]Owner, lines),
		valid:     make([]uint64, sets),
		lruNext:   make([]uint8, lines),
		lruPrev:   make([]uint8, lines),
		lruHead:   make([]uint8, sets),
		lruTail:   make([]uint8, sets),
		ways:      uint32(cfg.Ways),
		setMask:   uint64(sets - 1),
		lineShift: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		allWays:   wayMaskAll(cfg.Ways),
		stats:     make([]OwnerStats, presizeOwners),
		occupancy: make([]int, presizeOwners),
	}
	for s := 0; s < sets; s++ {
		base := s * cfg.Ways
		for w := 0; w < cfg.Ways; w++ {
			c.lruNext[base+w] = uint8(w + 1)
			c.lruPrev[base+w] = uint8(w - 1)
		}
		c.lruTail[s] = uint8(cfg.Ways - 1)
	}
	return c, nil
}

// presizeOwners is the initial length of the per-owner stats/occupancy
// slices: enough for a typical host's vCPU population without growth.
const presizeOwners = 16

// MustNew is New but panics on error; for tests and static configs whose
// validity is established by construction.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the configuration the cache was built with.
func (c *Cache) Config() Config { return c.cfg }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return int(c.setMask + 1) }

// SetPartition restricts owner's fills to the ways set in mask
// (bit i = way i). A zero mask removes the restriction. Lookups always
// search all ways, as in UCP hardware.
func (c *Cache) SetPartition(owner Owner, mask uint64) {
	mask &= c.allWays
	if int(owner) >= len(c.partition) {
		if mask == 0 {
			return
		}
		grown := make([]uint64, int(owner)+1)
		copy(grown, c.partition)
		c.partition = grown
	}
	c.partition[owner] = mask
}

// Access performs one load/store lookup for owner at byte address addr.
// It returns true on hit. On miss the line is filled (write-allocate) and
// the LRU way the owner may fill is evicted.
//
// The hit path is deliberately lean: one dense stats index, one sequential
// scan over the set's tags, and an MRU promotion. Victim choice and
// eviction bookkeeping live on the miss path.
func (c *Cache) Access(addr uint64, owner Owner) bool {
	tag := addr >> c.lineShift
	set := uint32(tag & c.setMask)
	base := set * c.ways
	if int(owner) >= len(c.stats) {
		c.growOwners(owner)
	}
	st := &c.stats[owner]
	st.Accesses++
	c.totals.Accesses++

	vmask := c.valid[set]
	tags := c.tags[base : base+c.ways : base+c.ways]
	for i := range tags {
		// The validity test only runs on a tag match (stale tags of
		// invalidated ways must not hit), so the common non-matching way
		// costs one load and one compare.
		if tags[i] == tag && vmask>>uint(i)&1 != 0 {
			c.touchLRU(base, set, uint8(i))
			return true
		}
	}

	st.Misses++
	c.totals.Misses++
	c.fill(base, set, tag, owner, st)
	return false
}

// touchLRU promotes way w to MRU in the set's recency list: an unlink and
// a head insert, a handful of byte stores whatever the associativity.
func (c *Cache) touchLRU(base, set uint32, w uint8) {
	if c.lruHead[set] == w {
		return
	}
	p, n := c.lruPrev[base+uint32(w)], c.lruNext[base+uint32(w)]
	c.lruNext[base+uint32(p)] = n // w != head, so p is a real way
	if c.lruTail[set] == w {
		c.lruTail[set] = p
	} else {
		c.lruPrev[base+uint32(n)] = p
	}
	h := c.lruHead[set]
	c.lruPrev[base+uint32(h)] = w
	c.lruNext[base+uint32(w)] = h
	c.lruHead[set] = w
}

// Probe reports whether addr is present without updating replacement state
// or statistics. Monitors use it to inspect without perturbing.
func (c *Cache) Probe(addr uint64) bool {
	tag := addr >> c.lineShift
	set := uint32(tag & c.setMask)
	base := set * c.ways
	vmask := c.valid[set]
	for i := uint32(0); i < c.ways; i++ {
		if c.tags[base+i] == tag && vmask>>i&1 != 0 {
			return true
		}
	}
	return false
}

// fill installs tag into the set for owner, evicting a victim if needed.
func (c *Cache) fill(base, set uint32, tag uint64, owner Owner, st *OwnerStats) {
	victim := c.pickVictim(base, set, owner)
	idx := base + victim
	vbit := uint64(1) << victim
	evicting := c.valid[set]&vbit != 0
	if evicting {
		vowner := c.owners[idx]
		// The victim's owner filled this line earlier, so its stats row
		// already exists; st stays valid because no growth can occur here.
		vst := &c.stats[vowner]
		vst.EvictionsSuffered++
		c.totals.EvictionsSuffered++
		c.occupancy[vowner]--
		if vowner == owner {
			st.SelfEvictions++
			c.totals.SelfEvictions++
		} else {
			st.EvictionsInflicted++
			c.totals.EvictionsInflicted++
		}
	} else {
		c.valid[set] |= vbit
	}
	c.tags[idx] = tag
	c.owners[idx] = owner
	c.occupancy[owner]++
	st.Fills++
	c.totals.Fills++
	c.touchLRU(base, set, uint8(victim))
}

// pickVictim chooses the way owner's fill evicts: the lowest invalid way
// the owner may fill, else the least recently used of those ways. The
// walk may start from the tail because every allowed way is then valid,
// and valid ways sit in the recency list in the order of their last touch.
func (c *Cache) pickVictim(base, set uint32, owner Owner) uint32 {
	mask := c.allWays
	if int(owner) < len(c.partition) && c.partition[owner] != 0 {
		mask = c.partition[owner]
	}
	if free := ^c.valid[set] & mask; free != 0 {
		return uint32(bits.TrailingZeros64(free))
	}
	w := c.lruTail[set]
	for mask>>w&1 == 0 {
		w = c.lruPrev[base+uint32(w)]
	}
	return uint32(w)
}

// growOwners extends the dense stats and occupancy slices to cover owner.
// Growth doubles (bounded below by the owner's index) so repeated new
// owners amortize; MaxOwners documents the intended population bound, but
// the slices simply grow to whatever owner ids actually appear.
func (c *Cache) growOwners(owner Owner) {
	n := len(c.stats) * 2
	if n <= int(owner) {
		n = int(owner) + 1
	}
	stats := make([]OwnerStats, n)
	copy(stats, c.stats)
	c.stats = stats
	occ := make([]int, n)
	copy(occ, c.occupancy)
	c.occupancy = occ
}

// Stats returns a copy of owner's statistics at this level.
func (c *Cache) Stats(owner Owner) OwnerStats {
	if int(owner) >= len(c.stats) {
		return OwnerStats{}
	}
	return c.stats[owner]
}

// Totals returns aggregate statistics across all owners.
func (c *Cache) Totals() OwnerStats { return c.totals }

// Occupancy returns the number of valid lines currently owned by owner.
func (c *Cache) Occupancy(owner Owner) int {
	if int(owner) >= len(c.occupancy) {
		return 0
	}
	return c.occupancy[owner]
}

// OccupancyFraction returns owner's share of the cache's lines, in [0,1].
func (c *Cache) OccupancyFraction(owner Owner) float64 {
	return float64(c.Occupancy(owner)) / float64(len(c.tags))
}

// ResetStats zeroes all statistics (occupancy and content are preserved).
// Sampling windows call this between measurements.
func (c *Cache) ResetStats() {
	for i := range c.stats {
		c.stats[i] = OwnerStats{}
	}
	c.totals = OwnerStats{}
}

// Flush invalidates every line and clears occupancy. Statistics are kept.
// The recency lists need no reset: victims are taken from invalid ways
// until the set refills, and by then the recency order has been rebuilt
// entirely from the new fills.
func (c *Cache) Flush() {
	for i := range c.tags {
		c.tags[i] = 0
		c.owners[i] = 0
	}
	for i := range c.valid {
		c.valid[i] = 0
	}
	for i := range c.occupancy {
		c.occupancy[i] = 0
	}
}

// FlushOwner invalidates every line belonging to owner, modelling the cache
// footprint loss a vCPU suffers when migrated to another socket.
func (c *Cache) FlushOwner(owner Owner) {
	if c.Occupancy(owner) == 0 {
		// Nothing to scan for: always the case on the analytic tier,
		// whose exact caches stay empty.
		return
	}
	removed := 0
	for set := range c.valid {
		vmask := c.valid[set]
		for rest := vmask; rest != 0; rest &= rest - 1 {
			i := uint32(bits.TrailingZeros64(rest))
			idx := uint32(set)*c.ways + i
			if c.owners[idx] == owner {
				c.valid[set] &^= 1 << i
				c.tags[idx], c.owners[idx] = 0, 0
				removed++
			}
		}
	}
	if removed > 0 {
		// owner filled the removed lines, so its occupancy slot exists.
		c.occupancy[owner] -= removed
	}
}

// ReleaseOwner invalidates every line belonging to owner (FlushOwner) and
// zeroes the owner's statistics row and partition entry, so the tag can be
// recycled for a future vCPU without inheriting the departed one's history.
// Aggregate Totals are cumulative across the cache's whole life and are
// deliberately not rewound, so fleet-level pollution accounting survives
// churn; after a release, summing Stats over live owners no longer
// reproduces Totals.
func (c *Cache) ReleaseOwner(owner Owner) {
	c.FlushOwner(owner)
	if int(owner) < len(c.stats) {
		c.stats[owner] = OwnerStats{}
	}
	c.SetPartition(owner, 0)
}

// OwnersTracked returns the capacity of the dense per-owner statistics
// slices — how many distinct owner tags this cache has sized itself for.
// With tag recycling (hv.World.RemoveVM releases tags for reuse) this stays
// bounded by the peak concurrent vCPU population, not by total arrivals;
// the churn regression tests assert exactly that.
func (c *Cache) OwnersTracked() int { return len(c.stats) }

// wayMaskAll returns a bitmask with the low n bits set.
func wayMaskAll(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << n) - 1
}
