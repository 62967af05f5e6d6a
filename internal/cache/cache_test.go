package cache

import (
	"encoding/json"
	"testing"
	"testing/quick"

	"kyoto/internal/xrand"
)

// tiny returns a small LRU cache: 4 sets x 2 ways x 64B lines = 512 B.
func tiny(t *testing.T) *Cache {
	t.Helper()
	c, err := New(Config{
		Name: "T", SizeBytes: 512, Ways: 2, LineBytes: 64, HitLatencyCycles: 4,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"valid", Config{Name: "c", SizeBytes: 1024, Ways: 2, LineBytes: 64}, true},
		{"zero size", Config{Name: "c", SizeBytes: 0, Ways: 2, LineBytes: 64}, false},
		{"negative ways", Config{Name: "c", SizeBytes: 1024, Ways: -1, LineBytes: 64}, false},
		{"line not pow2", Config{Name: "c", SizeBytes: 1024, Ways: 2, LineBytes: 48}, false},
		{"size not multiple of line", Config{Name: "c", SizeBytes: 1000, Ways: 2, LineBytes: 64}, false},
		{"lines not divisible by ways", Config{Name: "c", SizeBytes: 64 * 6, Ways: 4, LineBytes: 64}, false},
		{"sets not pow2", Config{Name: "c", SizeBytes: 64 * 12, Ways: 2, LineBytes: 64}, false},
		{"too many ways", Config{Name: "c", SizeBytes: 64 * 128, Ways: 128, LineBytes: 64}, false},
		{"paper LLC", Config{Name: "LLC", SizeBytes: 10 * 1024 * 1024 / 16, Ways: 20, LineBytes: 64}, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.ok && err != nil {
				t.Fatalf("want valid, got %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatalf("want error, got nil")
			}
		})
	}
}

func TestMissThenHit(t *testing.T) {
	c := tiny(t)
	if c.Access(0x1000, 1) {
		t.Fatal("first access must miss")
	}
	if !c.Access(0x1000, 1) {
		t.Fatal("second access must hit")
	}
	if !c.Access(0x1020, 1) {
		t.Fatal("same-line access (different offset) must hit")
	}
	st := c.Stats(1)
	if st.Accesses != 3 || st.Misses != 1 || st.Hits() != 2 {
		t.Fatalf("stats = %+v, want 3 accesses / 1 miss", st)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := tiny(t) // 4 sets, 2 ways; same set every 4 lines (256B stride)
	a0 := uint64(0x0000)
	a1 := a0 + 256 // same set, different tag
	a2 := a0 + 512
	c.Access(a0, 1)
	c.Access(a1, 1)
	c.Access(a0, 1) // a0 now MRU, a1 LRU
	c.Access(a2, 1) // evicts a1
	if !c.Probe(a0) {
		t.Fatal("a0 (MRU) must survive")
	}
	if c.Probe(a1) {
		t.Fatal("a1 (LRU) must be evicted")
	}
	if !c.Probe(a2) {
		t.Fatal("a2 must be present")
	}
}

func TestEvictionAttribution(t *testing.T) {
	c := tiny(t)
	// Owner 1 fills both ways of set 0, then owner 2 evicts one.
	c.Access(0, 1)
	c.Access(256, 1)
	c.Access(512, 2)
	s1, s2 := c.Stats(1), c.Stats(2)
	if s1.EvictionsSuffered != 1 {
		t.Fatalf("owner 1 suffered = %d, want 1", s1.EvictionsSuffered)
	}
	if s2.EvictionsInflicted != 1 {
		t.Fatalf("owner 2 inflicted = %d, want 1", s2.EvictionsInflicted)
	}
	if s2.SelfEvictions != 0 {
		t.Fatalf("owner 2 self-evictions = %d, want 0", s2.SelfEvictions)
	}
	// Owner 1 thrashes its own set: self eviction.
	c.Access(1024, 1)
	c.Access(1280, 1)
	c.Access(1536, 1)
	s1 = c.Stats(1)
	if s1.SelfEvictions == 0 {
		t.Fatal("expected at least one self eviction")
	}
}

func TestOccupancyTracking(t *testing.T) {
	c := tiny(t)
	for i := uint64(0); i < 4; i++ {
		c.Access(i*64, 1) // four distinct sets
	}
	if got := c.Occupancy(1); got != 4 {
		t.Fatalf("occupancy = %d, want 4", got)
	}
	if got := c.OccupancyFraction(1); got != 0.5 {
		t.Fatalf("fraction = %v, want 0.5", got)
	}
	c.FlushOwner(1)
	if got := c.Occupancy(1); got != 0 {
		t.Fatalf("occupancy after FlushOwner = %d, want 0", got)
	}
	for i := uint64(0); i < 4; i++ {
		if c.Probe(i * 64) {
			t.Fatalf("line %d survived FlushOwner", i)
		}
	}
}

func TestFlushKeepsStats(t *testing.T) {
	c := tiny(t)
	c.Access(0, 1)
	c.Flush()
	if c.Probe(0) {
		t.Fatal("line survived Flush")
	}
	if st := c.Stats(1); st.Accesses != 1 {
		t.Fatalf("stats cleared by Flush: %+v", st)
	}
	c.ResetStats()
	if st := c.Stats(1); st.Accesses != 0 {
		t.Fatalf("ResetStats left %+v", st)
	}
}

func TestPartitioning(t *testing.T) {
	c := MustNew(Config{
		Name: "part", SizeBytes: 4 * 4 * 64, Ways: 4, LineBytes: 64,
	})
	c.SetPartition(1, 0b0011)
	c.SetPartition(2, 0b1100)
	// Owner 2 fills its two ways of set 0; owner 1 then streams many
	// conflicting lines. Owner 2's lines must survive: that is the whole
	// point of UCP-style partitioning.
	c.Access(0x0000, 2)
	c.Access(0x0400, 2) // set stride = 4 sets * 64 B = 256; 0x400 = 4*256 -> set 0
	for i := uint64(2); i < 30; i++ {
		c.Access(i*0x400, 1)
	}
	if !c.Probe(0x0000) || !c.Probe(0x0400) {
		t.Fatal("partitioned owner 2 lines were evicted by owner 1")
	}
	if got := c.Stats(1).EvictionsInflicted; got != 0 {
		t.Fatalf("owner 1 inflicted %d evictions despite disjoint partitions", got)
	}
}

func TestHierarchyLatencies(t *testing.T) {
	l1 := MustNew(Config{Name: "L1", SizeBytes: 512, Ways: 2, LineBytes: 64, HitLatencyCycles: 4})
	l2 := MustNew(Config{Name: "L2", SizeBytes: 2048, Ways: 4, LineBytes: 64, HitLatencyCycles: 12})
	llc := MustNew(Config{Name: "LLC", SizeBytes: 8192, Ways: 8, LineBytes: 64, HitLatencyCycles: 45})
	p := &Path{L1D: l1, L2: l2, LLC: llc, MemLatencyCycles: 180, RemotePenaltyCycles: 120}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}

	lvl, lat := p.Access(0x1000, 1, false)
	if lvl != HitMemory || lat != 180 {
		t.Fatalf("cold access = %v/%d, want MEM/180", lvl, lat)
	}
	lvl, lat = p.Access(0x1000, 1, false)
	if lvl != HitL1 || lat != 4 {
		t.Fatalf("hot access = %v/%d, want L1/4", lvl, lat)
	}
	_, lat = p.Access(0x2000, 1, true)
	if lat != 300 {
		t.Fatalf("remote cold access latency = %d, want 300", lat)
	}

	// Evict from L1 only: next access should hit L2 at 12 cycles.
	p.FlushPrivate()
	l2.Access(0x1000, 1) // reload L2 by hand after flush
	lvl, lat = p.Access(0x1000, 1, false)
	if lvl != HitL2 && lvl != HitLLC {
		t.Fatalf("after private flush, level = %v, want L2 or LLC", lvl)
	}
	if lat != 12 && lat != 45 {
		t.Fatalf("latency = %d, want 12 or 45", lat)
	}
}

func TestHierarchyValidate(t *testing.T) {
	p := &Path{}
	if err := p.Validate(); err == nil {
		t.Fatal("empty path must not validate")
	}
}

// Property: for any access sequence, per-owner accounting stays coherent.
func TestQuickAccountingInvariants(t *testing.T) {
	f := func(addrs []uint16, owners []uint8) bool {
		c := MustNew(Config{
			Name: "q", SizeBytes: 8 * 2 * 64, Ways: 2, LineBytes: 64,
		})
		for i, a := range addrs {
			o := Owner(1)
			if len(owners) > 0 {
				o = Owner(owners[i%len(owners)]%4) + 1
			}
			c.Access(uint64(a)*8, o)
		}
		tot := c.Totals()
		// accesses = hits + misses; fills == misses (write-allocate, no bypass)
		if tot.Hits()+tot.Misses != tot.Accesses || tot.Fills != tot.Misses {
			return false
		}
		// evictions suffered = inflicted + self, globally
		if tot.EvictionsSuffered != tot.EvictionsInflicted+tot.SelfEvictions {
			return false
		}
		// occupancy sums to fills - evictions and never exceeds capacity
		occ := 0
		for o := Owner(1); o <= 4; o++ {
			if c.Occupancy(o) < 0 {
				return false
			}
			occ += c.Occupancy(o)
		}
		if occ > 16 {
			return false
		}
		return uint64(occ) == tot.Fills-tot.EvictionsSuffered
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a resident line always hits until something evicts it; Probe
// never lies.
func TestQuickProbeConsistency(t *testing.T) {
	f := func(seq []uint16) bool {
		c := MustNew(Config{
			Name: "q2", SizeBytes: 4 * 2 * 64, Ways: 2, LineBytes: 64,
		})
		for _, a := range seq {
			addr := uint64(a) * 32
			present := c.Probe(addr)
			hit := c.Access(addr, 1)
			if present != hit {
				return false
			}
			if !c.Probe(addr) { // just-filled line must be resident
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// refLRU is a brute-force reference LRU model: full tags, uint64 stamps,
// per-owner way masks and a linear victim scan over the owner's allowed
// ways with lowest-index tie-break — the semantics the production cache's
// linked recency list must reproduce exactly. It keeps its own per-owner
// statistics and occupancy so every counter can be checked too.
type refLRU struct {
	ways   int
	sets   uint64
	tags   [][]uint64
	stamps [][]uint64
	owners [][]Owner
	valid  [][]bool
	clock  uint64
	masks  map[Owner]uint64
	stats  map[Owner]*OwnerStats
	occ    map[Owner]int
}

func newRefLRU(sets, ways int) *refLRU {
	r := &refLRU{ways: ways, sets: uint64(sets),
		masks: map[Owner]uint64{}, stats: map[Owner]*OwnerStats{}, occ: map[Owner]int{}}
	for s := 0; s < sets; s++ {
		r.tags = append(r.tags, make([]uint64, ways))
		r.stamps = append(r.stamps, make([]uint64, ways))
		r.owners = append(r.owners, make([]Owner, ways))
		r.valid = append(r.valid, make([]bool, ways))
	}
	return r
}

func (r *refLRU) stat(o Owner) *OwnerStats {
	if r.stats[o] == nil {
		r.stats[o] = &OwnerStats{}
	}
	return r.stats[o]
}

func (r *refLRU) access(addr uint64, owner Owner) bool {
	tag := addr >> 6
	set := tag % r.sets
	r.clock++
	st := r.stat(owner)
	st.Accesses++
	for w := 0; w < r.ways; w++ {
		if r.valid[set][w] && r.tags[set][w] == tag {
			r.stamps[set][w] = r.clock
			return true
		}
	}
	st.Misses++
	st.Fills++
	mask := wayMaskAll(r.ways)
	if m, ok := r.masks[owner]; ok {
		mask = m
	}
	victim := -1
	for w := 0; w < r.ways; w++ {
		if mask>>w&1 != 0 && !r.valid[set][w] {
			victim = w
			break
		}
	}
	if victim < 0 {
		var bestStamp uint64
		for w := 0; w < r.ways; w++ {
			if mask>>w&1 != 0 && (victim < 0 || r.stamps[set][w] < bestStamp) {
				victim, bestStamp = w, r.stamps[set][w]
			}
		}
		v := r.owners[set][victim]
		r.stat(v).EvictionsSuffered++
		r.occ[v]--
		if v == owner {
			st.SelfEvictions++
		} else {
			st.EvictionsInflicted++
		}
	}
	r.tags[set][victim] = tag
	r.stamps[set][victim] = r.clock
	r.owners[set][victim] = owner
	r.valid[set][victim] = true
	r.occ[owner]++
	return false
}

func (r *refLRU) setPartition(owner Owner, mask uint64) {
	if mask &= wayMaskAll(r.ways); mask == 0 {
		delete(r.masks, owner)
	} else {
		r.masks[owner] = mask
	}
}

func (r *refLRU) flushOwner(owner Owner) {
	for s := range r.valid {
		for w := 0; w < r.ways; w++ {
			if r.valid[s][w] && r.owners[s][w] == owner {
				r.valid[s][w] = false
				r.stamps[s][w] = 0
				r.occ[owner]--
			}
		}
	}
}

func (r *refLRU) flush() {
	for s := range r.valid {
		for w := 0; w < r.ways; w++ {
			r.valid[s][w] = false
			r.stamps[s][w] = 0
		}
	}
	r.occ = map[Owner]int{}
}

func (r *refLRU) releaseOwner(owner Owner) {
	r.flushOwner(owner)
	delete(r.stats, owner)
	delete(r.masks, owner)
}

// Property: the linked-list LRU replacement is access-for-access identical
// to the reference stamp-scan model, with interleaved owners and under
// both full-Flush and FlushOwner holes (invalidated ways keep stale
// positions in the recency list; the old code zeroed their stamps — the
// victim choice must come out the same either way).
func TestQuickLRUMatchesReference(t *testing.T) {
	f := func(seq []uint16, flushAt, flushOwnerAt uint8) bool {
		const sets, ways = 4, 4
		c := MustNew(Config{
			Name: "lru-eq", SizeBytes: sets * ways * 64, Ways: ways, LineBytes: 64,
		})
		ref := newRefLRU(sets, ways)
		for i, a := range seq {
			addr := uint64(a) * 64
			owner := Owner(i%3) + 1
			if c.Access(addr, owner) != ref.access(addr, owner) {
				return false
			}
			if len(seq) > 0 && i == int(flushAt)%len(seq) {
				c.Flush()
				ref.flush()
			}
			if len(seq) > 0 && i == int(flushOwnerAt)%len(seq) {
				c.FlushOwner(2)
				ref.flushOwner(2)
			}
		}
		// Residency must agree line-for-line at the end.
		for _, a := range seq {
			addr := uint64(a) * 64
			tag := addr >> 6
			set := tag % sets
			present := false
			for w := 0; w < ways; w++ {
				if ref.valid[set][w] && ref.tags[set][w] == tag {
					present = true
				}
			}
			if c.Probe(addr) != present {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestMaskedVictimsMatchReference drives the cache and the stamp-scan
// reference through seeded random streams of accesses, way-partition
// changes (zero masks included), owner releases, flushes and
// checkpoint round-trips into a fresh cache, and compares every hit,
// every owner's statistics and every owner's occupancy after each step.
func TestMaskedVictimsMatchReference(t *testing.T) {
	const sets, ways, owners = 4, 8, 4
	cfg := Config{Name: "masked", SizeBytes: sets * ways * 64, Ways: ways, LineBytes: 64}
	for seed := uint64(1); seed <= 20; seed++ {
		rng := xrand.New(seed)
		c := MustNew(cfg)
		ref := newRefLRU(sets, ways)
		for step := 0; step < 3000; step++ {
			owner := Owner(rng.Intn(owners)) + 1
			switch op := rng.Intn(100); {
			case op < 80:
				addr := uint64(rng.Intn(sets*ways*3)) * 64
				if got, want := c.Access(addr, owner), ref.access(addr, owner); got != want {
					t.Fatalf("seed %d step %d: Access(%#x, %d) hit = %v, reference %v", seed, step, addr, owner, got, want)
				}
			case op < 90:
				mask := rng.Uint64() & wayMaskAll(ways+1) // bit 8 lies outside the ways
				if rng.Intn(4) == 0 {
					mask = 0
				}
				c.SetPartition(owner, mask)
				ref.setPartition(owner, mask)
			case op < 93:
				c.ReleaseOwner(owner)
				ref.releaseOwner(owner)
			case op < 96:
				c.FlushOwner(owner)
				ref.flushOwner(owner)
			case op < 97:
				c.Flush()
				ref.flush()
			default:
				raw, err := json.Marshal(c.CaptureState())
				if err != nil {
					t.Fatal(err)
				}
				var st State
				if err := json.Unmarshal(raw, &st); err != nil {
					t.Fatal(err)
				}
				c = MustNew(cfg)
				if err := c.RestoreState(st); err != nil {
					t.Fatal(err)
				}
			}
			for o := Owner(1); o <= owners; o++ {
				want := OwnerStats{}
				if ref.stats[o] != nil {
					want = *ref.stats[o]
				}
				if got := c.Stats(o); got != want {
					t.Fatalf("seed %d step %d: owner %d stats %+v, reference %+v", seed, step, o, got, want)
				}
				if got, want := c.Occupancy(o), ref.occ[o]; got != want {
					t.Fatalf("seed %d step %d: owner %d occupancy %d, reference %d", seed, step, o, got, want)
				}
			}
		}
	}
}

func TestOwnerStatsGrowth(t *testing.T) {
	c := tiny(t)
	// Owners far beyond the pre-sized slice must work and stay isolated.
	high := Owner(900)
	c.Access(0, high)
	c.Access(0, high)
	st := c.Stats(high)
	if st.Accesses != 2 || st.Misses != 1 {
		t.Fatalf("high-owner stats = %+v", st)
	}
	if got := c.Occupancy(high); got != 1 {
		t.Fatalf("high-owner occupancy = %d, want 1", got)
	}
	// Unseen owners (in and out of the grown range) read as zero.
	if c.Stats(5) != (OwnerStats{}) || c.Stats(1023) != (OwnerStats{}) {
		t.Fatal("unseen owners must have zero stats")
	}
	if c.Occupancy(5) != 0 || c.Occupancy(1023) != 0 {
		t.Fatal("unseen owners must have zero occupancy")
	}
}

func TestFlushOwnerInterleaved(t *testing.T) {
	c := tiny(t) // 4 sets x 2 ways
	// Owners 1 and 2 each own one way of every set.
	for set := uint64(0); set < 4; set++ {
		c.Access(set*64, 1)
		c.Access(set*64+256, 2)
	}
	if c.Occupancy(1) != 4 || c.Occupancy(2) != 4 {
		t.Fatalf("occupancy = %d/%d, want 4/4", c.Occupancy(1), c.Occupancy(2))
	}
	c.FlushOwner(1)
	if c.Occupancy(1) != 0 {
		t.Fatalf("owner 1 occupancy after flush = %d", c.Occupancy(1))
	}
	if c.Occupancy(2) != 4 {
		t.Fatalf("owner 2 occupancy disturbed: %d", c.Occupancy(2))
	}
	for set := uint64(0); set < 4; set++ {
		if c.Probe(set * 64) {
			t.Fatal("owner 1 line survived FlushOwner")
		}
		if !c.Probe(set*64 + 256) {
			t.Fatal("owner 2 line lost by FlushOwner")
		}
	}
	// Flushing an owner that never filled anything is a no-op.
	c.FlushOwner(777)
	if c.Occupancy(2) != 4 || c.Occupancy(777) != 0 {
		t.Fatal("FlushOwner of unseen owner must not disturb state")
	}
	// The flushed ways refill before any valid line is evicted.
	before := c.Totals().EvictionsSuffered
	for set := uint64(0); set < 4; set++ {
		c.Access(set*64+512, 3)
	}
	if c.Totals().EvictionsSuffered != before {
		t.Fatal("refill after FlushOwner must use the freed ways")
	}
}

func TestResetStatsKeepsOccupancyAndContent(t *testing.T) {
	c := tiny(t)
	c.Access(0, 1)
	c.Access(256, 2)
	c.ResetStats()
	if c.Stats(1) != (OwnerStats{}) || c.Stats(2) != (OwnerStats{}) || c.Totals() != (OwnerStats{}) {
		t.Fatal("ResetStats must zero all rows and totals")
	}
	if c.Occupancy(1) != 1 || c.Occupancy(2) != 1 {
		t.Fatal("ResetStats must preserve occupancy")
	}
	if !c.Probe(0) || !c.Probe(256) {
		t.Fatal("ResetStats must preserve content")
	}
	// Stats resume accumulating after the reset.
	c.Access(0, 1)
	if st := c.Stats(1); st.Accesses != 1 || st.Hits() != 1 {
		t.Fatalf("post-reset stats = %+v", st)
	}
}

func TestOccupancyFractionBounds(t *testing.T) {
	c := tiny(t)
	if got := c.OccupancyFraction(3); got != 0 {
		t.Fatalf("unseen owner fraction = %v, want 0", got)
	}
	for i := uint64(0); i < 8; i++ {
		c.Access(i*64, 1)
	}
	if got := c.OccupancyFraction(1); got != 1 {
		t.Fatalf("full-cache fraction = %v, want 1", got)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() OwnerStats {
		c := MustNew(Config{
			Name: "d", SizeBytes: 16 * 4 * 64, Ways: 4, LineBytes: 64,
		})
		c.SetPartition(1, 0b0011)
		c.SetPartition(2, 0b1110)
		for i := 0; i < 5000; i++ {
			c.Access(uint64(i*97)%32768, Owner(i%3)+1)
		}
		return c.Totals()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("identical runs produced different totals:\n%+v\n%+v", a, b)
	}
}

func BenchmarkAccessLRU(b *testing.B) {
	c := MustNew(Config{
		Name: "bench", SizeBytes: 640 * 1024, Ways: 20, LineBytes: 64,
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(uint64(i*64)%(2*640*1024), 1)
	}
}

// BenchmarkCacheAccess covers the shapes the simulation hot path actually
// issues: hammering a resident line (the L1-hit fast path), streaming
// through twice the capacity (miss + eviction path), interleaving four
// owners (the per-owner stats path a multi-VM host exercises), and two
// owners with disjoint way masks streaming misses (the partitioned victim
// walk).
func BenchmarkCacheAccess(b *testing.B) {
	mk := func() *Cache {
		return MustNew(Config{
			Name: "bench", SizeBytes: 640 * 1024, Ways: 20, LineBytes: 64,
		})
	}
	b.Run("hit", func(b *testing.B) {
		c := mk()
		c.Access(0x1000, 1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Access(0x1000, 1)
		}
	})
	b.Run("stream-miss", func(b *testing.B) {
		c := mk()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Access(uint64(i)*64%(2*640*1024), 1)
		}
	})
	b.Run("multi-owner", func(b *testing.B) {
		c := mk()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Access(uint64(i)*64%(2*640*1024), Owner(i&3)+1)
		}
	})
	b.Run("partitioned", func(b *testing.B) {
		c := mk()
		c.SetPartition(1, 0x003FF) // ways 0-9
		c.SetPartition(2, 0xFFC00) // ways 10-19
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Access(uint64(i)*64%(2*640*1024), Owner(i&1)+1)
		}
	})
	b.Run("path", func(b *testing.B) {
		l1 := MustNew(Config{Name: "L1", SizeBytes: 2 * 1024, Ways: 8, LineBytes: 64, HitLatencyCycles: 4})
		l2 := MustNew(Config{Name: "L2", SizeBytes: 16 * 1024, Ways: 8, LineBytes: 64, HitLatencyCycles: 12})
		llc := MustNew(Config{Name: "LLC", SizeBytes: 640 * 1024, Ways: 20, LineBytes: 64, HitLatencyCycles: 45})
		p := &Path{L1D: l1, L2: l2, LLC: llc, MemLatencyCycles: 180, RemotePenaltyCycles: 120}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// 7/8 of accesses revisit a small hot set (L1 hits), 1/8 streams.
			addr := uint64(i) * 64 % 1024
			if i&7 == 0 {
				addr = uint64(i) * 64 % (2 * 640 * 1024)
			}
			p.Access(addr, 1, false)
		}
	})
}
