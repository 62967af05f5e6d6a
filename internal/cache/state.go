package cache

// Cache checkpoint support, for both fidelity tiers. A cache's behaviour
// is a pure function of its configuration plus the mutable state captured
// here — line metadata, the recency lists, per-owner statistics and the
// way partitions — so restoring a State into a cache freshly built from
// the identical Config reproduces every future access bit-for-bit.
// Capture and restore are cold-path (checkpoint-time) operations; they
// trade compactness for readability and validate geometry on restore so a
// state from a differently shaped cache fails cleanly.

import "fmt"

// OwnerMask is one owner's way-partition entry in serialized form, listed
// in owner order.
type OwnerMask struct {
	Owner Owner  `json:"owner"`
	Mask  uint64 `json:"mask"`
}

// State is the complete mutable state of an exact-tier Cache.
type State struct {
	Tags    []uint64 `json:"tags"`
	Owners  []Owner  `json:"owners"`
	Valid   []uint64 `json:"valid"`
	LRUNext []uint8  `json:"lru_next"`
	LRUPrev []uint8  `json:"lru_prev"`
	LRUHead []uint8  `json:"lru_head"`
	LRUTail []uint8  `json:"lru_tail"`
	// Per-owner rows, truncated to the slice lengths the cache had grown
	// to (restore re-grows to the same lengths, keeping growth behaviour
	// aligned between the original and the restored cache).
	Stats     []OwnerStats `json:"stats"`
	Occupancy []int        `json:"occupancy"`
	Partition []OwnerMask  `json:"partition,omitempty"`
	Totals    OwnerStats   `json:"totals"`
}

// CaptureState extracts the cache's mutable state.
func (c *Cache) CaptureState() State {
	st := State{
		Tags:      append([]uint64(nil), c.tags...),
		Owners:    append([]Owner(nil), c.owners...),
		Valid:     append([]uint64(nil), c.valid...),
		LRUNext:   append([]uint8(nil), c.lruNext...),
		LRUPrev:   append([]uint8(nil), c.lruPrev...),
		LRUHead:   append([]uint8(nil), c.lruHead...),
		LRUTail:   append([]uint8(nil), c.lruTail...),
		Stats:     append([]OwnerStats(nil), c.stats...),
		Occupancy: append([]int(nil), c.occupancy...),
		Totals:    c.totals,
	}
	for owner, mask := range c.partition {
		if mask != 0 {
			st.Partition = append(st.Partition, OwnerMask{Owner: Owner(owner), Mask: mask})
		}
	}
	return st
}

// RestoreState overlays a captured state onto a cache freshly built from
// the identical Config. Geometry mismatches fail without partial effects.
func (c *Cache) RestoreState(st State) error {
	lines, sets := len(c.tags), len(c.valid)
	if len(st.Tags) != lines || len(st.Owners) != lines || len(st.Valid) != sets {
		return fmt.Errorf("cache %q: state geometry %d/%d lines, %d sets does not match %d lines, %d sets",
			c.cfg.Name, len(st.Tags), len(st.Owners), len(st.Valid), lines, sets)
	}
	if len(st.LRUNext) != lines || len(st.LRUPrev) != lines || len(st.LRUHead) != sets || len(st.LRUTail) != sets {
		return fmt.Errorf("cache %q: LRU list state does not match geometry", c.cfg.Name)
	}
	if len(st.Stats) != len(st.Occupancy) {
		return fmt.Errorf("cache %q: state has %d stats rows but %d occupancy rows", c.cfg.Name, len(st.Stats), len(st.Occupancy))
	}
	copy(c.tags, st.Tags)
	copy(c.owners, st.Owners)
	copy(c.valid, st.Valid)
	copy(c.lruNext, st.LRUNext)
	copy(c.lruPrev, st.LRUPrev)
	copy(c.lruHead, st.LRUHead)
	copy(c.lruTail, st.LRUTail)
	c.stats = append([]OwnerStats(nil), st.Stats...)
	c.occupancy = append([]int(nil), st.Occupancy...)
	c.partition = nil
	for _, om := range st.Partition {
		c.SetPartition(om.Owner, om.Mask)
	}
	c.totals = st.Totals
	return nil
}

// AnalyticState is the complete mutable state of an AnalyticLLC. The
// occupancy values are finite fractions of a finite capacity, so their
// JSON round-trip is exact.
type AnalyticState struct {
	Epoch     uint64    `json:"epoch"`
	Occ       []float64 `json:"occ"`
	Fills     []float64 `json:"fills"`
	Footprint []float64 `json:"footprint"`
}

// CaptureState extracts the model's mutable state.
func (a *AnalyticLLC) CaptureState() AnalyticState {
	return AnalyticState{
		Epoch:     a.epoch,
		Occ:       append([]float64(nil), a.occ...),
		Fills:     append([]float64(nil), a.fills...),
		Footprint: append([]float64(nil), a.footprint...),
	}
}

// RestoreState overlays a captured state onto a model freshly built from
// the identical Config.
func (a *AnalyticLLC) RestoreState(st AnalyticState) error {
	if len(st.Occ) != len(st.Fills) || len(st.Occ) != len(st.Footprint) {
		return fmt.Errorf("cache %q: analytic state rows disagree (%d/%d/%d)",
			a.cfg.Name, len(st.Occ), len(st.Fills), len(st.Footprint))
	}
	a.epoch = st.Epoch
	a.occ = append([]float64(nil), st.Occ...)
	a.fills = append([]float64(nil), st.Fills...)
	a.footprint = append([]float64(nil), st.Footprint...)
	return nil
}
