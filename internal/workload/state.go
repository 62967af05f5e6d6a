package workload

// Generator checkpoint support. A generator built by New is a pure
// function of (profile, seed, cursor): each Chase phase's chain is
// derived from an RNG position New fixes (the chain itself is built on
// the phase's first access), so a checkpoint only needs the cursor — the
// RNG position, the phase position, the per-phase walk positions, and
// the two fractional accumulators. Restoring the cursor into a freshly
// built generator for the same (profile, seed) reproduces the remaining
// step stream bit-for-bit, which is what the snapshot layer's
// differential goldens assert.

import "fmt"

// GenState is the serializable cursor of a generator built by New.
type GenState struct {
	// RNG is the generator's splitmix64 position.
	RNG uint64 `json:"rng"`
	// PhaseIdx / PhaseInstrs locate execution within the profile.
	PhaseIdx    int    `json:"phase_idx"`
	PhaseInstrs uint64 `json:"phase_instrs"`
	// MemAcc / CpiAcc are the fractional accumulators (finite by
	// construction, so their JSON round-trip is exact).
	MemAcc float64 `json:"mem_acc"`
	CpiAcc float64 `json:"cpi_acc"`
	// Pos / Offset are the per-phase pattern positions (chase position,
	// stream/strided byte offset), indexed like the profile's phases.
	Pos    []uint32 `json:"pos"`
	Offset []uint64 `json:"offset"`
}

// CaptureGenState extracts the cursor of a generator built by New.
// Generators of other types (none exist in-tree) are rejected.
func CaptureGenState(gr Generator) (GenState, error) {
	g, ok := gr.(*gen)
	if !ok {
		return GenState{}, fmt.Errorf("workload: generator %T does not support checkpointing", gr)
	}
	st := GenState{
		RNG:         g.rng.State(),
		PhaseIdx:    g.phaseIdx,
		PhaseInstrs: g.phaseInstrs,
		MemAcc:      g.memAcc,
		CpiAcc:      g.cpiAcc,
		Pos:         make([]uint32, len(g.patterns)),
		Offset:      make([]uint64, len(g.patterns)),
	}
	for i := range g.patterns {
		st.Pos[i] = g.patterns[i].pos
		st.Offset[i] = g.patterns[i].offset
	}
	return st, nil
}

// RestoreGenState overlays a captured cursor onto a generator freshly
// built by New for the same (profile, seed). The chain seeds are already
// fixed by construction; only the cursor moves.
func RestoreGenState(gr Generator, st GenState) error {
	g, ok := gr.(*gen)
	if !ok {
		return fmt.Errorf("workload: generator %T does not support checkpointing", gr)
	}
	if len(st.Pos) != len(g.patterns) || len(st.Offset) != len(g.patterns) {
		return fmt.Errorf("workload: generator state has %d/%d phase cursors, profile has %d phases",
			len(st.Pos), len(st.Offset), len(g.patterns))
	}
	if st.PhaseIdx < 0 || st.PhaseIdx >= len(g.profile.Phases) {
		return fmt.Errorf("workload: generator state phase %d outside profile's %d phases",
			st.PhaseIdx, len(g.profile.Phases))
	}
	for i := range g.patterns {
		if p := &g.patterns[i]; p.lines > 0 && int(st.Pos[i]) >= p.lines {
			return fmt.Errorf("workload: generator state chase position %d outside phase %d's %d lines",
				st.Pos[i], i, p.lines)
		}
	}
	g.rng.SetState(st.RNG)
	g.phaseIdx = st.PhaseIdx
	g.phaseInstrs = st.PhaseInstrs
	g.memAcc = st.MemAcc
	g.cpiAcc = st.CpiAcc
	for i := range g.patterns {
		g.patterns[i].pos = st.Pos[i]
		g.patterns[i].offset = st.Offset[i]
	}
	return nil
}
