package cpu

// Execution-context checkpoint support. The exact-tier Context buffers
// generated-but-unexecuted steps across Run calls, so a tick-boundary
// checkpoint must carry that buffer: discarding it would resume the
// stream 0..batchSteps steps early. The analytic context's state is its
// phase cursor plus the nine fractional accumulators; the per-epoch mix
// cache is deliberately not captured (it re-derives from the LLC at the
// next Run, and the restored world rebinds LLC pointers anyway).

import (
	"fmt"

	"kyoto/internal/workload"
)

// ContextState is the serializable execution state of a Context beyond
// what the generator cursor already covers: the pending step buffer, in
// execution order.
type ContextState struct {
	Steps []workload.Step `json:"steps,omitempty"`
}

// CaptureState returns the pending (generated, unexecuted) steps.
func (ctx *Context) CaptureState() ContextState {
	if ctx.head >= ctx.n {
		return ContextState{}
	}
	st := ContextState{Steps: make([]workload.Step, ctx.n-ctx.head)}
	copy(st.Steps, ctx.steps[ctx.head:ctx.n])
	return st
}

// RestoreState reloads the pending step buffer.
func (ctx *Context) RestoreState(st ContextState) error {
	if len(st.Steps) > batchSteps {
		return fmt.Errorf("cpu: context state carries %d pending steps, batch size is %d", len(st.Steps), batchSteps)
	}
	if ctx.steps == nil {
		ctx.steps = make([]workload.Step, batchSteps)
	}
	copy(ctx.steps, st.Steps)
	ctx.head = 0
	ctx.n = len(st.Steps)
	return nil
}

// AnalyticContextState is the serializable cursor of an AnalyticContext.
// All floats are finite fractional remainders in [0,1), so their JSON
// round-trip is exact; RestoreState refuses any other value, since the
// executor's signed conversions rely on the range.
type AnalyticContextState struct {
	PhaseIdx int    `json:"phase_idx"`
	PhaseRem uint64 `json:"phase_rem"`
	// Accumulators, in the struct's declaration order: access, L1 miss,
	// L2 miss, LLC miss, mem read, mem write, remote, busy, halt.
	Acc [9]float64 `json:"acc"`
}

// CaptureState extracts the analytic cursor.
func (a *AnalyticContext) CaptureState() AnalyticContextState {
	return AnalyticContextState{
		PhaseIdx: a.phaseIdx,
		PhaseRem: a.phaseRem,
		Acc: [9]float64{
			a.accAccess, a.accL1M, a.accL2M, a.accLLCM,
			a.accMemR, a.accMemW, a.accRemote, a.accBusy, a.accHalt,
		},
	}
}

// RestoreState overlays a captured cursor onto a context freshly built by
// NewAnalyticContext for the same (profile, params). The mix cache is
// left invalid; it re-derives on the next Run.
func (a *AnalyticContext) RestoreState(st AnalyticContextState) error {
	if st.PhaseIdx < 0 || st.PhaseIdx >= len(a.phases) {
		return fmt.Errorf("cpu: analytic state phase %d outside profile's %d phases", st.PhaseIdx, len(a.phases))
	}
	if st.PhaseRem > a.phases[st.PhaseIdx].instrs {
		return fmt.Errorf("cpu: analytic state has %d instructions left in a %d-instruction phase",
			st.PhaseRem, a.phases[st.PhaseIdx].instrs)
	}
	for i, v := range st.Acc {
		// The negated test also catches NaN.
		if !(v >= 0 && v < 1) {
			return fmt.Errorf("cpu: analytic state accumulator %d is %v, outside [0,1)", i, v)
		}
	}
	a.phaseIdx = st.PhaseIdx
	a.phaseRem = st.PhaseRem
	a.accAccess, a.accL1M, a.accL2M, a.accLLCM = st.Acc[0], st.Acc[1], st.Acc[2], st.Acc[3]
	a.accMemR, a.accMemW, a.accRemote, a.accBusy, a.accHalt = st.Acc[4], st.Acc[5], st.Acc[6], st.Acc[7], st.Acc[8]
	a.mixValid = false
	return nil
}
