package experiments

import (
	"encoding/json"
	"slices"
	"testing"

	"kyoto/internal/cache"
)

// figureSweeps builds every figSweep-backed experiment, unrun.
func figureSweeps(seed uint64) map[string]Experiment {
	return map[string]Experiment{
		"table1":     Table1Sweep(seed),
		"table2":     Table2Sweep(seed),
		"fig1":       Fig1Sweep(seed),
		"fig2":       Fig2Sweep(seed),
		"fig3":       Fig3Sweep(seed),
		"fig4":       Fig4Sweep(seed, cache.FidelityExact),
		"fig4matrix": Fig4MatrixSweep(seed),
		"fig5":       Fig5Sweep(seed),
		"fig6":       Fig6Sweep(seed),
		"fig8":       Fig8Sweep(seed),
		"fig9":       Fig9Sweep(seed),
		"fig10":      Fig10Sweep(seed),
		"fig11":      Fig11Sweep(seed),
		"fig12":      Fig12Sweep(seed),
		"ks4linux":   KS4LinuxSweep(seed),
		"crossval":   CrossValSweep(seed),
		"warmstart":  WarmStartExperiment(seed, cache.FidelityExact),
		"ablations":  AblationsSweep(seed),
	}
}

// TestFigSweepMergeRejectsBadPayloads pins that a merge of envelopes
// from a different plan, or of corrupted payloads, fails with an error
// and never panics: Merge sees payloads that crossed a process
// boundary, so it must not trust their count or shape.
func TestFigSweepMergeRejectsBadPayloads(t *testing.T) {
	for name, s := range figureSweeps(1) {
		n := len(s.Plan())
		fill := func(count int, raw string) []json.RawMessage {
			return slices.Repeat([]json.RawMessage{json.RawMessage(raw)}, count)
		}
		for what, payloads := range map[string][]json.RawMessage{
			"no payloads":   nil,
			"one too few":   fill(n-1, "1"),
			"one too many":  fill(n+1, "1"),
			"malformed":     fill(n, "{"),
			"wrong shape":   fill(n, `"x"`),
			"truncated obj": fill(n, `{"a":`),
		} {
			if err := s.Merge(payloads); err == nil {
				t.Errorf("%s: %s merged without an error", name, what)
			}
			if s.Tables() != nil {
				t.Errorf("%s: %s left tables behind", name, what)
			}
		}
	}
}

// TestFigSweepRunRejectsForeignJobs pins that a job whose key does not
// match the plan at its index is refused rather than run as another arm.
func TestFigSweepRunRejectsForeignJobs(t *testing.T) {
	s := Fig3Sweep(1)
	plan := s.Plan()
	bad := plan[1]
	bad.Key = plan[0].Key
	if _, err := s.Run(bad); err == nil {
		t.Fatal("a job keyed as another arm ran")
	}
	bad.Index = len(plan)
	if _, err := s.Run(bad); err == nil {
		t.Fatal("a job past the plan ran")
	}
}
