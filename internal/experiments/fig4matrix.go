package experiments

import (
	"encoding/json"
	"fmt"

	"kyoto/internal/cache"
	"kyoto/internal/sweep"
	"kyoto/internal/workload"
)

// Fig4MatrixSweeper computes the full pairwise degradation matrix behind
// Figure 4's aggressiveness averages: cell (attacker, victim) is the
// victim's IPC degradation (percent) when co-run in parallel with the
// attacker. It is a diagnostic companion to Fig4, exposed as the
// "fig4matrix" experiment, and shares Fig4's solo + pairwise job plan so
// it shards the same way.
type Fig4MatrixSweeper struct {
	seed uint64
	apps []string
	res  *Table
}

// NewFig4MatrixSweeper returns the shardable degradation-matrix
// diagnostic.
func NewFig4MatrixSweeper(seed uint64) *Fig4MatrixSweeper {
	return &Fig4MatrixSweeper{seed: seed, apps: workload.Figure4Apps()}
}

// Name implements sweep.Sweep.
func (s *Fig4MatrixSweeper) Name() string { return "fig4matrix" }

// ConfigFingerprint implements sweep.ConfigFingerprinter.
func (s *Fig4MatrixSweeper) ConfigFingerprint() string {
	return sweep.FingerprintPayload([]byte(fmt.Sprintf(`{"seed":%d}`, s.seed)))
}

// Plan implements sweep.Sweep.
func (s *Fig4MatrixSweeper) Plan() []sweep.Job { return fig4Plan(s.Name(), s.apps, s.seed) }

// Run implements sweep.Sweep.
func (s *Fig4MatrixSweeper) Run(job sweep.Job) (json.RawMessage, error) {
	return fig4RunJob(job, s.seed, cache.FidelityExact)
}

// Merge implements sweep.Sweep: fold the cells into the rendered matrix.
func (s *Fig4MatrixSweeper) Merge(payloads []json.RawMessage) error {
	_, cells, err := fig4Decode(s.apps, payloads)
	if err != nil {
		return err
	}
	type pair struct{ attacker, victim string }
	deg := make(map[pair]float64, len(cells))
	for _, c := range cells {
		deg[pair{c.attacker, c.victim}] = c.deg
	}

	t := Table{
		Title:   "Figure 4 diagnostic: pairwise degradation matrix (attacker rows, victim columns, %)",
		Columns: append([]string{"attacker\\victim"}, s.apps...),
	}
	for _, a := range s.apps {
		cells := make([]interface{}, 0, len(s.apps)+1)
		cells = append(cells, a)
		for _, b := range s.apps {
			if a == b {
				cells = append(cells, "-")
				continue
			}
			cells = append(cells, deg[pair{a, b}])
		}
		t.AddRow(cells...)
	}
	s.res = &t
	return nil
}

// Result returns the merged matrix table; it is nil until Merge ran.
func (s *Fig4MatrixSweeper) Result() *Table { return s.res }
