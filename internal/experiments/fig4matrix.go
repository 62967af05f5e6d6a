package experiments

import (
	"encoding/json"

	"kyoto/internal/cache"
	"kyoto/internal/workload"
)

// Fig4MatrixSweep computes the full pairwise degradation matrix behind
// Figure 4's aggressiveness averages: cell (attacker, victim) is the
// victim's IPC degradation (percent) when co-run in parallel with the
// attacker. It is a diagnostic companion to Fig4, exposed as the
// "fig4matrix" experiment: a second fold over Fig4's solo + pairwise
// plan, so it shards the same way.
func Fig4MatrixSweep(seed uint64) Experiment {
	apps := workload.Figure4Apps()
	return &figSweep[json.RawMessage, Table]{
		name: "fig4matrix", seed: seed,
		arms: fig4Arms(apps, seed, cache.FidelityExact),
		fold: func(payloads []json.RawMessage) (Table, []Table, error) {
			_, cells, err := fig4Decode(apps, payloads)
			if err != nil {
				return Table{}, nil, err
			}
			type pair struct{ attacker, victim string }
			deg := make(map[pair]float64, len(cells))
			for _, c := range cells {
				deg[pair{c.attacker, c.victim}] = c.deg
			}

			t := Table{
				Title:   "Figure 4 diagnostic: pairwise degradation matrix (attacker rows, victim columns, %)",
				Columns: append([]string{"attacker\\victim"}, apps...),
			}
			for _, a := range apps {
				cells := make([]interface{}, 0, len(apps)+1)
				cells = append(cells, a)
				for _, b := range apps {
					if a == b {
						cells = append(cells, "-")
						continue
					}
					cells = append(cells, deg[pair{a, b}])
				}
				t.AddRow(cells...)
			}
			return t, []Table{t}, nil
		},
	}
}
