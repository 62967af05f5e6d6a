package experiments

import (
	"strings"
	"testing"

	"kyoto/internal/arrivals"
	"kyoto/internal/cache"
	"kyoto/internal/cluster"
	"kyoto/internal/sweep"
)

// TestFleetSweepConfigDigests pins each preset's config digest — the
// value shard envelopes carry and Merge checks — so committed envelopes
// keep merging, and checks that a preset refuses config fields outside
// its digest instead of silently ignoring them. The figures' digests are
// pinned beside them.
func TestFleetSweepConfigDigests(t *testing.T) {
	example := exampleTrace(t)
	cases := []struct {
		name  string
		build func() (*FleetSweeper, error)
		// want is the pinned digest; empty means construction must fail.
		want string
	}{
		{"trace golden", func() (*FleetSweeper, error) {
			return NewTraceSweeper(GoldenSweepTrace(), GoldenTraceSweepConfig())
		}, "beea7a6ebd988e41"},
		{"migration golden", func() (*FleetSweeper, error) {
			return NewMigrationSweeper(GoldenSweepTrace(), GoldenMigrationSweepConfig())
		}, "7c078a3c26ca353a"},
		{"detection example", func() (*FleetSweeper, error) {
			return NewDetectionSweeper(example, FleetSweepConfig{Hosts: 4, Seed: 1})
		}, "e887d285337f8747"},
		{"detection bench", func() (*FleetSweeper, error) {
			return NewDetectionBenchSweeper(1, cache.FidelityAnalytic), nil
		}, "6187d643bdc0f6ef"},
		{"trace rejects Pending", func() (*FleetSweeper, error) {
			return NewTraceSweeper(GoldenSweepTrace(), FleetSweepConfig{Pending: arrivals.PendingFIFO})
		}, ""},
		{"migration rejects Threshold", func() (*FleetSweeper, error) {
			return NewMigrationSweeper(GoldenSweepTrace(), FleetSweepConfig{Threshold: 0.5})
		}, ""},
		{"detection rejects Overrides", func() (*FleetSweeper, error) {
			return NewDetectionSweeper(example, FleetSweepConfig{Overrides: map[int]cluster.HostOverride{0: {}}})
		}, ""},
	}
	for _, tc := range cases {
		s, err := tc.build()
		if tc.want == "" {
			if err == nil || !strings.Contains(err.Error(), "does not take") {
				t.Errorf("%s: err = %v, want a refused field", tc.name, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := s.ConfigFingerprint(); got != tc.want {
			t.Errorf("%s: config digest %s, want %s", tc.name, got, tc.want)
		}
	}
	// The figures digest {"seed":N}, plus the fidelity tag off the exact
	// tier, through the same figSweep config as the presets.
	figures := []struct {
		name string
		s    sweep.ConfigFingerprinter
		want string
	}{
		{"fig4 exact", newFig4(1, cache.FidelityExact), "0ab5c3fae1211dbf"},
		{"fig4 analytic", newFig4(1, cache.FidelityAnalytic), "2ea58790a10d72ca"},
		{"fig2 seed 7", newFig2(7), "337832bd382becb9"},
	}
	for _, tc := range figures {
		if got := tc.s.ConfigFingerprint(); got != tc.want {
			t.Errorf("%s: config digest %s, want %s", tc.name, got, tc.want)
		}
	}
}
