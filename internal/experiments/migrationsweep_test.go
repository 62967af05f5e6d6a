package experiments

import (
	"strings"
	"testing"

	"kyoto/internal/arrivals"
)

func TestMigrationSweepComparesCombinations(t *testing.T) {
	if testing.Short() {
		t.Skip("migration sweep replays nine fleets")
	}
	res, err := MigrationSweep(sweepTrace(), FleetSweepConfig{
		Hosts:        2,
		Seed:         5,
		DrainTicks:   12,
		BigLLCFactor: 2,
		Pending:      arrivals.PendingFIFO,
		Downtime:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 9 {
		t.Fatalf("got %d rows, want 3 rebalancers x 3 placers", len(res.Rows))
	}
	migratingRows := 0
	for _, r := range res.Rows {
		if r.Submitted != 9 {
			t.Fatalf("%s/%s saw %d submissions", r.Placer, r.Rebalancer, r.Submitted)
		}
		if r.Rebalancer == "none" && r.MigrationCount != 0 {
			t.Fatalf("%s/none migrated %d times", r.Placer, r.MigrationCount)
		}
		if r.MigrationCount != len(r.Replay.Migrations) {
			t.Fatalf("%s/%s migration count %d != %d events", r.Placer, r.Rebalancer, r.MigrationCount, len(r.Replay.Migrations))
		}
		if r.MigrationCount > 0 {
			migratingRows++
		}
		if r.WaitP99 < r.WaitP50 {
			t.Fatalf("%s/%s wait percentiles inverted: p50 %v > p99 %v", r.Placer, r.Rebalancer, r.WaitP50, r.WaitP99)
		}
	}
	// The trace saturates a 2-host fleet, so at least one rebalancing arm
	// must actually migrate — otherwise the sweep is vacuous.
	if migratingRows == 0 {
		t.Fatal("no combination migrated anything")
	}

	// Identical configs reproduce identical outcomes (the sweep fans out
	// across goroutines; fingerprints must not care).
	again, err := MigrationSweep(sweepTrace(), FleetSweepConfig{
		Hosts:        2,
		Seed:         5,
		DrainTicks:   12,
		BigLLCFactor: 2,
		Pending:      arrivals.PendingFIFO,
		Downtime:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Rows {
		if res.Rows[i].Replay.Fingerprint() != again.Rows[i].Replay.Fingerprint() {
			t.Fatalf("row %d (%s/%s) not reproducible", i, res.Rows[i].Placer, res.Rows[i].Rebalancer)
		}
	}

	table := res.Table().String()
	for _, col := range []string{"placer", "migrate", "rej rate", "wait p50", "wait p95", "wait p99", "migs", "p99 norm"} {
		if !strings.Contains(table, col) {
			t.Fatalf("table missing column %q:\n%s", col, table)
		}
	}
}

func TestMigrationSweepReportsSJFWaits(t *testing.T) {
	if testing.Short() {
		t.Skip("replays three fleets")
	}
	res, err := MigrationSweep(sweepTrace(), FleetSweepConfig{
		Hosts:       2,
		Seed:        5,
		DrainTicks:  6,
		Rebalancers: []string{"none"},
		Pending:     arrivals.PendingSJF,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Pending != arrivals.PendingSJF {
		t.Fatalf("result pending policy %v", res.Pending)
	}
	if title := res.Table().Title; !strings.Contains(title, "pending=sjf") {
		t.Fatalf("table title %q does not name the sjf queue", title)
	}
	for _, r := range res.Rows {
		if r.WaitP99 < r.WaitP95 || r.WaitP95 < r.WaitP50 {
			t.Fatalf("%s: inverted wait percentiles p50=%v p95=%v p99=%v", r.Placer, r.WaitP50, r.WaitP95, r.WaitP99)
		}
	}
}

func TestMigrationSweepValidatesConfig(t *testing.T) {
	if _, err := MigrationSweep(sweepTrace(), FleetSweepConfig{BigLLCFactor: 3}); err == nil || !strings.Contains(err.Error(), "power of two") {
		t.Fatalf("BigLLCFactor 3: %v", err)
	}
	if _, err := MigrationSweep(sweepTrace(), FleetSweepConfig{Rebalancers: []string{"bogus"}}); err == nil {
		t.Fatal("bogus rebalancer name must fail")
	}
	if _, err := MigrationSweep(sweepTrace(), FleetSweepConfig{Downtime: -3}); err == nil || !strings.Contains(err.Error(), "Downtime") {
		t.Fatalf("negative Downtime: %v", err)
	}
	bad := arrivals.Trace{Events: []arrivals.Event{{App: "no-such-app"}}}
	if _, err := MigrationSweep(bad, FleetSweepConfig{}); err == nil {
		t.Fatal("invalid trace must fail")
	}
}

func TestMigrationSweepSubsetOfRebalancers(t *testing.T) {
	if testing.Short() {
		t.Skip("replays three fleets")
	}
	res, err := MigrationSweep(sweepTrace(), FleetSweepConfig{
		Hosts:       2,
		Seed:        5,
		DrainTicks:  6,
		Rebalancers: []string{"none"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.Rebalancer != "none" || r.MigrationCount != 0 {
			t.Fatalf("unexpected row %s/%s with %d migrations", r.Placer, r.Rebalancer, r.MigrationCount)
		}
	}
}
