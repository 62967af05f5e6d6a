package experiments

import (
	"path/filepath"
	"strings"
	"testing"

	"kyoto/internal/arrivals"
)

// sweepTrace is a small churn trace sized for a 2-host fleet: eight
// permit-booking VMs with staggered lifetimes plus one permit-less VM
// that only Kyoto admission rejects. It lives in crossval.go because the
// cross-validation harness must run the same committed golden.
func sweepTrace() arrivals.Trace { return GoldenSweepTrace() }

func TestTraceSweepComparesPlacers(t *testing.T) {
	if testing.Short() {
		t.Skip("trace sweep replays three fleets")
	}
	res, err := TraceSweep(sweepTrace(), FleetSweepConfig{Hosts: 2, Seed: 5, DrainTicks: 12})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(res.Rows))
	}
	byName := map[string]FleetSweepRow{}
	for _, r := range res.Rows {
		if r.Submitted != 9 {
			t.Fatalf("placer %s saw %d submissions", r.Placer, r.Submitted)
		}
		if r.CPUUtilization <= 0 || r.CPUUtilization > 1 {
			t.Fatalf("placer %s utilization %v", r.Placer, r.CPUUtilization)
		}
		byName[r.Placer] = r
	}
	ff, ok1 := byName["first-fit"]
	sp, ok2 := byName["spread"]
	ky, ok3 := byName["kyoto"]
	if !ok1 || !ok2 || !ok3 {
		t.Fatalf("missing placer rows: %v", byName)
	}
	if ff.Enforced || sp.Enforced || !ky.Enforced {
		t.Fatal("enforcement flags wrong: only the kyoto arm runs enforced")
	}
	// The permit-less VM is placeable by the capacity-only policies but
	// must be rejected by Kyoto admission.
	if ff.Rejected != 0 || sp.Rejected != 0 {
		t.Fatalf("capacity policies rejected VMs on an uncontended fleet: ff=%d sp=%d", ff.Rejected, sp.Rejected)
	}
	if ky.Rejected < 1 {
		t.Fatal("kyoto admission must reject the permit-less VM")
	}
	for name, r := range byName {
		// pXX is the floor XX% of VMs meet, so p99 <= p95 <= p50.
		if r.Placed > 0 && (r.P50 <= 0 || r.P99 <= 0 || r.P99 > r.P95 || r.P95 > r.P50) {
			t.Fatalf("%s: implausible normalized percentiles p50=%v p95=%v p99=%v", name, r.P50, r.P95, r.P99)
		}
	}
	// Determinism: the same sweep again is identical record for record.
	again, err := TraceSweep(sweepTrace(), FleetSweepConfig{Hosts: 2, Seed: 5, DrainTicks: 12})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Rows {
		if res.Rows[i].Replay.Fingerprint() != again.Rows[i].Replay.Fingerprint() {
			t.Fatalf("sweep row %d not reproducible", i)
		}
	}

	tbl := res.Table().String()
	for _, want := range []string{"first-fit", "spread", "kyoto", "rej rate", "p99 norm"} {
		if !strings.Contains(tbl, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, tbl)
		}
	}
}

func TestTraceSweepOnCommittedExample(t *testing.T) {
	if testing.Short() {
		t.Skip("replays the committed 22-VM example trace on three 4-host fleets")
	}
	tr, err := arrivals.Load(filepath.Join("..", "arrivals", "testdata", "example.json"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := TraceSweep(tr, FleetSweepConfig{Hosts: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows {
		if r.Submitted != len(tr.Events) {
			t.Fatalf("placer %s: %d submitted, want %d", r.Placer, r.Submitted, len(tr.Events))
		}
		if r.Placed == 0 {
			t.Fatalf("placer %s placed nothing", r.Placer)
		}
	}
}
