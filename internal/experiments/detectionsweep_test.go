package experiments

// Detection-sweep tests: behaviour on the committed traces, the
// golden_detection.json pin of the signature arm's change points and
// migration plan on the 22-VM example (serial vs parallel, under -race
// in CI's short pass), and merge(shards(n)) == unsharded for n ∈ {1,4}.

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"kyoto/internal/arrivals"
	"kyoto/internal/cache"
	"kyoto/internal/cluster"
	"kyoto/internal/detect"
	"kyoto/internal/sweep"
)

var updateDetectionGolden = flag.Bool("update-detection", false, "rewrite testdata/golden_detection.json with the observed signature-arm outcome")

// exampleTrace loads the committed 22-VM example trace.
func exampleTrace(t *testing.T) arrivals.Trace {
	t.Helper()
	tr, err := arrivals.Load(filepath.Join("..", "arrivals", "testdata", "example.json"))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func detectionRowByArm(t *testing.T, res *FleetSweepResult, arm string) FleetSweepRow {
	t.Helper()
	for _, row := range res.Rows {
		if row.Arm == arm {
			return row
		}
	}
	t.Fatalf("no %q row in %+v", arm, res.Rows)
	return FleetSweepRow{}
}

func TestDetectionSweepOnCommittedExample(t *testing.T) {
	if testing.Short() {
		t.Skip("replays the committed 22-VM example trace on three exact-model fleets; the short-mode coverage is the analytic-tier golden")
	}
	tr := exampleTrace(t)
	res, err := DetectionSweep(tr, FleetSweepConfig{Hosts: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("got %d rows, want 3 arms", len(res.Rows))
	}
	adm := detectionRowByArm(t, res, "admission")
	rea := detectionRowByArm(t, res, "reactive")
	sig := detectionRowByArm(t, res, "signature")
	if !adm.Enforced || rea.Enforced || sig.Enforced {
		t.Fatal("only the admission arm runs with Kyoto enforcement")
	}
	if adm.Triggers != 0 || adm.MigrationCount != 0 {
		t.Fatalf("admission-only arm triggered: %+v", adm)
	}
	if rea.Triggers == 0 {
		t.Fatal("threshold-reactive arm never triggered on the example trace")
	}
	if sig.ChangePointCount == 0 {
		t.Fatal("signature arm confirmed no change points on the example trace")
	}
	// The signature arm's whole point: far fewer migrations than raw
	// threshold reaction, because it only acts on confirmed shifts.
	if sig.Triggers >= rea.Triggers {
		t.Fatalf("signature triggered %d >= reactive %d — confirmation is not suppressing noise", sig.Triggers, rea.Triggers)
	}
	for _, row := range res.Rows {
		if row.Submitted != len(tr.Events) {
			t.Fatalf("arm %s saw %d submissions, want %d", row.Arm, row.Submitted, len(tr.Events))
		}
		if row.Triggers > 0 && (row.FalseTriggerRate < 0 || row.FalseTriggerRate > 1) {
			t.Fatalf("arm %s false-trigger rate %v out of range", row.Arm, row.FalseTriggerRate)
		}
	}
	tbl := res.Table().String()
	for _, want := range []string{"admission", "reactive", "signature", "false rate", "mean ttd", "chgpts"} {
		if !strings.Contains(tbl, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, tbl)
		}
	}
}

func TestDetectionSweepOnCommittedAzure(t *testing.T) {
	if testing.Short() {
		t.Skip("replays the 256-VM Azure-calibrated trace on three 8-host fleets")
	}
	tr, err := arrivals.Load(filepath.Join("..", "arrivals", "testdata", "azure_calibrated_256.json"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := DetectionSweep(tr, FleetSweepConfig{Hosts: 8, Seed: 1, Fidelity: cache.FidelityAnalytic})
	if err != nil {
		t.Fatal(err)
	}
	sig := detectionRowByArm(t, res, "signature")
	rea := detectionRowByArm(t, res, "reactive")
	if sig.ChangePointCount == 0 || sig.Triggers == 0 {
		t.Fatalf("signature arm inert on azure trace: %d change points, %d triggers", sig.ChangePointCount, sig.Triggers)
	}
	if sig.Triggers >= rea.Triggers {
		t.Fatalf("signature triggered %d >= reactive %d on azure", sig.Triggers, rea.Triggers)
	}
	if rea.Detected == 0 || rea.MeanTimeToDetect <= 0 {
		t.Fatalf("reactive arm detected nothing on azure: %+v", rea)
	}
}

// goldenDetectionConfig is the pinned configuration behind
// golden_detection.json: the committed 22-VM example trace on four
// hosts at the exact cache tier — the tier where the amortization
// check lets the signature arm actually migrate (at the analytic tier
// the confirmed shifts land late enough that no surviving VM in this
// bounded-lifetime trace amortizes a move, which would pin a vacuous
// plan).
func goldenDetectionConfig(workers int) FleetSweepConfig {
	return FleetSweepConfig{Hosts: 4, Seed: 1, Workers: workers}
}

// detectionGolden is the committed signature-arm outcome on the 22-VM
// example trace: every confirmed change point and the full migration
// plan, plus the sweep's merged fingerprint.
type detectionGolden struct {
	MergedFingerprint string                    `json:"merged_fingerprint"`
	ChangePoints      []cluster.ChangePoint     `json:"change_points"`
	Migrations        []arrivals.MigrationEvent `json:"migrations"`
}

func TestGoldenDetectionSerialVsParallel(t *testing.T) {
	tr := exampleTrace(t)
	run := func(workers int) (*FleetSweepResult, string) {
		s, err := NewDetectionSweeper(tr, goldenDetectionConfig(workers))
		if err != nil {
			t.Fatal(err)
		}
		env, err := sweep.Engine{Workers: workers}.RunShard(s, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		fp, err := sweep.MergedFingerprint([]sweep.Envelope{env})
		if err != nil {
			t.Fatal(err)
		}
		if err := sweep.Merge(s, []sweep.Envelope{env}); err != nil {
			t.Fatal(err)
		}
		return s.Result(), fp
	}

	serial, serialFP := run(1)
	parallel, parallelFP := run(runtime.GOMAXPROCS(0))
	if serialFP != parallelFP {
		t.Fatalf("serial fingerprint %s != parallel %s", serialFP, parallelFP)
	}
	sigS := detectionRowByArm(t, serial, "signature")
	sigP := detectionRowByArm(t, parallel, "signature")
	if sigS.ChangePointCount == 0 || len(sigS.Replay.Migrations) == 0 {
		t.Fatalf("golden scenario is vacuous: %d change points, %d migrations", sigS.ChangePointCount, len(sigS.Replay.Migrations))
	}
	if !reflect.DeepEqual(sigS.ChangePoints, sigP.ChangePoints) {
		t.Fatalf("change points diverge serial vs parallel:\n%+v\n%+v", sigS.ChangePoints, sigP.ChangePoints)
	}
	if !reflect.DeepEqual(sigS.Replay.Migrations, sigP.Replay.Migrations) {
		t.Fatalf("migration plans diverge serial vs parallel:\n%+v\n%+v", sigS.Replay.Migrations, sigP.Replay.Migrations)
	}

	got := detectionGolden{
		MergedFingerprint: serialFP,
		ChangePoints:      sigS.ChangePoints,
		Migrations:        sigS.Replay.Migrations,
	}
	path := filepath.Join("testdata", "golden_detection.json")
	if *updateDetectionGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", path)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden file (run with -update-detection to create): %v", err)
	}
	var want detectionGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if got.MergedFingerprint != want.MergedFingerprint {
		t.Fatalf("merged fingerprint %s, want committed %s", got.MergedFingerprint, want.MergedFingerprint)
	}
	if !reflect.DeepEqual(got.ChangePoints, want.ChangePoints) {
		t.Fatalf("change points drifted from golden:\n got %+v\nwant %+v", got.ChangePoints, want.ChangePoints)
	}
	if !reflect.DeepEqual(got.Migrations, want.Migrations) {
		t.Fatalf("migration plan drifted from golden:\n got %+v\nwant %+v", got.Migrations, want.Migrations)
	}
}

func TestDetectionSweepShardMergeBitIdentity(t *testing.T) {
	tr := exampleTrace(t)
	// The analytic tier keeps five full sweeps cheap enough for the
	// short -race pass; merge determinism is fidelity-independent.
	shardGoldenCase(t, func() sweep.Sweep {
		s, err := NewDetectionSweeper(tr, FleetSweepConfig{Hosts: 4, Seed: 1, Fidelity: cache.FidelityAnalytic})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}, func(s sweep.Sweep) string {
		return s.(*FleetSweeper).Result().Table().String()
	}, []int{1, 4})
}

func TestDetectionSweepValidatesConfig(t *testing.T) {
	tr := exampleTrace(t)
	if _, err := NewDetectionSweeper(tr, FleetSweepConfig{Detector: detect.Config{Alpha: 2}}); err == nil {
		t.Fatal("alpha 2 must fail sweeper validation")
	}
	bogus := arrivals.Trace{Events: []arrivals.Event{{App: "no-such-workload"}}}
	if _, err := NewDetectionSweeper(bogus, FleetSweepConfig{}); err == nil {
		t.Fatal("unknown app class must fail trace validation")
	}
}

// TestDetectionBenchSweeper covers the kyotobench "detection" entry and
// the seed-sweep adapter at the analytic tier: the synthetic-trace
// sweeper runs end to end, its Seedable hooks agree on metric shape,
// and the single-process DetectionSweep path reproduces the engine run.
func TestDetectionBenchSweeper(t *testing.T) {
	s := NewDetectionBenchSweeper(3, cache.FidelityAnalytic)
	if err := (sweep.Engine{}).Run(s); err != nil {
		t.Fatal(err)
	}
	res := s.Result()
	if len(res.Rows) != 3 {
		t.Fatalf("want 3 arms, got %d", len(res.Rows))
	}
	names := s.MetricNames()
	rows := s.MetricRows()
	if len(rows) != 3 {
		t.Fatalf("want 3 metric rows, got %d", len(rows))
	}
	for _, row := range rows {
		if len(row.Values) != len(names) {
			t.Fatalf("arm %s: %d values for %d metrics", row.Arm, len(row.Values), len(names))
		}
	}
	// Reseeding keeps the trace and changes the fleet seed.
	tr := arrivals.Synthesize(arrivals.SynthConfig{Seed: 3, VMs: 48})
	re, err := s.Reseed(4)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewDetectionSweeper(tr, FleetSweepConfig{Seed: 4, Fidelity: cache.FidelityAnalytic})
	if err != nil {
		t.Fatal(err)
	}
	if re.(*FleetSweeper).ConfigFingerprint() != want.ConfigFingerprint() {
		t.Fatal("Reseed did not take")
	}

	// The one-call path must match the engine run on the same trace.
	direct, err := DetectionSweep(tr, FleetSweepConfig{Seed: 3, Fidelity: cache.FidelityAnalytic})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct, res) {
		t.Fatal("DetectionSweep result differs from the engine-run sweeper")
	}
}
