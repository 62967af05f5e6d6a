package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestExampleFlag(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-example"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `"vms"`) {
		t.Fatalf("example output: %s", out.String())
	}
	if err := run([]string{"-example", "-hosts", "2"}, &strings.Builder{}); err == nil {
		t.Fatal("-example with a run flag must fail, not print the template")
	}
}

func TestAppsFlag(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-apps"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"gcc", "lbm", "blockie"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("apps listing missing %s", want)
		}
	}
	if err := run([]string{"-apps", "-seed", "3"}, &strings.Builder{}); err == nil {
		t.Fatal("-apps with a sweep flag must fail, not list the profiles")
	}
}

func TestMissingScenario(t *testing.T) {
	if err := run(nil, &strings.Builder{}); err == nil {
		t.Fatal("missing -scenario must fail")
	}
}

func TestScenarioExecution(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.json")
	if err := os.WriteFile(path, []byte(exampleScenario), 0o600); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-scenario", path}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"web", "batch", "punishments", "eq1"} {
		if !strings.Contains(s, want) {
			t.Fatalf("report missing %q:\n%s", want, s)
		}
	}
}

func TestScenarioValidation(t *testing.T) {
	write := func(body string) string {
		path := filepath.Join(t.TempDir(), "s.json")
		if err := os.WriteFile(path, []byte(body), 0o600); err != nil {
			t.Fatal(err)
		}
		return path
	}
	cases := map[string]string{
		"bad json":        `{`,
		"unknown field":   `{"bogus": 1, "vms": [{"name":"a","app":"gcc"}]}`,
		"unknown machine": `{"machine": "cray", "vms": [{"name":"a","app":"gcc"}]}`,
		"unknown sched":   `{"scheduler": "fifo", "vms": [{"name":"a","app":"gcc"}]}`,
		"unknown monitor": `{"monitor": "magic", "vms": [{"name":"a","app":"gcc"}]}`,
		"no vms":          `{"ticks": 5}`,
		"unknown app":     `{"vms": [{"name":"a","app":"doom"}]}`,
		// A negative warmup once wrapped to 2^64-5 ticks: the single-host
		// loop spun forever and the fleet skipped 2^64-5 ticks.
		"negative warmup": `{"warmup": -5, "vms": [{"name":"a","app":"gcc","pins":[0]}]}`,
		"negative ticks":  `{"ticks": -5, "vms": [{"name":"a","app":"gcc","pins":[0]}]}`,
		// A single host built every vCPU asked for, ~850 B each, so a
		// large count exhausted memory before the first tick.
		"vcpus beyond cores": `{"vms": [{"name":"a","app":"gcc","vcpus":4096}]}`,
	}
	for name, body := range cases {
		t.Run(name, func(t *testing.T) {
			// Both scenario modes share one loader, so each bad input
			// fails on one host and on a fleet alike.
			for _, hosts := range []string{"1", "2"} {
				if err := run([]string{"-scenario", write(body), "-hosts", hosts}, &strings.Builder{}); err == nil {
					t.Fatalf("-hosts %s: want error", hosts)
				}
			}
		})
	}
}

func TestR420CFSScenario(t *testing.T) {
	body := `{
	  "machine": "r420", "scheduler": "cfs", "kyoto": true,
	  "monitor": "shadow", "ticks": 12, "warmup": 3,
	  "vms": [{"name": "a", "app": "povray"}, {"name": "b", "app": "hmmer"}]
	}`
	path := filepath.Join(t.TempDir(), "s.json")
	if err := os.WriteFile(path, []byte(body), 0o600); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-scenario", path}, &out); err != nil {
		t.Fatal(err)
	}
}

func TestFleetModeReport(t *testing.T) {
	body := `{
	  "kyoto": true, "ticks": 12, "warmup": 3,
	  "vms": [
	    {"name": "web", "app": "gcc", "llc_cap": 250},
	    {"name": "batch", "app": "lbm", "llc_cap": 250}
	  ]
	}`
	path := filepath.Join(t.TempDir(), "s.json")
	if err := os.WriteFile(path, []byte(body), 0o600); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-scenario", path, "-hosts", "2", "-placer", "spread"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"fleet: 2 hosts", "placer spread", "host0/web", "host1/batch"} {
		if !strings.Contains(s, want) {
			t.Fatalf("fleet report missing %q:\n%s", want, s)
		}
	}
}

func TestFleetModeAdmissionRejects(t *testing.T) {
	body := `{
	  "kyoto": true, "ticks": 6, "warmup": 2,
	  "vms": [
	    {"name": "a", "app": "lbm", "llc_cap": 1000},
	    {"name": "b", "app": "gcc", "llc_cap": 1000},
	    {"name": "late", "app": "mcf", "llc_cap": 100},
	    {"name": "nopermit", "app": "bzip"}
	  ]
	}`
	path := filepath.Join(t.TempDir(), "s.json")
	if err := os.WriteFile(path, []byte(body), 0o600); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-scenario", path, "-hosts", "2", "-placer", "kyoto"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "host0/a") || !strings.Contains(s, "host1/b") {
		t.Fatalf("admitted VMs missing:\n%s", s)
	}
	if !strings.Contains(s, "late") || !strings.Contains(s, "oversubscribes") {
		t.Fatalf("permit rejection not reported:\n%s", s)
	}
	if !strings.Contains(s, "books no llc_cap") {
		t.Fatalf("missing-permit rejection not reported:\n%s", s)
	}
}

func TestFleetModeFlagValidation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.json")
	body := `{"vms": [{"name":"a","app":"gcc"}]}`
	if err := os.WriteFile(path, []byte(body), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-scenario", path, "-hosts", "0"}, &strings.Builder{}); err == nil {
		t.Fatal("hosts 0 must fail")
	}
	if err := run([]string{"-scenario", path, "-hosts", "2", "-placer", "magic"}, &strings.Builder{}); err == nil {
		t.Fatal("unknown placer must fail")
	}
	if err := run([]string{"-scenario", path, "-placer", "kyoto"}, &strings.Builder{}); err == nil {
		t.Fatal("-placer on a single-host scenario must fail, not be ignored")
	}
}

// TestTraceModeComparisonTable is the acceptance lock for -trace: the
// committed example trace replayed through all three placers must print
// the rejection-rate / p99 comparison table.
func TestTraceModeComparisonTable(t *testing.T) {
	if testing.Short() {
		t.Skip("replays the committed example trace on three 4-host fleets")
	}
	var out strings.Builder
	trace := filepath.Join("..", "..", "internal", "arrivals", "testdata", "example.json")
	if err := run([]string{"-trace", trace, "-hosts", "4"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"22 events", "Trace sweep", "first-fit", "spread", "kyoto",
		"rej rate", "p99 norm", "cpu util",
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("trace report missing %q:\n%s", want, s)
		}
	}
}

func TestChurnModeSynthesizesAndWritesTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("replays a synthetic trace on three fleets")
	}
	outFile := filepath.Join(t.TempDir(), "churn.json")
	var out strings.Builder
	if err := run([]string{"-churn", "8", "-hosts", "2", "-seed", "3", "-trace-out", outFile}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "synthetic churn: 8 VMs") ||
		!strings.Contains(out.String(), "Trace sweep") {
		t.Fatalf("churn report wrong:\n%s", out.String())
	}
	// The written trace must replay to the identical table (same seed).
	var replayOut strings.Builder
	if err := run([]string{"-trace", outFile, "-hosts", "2", "-seed", "3"}, &replayOut); err != nil {
		t.Fatal(err)
	}
	tableOf := func(s string) string {
		i := strings.Index(s, "== Trace sweep")
		if i < 0 {
			t.Fatalf("no table in output:\n%s", s)
		}
		return s[i:]
	}
	if tableOf(out.String()) != tableOf(replayOut.String()) {
		t.Fatalf("write-then-replay diverged:\n%s\nvs\n%s", out.String(), replayOut.String())
	}
}

func TestTraceModeFlagValidation(t *testing.T) {
	if err := run([]string{"-trace", "x.json", "-churn", "5"}, &strings.Builder{}); err == nil {
		t.Fatal("-trace with -churn must fail")
	}
	if err := run([]string{"-trace", "missing.json"}, &strings.Builder{}); err == nil {
		t.Fatal("missing trace file must fail")
	}
	if err := run([]string{"-churn", "5", "-hosts", "0"}, &strings.Builder{}); err == nil {
		t.Fatal("hosts 0 must fail in trace mode")
	}
	if err := run([]string{"-churn", "-5"}, &strings.Builder{}); err == nil || !strings.HasPrefix(err.Error(), "-churn ") {
		t.Fatalf("negative -churn must fail naming -churn, got %v", err)
	}
}

func TestTraceModeRejectsForeignFlags(t *testing.T) {
	trace := filepath.Join("..", "..", "internal", "arrivals", "testdata", "example.csv")
	for name, args := range map[string][]string{
		"scenario":  {"-trace", trace, "-scenario", "s.json"},
		"placer":    {"-trace", trace, "-placer", "kyoto"},
		"trace-out": {"-trace", trace, "-trace-out", "o.json"},
		"life":      {"-trace", trace, "-churn-life", "10"},
	} {
		if err := run(args, &strings.Builder{}); err == nil {
			t.Fatalf("%s: conflicting flag must be rejected, not silently ignored", name)
		}
	}
}

func TestScenarioModeRejectsTraceFlags(t *testing.T) {
	for name, args := range map[string][]string{
		"seed":      {"-scenario", "s.json", "-seed", "9"},
		"trace-out": {"-scenario", "s.json", "-trace-out", "o.json"},
		"life":      {"-scenario", "s.json", "-churn-life", "10"},
	} {
		if err := run(args, &strings.Builder{}); err == nil {
			t.Fatalf("%s: trace-mode flag must be rejected in scenario mode", name)
		}
	}
}

func TestMigrateModeComparisonTable(t *testing.T) {
	if testing.Short() {
		t.Skip("replays a synthetic trace on six fleets")
	}
	var out strings.Builder
	if err := run([]string{"-churn", "10", "-hosts", "3", "-migrate", "reactive"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"Migration sweep", "pending=fifo", "first-fit", "spread", "kyoto",
		"migrate", "reactive", "rej rate", "wait p50", "wait p95", "wait p99",
		"migs", "p99 norm",
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("migration report missing %q:\n%s", want, s)
		}
	}
	// {none, reactive} x {3 placers} = 6 data rows.
	if rows := strings.Count(s, "first-fit ") + strings.Count(s, "spread ") + strings.Count(s, "kyoto "); rows < 6 {
		t.Fatalf("expected 6 sweep rows, table:\n%s", s)
	}
	// The same invocation reproduces the identical report (determinism
	// through the parallel sweep runner).
	var again strings.Builder
	if err := run([]string{"-churn", "10", "-hosts", "3", "-migrate", "reactive"}, &again); err != nil {
		t.Fatal(err)
	}
	if out.String() != again.String() {
		t.Fatalf("migration sweep not reproducible:\n%s\nvs\n%s", out.String(), again.String())
	}
}

func TestMigrateModePendingOnlyAndTopo(t *testing.T) {
	if testing.Short() {
		t.Skip("replays synthetic traces on several fleets")
	}
	// -pending alone engages the sweep with the no-migration arm only.
	var out strings.Builder
	if err := run([]string{"-churn", "8", "-hosts", "2", "-pending", "deadline", "-pending-deadline", "15"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "pending=deadline") || strings.Contains(out.String(), "reactive") {
		t.Fatalf("pending-only sweep wrong:\n%s", out.String())
	}
	// -migrate topo includes the topology arm.
	var topo strings.Builder
	if err := run([]string{"-churn", "8", "-hosts", "2", "-migrate", "topo"}, &topo); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(topo.String(), "topo") {
		t.Fatalf("topo sweep missing its arm:\n%s", topo.String())
	}
}

func TestShardModeFlagValidation(t *testing.T) {
	if err := run([]string{"-scenario", "s.json", "-shard", "0/2"}, &strings.Builder{}); err == nil {
		t.Fatal("-shard outside -trace/-churn mode must fail")
	}
	if err := run([]string{"-churn", "5", "-shard", "0/2", "-merge", "x.json"}, &strings.Builder{}); err == nil {
		t.Fatal("-shard with -merge must fail")
	}
	if err := run([]string{"-churn", "5", "-shard-out", "x.json"}, &strings.Builder{}); err == nil {
		t.Fatal("-shard-out without -shard must fail")
	}
	if err := run([]string{"-churn", "5", "-shard", "9"}, &strings.Builder{}); err == nil {
		t.Fatal("malformed -shard spec must fail")
	}
	if err := run([]string{"-churn", "5", "-shard", "0/2", "-trace-out", "t.json"}, &strings.Builder{}); err == nil {
		t.Fatal("-trace-out with -shard must fail (shards would race on the file)")
	}
	if err := run([]string{"-churn", "5", "-merge", "no-such-*.json"}, &strings.Builder{}); err == nil {
		t.Fatal("-merge with no matching envelopes must fail")
	}
}

func TestShardMergeReproducesSerialTraceSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("replays a synthetic trace on three fleets twice")
	}
	dir := t.TempDir()
	churnArgs := []string{"-churn", "8", "-hosts", "2", "-seed", "11"}
	for _, spec := range []string{"0/2", "1/2"} {
		args := append(append([]string{}, churnArgs...),
			"-shard", spec, "-shard-out", filepath.Join(dir, "shard-"+spec[:1]+".json"))
		var envOut strings.Builder
		if err := run(args, &envOut); err != nil {
			t.Fatal(err)
		}
	}
	var serial, merged strings.Builder
	if err := run(churnArgs, &serial); err != nil {
		t.Fatal(err)
	}
	if err := run(append(append([]string{}, churnArgs...), "-merge", filepath.Join(dir, "shard-*.json")), &merged); err != nil {
		t.Fatal(err)
	}
	if serial.String() != merged.String() {
		t.Fatalf("merged output differs from serial:\n--- serial\n%s\n--- merged\n%s", serial.String(), merged.String())
	}
	if !strings.Contains(merged.String(), "Trace sweep") {
		t.Fatalf("merged output is not the sweep table:\n%s", merged.String())
	}
	// Merging with mismatched flags (a different fleet size, which does
	// not even change the job keys) must fail loudly via the envelope's
	// configuration digest, not silently print a table for a fleet that
	// never ran.
	bad := []string{"-churn", "8", "-hosts", "3", "-seed", "11", "-merge", filepath.Join(dir, "shard-*.json")}
	var sink strings.Builder
	if err := run(bad, &sink); err == nil || !strings.Contains(err.Error(), "different configuration") {
		t.Fatalf("mismatched merge flags accepted: %v", err)
	}
}

func TestSeedsFlagValidation(t *testing.T) {
	if err := run([]string{"-churn", "5", "-seeds", "0"}, &strings.Builder{}); err == nil {
		t.Fatal("explicit -seeds 0 must fail, not silently run once")
	}
	if err := run([]string{"-churn", "5", "-seeds", "-3"}, &strings.Builder{}); err == nil {
		t.Fatal("negative -seeds must fail")
	}
	if err := run([]string{"-scenario", "s.json", "-seeds", "4"}, &strings.Builder{}); err == nil {
		t.Fatal("-seeds outside -trace/-churn mode must fail")
	}
}

// TestSeedsModeStatisticsTable is the acceptance lock for -seeds: the
// churn sweep replicated across seeds must print the per-metric
// statistics table instead of the single-seed comparison.
func TestSeedsModeStatisticsTable(t *testing.T) {
	if testing.Short() {
		t.Skip("replays a synthetic trace under several seeds")
	}
	var out strings.Builder
	if err := run([]string{"-churn", "8", "-hosts", "2", "-seeds", "3"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"Seed sweep", "3 seeds", "mean ± 95% CI", "bootstrap",
		"first-fit", "spread", "kyoto", "p99_norm",
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("seed sweep report missing %q:\n%s", want, s)
		}
	}
	// The migration sweep gains the size-class tail columns.
	var mig strings.Builder
	if err := run([]string{"-churn", "8", "-hosts", "2", "-migrate", "reactive", "-pending", "sjf", "-seeds", "2"}, &mig); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Seed sweep", "2 seeds", "wait_p99_small", "wait_p99_large", "first-fit/reactive"} {
		if !strings.Contains(mig.String(), want) {
			t.Fatalf("migration seed sweep missing %q:\n%s", want, mig.String())
		}
	}
}

// TestSeedsShardMergeReproducesSerial is the acceptance criterion for
// -seeds composing with -shard/-merge: the merged statistics table must
// be byte-identical to the serial -seeds run.
func TestSeedsShardMergeReproducesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("replays a synthetic trace under four seeds twice")
	}
	dir := t.TempDir()
	baseArgs := []string{"-churn", "8", "-hosts", "2", "-seed", "11", "-seeds", "4"}
	for _, spec := range []string{"0/4", "1/4", "2/4", "3/4"} {
		args := append(append([]string{}, baseArgs...),
			"-shard", spec, "-shard-out", filepath.Join(dir, "shard-"+spec[:1]+".json"))
		if err := run(args, &strings.Builder{}); err != nil {
			t.Fatal(err)
		}
	}
	var serial, merged strings.Builder
	if err := run(baseArgs, &serial); err != nil {
		t.Fatal(err)
	}
	if err := run(append(append([]string{}, baseArgs...), "-merge", filepath.Join(dir, "shard-*.json")), &merged); err != nil {
		t.Fatal(err)
	}
	if serial.String() != merged.String() {
		t.Fatalf("merged seed sweep differs from serial:\n--- serial\n%s\n--- merged\n%s", serial.String(), merged.String())
	}
	if !strings.Contains(merged.String(), "Seed sweep") {
		t.Fatalf("merged output is not the statistics table:\n%s", merged.String())
	}
	// A different seed count plans a different sweep: merging the four
	// envelopes under -seeds 5 must fail via the configuration digest.
	bad := []string{"-churn", "8", "-hosts", "2", "-seed", "11", "-seeds", "5", "-merge", filepath.Join(dir, "shard-*.json")}
	if err := run(bad, &strings.Builder{}); err == nil {
		t.Fatal("envelopes from a different -seeds count merged silently")
	}
}

func TestMigrateModeFlagValidation(t *testing.T) {
	if err := run([]string{"-churn", "5", "-migrate", "bogus"}, &strings.Builder{}); err == nil {
		t.Fatal("bogus -migrate value must fail")
	}
	if err := run([]string{"-churn", "5", "-pending", "bogus"}, &strings.Builder{}); err == nil {
		t.Fatal("bogus -pending value must fail")
	}
	if err := run([]string{"-churn", "5", "-migrate", "reactive", "-big-llc", "3"}, &strings.Builder{}); err == nil {
		t.Fatal("non-power-of-two -big-llc must fail")
	}
	if err := run([]string{"-churn", "5", "-migrate-every", "6"}, &strings.Builder{}); err == nil {
		t.Fatal("-migrate-every without -migrate/-pending must fail")
	}
	if err := run([]string{"-churn", "5", "-big-llc", "4"}, &strings.Builder{}); err == nil {
		t.Fatal("-big-llc without -migrate/-pending must fail")
	}
	if err := run([]string{"-scenario", "s.json", "-migrate", "reactive"}, &strings.Builder{}); err == nil {
		t.Fatal("-migrate outside -trace/-churn mode must fail")
	}
	if err := run([]string{"-scenario", "s.json", "-pending", "fifo"}, &strings.Builder{}); err == nil {
		t.Fatal("-pending outside -trace/-churn mode must fail")
	}
	// Knobs no arm reads: the deadline outside -pending deadline, and the
	// rebalance epoch and blackout when no arm migrates.
	for _, args := range [][]string{
		{"-churn", "5", "-pending", "fifo", "-pending-deadline", "40"},
		{"-churn", "5", "-migrate", "none", "-migrate-every", "6"},
		{"-churn", "5", "-pending", "sjf", "-migrate-downtime", "2"},
		{"-churn", "5", "-migrate", "reactive", "-migrate-downtime", "-3"},
	} {
		if err := run(args, &strings.Builder{}); err == nil {
			t.Fatalf("%v: must fail", args)
		}
	}
}

// TestSignatureFlagValidation pins the clean-error contract for the
// change-detection arm's knobs: out-of-range detector values fail before
// any replay runs, and detector flags without a signature arm in the
// sweep are rejected rather than silently dropped.
func TestSignatureFlagValidation(t *testing.T) {
	for name, args := range map[string][]string{
		"alpha > 1":          {"-churn", "5", "-migrate", "signature", "-detect-alpha", "2"},
		"negative alpha":     {"-churn", "5", "-migrate", "signature", "-detect-alpha", "-0.5"},
		"negative drift":     {"-churn", "5", "-migrate", "signature", "-detect-drift", "-1"},
		"negative threshold": {"-churn", "5", "-migrate", "signature", "-detect-threshold", "-2"},
		"negative warmup":    {"-churn", "5", "-migrate", "signature", "-detect-warmup", "-1"},
	} {
		if err := run(args, &strings.Builder{}); err == nil {
			t.Fatalf("%s: invalid detector knob must fail", name)
		}
	}
	if err := run([]string{"-churn", "5", "-migrate", "reactive", "-detect-drift", "0.5"}, &strings.Builder{}); err == nil {
		t.Fatal("-detect-drift without a signature arm must be rejected, not silently ignored")
	}
	if err := run([]string{"-churn", "5", "-detect-alpha", "0.5"}, &strings.Builder{}); err == nil {
		t.Fatal("-detect-alpha without -migrate must fail")
	}
	if err := run([]string{"-scenario", "s.json", "-detect-threshold", "3"}, &strings.Builder{}); err == nil {
		t.Fatal("-detect-threshold outside -trace/-churn mode must fail")
	}
}

// TestSignatureSweepComposition is the acceptance lock for -migrate
// signature: the arm composes with -fidelity analytic, -seeds and
// -shard/-merge, the merged statistics table is byte-identical to the
// serial run, and the detector knobs enter the sweep's configuration
// digest (envelopes from differently tuned detectors refuse to merge).
func TestSignatureSweepComposition(t *testing.T) {
	if testing.Short() {
		t.Skip("replays a synthetic trace under several seeds twice")
	}
	// Single-seed run first: the table must carry the signature arm.
	single := []string{"-churn", "10", "-hosts", "3", "-seed", "7", "-migrate", "signature",
		"-fidelity", "analytic", "-detect-alpha", "0.2", "-detect-drift", "0.1",
		"-detect-threshold", "1", "-detect-warmup", "2"}
	var out strings.Builder
	if err := run(single, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "signature") || !strings.Contains(out.String(), "Migration sweep") {
		t.Fatalf("signature sweep table wrong:\n%s", out.String())
	}

	dir := t.TempDir()
	base := append(append([]string{}, single...), "-seeds", "3")
	for _, spec := range []string{"0/3", "1/3", "2/3"} {
		args := append(append([]string{}, base...),
			"-shard", spec, "-shard-out", filepath.Join(dir, "shard-"+spec[:1]+".json"))
		if err := run(args, &strings.Builder{}); err != nil {
			t.Fatal(err)
		}
	}
	var serial, merged strings.Builder
	if err := run(base, &serial); err != nil {
		t.Fatal(err)
	}
	if err := run(append(append([]string{}, base...), "-merge", filepath.Join(dir, "shard-*.json")), &merged); err != nil {
		t.Fatal(err)
	}
	if serial.String() != merged.String() {
		t.Fatalf("merged signature seed sweep differs from serial:\n--- serial\n%s\n--- merged\n%s",
			serial.String(), merged.String())
	}
	if !strings.Contains(merged.String(), "Seed sweep") || !strings.Contains(merged.String(), "signature") {
		t.Fatalf("merged output is not the signature statistics table:\n%s", merged.String())
	}
	// A different detector tuning plans a different sweep: the envelopes
	// must refuse to merge via the configuration digest rather than print
	// a table for detectors that never ran.
	bad := append(append([]string{}, base...), "-merge", filepath.Join(dir, "shard-*.json"))
	for i, a := range bad {
		if a == "-detect-threshold" {
			bad[i+1] = "4"
		}
	}
	if err := run(bad, &strings.Builder{}); err == nil {
		t.Fatal("envelopes from a differently tuned detector merged silently")
	}
}

// TestFlagMatrix checks kyotosim's mode table. Every flag is either a
// profile flag, which applies everywhere, or in exactly one flagRules row;
// and for every row and every bound in flagMins, an invocation that
// breaks it fails with an error naming the flag. The invocations name
// input files that do not exist, so an error about the flag also shows
// that the check ran before any input was read or any simulation began.
func TestFlagMatrix(t *testing.T) {
	dir := t.TempDir()
	absent := filepath.Join(dir, "absent.json")
	everywhere := map[string]bool{"cpuprofile": true, "memprofile": true}
	rowOf := map[string]int{}
	for i, r := range flagRules {
		for _, name := range r.flags {
			if _, dup := rowOf[name]; dup || everywhere[name] {
				t.Errorf("-%s is covered twice", name)
			}
			rowOf[name] = i
		}
	}
	newFlagSet(&options{}).VisitAll(func(f *flag.Flag) {
		if _, ok := rowOf[f.Name]; !ok && !everywhere[f.Name] {
			t.Errorf("-%s is in no flagRules row and is not a profile flag", f.Name)
		}
	})

	type breach struct {
		flag string
		args []string
	}
	misplaced := []breach{
		{"example", []string{"-example", "-apps"}},
		{"fidelity", []string{"-apps", "-fidelity", "analytic"}},
		{"fidelity", []string{"-scenario", absent, "-fidelity", "two-tier"}},
		{"hosts", []string{"-example", "-hosts", "2"}},
		{"scenario", []string{"-trace", absent, "-scenario", absent}},
		{"placer", []string{"-scenario", absent, "-placer", "kyoto"}},
		{"placer", []string{"-trace", absent, "-placer", "kyoto"}},
		{"trace", []string{"-trace", absent, "-churn", "5"}},
		{"seed", []string{"-scenario", absent, "-seed", "9"}},
		{"churn-life", []string{"-trace", absent, "-churn-life", "10"}},
		{"trace-out", []string{"-trace", absent, "-trace-out", filepath.Join(dir, "t.json")}},
		{"trace-out", []string{"-churn", "5", "-shard", "0/2", "-trace-out", filepath.Join(dir, "t.json")}},
		{"migrate", []string{"-trace", absent, "-fidelity", "two-tier", "-migrate", "reactive"}},
		{"pending", []string{"-scenario", absent, "-pending", "fifo"}},
		{"big-llc", []string{"-trace", absent, "-big-llc", "2"}},
		{"migrate-every", []string{"-trace", absent, "-migrate", "none", "-migrate-every", "6"}},
		{"migrate-downtime", []string{"-trace", absent, "-pending", "fifo", "-migrate-downtime", "2"}},
		{"pending-deadline", []string{"-trace", absent, "-pending", "fifo", "-pending-deadline", "40"}},
		{"detect-drift", []string{"-trace", absent, "-migrate", "reactive", "-detect-drift", "0.5"}},
		{"seeds", []string{"-trace", absent, "-fidelity", "two-tier", "-seeds", "3"}},
		{"shard", []string{"-scenario", absent, "-shard", "0/2"}},
		{"shard-out", []string{"-trace", absent, "-shard-out", filepath.Join(dir, "s.json")}},
		{"checkpoint-every", []string{"-scenario", absent, "-checkpoint-every", "5"}},
		{"checkpoint-every", []string{"-scenario", absent, "-hosts", "2", "-checkpoint-every", "5", "-checkpoint-out", filepath.Join(dir, "ck.json")}},
		{"resume", []string{"-trace", absent, "-merge", absent, "-resume", absent}},
		{"confirm-top", []string{"-trace", absent, "-confirm-top", "2"}},
	}
	outOfRange := []breach{
		{"hosts", []string{"-scenario", absent, "-hosts", "0"}},
		{"churn", []string{"-churn", "-5"}},
		{"seeds", []string{"-trace", absent, "-seeds", "0"}},
		{"confirm-top", []string{"-trace", absent, "-fidelity", "two-tier", "-confirm-top", "0"}},
		{"checkpoint-every", []string{"-scenario", absent, "-checkpoint-every", "0", "-checkpoint-out", filepath.Join(dir, "ck.json")}},
		{"big-llc", []string{"-trace", absent, "-migrate", "topo", "-big-llc", "-1"}},
	}
	rowBroken := make([]bool, len(flagRules))
	for _, b := range misplaced {
		err := run(b.args, &strings.Builder{})
		if err == nil || !strings.HasPrefix(err.Error(), "-"+b.flag+" only applies") {
			t.Errorf("%v: want a -%s rule error, got %v", b.args, b.flag, err)
		}
		rowBroken[rowOf[b.flag]] = true
	}
	for i, r := range flagRules {
		if !rowBroken[i] {
			t.Errorf("no invocation breaks the rule for %v", r.flags)
		}
	}
	bounded := map[string]bool{}
	for _, b := range outOfRange {
		err := run(b.args, &strings.Builder{})
		if err == nil || !strings.HasPrefix(err.Error(), "-"+b.flag+" must be at least") {
			t.Errorf("%v: want a -%s range error, got %v", b.args, b.flag, err)
		}
		bounded[b.flag] = true
	}
	for _, m := range flagMins {
		if !bounded[m.name] {
			t.Errorf("no invocation breaks the bound on -%s", m.name)
		}
	}
	// -churn-life is a float: set, it must be positive and finite.
	for _, v := range []string{"-3", "0", "NaN", "+Inf", "-Inf"} {
		err := run([]string{"-churn", "5", "-churn-life", v}, &strings.Builder{})
		if err == nil || !strings.HasPrefix(err.Error(), "-churn-life must be a positive finite number") {
			t.Errorf("-churn-life %s: want a range error, got %v", v, err)
		}
	}
	// The profile flags apply in every mode, -example's included.
	if err := run([]string{"-example", "-cpuprofile", filepath.Join(dir, "cpu.out")}, &strings.Builder{}); err != nil {
		t.Fatal(err)
	}
}
