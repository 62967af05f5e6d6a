package main

// Acceptance tests for -checkpoint-every/-checkpoint-out/-resume: flag
// cross-validation, byte-identical scenario resume (including from a
// genuinely mid-run checkpoint built against the public API), the
// config-digest errors on mismatched seed/fidelity/scenario, and sweep
// checkpoints that resume and merge byte-identically with serial runs.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kyoto"
)

func TestCheckpointFlagValidation(t *testing.T) {
	dir := t.TempDir()
	ck := filepath.Join(dir, "ck.json")
	scn := filepath.Join(dir, "s.json")
	if err := os.WriteFile(scn, []byte(exampleScenario), 0o600); err != nil {
		t.Fatal(err)
	}
	cases := map[string][]string{
		"zero-interval":        {"-scenario", scn, "-checkpoint-every", "0", "-checkpoint-out", ck},
		"negative-interval":    {"-scenario", scn, "-checkpoint-every", "-3", "-checkpoint-out", ck},
		"every-without-out":    {"-scenario", scn, "-checkpoint-every", "5"},
		"out-without-every":    {"-scenario", scn, "-checkpoint-out", ck},
		"resume-missing-file":  {"-scenario", scn, "-resume", filepath.Join(dir, "absent.json")},
		"fleet-scenario":       {"-scenario", scn, "-hosts", "2", "-checkpoint-every", "5", "-checkpoint-out", ck},
		"merge-mode":           {"-churn", "5", "-merge", "x.json", "-checkpoint-every", "5", "-checkpoint-out", ck},
		"two-tier":             {"-churn", "5", "-fidelity", "two-tier", "-checkpoint-every", "5", "-checkpoint-out", ck},
		"sweep-path-disagrees": {"-churn", "5", "-checkpoint-every", "1", "-checkpoint-out", ck, "-resume", filepath.Join(dir, "other.json")},
	}
	// The disagreeing-path case needs the resume file to exist so the
	// earlier existence check does not mask the real error.
	if err := os.WriteFile(filepath.Join(dir, "other.json"), []byte("{}"), 0o600); err != nil {
		t.Fatal(err)
	}
	for name, args := range cases {
		if err := run(args, &strings.Builder{}); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestScenarioCheckpointResumeByteIdentity(t *testing.T) {
	dir := t.TempDir()
	scn := filepath.Join(dir, "s.json")
	ck := filepath.Join(dir, "ck.json")
	if err := os.WriteFile(scn, []byte(exampleScenario), 0o600); err != nil {
		t.Fatal(err)
	}

	var plain strings.Builder
	if err := run([]string{"-scenario", scn}, &plain); err != nil {
		t.Fatal(err)
	}
	// Checkpointing must not perturb the run: the report is identical.
	var ckRun strings.Builder
	if err := run([]string{"-scenario", scn, "-checkpoint-every", "7", "-checkpoint-out", ck}, &ckRun); err != nil {
		t.Fatal(err)
	}
	if plain.String() != ckRun.String() {
		t.Fatalf("checkpointing perturbed the run:\n--- plain\n%s\n--- checkpointed\n%s", plain.String(), ckRun.String())
	}
	// Resume from the final checkpoint replays only the report.
	var resumed strings.Builder
	if err := run([]string{"-scenario", scn, "-resume", ck}, &resumed); err != nil {
		t.Fatal(err)
	}
	if plain.String() != resumed.String() {
		t.Fatalf("resumed report differs:\n--- plain\n%s\n--- resumed\n%s", plain.String(), resumed.String())
	}

	// A genuinely mid-run checkpoint, built against the public API the
	// way a killed run would have left it (tick 20 of 72, past warmup):
	// the CLI must continue it to a byte-identical report.
	sc, cfg, _, err := loadScenario(scn, kyoto.FidelityExact)
	if err != nil {
		t.Fatal(err)
	}
	w, err := kyoto.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sc.VMs {
		if _, err := w.AddVM(s.toSpec()); err != nil {
			t.Fatal(err)
		}
	}
	w.RunTicks(sc.Warmup)
	before := make([]kyoto.Counters, 0, len(w.VMs()))
	for _, v := range w.VMs() {
		before = append(before, v.Counters())
	}
	w.RunTicks(8)
	snap, err := kyoto.Snapshot(w)
	if err != nil {
		t.Fatal(err)
	}
	compact, err := canonicalJSON([]byte(exampleScenario))
	if err != nil {
		t.Fatal(err)
	}
	mid, err := json.Marshal(cliCheckpoint{
		Schema: cliCheckpointSchema, Scenario: compact,
		Tick: w.Now(), Before: before, Snapshot: snap,
	})
	if err != nil {
		t.Fatal(err)
	}
	midPath := filepath.Join(dir, "mid.json")
	if err := os.WriteFile(midPath, mid, 0o600); err != nil {
		t.Fatal(err)
	}
	var fromMid strings.Builder
	if err := run([]string{"-scenario", scn, "-resume", midPath}, &fromMid); err != nil {
		t.Fatal(err)
	}
	if plain.String() != fromMid.String() {
		t.Fatalf("mid-run resume diverged:\n--- plain\n%s\n--- resumed\n%s", plain.String(), fromMid.String())
	}
}

func TestScenarioCheckpointMismatchErrors(t *testing.T) {
	dir := t.TempDir()
	scn := filepath.Join(dir, "s.json")
	ck := filepath.Join(dir, "ck.json")
	if err := os.WriteFile(scn, []byte(exampleScenario), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-scenario", scn, "-checkpoint-every", "10", "-checkpoint-out", ck}, &strings.Builder{}); err != nil {
		t.Fatal(err)
	}

	// A different seed or fidelity changes the world configuration: the
	// resume must fail with the snapshot config-digest error.
	otherSeed := filepath.Join(dir, "seed.json")
	if err := os.WriteFile(otherSeed, []byte(strings.Replace(exampleScenario, `"seed": 1`, `"seed": 2`, 1)), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-scenario", otherSeed, "-resume", ck}, &strings.Builder{}); err == nil || !strings.Contains(err.Error(), "different configuration") {
		t.Fatalf("mismatched seed: %v", err)
	}
	if err := run([]string{"-scenario", scn, "-fidelity", "analytic", "-resume", ck}, &strings.Builder{}); err == nil || !strings.Contains(err.Error(), "different configuration") {
		t.Fatalf("mismatched fidelity: %v", err)
	}

	// The digest cannot see the VM list or the tick windows; the stored
	// scenario bytes must catch those.
	otherTicks := filepath.Join(dir, "ticks.json")
	if err := os.WriteFile(otherTicks, []byte(strings.Replace(exampleScenario, `"ticks": 60`, `"ticks": 50`, 1)), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-scenario", otherTicks, "-resume", ck}, &strings.Builder{}); err == nil || !strings.Contains(err.Error(), "different scenario") {
		t.Fatalf("mismatched ticks: %v", err)
	}

	// Truncated and non-JSON checkpoints must fail cleanly.
	data, err := os.ReadFile(ck)
	if err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, data[:len(data)/2], 0o600); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-scenario", scn, "-resume", bad}, &strings.Builder{}); err == nil {
		t.Fatal("truncated checkpoint accepted")
	}
	if err := os.WriteFile(bad, []byte("not a checkpoint"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-scenario", scn, "-resume", bad}, &strings.Builder{}); err == nil {
		t.Fatal("garbage checkpoint accepted")
	}
}

// TestScenarioCheckpointResumeSpecialCharacters: json.Marshal stores the
// scenario inside the checkpoint with <, >, &, U+2028 and U+2029
// escaped, and a resume must still recognise the scenario file it was
// taken under.
func TestScenarioCheckpointResumeSpecialCharacters(t *testing.T) {
	dir := t.TempDir()
	scn := filepath.Join(dir, "s.json")
	ck := filepath.Join(dir, "ck.json")
	special := strings.NewReplacer(`"name": "web"`, `"name": "<web&db>"`,
		`"name": "batch"`, "\"name\": \"batch\u2028line\u2029end\"").Replace(exampleScenario)
	if err := os.WriteFile(scn, []byte(special), 0o600); err != nil {
		t.Fatal(err)
	}
	var plain, ckRun, resumed strings.Builder
	if err := run([]string{"-scenario", scn}, &plain); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plain.String(), "<web&db>") {
		t.Fatalf("report lacks the special VM name:\n%s", plain.String())
	}
	if err := run([]string{"-scenario", scn, "-checkpoint-every", "25", "-checkpoint-out", ck}, &ckRun); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-scenario", scn, "-resume", ck}, &resumed); err != nil {
		t.Fatal(err)
	}
	if plain.String() != ckRun.String() || plain.String() != resumed.String() {
		t.Fatalf("special-character scenario diverged:\n--- plain\n%s\n--- checkpointed\n%s\n--- resumed\n%s",
			plain.String(), ckRun.String(), resumed.String())
	}
	// The scenario comparison still refuses a genuinely different name.
	other := filepath.Join(dir, "other.json")
	if err := os.WriteFile(other, []byte(strings.Replace(special, "<web&db>", "<web&dc>", 1)), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-scenario", other, "-resume", ck}, &strings.Builder{}); err == nil || !strings.Contains(err.Error(), "different scenario") {
		t.Fatalf("renamed VM: %v", err)
	}
}

// TestSweepCheckpointResumeMergesWithSerial is the acceptance criterion
// for sweep-mode checkpointing: checkpointed shard runs, their fully
// cached -resume re-runs, and the merge of the resumed envelopes all
// reproduce the serial sweep byte-for-byte.
func TestSweepCheckpointResumeMergesWithSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("replays a synthetic trace on three fleets several times")
	}
	dir := t.TempDir()
	base := []string{"-churn", "6", "-hosts", "2", "-seed", "7"}
	with := func(extra ...string) []string { return append(append([]string{}, base...), extra...) }

	var serial strings.Builder
	if err := run(base, &serial); err != nil {
		t.Fatal(err)
	}

	// The in-process sweep with checkpointing is byte-identical, and its
	// -resume re-run reads everything from the checkpoint.
	full := filepath.Join(dir, "full.json")
	var ckRun, ckResumed strings.Builder
	if err := run(with("-checkpoint-every", "1", "-checkpoint-out", full), &ckRun); err != nil {
		t.Fatal(err)
	}
	if serial.String() != ckRun.String() {
		t.Fatalf("checkpointed sweep differs from serial:\n--- serial\n%s\n--- checkpointed\n%s", serial.String(), ckRun.String())
	}
	if err := run(with("-resume", full), &ckResumed); err != nil {
		t.Fatal(err)
	}
	if serial.String() != ckResumed.String() {
		t.Fatalf("resumed sweep differs from serial:\n--- serial\n%s\n--- resumed\n%s", serial.String(), ckResumed.String())
	}

	// Checkpointed shard runs write envelopes identical to plain shards;
	// resuming each shard from its (complete) checkpoint and merging
	// reproduces the serial table.
	for _, spec := range []string{"0/2", "1/2"} {
		k := spec[:1]
		if err := run(with("-shard", spec, "-shard-out", filepath.Join(dir, "plain-"+k+".json")), &strings.Builder{}); err != nil {
			t.Fatal(err)
		}
		if err := run(with("-shard", spec, "-shard-out", filepath.Join(dir, "ck-"+k+".json"),
			"-checkpoint-every", "1", "-checkpoint-out", filepath.Join(dir, "state-"+k+".json")), &strings.Builder{}); err != nil {
			t.Fatal(err)
		}
		plain, err := os.ReadFile(filepath.Join(dir, "plain-"+k+".json"))
		if err != nil {
			t.Fatal(err)
		}
		ck, err := os.ReadFile(filepath.Join(dir, "ck-"+k+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if string(plain) != string(ck) {
			t.Fatalf("shard %s: checkpointed envelope differs from plain", spec)
		}
		// The resumed re-run rewrites the envelope from the checkpoint.
		if err := run(with("-shard", spec, "-shard-out", filepath.Join(dir, "res-"+k+".json"),
			"-resume", filepath.Join(dir, "state-"+k+".json")), &strings.Builder{}); err != nil {
			t.Fatal(err)
		}
		res, err := os.ReadFile(filepath.Join(dir, "res-"+k+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if string(plain) != string(res) {
			t.Fatalf("shard %s: resumed envelope differs from plain", spec)
		}
	}
	var merged strings.Builder
	if err := run(with("-merge", filepath.Join(dir, "res-*.json")), &merged); err != nil {
		t.Fatal(err)
	}
	if serial.String() != merged.String() {
		t.Fatalf("merge of resumed shards differs from serial:\n--- serial\n%s\n--- merged\n%s", serial.String(), merged.String())
	}

	// A checkpoint from different flags must be refused: a different
	// fleet size keeps the job plan's shape but changes the config
	// digest, and a different churn seed changes the plan itself.
	if err := run([]string{"-churn", "6", "-hosts", "3", "-seed", "7", "-resume", full}, &strings.Builder{}); err == nil || !strings.Contains(err.Error(), "different configuration") {
		t.Fatalf("mismatched sweep resume (hosts): %v", err)
	}
	if err := run([]string{"-churn", "6", "-hosts", "2", "-seed", "8", "-resume", full}, &strings.Builder{}); err == nil || !strings.Contains(err.Error(), "checkpoint") {
		t.Fatalf("mismatched sweep resume (seed): %v", err)
	}
}

// TestSeedsCheckpointResume locks -seeds composing with checkpointing:
// the checkpointed statistical sweep and its resume are byte-identical
// to the plain -seeds run.
func TestSeedsCheckpointResume(t *testing.T) {
	if testing.Short() {
		t.Skip("replays a synthetic trace under two seeds twice")
	}
	dir := t.TempDir()
	base := []string{"-churn", "6", "-hosts", "2", "-seed", "7", "-seeds", "2"}
	var plain strings.Builder
	if err := run(base, &plain); err != nil {
		t.Fatal(err)
	}
	ck := filepath.Join(dir, "seeds.json")
	var ckRun, resumed strings.Builder
	if err := run(append(append([]string{}, base...), "-checkpoint-every", "3", "-checkpoint-out", ck), &ckRun); err != nil {
		t.Fatal(err)
	}
	if err := run(append(append([]string{}, base...), "-resume", ck), &resumed); err != nil {
		t.Fatal(err)
	}
	if plain.String() != ckRun.String() || plain.String() != resumed.String() {
		t.Fatalf("seeds checkpoint/resume diverged from plain run:\n--- plain\n%s\n--- checkpointed\n%s\n--- resumed\n%s",
			plain.String(), ckRun.String(), resumed.String())
	}
}
