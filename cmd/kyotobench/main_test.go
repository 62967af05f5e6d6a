package main

import (
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"kyoto/internal/cache"
	"kyoto/internal/sweep"
)

func TestRegistryCoversPaperArtefacts(t *testing.T) {
	reg := registry
	wanted := []string{
		"table1", "table2",
		"fig1", "fig2", "fig3", "fig4", "fig5", "fig6",
		"fig8", "fig9", "fig10", "fig11", "fig12",
		"ablations", "ks4linux", "fig4matrix",
	}
	for _, id := range wanted {
		if _, ok := reg[id]; !ok {
			t.Errorf("experiment %q missing from registry", id)
		}
	}
}

func TestUnknownExperimentRejected(t *testing.T) {
	if err := run([]string{"-run", "fig99"}); err == nil {
		t.Fatal("unknown experiment must fail")
	}
}

func TestListFlag(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatal(err)
	}
	// -list prints and exits, so any other flag but the profile flags
	// would be silently ignored.
	for _, args := range [][]string{
		{"-list", "-seeds", "3", "-run", "fig4"},
		{"-list", "-workers", "4", "-fidelity", "analytic"},
		{"-seed", "2", "-list"},
	} {
		if err := run(args); err == nil || !strings.Contains(err.Error(), "run alone") {
			t.Errorf("%v: want a run-alone error, got %v", args, err)
		}
	}
	dir := t.TempDir()
	for _, args := range [][]string{
		{"-list", "-cpuprofile", filepath.Join(dir, "list.cpu")},
		{"-list", "-memprofile", filepath.Join(dir, "list.mem")},
	} {
		if err := run(args); err != nil {
			t.Errorf("%v: %v", args, err)
		}
		if _, err := os.Stat(args[2]); err != nil {
			t.Errorf("%v wrote no profile: %v", args, err)
		}
	}
}

func TestQuickExperimentsExecute(t *testing.T) {
	// Only the cheap artefacts; the heavy ones are covered by the
	// experiments package's reproduction-lock tests.
	if err := run([]string{"-run", "table1,table2"}); err != nil {
		t.Fatal(err)
	}
}

// TestShardableIDsAreRegistryMembers pins that every registry id
// shards: it builds a sweep with a non-empty plan, named after the id
// (so envelopes of one experiment never merge into another), and, where
// the entry is tiered, an analytic sweep with a distinct config digest.
func TestShardableIDsAreRegistryMembers(t *testing.T) {
	for _, id := range ids(everyExperiment) {
		e := registry[id]
		if (e.sweep == nil) == (e.tiered == nil) {
			t.Errorf("%s: exactly one of sweep and tiered must be set", id)
			continue
		}
		s := e.build(1, cache.FidelityExact)
		if len(s.Plan()) == 0 {
			t.Errorf("%s: empty plan", id)
		}
		if s.Name() != id && id != "detection" {
			t.Errorf("%s: sweep is named %q", id, s.Name())
		}
		if e.tiered != nil {
			a := e.build(1, cache.FidelityAnalytic)
			if a.(sweep.ConfigFingerprinter).ConfigFingerprint() == s.(sweep.ConfigFingerprinter).ConfigFingerprint() {
				t.Errorf("%s: analytic and exact config digests agree", id)
			}
		}
	}
}

func TestShardFlagValidation(t *testing.T) {
	cases := map[string][]string{
		"shard+merge":          {"-run", "ablations", "-shard", "0/2", "-merge", "x.json"},
		"multiple experiments": {"-run", "fig4,ablations", "-shard", "0/2"},
		"all experiments":      {"-run", "all", "-shard", "0/2"},
		"unknown experiment":   {"-run", "fig99", "-shard", "0/2"},
		"exact-only analytic":  {"-run", "table1", "-fidelity", "analytic", "-shard", "0/2"},
		"bad spec":             {"-run", "ablations", "-shard", "2/2"},
		"missing shards":       {"-run", "ablations", "-merge", "no-such-file-*.json"},
		"shard-out alone":      {"-run", "ablations", "-shard-out", "x.json"},
	}
	for name, args := range cases {
		if err := run(args); err == nil {
			t.Fatalf("%s: must fail", name)
		}
	}
}

// TestWarmstartJSONWritesCPUProfile pins that -cpuprofile covers the
// -warmstart-json mode too.
func TestWarmstartJSONWritesCPUProfile(t *testing.T) {
	dir := t.TempDir()
	prof := filepath.Join(dir, "cpu.out")
	args := []string{"-warmstart-json", filepath.Join(dir, "ws.json"), "-fidelity", "analytic", "-cpuprofile", prof}
	if err := run(args); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(prof); err != nil || fi.Size() == 0 {
		t.Fatalf("-warmstart-json wrote no CPU profile: %v", err)
	}
}

// TestShardMergeRoundTrip is the -shard/-merge acceptance lock for
// every experiment: two shard envelopes must merge to the tables a
// serial run prints. Short mode covers the cheap ids.
func TestShardMergeRoundTrip(t *testing.T) {
	all := ids(everyExperiment)
	if testing.Short() {
		all = []string{"table1", "table2", "fig2", "ks4linux"}
	}
	dir := t.TempDir()
	for _, id := range all {
		t.Run(id, func(t *testing.T) {
			for _, k := range []string{"0", "1"} {
				outPath := filepath.Join(dir, id+"-"+k+".json")
				if err := run([]string{"-run", id, "-shard", k + "/2", "-shard-out", outPath}); err != nil {
					t.Fatal(err)
				}
				if fi, err := os.Stat(outPath); err != nil || fi.Size() == 0 {
					t.Fatalf("shard %s/2 wrote nothing: %v", k, err)
				}
			}
			serial, err := captureRun([]string{"-run", id})
			if err != nil {
				t.Fatal(err)
			}
			merged, err := captureRun([]string{"-run", id, "-merge", filepath.Join(dir, id+"-*.json")})
			if err != nil {
				t.Fatal(err)
			}
			if tablesOf(serial) != tablesOf(merged) {
				t.Fatalf("merged tables differ from serial:\n--- serial\n%s\n--- merged\n%s", serial, merged)
			}
		})
	}
	// Merging under the wrong experiment id must be caught by the
	// envelope's sweep name.
	if err := run([]string{"-run", "table2", "-merge", filepath.Join(dir, "table1-*.json")}); err == nil ||
		!strings.Contains(err.Error(), "belongs to sweep") {
		t.Fatalf("foreign envelopes merged silently: %v", err)
	}
}

// tablesOf drops what differs between two runs of one experiment: the
// bracketed status lines ("completed in" vs "merged from").
func tablesOf(out string) string {
	var keep []string
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "[") {
			keep = append(keep, line)
		}
	}
	return strings.Join(keep, "\n")
}

func TestSeedsFlagValidation(t *testing.T) {
	cases := map[string][]string{
		"explicit zero":    {"-run", "fig4", "-seeds", "0"},
		"negative":         {"-run", "fig4", "-seeds", "-2"},
		"unseedable":       {"-run", "table1", "-seeds", "2"},
		"all experiments":  {"-run", "all", "-seeds", "2"},
		"unseedable shard": {"-run", "fig4matrix", "-seeds", "2", "-shard", "0/2"},
	}
	for name, args := range cases {
		if err := run(args); err == nil {
			t.Fatalf("%s: must fail", name)
		}
	}
}

// TestSeedableIDsAreShardable pins the -seeds reach: exactly the
// experiments whose sweeps report seed metrics (every id shards).
func TestSeedableIDsAreShardable(t *testing.T) {
	if got, want := ids(seedable), []string{"ablations", "detection", "fig4"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("seedable ids = %v, want %v", got, want)
	}
}

// TestSeedsShardMergeRoundTrip is the -seeds acceptance lock: a sharded
// seed sweep must merge to the byte-identical statistics table a serial
// -seeds run prints.
func TestSeedsShardMergeRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the three ablation studies under two seeds twice")
	}
	dir := t.TempDir()
	base := []string{"-run", "ablations", "-seed", "3", "-seeds", "2"}
	for _, spec := range []string{"0/2", "1/2"} {
		args := append(append([]string{}, base...),
			"-shard", spec, "-shard-out", filepath.Join(dir, "seedshard-"+spec[:1]+".json"))
		if err := run(args); err != nil {
			t.Fatal(err)
		}
	}
	serial, err := captureRun(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Seed sweep: ablations, 2 seeds (base 3)", "mean ± 95% CI", "indicator/eq1", "banking/bank4"} {
		if !strings.Contains(serial, want) {
			t.Fatalf("seed sweep table missing %q:\n%s", want, serial)
		}
	}
	merged, err := captureRun(append(append([]string{}, base...), "-merge", filepath.Join(dir, "seedshard-*.json")))
	if err != nil {
		t.Fatal(err)
	}
	tableOf := func(s string) string {
		i := strings.Index(s, "== Seed sweep")
		j := strings.Index(s, "[ablations")
		if i < 0 || j < i {
			t.Fatalf("no seed sweep table in output:\n%s", s)
		}
		return s[i:j]
	}
	if tableOf(serial) != tableOf(merged) {
		t.Fatalf("merged seed sweep differs from serial:\n--- serial\n%s\n--- merged\n%s", serial, merged)
	}
	// The same envelopes must not merge under a plain (seedless) run of
	// the experiment: the seed sweep is a different sweep.
	if err := run([]string{"-run", "ablations", "-seed", "3", "-merge", filepath.Join(dir, "seedshard-*.json")}); err == nil {
		t.Fatal("seed-sweep envelopes merged into the plain experiment")
	}
}

// captureRun executes run() with stdout captured, since the plain-mode
// experiment paths print through fmt.Println.
func captureRun(args []string) (string, error) {
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		return "", err
	}
	os.Stdout = w
	runErr := run(args)
	w.Close()
	os.Stdout = old
	out, err := io.ReadAll(r)
	if err != nil {
		return "", err
	}
	return string(out), runErr
}

func TestRegistryIdsSorted(t *testing.T) {
	reg := registry
	ids := make([]string, 0, len(reg))
	for id := range reg {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	if len(ids) < 14 {
		t.Fatalf("registry shrank to %d entries", len(ids))
	}
}
