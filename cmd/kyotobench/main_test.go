package main

import (
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"kyoto/internal/cache"
)

func TestRegistryCoversPaperArtefacts(t *testing.T) {
	reg := registry(cache.FidelityExact)
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
}

func TestQuickExperimentsExecute(t *testing.T) {
	// Only the cheap artefacts; the heavy ones are covered by the
	// experiments package's reproduction-lock tests.
	if err := run([]string{"-run", "table1,table2"}); err != nil {
		t.Fatal(err)
	}
}

func TestShardableIDsAreRegistryMembers(t *testing.T) {
	reg := registry(cache.FidelityExact)
	ids := shardableIDs()
	if len(ids) < 3 {
		t.Fatalf("shardable set shrank: %v", ids)
	}
	for _, id := range ids {
		if _, ok := reg[id]; !ok {
			t.Errorf("shardable id %q missing from registry", id)
		}
	}
	if err := run([]string{"-list-shardable"}); err != nil {
		t.Fatal(err)
	}
}

func TestShardFlagValidation(t *testing.T) {
	cases := map[string][]string{
		"shard+merge":          {"-run", "ablations", "-shard", "0/2", "-merge", "x.json"},
		"multiple experiments": {"-run", "fig4,ablations", "-shard", "0/2"},
		"all experiments":      {"-run", "all", "-shard", "0/2"},
		"unshardable":          {"-run", "table1", "-shard", "0/2"},
		"bad spec":             {"-run", "ablations", "-shard", "2/2"},
		"missing shards":       {"-run", "ablations", "-merge", "no-such-file-*.json"},
	}
	for name, args := range cases {
		if err := run(args); err == nil {
			t.Fatalf("%s: must fail", name)
		}
	}
}

func TestShardMergeRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the three ablation studies twice")
	}
	dir := t.TempDir()
	for _, spec := range []string{"0/2", "1/2"} {
		outPath := filepath.Join(dir, "shard-"+spec[:1]+".json")
		if err := run([]string{"-run", "ablations", "-shard", spec, "-shard-out", outPath}); err != nil {
			t.Fatal(err)
		}
		if fi, err := os.Stat(outPath); err != nil || fi.Size() == 0 {
			t.Fatalf("shard %s wrote nothing: %v", spec, err)
		}
	}
	if err := run([]string{"-run", "ablations", "-merge", filepath.Join(dir, "shard-*.json")}); err != nil {
		t.Fatal(err)
	}
	// Merging under the wrong experiment id must be caught by the
	// envelope's sweep name.
	if err := run([]string{"-run", "fig4", "-merge", filepath.Join(dir, "shard-*.json")}); err == nil ||
		!strings.Contains(err.Error(), "belongs to sweep") {
		t.Fatalf("foreign envelopes merged silently: %v", err)
	}
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

func TestSeedableIDsAreShardable(t *testing.T) {
	shardable := shardableSweeps(1, cache.FidelityExact)
	ids := seedableIDs()
	if len(ids) < 2 {
		t.Fatalf("seedable set shrank: %v", ids)
	}
	for _, id := range ids {
		if _, ok := shardable[id]; !ok {
			t.Errorf("seedable id %q is not shardable", id)
		}
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
	reg := registry(cache.FidelityExact)
	ids := make([]string, 0, len(reg))
	for id := range reg {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	if len(ids) < 14 {
		t.Fatalf("registry shrank to %d entries", len(ids))
	}
}
