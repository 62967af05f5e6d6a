package arrivals

import (
	"bytes"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"kyoto/internal/cluster"
)

func TestSynthesizeIsDeterministic(t *testing.T) {
	cfg := SynthConfig{Seed: 11, VMs: 24}
	a, b := Synthesize(cfg), Synthesize(cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical configs must synthesize identical traces")
	}
	c := Synthesize(SynthConfig{Seed: 12, VMs: 24})
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds must synthesize different traces")
	}
	if len(a.Events) != 24 {
		t.Fatalf("got %d events, want 24", len(a.Events))
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	for i, e := range a.Events {
		if e.Lifetime < DefaultSynthMinLifetime {
			t.Fatalf("event %d lifetime %d below floor", i, e.Lifetime)
		}
		if e.LLCCap != DefaultSynthLLCCap {
			t.Fatalf("event %d books llc_cap %v", i, e.LLCCap)
		}
	}
}

func TestSynthesizeHeavyTail(t *testing.T) {
	tr := Synthesize(SynthConfig{Seed: 5, VMs: 400, Horizon: 4000})
	var over, max uint64
	for _, e := range tr.Events {
		if e.Lifetime > 2*DefaultSynthMeanLifetime {
			over++
		}
		if e.Lifetime > max {
			max = e.Lifetime
		}
	}
	// A Pareto(1.8) tail has a visible mass beyond 2x the mean and the
	// occasional long-runner far beyond it.
	if over == 0 || max < 4*DefaultSynthMeanLifetime {
		t.Fatalf("lifetimes not heavy-tailed: %d over 2x mean, max %d", over, max)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	tr := Synthesize(SynthConfig{Seed: 3, VMs: 9, MemoryMB: 32})
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ParseJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Fatalf("JSON round trip diverged:\n%+v\n%+v", tr, got)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tr := Trace{Events: []Event{
		{Submit: 0, Lifetime: 12, Name: "a", App: "gcc", VCPUs: 1, MemoryMB: 64, LLCCap: 250},
		{Submit: 4, Name: "b", App: "lbm", LLCCap: 125.5},
	}}
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ParseCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Fatalf("CSV round trip diverged:\n%+v\n%+v", tr, got)
	}
}

func TestParseRejectsBadInput(t *testing.T) {
	if _, err := ParseJSON(strings.NewReader(`{"events":[{"app":"gcc","bogus":1}]}`)); err == nil {
		t.Fatal("unknown JSON field must be rejected")
	}
	if _, err := ParseJSON(strings.NewReader(`{"events":[{"submit":3}]}`)); err == nil {
		t.Fatal("missing app class must be rejected")
	}
	if _, err := ParseCSV(strings.NewReader("nope,really\n1,2\n")); err == nil {
		t.Fatal("wrong CSV header must be rejected")
	}
	if _, err := ParseCSV(strings.NewReader("submit,lifetime,name,app,vcpus,memory_mb,llc_cap\nx,0,a,gcc,1,64,250\n")); err == nil {
		t.Fatal("non-numeric submit must be rejected")
	}
}

func TestLoadCommittedExamples(t *testing.T) {
	js, err := Load(filepath.Join("testdata", "example.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(js.Events) < 20 {
		t.Fatalf("example.json has %d events", len(js.Events))
	}
	cs, err := Load(filepath.Join("testdata", "example.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(cs.Events) != 5 {
		t.Fatalf("example.csv has %d events", len(cs.Events))
	}
	if cs.Events[3].Lifetime != 0 {
		t.Fatal("empty lifetime cell must mean runs-forever")
	}
	if _, err := Load(filepath.Join("testdata", "missing.xml")); err == nil {
		t.Fatal("unknown extension must be rejected")
	}
}

// testFleet builds a small Kyoto-enforced fleet for replay tests.
func testFleet(t *testing.T, hosts, workers int, placer cluster.Placer) *cluster.Fleet {
	t.Helper()
	f, err := cluster.New(cluster.Config{
		Hosts:    hosts,
		Template: cluster.HostTemplate{Seed: 42, EnableKyoto: true},
		Placer:   placer,
		Workers:  workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// testTrace: 6 VMs on a 2-host fleet (8 vCPU slots, 8 permit slots), with
// enough overlap that departures matter and one permit-less VM that Kyoto
// admission must reject.
func testTrace() Trace {
	return Trace{Events: []Event{
		{Submit: 0, Lifetime: 9, Name: "a", App: "gcc", LLCCap: 250},
		{Submit: 0, Lifetime: 15, Name: "b", App: "lbm", LLCCap: 250},
		{Submit: 3, Lifetime: 9, Name: "c", App: "omnetpp", LLCCap: 250},
		{Submit: 6, Name: "noperm", App: "mcf"}, // no permit: rejected by Admission
		{Submit: 9, Lifetime: 9, Name: "d", App: "astar", LLCCap: 250},
		{Submit: 12, Name: "forever", App: "bzip", LLCCap: 250}, // lives to the end
	}}
}

func TestReplayLifecycle(t *testing.T) {
	f := testFleet(t, 2, 1, cluster.Admission{})
	res, err := Replay(f, testTrace(), Options{DrainTicks: 6})
	if err != nil {
		t.Fatal(err)
	}
	if res.Placed != 5 || res.Rejected != 1 {
		t.Fatalf("placed %d rejected %d, want 5/1", res.Placed, res.Rejected)
	}
	if got := res.RejectionRate(); got != 1.0/6 {
		t.Fatalf("rejection rate %v", got)
	}
	byName := map[string]Record{}
	for _, r := range res.Records {
		byName[r.Name] = r
	}
	if r := byName["noperm"]; !r.Rejected || r.HostID != -1 || r.Reason == "" {
		t.Fatalf("permit-less VM not rejected cleanly: %+v", r)
	}
	if r := byName["a"]; !r.Departed || r.Depart != 9 || r.Counters.Instructions == 0 {
		t.Fatalf("departed VM record wrong: %+v", r)
	}
	if r := byName["forever"]; r.Departed || r.Depart != res.EndTick || r.Counters.Instructions == 0 {
		t.Fatalf("still-running VM record wrong: %+v", r)
	}
	// b departs at 15, d at 18, drain 6 -> end tick 24.
	if res.EndTick != 24 {
		t.Fatalf("end tick %d, want 24", res.EndTick)
	}
	if res.CPUUtilization <= 0 || res.CPUUtilization > 1 {
		t.Fatalf("utilization %v out of range", res.CPUUtilization)
	}
	// After the replay only "forever" is live.
	if got := len(f.Placements()); got != 1 {
		t.Fatalf("%d live placements after replay, want 1", got)
	}
}

func TestReplayIsDeterministicSerialAndParallel(t *testing.T) {
	tr := Synthesize(SynthConfig{Seed: 21, VMs: 10, Horizon: 40, MeanLifetime: 12})
	run := func(workers int) string {
		f := testFleet(t, 2, workers, cluster.FirstFit{})
		res, err := Replay(f, tr, Options{DrainTicks: 3})
		if err != nil {
			t.Fatal(err)
		}
		return res.Fingerprint()
	}
	first := run(1)
	if again := run(1); again != first {
		t.Fatalf("serial replay not reproducible: %s vs %s", again, first)
	}
	if par := run(0); par != first {
		t.Fatalf("parallel replay fingerprint %s != serial %s", par, first)
	}
}

func TestReplayRejectsDuplicateActiveNames(t *testing.T) {
	f := testFleet(t, 1, 1, cluster.FirstFit{})
	tr := Trace{Events: []Event{
		{Submit: 0, Lifetime: 20, Name: "dup", App: "gcc", LLCCap: 250},
		{Submit: 5, Lifetime: 20, Name: "dup", App: "lbm", LLCCap: 250},
	}}
	if _, err := Replay(f, tr, Options{}); err == nil {
		t.Fatal("duplicate active VM names must fail the replay")
	}
	// Reusing a name after its first holder departed is fine.
	f2 := testFleet(t, 1, 1, cluster.FirstFit{})
	tr2 := Trace{Events: []Event{
		{Submit: 0, Lifetime: 5, Name: "dup", App: "gcc", LLCCap: 250},
		{Submit: 10, Lifetime: 5, Name: "dup", App: "lbm", LLCCap: 250},
	}}
	if _, err := Replay(f2, tr2, Options{}); err != nil {
		t.Fatalf("name reuse after departure must work: %v", err)
	}
}

func TestReplayRejectsOverflowingLifetime(t *testing.T) {
	f := testFleet(t, 1, 1, cluster.FirstFit{})
	tr := Trace{Events: []Event{
		{Submit: 2, Lifetime: ^uint64(0) - 1, Name: "x", App: "gcc", LLCCap: 250},
	}}
	if _, err := Replay(f, tr, Options{}); err == nil {
		t.Fatal("overflowing departure tick must fail, not hang")
	}
}

func TestSynthesizeSanitizesBadKnobs(t *testing.T) {
	tr := Synthesize(SynthConfig{Seed: 2, VMs: -3, MeanLifetime: -5})
	if len(tr.Events) != DefaultSynthVMs {
		t.Fatalf("negative VMs not defaulted: %d events", len(tr.Events))
	}
	for i, e := range tr.Events {
		if e.Lifetime > 100*DefaultSynthMeanLifetime {
			t.Fatalf("event %d: negative mean lifetime leaked an absurd lifetime %d", i, e.Lifetime)
		}
	}
}

func TestValidateRejectsUnknownApp(t *testing.T) {
	// Each malformed event must fail at validation, not mid-replay.
	for name, e := range map[string]Event{
		"typo'd app class":  {Submit: 0, App: "gc", LLCCap: 250},
		"negative llc_cap":  {App: "gcc", LLCCap: -1},
		"NaN llc_cap":       {App: "gcc", LLCCap: math.NaN()},
		"+Inf llc_cap":      {App: "gcc", LLCCap: math.Inf(1)},
		"-Inf llc_cap":      {App: "gcc", LLCCap: math.Inf(-1)},
		"submit past limit": {Submit: MaxTick + 1, App: "gcc", LLCCap: 250},
	} {
		if err := (Trace{Events: []Event{e}}).Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
