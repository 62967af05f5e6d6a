package sweep

import (
	"encoding/json"
	"fmt"
	"math"
	"testing"
)

// fakeSeedable runs two arms ("a", "b") whose single metric is a cheap
// deterministic function of (seed, arm), so merged distributions are
// predictable and shard-order bugs shift them visibly.
type fakeSeedable struct {
	seed   uint64
	rows   []MetricRow
	reseed func(uint64) (Seedable, error) // optional override
}

func newFakeSeedable(seed uint64) *fakeSeedable { return &fakeSeedable{seed: seed} }

func (f *fakeSeedable) Name() string { return "fake-seedable" }

func (f *fakeSeedable) Plan() []Job {
	return []Job{
		{Sweep: f.Name(), Key: "arm/a", Index: 0},
		{Sweep: f.Name(), Key: "arm/b", Index: 1},
	}
}

func (f *fakeSeedable) Run(job Job) (json.RawMessage, error) {
	return json.Marshal(float64(f.seed) + float64(job.Index)*100)
}

func (f *fakeSeedable) Merge(payloads []json.RawMessage) error {
	if len(payloads) != 2 {
		return fmt.Errorf("want 2 payloads, got %d", len(payloads))
	}
	f.rows = make([]MetricRow, len(payloads))
	for i, p := range payloads {
		var v float64
		if err := json.Unmarshal(p, &v); err != nil {
			return err
		}
		f.rows[i] = MetricRow{Arm: string(rune('a' + i)), Values: []float64{v, v * 2}}
	}
	return nil
}

func (f *fakeSeedable) Reseed(seed uint64) (Seedable, error) {
	if f.reseed != nil {
		return f.reseed(seed)
	}
	return newFakeSeedable(seed), nil
}

func (f *fakeSeedable) MetricNames() []string { return []string{"value", "double"} }

func (f *fakeSeedable) MetricRows() []MetricRow { return f.rows }

func (f *fakeSeedable) ConfigFingerprint() string { return "fake-config" }

func TestSeedSweeperPlanShape(t *testing.T) {
	s, err := NewSeedSweeper(newFakeSeedable(0), SeedSweepConfig{Seeds: 3, BaseSeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "seed-sweep/fake-seedable" {
		t.Fatalf("name %q", s.Name())
	}
	plan := s.Plan()
	if len(plan) != 6 {
		t.Fatalf("planned %d jobs, want 6", len(plan))
	}
	wantKeys := []string{"seed/5/arm/a", "seed/5/arm/b", "seed/6/arm/a", "seed/6/arm/b", "seed/7/arm/a", "seed/7/arm/b"}
	for i, j := range plan {
		if j.Key != wantKeys[i] || j.Index != i {
			t.Fatalf("job %d = %q/%d, want %q/%d", i, j.Key, j.Index, wantKeys[i], i)
		}
	}
}

func TestSeedSweeperMergedStatistics(t *testing.T) {
	s, err := NewSeedSweeper(newFakeSeedable(0), SeedSweepConfig{Seeds: 4, BaseSeed: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := (Engine{Workers: 1}).Run(s); err != nil {
		t.Fatal(err)
	}
	res := s.Result()
	if res == nil {
		t.Fatal("no result after Run")
	}
	if res.Seeds != 4 || res.BaseSeed != 10 || res.Sweep != "fake-seedable" {
		t.Fatalf("result header %+v", res)
	}
	// Arm "a": value = seed for seeds 10..13; arm "b": seed+100.
	sumA, err := res.Metric("a", "value")
	if err != nil {
		t.Fatal(err)
	}
	if sumA.Count() != 4 || sumA.Mean() != 11.5 {
		t.Fatalf("arm a: count %d mean %v", sumA.Count(), sumA.Mean())
	}
	sumB, err := res.Metric("b", "double")
	if err != nil {
		t.Fatal(err)
	}
	if sumB.Mean() != 2*111.5 {
		t.Fatalf("arm b double mean %v", sumB.Mean())
	}
	if _, err := res.Metric("a", "nope"); err == nil {
		t.Fatal("unknown metric accepted")
	}
	if _, err := res.Arm("zz"); err == nil {
		t.Fatal("unknown arm accepted")
	}
}

// The core guarantee: merged statistics are bit-identical for every
// shard count, because Merge always sees payloads in plan order.
func TestSeedSweeperShardCountInvariant(t *testing.T) {
	run := func(shards int) *SeedSweepResult {
		s, err := NewSeedSweeper(newFakeSeedable(0), SeedSweepConfig{Seeds: 5})
		if err != nil {
			t.Fatal(err)
		}
		envs := make([]Envelope, shards)
		for k := range envs {
			if envs[k], err = (Engine{Workers: 2}).RunShard(s, k, shards); err != nil {
				t.Fatal(err)
			}
		}
		if err := Merge(s, envs); err != nil {
			t.Fatal(err)
		}
		return s.Result()
	}
	want, err := json.Marshal(run(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 3, 7} {
		got, err := json.Marshal(run(shards))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("%d shards: result %s != serial %s", shards, got, want)
		}
	}
}

func TestSeedSweeperConfigValidation(t *testing.T) {
	if _, err := NewSeedSweeper(newFakeSeedable(0), SeedSweepConfig{Seeds: 0}); err == nil {
		t.Fatal("0 seeds accepted")
	}
	if _, err := NewSeedSweeper(newFakeSeedable(0), SeedSweepConfig{Seeds: 2, Confidence: 1.5}); err == nil {
		t.Fatal("confidence 1.5 accepted")
	}
	if _, err := NewSeedSweeper(newFakeSeedable(0), SeedSweepConfig{Seeds: 2, Resamples: -1}); err == nil {
		t.Fatal("negative resamples accepted")
	}
	proto := newFakeSeedable(0)
	proto.reseed = func(seed uint64) (Seedable, error) {
		return nil, fmt.Errorf("cannot reseed")
	}
	if _, err := NewSeedSweeper(proto, SeedSweepConfig{Seeds: 2}); err == nil {
		t.Fatal("reseed failure swallowed")
	}

	s, err := NewSeedSweeper(newFakeSeedable(0), SeedSweepConfig{Seeds: 2})
	if err != nil {
		t.Fatal(err)
	}
	if s.cfg.BaseSeed != 1 || s.cfg.Confidence != 0.95 || s.cfg.Resamples != 1000 || s.cfg.BootstrapSeed != 1 {
		t.Fatalf("defaults not applied: %+v", s.cfg)
	}
}

func TestSeedSweeperConfigFingerprintDistinguishesRuns(t *testing.T) {
	fp := func(cfg SeedSweepConfig) string {
		s, err := NewSeedSweeper(newFakeSeedable(0), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s.ConfigFingerprint()
	}
	base := fp(SeedSweepConfig{Seeds: 4})
	if base == "" {
		t.Fatal("empty fingerprint")
	}
	if fp(SeedSweepConfig{Seeds: 5}) == base {
		t.Fatal("seed count not in fingerprint")
	}
	if fp(SeedSweepConfig{Seeds: 4, BaseSeed: 2}) == base {
		t.Fatal("base seed not in fingerprint")
	}
	if fp(SeedSweepConfig{Seeds: 4}) != base {
		t.Fatal("fingerprint not deterministic")
	}
}

// A seed sweep whose merged samples include the CI machinery end to
// end: mean CI halfwidth shrinks roughly as 1/sqrt(n).
func TestSeedSweepCIWidthShrinksWithSeeds(t *testing.T) {
	width := func(seeds int) float64 {
		s, err := NewSeedSweeper(newFakeSeedable(0), SeedSweepConfig{Seeds: seeds})
		if err != nil {
			t.Fatal(err)
		}
		if err := (Engine{}).Run(s); err != nil {
			t.Fatal(err)
		}
		sum, err := s.Result().Metric("a", "value")
		if err != nil {
			t.Fatal(err)
		}
		ci, err := sum.MeanCI(0.95)
		if err != nil {
			t.Fatal(err)
		}
		return ci.Halfwidth()
	}
	// The fake metric is uniform over consecutive seeds, whose stddev
	// grows linearly with n — so compare stderr-normalized widths via
	// the ratio test on matched distributions instead: use relative
	// halfwidth against the spread.
	w16, w64 := width(16)/math.Sqrt(16*16-1), width(64)/math.Sqrt(64*64-1)
	if w64 >= w16 {
		t.Fatalf("relative CI halfwidth did not shrink: 16 seeds %v, 64 seeds %v", w16, w64)
	}
}
