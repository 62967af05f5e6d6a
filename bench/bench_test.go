package main

import (
	"bytes"
	"math"
	"testing"

	"kyoto/bench/result"
)

// tinyVMs shrinks a workload to a test-sized trace.
func tinyVMs(w *workload) int { return max(w.vms/50, 6) }

func TestMetricsMatchSpec(t *testing.T) {
	spec, err := result.LoadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metricDef, want []result.SpecMetric) {
		if len(got) != len(want) {
			t.Errorf("%s: benchmark reports %d metrics, BENCHMARK.json declares %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s %d: benchmark reports %s [%s], BENCHMARK.json declares %s [%s]", kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json says %s, the benchmark %s", i, spec.Workloads[i].Name, w.name)
		}
	}
}

// TestRepsAgree replays every workload at a tiny scale serially, with
// the default drainer, and traced, and requires one fingerprint, resumed
// checkpoints that finish at it, and byte-identical checkpoints.
func TestRepsAgree(t *testing.T) {
	const seed = 3
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			o := repOptions{vms: tinyVMs(w), gate: true}
			base, err := runRep(w, seed, o)
			if err != nil {
				t.Fatal(err)
			}
			o.workers = 1
			serial, err := runRep(w, seed, o)
			if err != nil {
				t.Fatal(err)
			}
			o.workers, o.trace = 0, true
			traced, err := runRep(w, seed, o)
			if err != nil {
				t.Fatal(err)
			}
			for name, r := range map[string]*repResult{"default": base, "Workers=1": serial, "traced": traced} {
				if r.Fingerprint != base.Fingerprint || r.ResumeFingerprint != base.Fingerprint {
					t.Errorf("%s: fingerprint %s, resumed %s; want both %s", name, r.Fingerprint, r.ResumeFingerprint, base.Fingerprint)
				}
				if !bytes.Equal(r.lastCheckpoint, base.lastCheckpoint) {
					t.Errorf("%s: last checkpoint differs from the untraced default's", name)
				}
			}

			l := traced.Ledger
			sum := l.ResidualS
			for _, row := range l.Rows {
				sum += row.SelfS
			}
			if math.Abs(sum-l.WallS) > 1e-6 {
				t.Errorf("ledger: self times + residual = %v s, traced wall %v s", sum, l.WallS)
			}
			layer := layerMetrics(traced, map[string]float64{"cache": 0.5, "runtime": 0.25, "other": 0.25}, traced.TimedS)
			for _, d := range perLayer {
				if _, ok := layer[d.name]; !ok && !setupMetric(d.name) {
					t.Errorf("traced rep does not measure %s", d.name)
				}
			}
			if got := layer["cpu_share.cache"] + layer["cpu_share.runtime"] + layer["cpu_share.other"]; got != 1 {
				t.Errorf("cpu shares sum to %v, want 1", got)
			}
		})
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"kyoto/internal/cache.(*Cache).Access":            "cache",
		"kyoto/internal/cpu.frac (inline)":                "cpu",
		"kyoto/internal/detect.(*Detector).Step":          "cluster",
		"kyoto/internal/snapshot.Encode":                  "other",
		"runtime.mallocgc":                                "runtime",
		"internal/runtime/atomic.(*Uint32).Add (inline)":  "runtime",
		"encoding/json.(*encodeState).marshal":            "json",
		"slices.SortFunc[go.shape.[]kyoto/internal/vm.T]": "other",
		"main.(*tracer).begin":                            "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
