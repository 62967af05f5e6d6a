package experiments

import (
	"strings"
	"testing"

	"kyoto/internal/cluster"
	"kyoto/internal/hv"
	"kyoto/internal/machine"
	"kyoto/internal/sched"
	"kyoto/internal/vm"
)

func TestTableRendering(t *testing.T) {
	tbl := Table{Title: "T", Note: "n", Columns: []string{"a", "bb"}}
	tbl.AddRow("x", 1.5)
	tbl.AddRow("longer", 2.0)
	s := tbl.String()
	for _, want := range []string{"== T ==", "n", "a", "bb", "x", "1.5", "longer", "2"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendering missing %q:\n%s", want, s)
		}
	}
}

func TestFormatFloat(t *testing.T) {
	tests := map[float64]string{
		1.5:   "1.5",
		2.0:   "2",
		0:     "0",
		-0.4:  "-0.4",
		10.25: "10.25",
	}
	for in, want := range tests {
		if got := formatFloat(in); got != want {
			t.Fatalf("formatFloat(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestTable1ContainsPaperRows(t *testing.T) {
	s := Table1().String()
	for _, want := range []string{"Main memory", "L1 cache", "L2 cache", "LLC", "Processor"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Table 1 missing %q", want)
		}
	}
}

func TestTable2MapsPaperVMs(t *testing.T) {
	s := Table2().String()
	for _, want := range []string{"vsen1", "gcc", "vdis2", "blockie", "sensitive", "disruptive"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Table 2 missing %q", want)
		}
	}
}

func TestRunProducesDeltas(t *testing.T) {
	r, err := Run(Scenario{
		NodeConfig: cluster.NodeConfig{Seed: 1},
		VMs:        []vm.Spec{pinned("v", "povray", 0)},
		Warmup:     2,
		Measure:    3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.PerVM["v"].Instructions == 0 {
		t.Fatal("no measured progress")
	}
	if r.IPC("v") <= 0 {
		t.Fatal("IPC must be positive")
	}
	if r.MeasureTicks != 3 {
		t.Fatalf("measure ticks = %d", r.MeasureTicks)
	}
}

func TestRunRejectsBadSpecs(t *testing.T) {
	if _, err := Run(Scenario{VMs: []vm.Spec{{Name: "x", App: "nope"}}}); err == nil {
		t.Fatal("unknown app must fail")
	}
}

func TestRunDeterminism(t *testing.T) {
	s := Scenario{
		NodeConfig: cluster.NodeConfig{Seed: 9},
		VMs:        []vm.Spec{pinned("a", "gcc", 0), pinned("b", "lbm", 1)},
		Warmup:     3,
		Measure:    6,
	}
	r1, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if r1.PerVM["a"] != r2.PerVM["a"] || r1.PerVM["b"] != r2.PerVM["b"] {
		t.Fatal("same scenario diverged")
	}
}

func TestMigrationHookBounces(t *testing.T) {
	mcfg := machine.R420()
	w, err := hv.New(hv.Config{Machine: mcfg, Seed: 1}, sched.NewCredit(8))
	if err != nil {
		t.Fatal(err)
	}
	d := w.MustAddVM(pinned("v", "lbm", 0))
	hook := NewMigrationHook(d.VCPUs[0], 0, 4, 3, 2, 1)
	w.AddHook(hook)
	w.RunTicks(30)
	if hook.Migrations < 4 {
		t.Fatalf("migrations = %d, want several", hook.Migrations)
	}
	if d.Counters().RemoteAccesses == 0 {
		t.Fatal("exiled vCPU must have made remote accesses")
	}
}

func TestFig2ShapesQuickly(t *testing.T) {
	if testing.Short() {
		t.Skip("fig2 timeline runs are expensive; run without -short")
	}
	r, err := Fig2(1)
	if err != nil {
		t.Fatal(err)
	}
	alone := r.Series["alone"]
	if len(alone) != Fig2Ticks {
		t.Fatalf("series length = %d", len(alone))
	}
	// Data loading happens in the first slice, then the resident set hits.
	if alone[0] == 0 {
		t.Fatal("alone run must load its data in the first tick")
	}
	for _, v := range alone[3:] {
		if v != 0 {
			t.Fatalf("alone run must stop missing after load: %v", alone)
		}
	}
	// Parallel execution misses continuously.
	par := r.Series["parallel"]
	zero := 0
	for _, v := range par {
		if v == 0 {
			zero++
		}
	}
	if zero > 2 {
		t.Fatalf("parallel series has %d zero ticks: %v", zero, par)
	}
	// Alternative execution reloads periodically: at least two spikes.
	alt := r.Series["alternative"]
	spikes := 0
	for _, v := range alt {
		if v > 1000 {
			spikes++
		}
	}
	if spikes < 2 {
		t.Fatalf("alternative series lacks reload spikes: %v", alt)
	}
}

func TestFig10SkipEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("fig10 runs are expensive; run without -short")
	}
	r, err := Fig10(1)
	if err != nil {
		t.Fatal(err)
	}
	// hmmer: both measurements ~0 and equal.
	if r.HmmerNotIsolated > 5 || r.HmmerIsolated > 5 {
		t.Fatalf("hmmer rates too high: %+v", r)
	}
	// bzip with quiet co-runners matches isolated closely.
	if rel := relDiff(r.BzipNotIsolated, r.BzipIsolated); rel > 0.25 {
		t.Fatalf("bzip with hmmer co-runners deviates %v%%: %+v", rel*100, r)
	}
	// Control: with disruptors the in-place estimate is inflated.
	if r.BzipWithDisruptors <= r.BzipIsolated*1.3 {
		t.Fatalf("control must show inflation: %+v", r)
	}
}

func TestFig12NearZeroOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("fig12 sweep is expensive; run without -short")
	}
	r, err := Fig12(1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r.TickMillis {
		x, k := r.ExecXCS[i], r.ExecKyoto[i]
		if x == 0 || k == 0 {
			t.Fatalf("run did not finish: %+v", r)
		}
		over := (k - x) / x
		if over > 0.08 || over < -0.08 {
			t.Fatalf("overhead at %dms tick = %.1f%%", r.TickMillis[i], over*100)
		}
	}
}

// relDiff is |a-b| / max(|b|, 1).
func relDiff(a, b float64) float64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	den := b
	if den < 1 {
		den = 1
	}
	return d / den
}
