package kyoto

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (one Benchmark per artefact) and reports the headline numbers
// as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the study end to end. README's "Reproducing the paper's
// figures" prints the same artefacts as tables through kyotobench.

import (
	"fmt"
	"testing"

	"kyoto/internal/experiments"
	"kyoto/internal/sweep"
)

// BenchmarkTable1Machine renders the experimental machine description.
func BenchmarkTable1Machine(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Table1().String() == "" {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable2VMs renders the VM-to-application mapping.
func BenchmarkTable2VMs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Table2().String() == "" {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFig1Contention runs the §2.2 contention grid and reports the
// worst-case degradations per mode (paper: parallel ~70%, alternative ~13%).
func BenchmarkFig1Contention(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig1(1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Degradation[experiments.Parallel]["micro-c2-rep"]["micro-c2-dis"], "parallel-c2-%deg")
		b.ReportMetric(r.Degradation[experiments.Alternative]["micro-c2-rep"]["micro-c2-dis"], "alt-c2-%deg")
	}
}

// BenchmarkFig2MissTimeline runs the per-tick LLCM zoom-in and reports the
// loading spike and steady parallel misses.
func BenchmarkFig2MissTimeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig2(1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Series["alone"][0], "alone-load-misses")
		b.ReportMetric(r.Series["parallel"][10], "parallel-tick10-misses")
	}
}

// BenchmarkFig3CPULever runs the cap sweep and reports linearity.
func BenchmarkFig3CPULever(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig3(1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.PearsonR["gcc"], "gcc-pearson-r")
		b.ReportMetric(r.PearsonR["omnetpp"], "omnetpp-pearson-r")
		b.ReportMetric(r.PearsonR["soplex"], "soplex-pearson-r")
	}
}

// BenchmarkFig4Indicators runs the full indicator study (10 solo + 90 pair
// runs) and reports the Kendall taus (paper: 0.60 and 0.82).
func BenchmarkFig4Indicators(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig4(1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.TauLLCM, "tau-llcm")
		b.ReportMetric(r.TauEq1, "tau-eq1")
	}
}

// BenchmarkFig5Effectiveness runs the enforcement study and reports
// vsen1's normalized performance under KS4Xen vs XCS against vdis1.
func BenchmarkFig5Effectiveness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig5(1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.NormPerf["lbm"], "ks4xen-normperf")
		b.ReportMetric(r.NormPerfXCS["lbm"], "xcs-normperf")
	}
}

// BenchmarkFig6Scalability runs the 1..15-disruptor sweep and reports the
// minimum normalized performance (paper: ~1.0 throughout).
func BenchmarkFig6Scalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig6(1)
		if err != nil {
			b.Fatal(err)
		}
		minPerf := 1.0
		for _, p := range r.NormPerf {
			if p < minPerf {
				minPerf = p
			}
		}
		b.ReportMetric(minPerf, "min-normperf")
	}
}

// BenchmarkFig8Pisces runs the co-kernel comparison and reports the
// colocated slowdown under Pisces vs KS4Pisces (paper: ~24% vs ~0%).
func BenchmarkFig8Pisces(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig8(1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*(r.PiscesColocated-r.PiscesAlone)/r.PiscesAlone, "pisces-slowdown-%")
		b.ReportMetric(100*(r.KS4PiscesColocated-r.KS4PiscesAlone)/r.KS4PiscesAlone, "ks4pisces-slowdown-%")
	}
}

// BenchmarkFig9Migration runs the NUMA migration study and reports the
// worst per-app degradation (paper: up to ~12%).
func BenchmarkFig9Migration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig9(1)
		if err != nil {
			b.Fatal(err)
		}
		worst := 0.0
		for _, d := range r.Degradation {
			if d > worst {
				worst = d
			}
		}
		b.ReportMetric(worst, "worst-%deg")
	}
}

// BenchmarkFig10SkipHeuristics runs the isolation-skipping study and
// reports the hmmer and bzip estimate pairs (paper: equal within noise).
func BenchmarkFig10SkipHeuristics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig10(1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.BzipNotIsolated, "bzip-inplace")
		b.ReportMetric(r.BzipIsolated, "bzip-isolated")
	}
}

// BenchmarkFig11NoDedication runs the estimator-equivalence study and
// reports the ordering agreement of each estimator with the solo truth.
func BenchmarkFig11NoDedication(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig11(1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.TauDedicated, "tau-dedicated")
		b.ReportMetric(r.TauInPlace, "tau-inplace")
		b.ReportMetric(r.TauShadow, "tau-shadow")
	}
}

// BenchmarkFig12Overhead runs the tick-length sweep and reports the
// largest absolute overhead of KS4Xen over XCS (paper: near zero).
func BenchmarkFig12Overhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig12(1)
		if err != nil {
			b.Fatal(err)
		}
		worst := 0.0
		for j := range r.TickMillis {
			over := 100 * (r.ExecKyoto[j] - r.ExecXCS[j]) / r.ExecXCS[j]
			if over < 0 {
				over = -over
			}
			if over > worst {
				worst = over
			}
		}
		b.ReportMetric(worst, "worst-abs-overhead-%")
	}
}

// BenchmarkKS4AllSystems validates §1's portability claim: the same
// permit enforced through credit, CFS and Pisces schedulers.
func BenchmarkKS4AllSystems(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.KS4Linux(1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.NormPerf["KS4Xen (credit)"], "ks4xen-normperf")
		b.ReportMetric(r.NormPerf["KS4Linux (cfs)"], "ks4linux-normperf")
		b.ReportMetric(r.NormPerf["KS4Pisces (pisces)"], "ks4pisces-normperf")
	}
}

// --- Cluster-scale benches (the fleet layer and the parallel runner). ---

// benchFleet builds a 16-host Kyoto fleet with two VMs per host behind
// the given worker cap.
func benchFleet(b *testing.B, workers int) *Cluster {
	b.Helper()
	c, err := NewCluster(ClusterConfig{
		Hosts: 16,
		World: WorldConfig{Seed: 42, EnableKyoto: true},
		// Two default 64 MB bookings per host: first-fit fills the fleet
		// evenly, so every worker has the same amount of work.
		HostMemoryMB: 128,
		Placer:       PlacerFirstFit,
		Workers:      workers,
	})
	if err != nil {
		b.Fatal(err)
	}
	apps := []string{"gcc", "lbm", "omnetpp", "blockie"}
	for i := 0; i < 2*c.Hosts(); i++ {
		_, err := c.Place(ClusterVMSpec{VMSpec: VMSpec{
			Name:   fmt.Sprintf("vm%d", i),
			App:    apps[i%len(apps)],
			Pins:   []int{i % 2},
			LLCCap: 250,
		}})
		if err != nil {
			b.Fatal(err)
		}
	}
	return c
}

// BenchmarkClusterRun drives a 16-host fleet (32 VMs) serially vs through
// the worker pool; the parallel/serial ratio is the fleet-level speedup
// on the host machine.
func BenchmarkClusterRun(b *testing.B) {
	for _, bc := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"parallel", 0}, // GOMAXPROCS workers
	} {
		b.Run(bc.name, func(b *testing.B) {
			c := benchFleet(b, bc.workers)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.RunTicks(5)
			}
			b.ReportMetric(float64(5*b.N), "model-ticks/host")
		})
	}
}

// BenchmarkRunnerParallel runs one figure's sweep (Figure 3: 3 solo
// baselines and 15 co-location cells, each an independent world)
// through sweep.Engine serially vs fanned out across GOMAXPROCS workers.
func BenchmarkRunnerParallel(b *testing.B) {
	for _, bc := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"parallel", 0}, // GOMAXPROCS workers
	} {
		b.Run(bc.name, func(b *testing.B) {
			var jobs int
			for i := 0; i < b.N; i++ {
				s := experiments.Fig3Sweep(1)
				if err := (sweep.Engine{Workers: bc.workers}).Run(s); err != nil {
					b.Fatal(err)
				}
				jobs = len(s.Plan())
			}
			b.ReportMetric(float64(jobs), "scenarios/op")
		})
	}
}

// --- Ablation benches (extensions beyond the paper; kyotobench -run ablations). ---

// BenchmarkAblationIndicator compares quota enforcement driven by
// Equation 1 vs the raw-LLCM indicator on the Fig 5 scenario.
func BenchmarkAblationIndicator(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eq1, llcm, err := experiments.AblationIndicator(1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(eq1, "eq1-normperf")
		b.ReportMetric(llcm, "llcm-normperf")
	}
}

// BenchmarkAblationPartitioning compares Kyoto against idealized
// UCP-style way partitioning of the LLC.
func BenchmarkAblationPartitioning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		kyotoPerf, partPerf, err := experiments.AblationPartitioning(1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(kyotoPerf, "kyoto-normperf")
		b.ReportMetric(partPerf, "waypart-normperf")
	}
}

// BenchmarkAblationBanking measures the effect of quota banking on a
// bursty polluter's victim.
func BenchmarkAblationBanking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		noBank, bank, err := experiments.AblationBanking(1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(noBank, "nobank-normperf")
		b.ReportMetric(bank, "bank4-normperf")
	}
}
