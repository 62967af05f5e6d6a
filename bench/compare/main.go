// Command compare reads replay-benchmark results files (written with
// -out) for a parent and a change, and reports for every end-to-end
// metric and workload both sides' medians and quartile spreads with a
// verdict:
//
//   - improved: at least 10 seed-matched pairs, the change wins at least
//     9 in 10 of them (ties count for neither), and the medians differ by
//     more than the parent's quartile spread;
//   - regressed: the change's median is worse than the parent's by more
//     than the metric's bound in BENCHMARK.json;
//   - unresolved: a side's quartile spread, as a share of its median,
//     exceeds the bound, and not every change run beats every parent run;
//   - within bound: otherwise.
//
// It exits 1 when any verdict is regressed or unresolved. Given two runs
// of one commit as parent and change, a zero exit means they agree.
//
//	go run ./compare -spec ../BENCHMARK.json -parent runs/a -change runs/b
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"

	"kyoto/bench/result"
)

func main() {
	spec := flag.String("spec", "BENCHMARK.json", "the benchmark spec holding each metric's bound")
	parent := flag.String("parent", "", "directory of the parent's results files")
	change := flag.String("change", "", "directory of the change's results files")
	flag.Parse()
	bad, err := run(os.Stdout, *spec, *parent, *change)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(2)
	}
	if bad {
		os.Exit(1)
	}
}

// side is one commit's runs of one workload.
type side []*result.File

func load(dir string) (map[string]side, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no results files in %q", dir)
	}
	sort.Strings(paths)
	byWorkload := map[string]side{}
	for _, p := range paths {
		f, err := result.Load(p)
		if err != nil {
			return nil, err
		}
		if !f.Correct {
			return nil, fmt.Errorf("%s: run was not correct (%d of %d events failed)", p, f.Failed, f.Attempted)
		}
		byWorkload[f.Workload] = append(byWorkload[f.Workload], f)
	}
	return byWorkload, nil
}

func (s side) values(metric string) []float64 {
	var out []float64
	for _, f := range s {
		if m, ok := f.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// pairs matches the two sides' values of a metric by seed, in file order
// within a seed.
func pairs(p, c side, metric string) [][2]float64 {
	bySeed := map[uint64][]float64{}
	for _, f := range p {
		if m, ok := f.Metrics[metric]; ok {
			bySeed[f.Seed] = append(bySeed[f.Seed], m.Value)
		}
	}
	var out [][2]float64
	for _, f := range c {
		m, ok := f.Metrics[metric]
		if q := bySeed[f.Seed]; ok && len(q) > 0 {
			out = append(out, [2]float64{q[0], m.Value})
			bySeed[f.Seed] = q[1:]
		}
	}
	return out
}

// verdict judges one metric of one workload.
type verdict struct {
	parentMed, parentIQR, changeMed, changeIQR float64
	worse                                      float64 // signed share by which the change is worse
	pairs, wins                                int
	label                                      string
}

func judge(m result.SpecMetric, p, c side) verdict {
	pv, cv := p.values(m.Name), c.values(m.Name)
	var v verdict
	p1, p2, p3 := result.Quartiles(pv)
	c1, c2, c3 := result.Quartiles(cv)
	v.parentMed, v.parentIQR, v.changeMed, v.changeIQR = p2, p3-p1, c2, c3-c1
	// better reports whether a beats b in the metric's direction.
	better := func(a, b float64) bool {
		if m.Better == "higher" {
			return a > b
		}
		return a < b
	}
	v.worse = (v.changeMed - v.parentMed) / v.parentMed
	if m.Better == "higher" {
		v.worse = -v.worse
	}
	for _, pr := range pairs(p, c, m.Name) {
		v.pairs++
		if better(pr[1], pr[0]) {
			v.wins++
		}
	}
	allBetter := len(pv) > 0 && len(cv) > 0
	for _, a := range cv {
		for _, b := range pv {
			allBetter = allBetter && better(a, b)
		}
	}
	spread := math.Max(v.parentIQR/v.parentMed, v.changeIQR/v.changeMed)
	switch {
	case len(pv) == 0 || len(cv) == 0:
		v.label = "unresolved (missing)"
	case v.pairs >= 10 && v.wins*10 >= 9*v.pairs && v.worse < 0 && math.Abs(v.changeMed-v.parentMed) > v.parentIQR:
		v.label = "improved"
	case v.worse > m.Bound:
		v.label = "regressed"
	case spread > m.Bound && !allBetter:
		v.label = "unresolved"
	default:
		v.label = "within bound"
	}
	return v
}

func run(out io.Writer, specPath, parentDir, changeDir string) (bad bool, err error) {
	spec, err := result.LoadSpec(specPath)
	if err != nil {
		return false, err
	}
	parent, err := load(parentDir)
	if err != nil {
		return false, err
	}
	change, err := load(changeDir)
	if err != nil {
		return false, err
	}
	seconds := 0
	for _, s := range []map[string]side{parent, change} {
		for _, runs := range s {
			for _, f := range runs {
				if seconds == 0 {
					seconds = f.Seconds
				}
				if f.Seconds != seconds {
					return false, fmt.Errorf("runs of %d s and %d s: compare runs of one length", seconds, f.Seconds)
				}
			}
		}
	}
	fmt.Fprintf(out, "%-14s %-26s %22s %22s %8s %6s %6s  %s\n", "metric", "workload", "parent median [iqr]", "change median [iqr]", "worse", "bound", "wins", "verdict")
	for _, m := range spec.EndToEnd {
		for _, w := range spec.Workloads {
			p, c := parent[w.Name], change[w.Name]
			if len(p) == 0 || len(c) == 0 {
				fmt.Fprintf(out, "%-14s %-26s missing on one side\n", m.Name, w.Name)
				bad = true
				continue
			}
			v := judge(m, p, c)
			fmt.Fprintf(out, "%-14s %-26s %12.5g [%7.3g] %12.5g [%7.3g] %+7.2f%% %5.0f%% %2d/%-3d  %s\n",
				m.Name, w.Name, v.parentMed, v.parentIQR, v.changeMed, v.changeIQR,
				100*v.worse, 100*m.Bound, v.wins, v.pairs, v.label)
			if v.label != "within bound" && v.label != "improved" {
				bad = true
			}
		}
	}
	return bad, nil
}
