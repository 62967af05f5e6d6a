// Command bench is the replay benchmark: it replays one seeded workload
// through the public arrivals/cluster/snapshot API for a fixed time,
// checks every replay's fingerprint, and prints end-to-end metrics (or,
// with -trace 1, per-layer metrics from one extra traced replay). The
// last line of standard output is the JSON result object; -out also
// writes a results file that bench/compare reads. See README.md.
//
// Each repetition runs in a child process of its own, one at a time, so
// its peak RSS is its own and no repetition inherits another's heap.
package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"kyoto/bench/result"
)

// defaultSeed is the seed the committed fingerprints were minted at.
const defaultSeed = 7

// minReps is the fewest untraced repetitions a run makes, however short
// its time budget.
const minReps = 3

// repTimeout kills a repetition that hangs, so a run still ends within
// the benchmark's time cap.
const repTimeout = 120 * time.Second

//go:embed fingerprints.json
var fingerprintsJSON []byte

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the simulator sees; they are
// measured with tracing off.
var endToEnd = []metricDef{
	{"events_per_s", "events/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's numbers, named <module>.<what>.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"setup.synth_s", "s"}, {"setup.fleet_s", "s"}, {"setup.replayer_s", "s"},
		{"arrivals.steps", "count"}, {"arrivals.step_self_s", "s"},
		{"arrivals.step_p50_us", "us"}, {"arrivals.step_tail_us", "us"}, {"arrivals.step_tail_pct", "%"},
		{"arrivals.finish_s", "s"}, {"arrivals.queued", "count"}, {"arrivals.queue_peak", "count"},
		{"cluster.place_calls", "count"}, {"cluster.place_fails", "count"},
		{"cluster.place_useful_frac", "frac"}, {"cluster.place_s", "s"},
		{"cluster.plan_calls", "count"}, {"cluster.migrations", "count"},
		{"cluster.virtual_host_ticks", "ticks"}, {"cluster.busy_host_ticks", "ticks"}, {"cluster.elided_frac", "frac"},
		{"detect.change_points", "count"},
		{"snapshot.captures", "count"}, {"snapshot.bytes", "B"},
		{"snapshot.capture_s", "s"}, {"snapshot.encode_s", "s"}, {"snapshot.decode_s", "s"}, {"snapshot.resume_s", "s"},
		{"sim.instructions", "count"}, {"sim.accesses", "count"}, {"sim.llc_misses", "count"},
	}
	for _, l := range append(cpuLayers, "other") {
		defs = append(defs, metricDef{"cpu_share." + l, "frac"})
	}
	return append(defs,
		metricDef{"cpu_s.total", "s"}, metricDef{"cpu_util", "cores"},
		metricDef{"trace.wall_s", "s"}, metricDef{"trace.residual_s", "s"}, metricDef{"trace.overhead_frac", "frac"},
	)
}()

type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	out      string
	traceDir string
	// Child mode: run one repetition and print it as JSON.
	rep, gate bool
}

func main() {
	var c config
	var traceFlag int
	flag.StringVar(&c.workload, "workload", "", "workload to replay (required)")
	flag.Uint64Var(&c.seed, "seed", defaultSeed, "seed for the trace and the fleet template")
	flag.IntVar(&c.seconds, "seconds", 30, "how long to keep starting untraced repetitions")
	flag.IntVar(&traceFlag, "trace", 0, "1: report per-layer metrics from one extra traced repetition")
	flag.StringVar(&c.out, "out", "", "also write the results file here")
	flag.StringVar(&c.traceDir, "trace-dir", ".bench_build/trace", "where the traced repetition writes spans and its CPU profile")
	flag.BoolVar(&c.rep, "rep", false, "internal: run one repetition and print it as JSON")
	flag.BoolVar(&c.gate, "gate", false, "internal: with -rep, resume the last checkpoint and finish it")
	flag.Parse()
	c.trace = traceFlag == 1
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintf(os.Stderr, "bench: -trace %d: want 0 or 1\n", traceFlag)
		os.Exit(2)
	}
	if err := run(c); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(c config) error {
	if c.seconds < 1 || c.seconds > 600 {
		return fmt.Errorf("-seconds %d out of range 1..600", c.seconds)
	}
	w, err := workloadByName(c.workload)
	if err != nil {
		return err
	}
	if c.rep {
		return childRep(w, c)
	}
	f, err := measure(w, c)
	if err != nil {
		return err
	}
	report(os.Stdout, f)
	if c.out != "" {
		raw, err := json.MarshalIndent(f, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(c.out, append(raw, '\n'), 0o644); err != nil {
			return err
		}
	}
	if err := printResultLine(os.Stdout, f); err != nil {
		return err
	}
	if !f.Correct {
		return fmt.Errorf("%d of %d events failed", f.Failed, f.Attempted)
	}
	return nil
}

// childRep runs one repetition in this process and prints it as JSON.
func childRep(w *workload, c config) error {
	o := repOptions{vms: w.vms, gate: c.gate, trace: c.trace}
	if c.trace {
		o.traceDir = c.traceDir
	}
	r, err := runRep(w, c.seed, o)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(r)
}

// spawnRep runs one repetition in a child process and returns its
// result and peak RSS in MB.
func spawnRep(w *workload, c config, gate, trace bool) (*repResult, float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	args := []string{"-rep", "-workload", w.name, "-seed", strconv.FormatUint(c.seed, 10)}
	if gate {
		args = append(args, "-gate")
	}
	if trace {
		args = append(args, "-trace", "1", "-trace-dir", c.traceDir)
	}
	ctx, cancel := context.WithTimeout(context.Background(), repTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, 0, fmt.Errorf("repetition: %w: %s", err, strings.TrimSpace(stderr.String()))
	}
	var r repResult
	if err := json.Unmarshal(stdout.Bytes(), &r); err != nil {
		return nil, 0, fmt.Errorf("repetition output: %w", err)
	}
	var rssMB float64
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return &r, rssMB, nil
}

// checker holds a run's fingerprint expectation: the committed value at
// the default seed, else whatever the first repetition produced.
type checker struct {
	want string
}

func newChecker(w *workload, seed uint64) (*checker, error) {
	if seed != defaultSeed {
		return &checker{}, nil
	}
	var committed map[string]string
	if err := json.Unmarshal(fingerprintsJSON, &committed); err != nil {
		return nil, fmt.Errorf("fingerprints.json: %w", err)
	}
	want, ok := committed[w.name]
	if !ok {
		return nil, fmt.Errorf("fingerprints.json has no entry for %s", w.name)
	}
	return &checker{want: want}, nil
}

func (k *checker) check(r *repResult) error {
	if k.want == "" {
		k.want = r.Fingerprint
	}
	if r.Fingerprint != k.want {
		return fmt.Errorf("fingerprint %s, want %s", r.Fingerprint, k.want)
	}
	if r.ResumeFingerprint != "" && r.ResumeFingerprint != r.Fingerprint {
		return fmt.Errorf("resumed checkpoint finished at fingerprint %s, straight replay at %s", r.ResumeFingerprint, r.Fingerprint)
	}
	return nil
}

// measure runs untraced repetitions until c.seconds have passed (at
// least minReps), then the traced one when asked, and summarizes them.
func measure(w *workload, c config) (*result.File, error) {
	k, err := newChecker(w, c.seed)
	if err != nil {
		return nil, err
	}
	f := &result.File{Workload: w.name, Seed: c.seed, Seconds: c.seconds, Trace: c.trace, Metrics: map[string]result.Metric{}}
	var reps []*repResult
	var rss []float64
	deadline := time.Now().Add(time.Duration(c.seconds) * time.Second)
	for i := 0; i < minReps || time.Now().Before(deadline); i++ {
		// The checkpoint workload's first repetition also proves its last
		// checkpoint resumes to the same result.
		r, mb, err := spawnRep(w, c, i == 0 && w.checkpointEvery > 0, false)
		f.Attempted += w.vms
		if err == nil {
			err = k.check(r)
		}
		if err != nil {
			f.Failed += w.vms
			fmt.Fprintf(os.Stderr, "bench: %s rep %d: %v\n", w.name, i, err)
			continue
		}
		reps = append(reps, r)
		rss = append(rss, mb)
	}
	if len(reps) == 0 {
		return f, nil
	}
	col := func(get func(*repResult) float64) []float64 {
		out := make([]float64, len(reps))
		for i, r := range reps {
			out[i] = get(r)
		}
		return out
	}
	timed := col(func(r *repResult) float64 { return r.TimedS })
	f.Metrics["events_per_s"] = result.Summarize("events/s", true, col(func(r *repResult) float64 { return float64(r.Events) / r.TimedS }))
	f.Metrics["setup_s"] = result.Summarize("s", false, col((*repResult).setupS))
	f.Metrics["peak_rss_mb"] = result.Summarize("MB", false, rss)
	f.Metrics["setup.synth_s"] = result.Summarize("s", false, col(func(r *repResult) float64 { return r.SynthS }))
	f.Metrics["setup.fleet_s"] = result.Summarize("s", false, col(func(r *repResult) float64 { return r.FleetS }))
	f.Metrics["setup.replayer_s"] = result.Summarize("s", false, col(func(r *repResult) float64 { return r.ReplayerS }))

	if c.trace {
		if err := traced(w, c, k, f, result.Median(timed)); err != nil {
			f.Failed += w.vms
			fmt.Fprintf(os.Stderr, "bench: %s traced rep: %v\n", w.name, err)
		}
	}
	f.Correct = f.Failed == 0
	f.Provenance = provenance(c.seed, len(reps))
	return f, nil
}

// traced runs the traced repetition and adds its per-layer metrics.
func traced(w *workload, c config, k *checker, f *result.File, untracedTimedS float64) error {
	c.traceDir = filepath.Join(c.traceDir, fmt.Sprintf("%s-seed%d", w.name, c.seed))
	if err := os.MkdirAll(c.traceDir, 0o755); err != nil {
		return err
	}
	r, _, err := spawnRep(w, c, true, true)
	f.Attempted += w.vms
	if err != nil {
		return err
	}
	if err := k.check(r); err != nil {
		return err
	}
	cpu, err := cpuByLayer(filepath.Join(c.traceDir, "cpu.pprof"))
	if err != nil {
		return err
	}
	layer := layerMetrics(r, cpu, untracedTimedS)
	for _, d := range perLayer {
		if setupMetric(d.name) {
			continue // measured by the untraced repetitions
		}
		v, ok := layer[d.name]
		if !ok {
			return fmt.Errorf("traced rep did not measure %s", d.name)
		}
		f.Metrics[d.name] = result.Summarize(d.unit, false, []float64{v})
	}
	f.Ledger = r.Ledger
	return nil
}

// layerMetrics completes the traced repetition's per-layer numbers with
// its CPU profile (seconds per layer) and the tracing overhead against
// the untraced repetitions' median timed phase.
func layerMetrics(r *repResult, cpu map[string]float64, untracedTimedS float64) map[string]float64 {
	layer := r.Layer
	var total float64
	for _, s := range cpu {
		total += s
	}
	for _, l := range append(cpuLayers, "other") {
		layer["cpu_share."+l] = ratio(cpu[l], total)
	}
	layer["cpu_s.total"] = total
	layer["cpu_util"] = ratio(total, layer["trace.wall_s"])
	// The gate's own checkpoint is work an untraced repetition of this
	// workload does not do, so it is not tracing overhead.
	layer["trace.overhead_frac"] = (r.TimedS-r.GateCheckpointS)/untracedTimedS - 1
	return layer
}

func setupMetric(name string) bool { return strings.HasPrefix(name, "setup.") }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func provenance(seed uint64, reps int) result.Provenance {
	p := result.Provenance{
		Commit: "unknown", GoVersion: runtime.Version(), CPU: cpuModel(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: seed, Reps: reps,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Commit = s.Value
			case "vcs.modified":
				p.Dirty = s.Value == "true"
			}
		}
	}
	return p
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if name, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return runtime.GOARCH
}

// report prints every measured metric by name and unit, and the traced
// run's ledger.
func report(out io.Writer, f *result.File) {
	fmt.Fprintf(out, "%s seed=%d reps=%d go=%s cpu=%q nproc=%d gomaxprocs=%d commit=%s dirty=%v\n",
		f.Workload, f.Seed, f.Provenance.Reps, f.Provenance.GoVersion, f.Provenance.CPU,
		f.Provenance.NProc, f.Provenance.GOMAXPROCS, f.Provenance.Commit, f.Provenance.Dirty)
	names := make([]string, 0, len(f.Metrics))
	for n := range f.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := f.Metrics[n]
		if m.N > 1 {
			fmt.Fprintf(out, "  %-28s %14.6g %-8s (best %d) median %.6g  iqr %.4g  min %.6g  max %.6g  n %d\n", n, m.Value, m.Unit, min(m.N, result.BestOf), m.Median, m.IQR, m.Min, m.Max, m.N)
		} else {
			fmt.Fprintf(out, "  %-28s %14.6g %s\n", n, m.Value, m.Unit)
		}
	}
	if l := f.Ledger; l != nil {
		fmt.Fprintf(out, "ledger (traced wall %.6f s = span self times + residual)\n", l.WallS)
		for _, r := range l.Rows {
			fmt.Fprintf(out, "  %-28s %12.6f s  %8d spans\n", r.Name, r.SelfS, r.Count)
		}
		fmt.Fprintf(out, "  %-28s %12.6f s\n", "residual", l.ResidualS)
	}
}

// printResultLine prints the final JSON object: the end-to-end metrics,
// or with tracing the per-layer ones.
func printResultLine(out io.Writer, f *result.File) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEnd
	if f.Trace {
		defs = perLayer
	}
	metrics := map[string]value{}
	for _, d := range defs {
		m, ok := f.Metrics[d.name]
		if !ok {
			if f.Correct {
				return fmt.Errorf("metric %s was not measured", d.name)
			}
			continue
		}
		metrics[d.name] = value{m.Value, d.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{f.Correct, f.Attempted, f.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}
