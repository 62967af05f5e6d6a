package main

import (
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"time"

	"kyoto/bench/result"
	"kyoto/internal/arrivals"
	"kyoto/internal/cluster"
	"kyoto/internal/snapshot"
)

// snapshotKind names the benchmark's checkpoint envelopes.
const snapshotKind = "replay"

// setupReps is how many times a repetition sets up; it reports the
// median of each set-up phase and replays on the last set-up.
const setupReps = 5

// repOptions selects what one repetition does around its timed replay.
type repOptions struct {
	vms     int // trace size
	workers int // 0 keeps the cluster default
	// gate decodes the last checkpoint after the timed phase, resumes it
	// on a fresh fleet and finishes it. Workloads that do not checkpoint
	// take one checkpoint, after as many moments as the trace has
	// events, to have something to resume.
	gate bool
	// trace records spans and per-layer counts; traceDir, when set, also
	// receives the spans file and a CPU profile of the timed phase.
	trace    bool
	traceDir string
}

// repResult is one repetition's outcome, as a child process reports it.
type repResult struct {
	// SynthS, FleetS and ReplayerS are the medians of setupReps set-ups.
	SynthS    float64 `json:"synth_s"`
	FleetS    float64 `json:"fleet_s"`
	ReplayerS float64 `json:"replayer_s"`
	// TimedS runs from the first Step to the return of Finish, including
	// any checkpoints taken in between.
	TimedS            float64 `json:"timed_s"`
	Events            int     `json:"events"`
	Fingerprint       string  `json:"fingerprint"`
	ResumeFingerprint string  `json:"resume_fingerprint,omitempty"`
	// GateCheckpointS is the time the gate's own checkpoint added to the
	// timed phase of a workload that does not otherwise checkpoint.
	GateCheckpointS float64            `json:"gate_checkpoint_s,omitempty"`
	Layer           map[string]float64 `json:"layer,omitempty"`
	Ledger          *result.Ledger     `json:"ledger,omitempty"`

	lastCheckpoint []byte
}

func (r *repResult) setupS() float64 { return r.SynthS + r.FleetS + r.ReplayerS }

// runRep sets the workload up, replays it once and checks nothing: the
// caller compares fingerprints.
func runRep(w *workload, seed uint64, o repOptions) (*repResult, error) {
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	r := &repResult{}
	s, err := setUp(w, seed, o.vms, o.workers, tr, r)
	if err != nil {
		return nil, err
	}

	every := w.checkpointInterval(o.vms)
	gateOnly := every == 0 && o.gate
	if gateOnly {
		every = r.Events
	}
	digest, err := snapshot.ConfigDigest(struct {
		Workload string
		Seed     uint64
		VMs      int
	}{w.name, seed, o.vms})
	if err != nil {
		return nil, err
	}

	stopProfile := func() error { return nil }
	if o.traceDir != "" {
		if stopProfile, err = startProfile(filepath.Join(o.traceDir, "cpu.pprof")); err != nil {
			return nil, err
		}
	}
	from := tr.now()
	start := time.Now()
	var ckpt time.Duration
	var checkpoints, ckptBytes int
	steps := 0
	for more := true; more; {
		tr.begin("arrivals.step", steps)
		more, err = s.p.Step()
		tr.end()
		if err != nil {
			return nil, err
		}
		steps++
		if more && every > 0 && steps%every == 0 {
			c0 := time.Now()
			if r.lastCheckpoint, err = checkpoint(s.p, tr, digest); err != nil {
				return nil, err
			}
			ckpt += time.Since(c0)
			checkpoints++
			ckptBytes += len(r.lastCheckpoint)
		}
	}
	tr.begin("arrivals.finish", 0)
	res, err := s.p.Finish()
	tr.end()
	if err != nil {
		return nil, err
	}
	r.TimedS = time.Since(start).Seconds()
	to := tr.now()
	if err := stopProfile(); err != nil {
		return nil, err
	}
	r.Fingerprint = res.Fingerprint()
	if gateOnly {
		r.GateCheckpointS = ckpt.Seconds()
	}

	if o.gate && r.lastCheckpoint != nil {
		if r.ResumeFingerprint, err = resume(w, seed, o.workers, s.trace, r.lastCheckpoint, digest, tr); err != nil {
			return nil, err
		}
	}

	if tr == nil {
		return r, nil
	}
	r.Ledger = tr.ledger(from, to)
	r.Layer = layerCounts(w, res, tr, s.placer, s.rebalancer)
	r.Layer["snapshot.captures"] = float64(checkpoints)
	r.Layer["snapshot.bytes"] = float64(ckptBytes)
	r.Layer["trace.wall_s"] = r.Ledger.WallS
	r.Layer["trace.residual_s"] = r.Ledger.ResidualS
	if o.traceDir != "" {
		if err := tr.writeJSONL(filepath.Join(o.traceDir, "spans.jsonl"), fmt.Sprintf("%s/%d", w.name, seed)); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// replaySetup is what one set-up builds; placer and rebalancer are the
// traced wrappers, nil when untraced.
type replaySetup struct {
	trace      arrivals.Trace
	p          *arrivals.Replayer
	placer     *tracedPlacer
	rebalancer *tracedRebalancer
}

// setUp synthesizes the trace, builds the fleet and prepares the
// replayer setupReps times, records each phase's median in r, and
// returns the last set-up.
func setUp(w *workload, seed uint64, vms, workers int, tr *tracer, r *repResult) (*replaySetup, error) {
	var synth, fleet, replayer []float64
	var s *replaySetup
	for i := 0; i < setupReps; i++ {
		s = &replaySetup{}
		placer := cluster.Placer(cluster.Admission{})
		var wrap func(cluster.Rebalancer) cluster.Rebalancer
		if tr != nil {
			s.placer = &tracedPlacer{Placer: placer, tr: tr}
			placer = s.placer
			wrap = func(rb cluster.Rebalancer) cluster.Rebalancer {
				s.rebalancer = &tracedRebalancer{Rebalancer: rb, tr: tr}
				return s.rebalancer
			}
		}
		t0 := time.Now()
		s.trace = w.trace(seed, vms)
		t1 := time.Now()
		f, err := w.fleet(seed, workers, placer)
		if err != nil {
			return nil, err
		}
		t2 := time.Now()
		if s.p, err = arrivals.NewReplayer(f, s.trace, w.options(s.trace, wrap)); err != nil {
			return nil, err
		}
		t3 := time.Now()
		synth = append(synth, t1.Sub(t0).Seconds())
		fleet = append(fleet, t2.Sub(t1).Seconds())
		replayer = append(replayer, t3.Sub(t2).Seconds())
	}
	r.SynthS, r.FleetS, r.ReplayerS = result.Median(synth), result.Median(fleet), result.Median(replayer)
	r.Events = len(s.trace.Events)
	return s, nil
}

// resume decodes a checkpoint, resumes it on a freshly built fleet with
// fresh options, finishes it and returns the result's fingerprint.
func resume(w *workload, seed uint64, workers int, trace arrivals.Trace, blob []byte, digest string, tr *tracer) (string, error) {
	tr.begin("snapshot.decode", 0)
	raw, err := snapshot.Decode(blob, snapshotKind, digest)
	var st arrivals.ReplayState
	if err == nil {
		err = json.Unmarshal(raw, &st)
	}
	tr.end()
	if err != nil {
		return "", fmt.Errorf("decoding checkpoint: %w", err)
	}
	f, err := w.fleet(seed, workers, cluster.Admission{})
	if err != nil {
		return "", err
	}
	tr.begin("snapshot.resume", 0)
	defer tr.end()
	p, err := arrivals.ResumeReplayer(f, trace, w.options(trace, nil), &st)
	if err != nil {
		return "", fmt.Errorf("resuming checkpoint: %w", err)
	}
	res, err := p.Finish()
	if err != nil {
		return "", fmt.Errorf("finishing resumed replay: %w", err)
	}
	return res.Fingerprint(), nil
}

// checkpoint captures the paused replay and encodes it.
func checkpoint(p *arrivals.Replayer, tr *tracer, digest string) ([]byte, error) {
	tr.begin("snapshot.capture", 0)
	st, err := p.CaptureState()
	tr.end()
	if err != nil {
		return nil, err
	}
	tr.begin("snapshot.encode", 0)
	defer tr.end()
	return snapshot.Encode(snapshotKind, digest, st)
}

// layerCounts derives the traced rep's per-layer numbers from its spans,
// its wrappers' counters and the replay result.
func layerCounts(w *workload, res arrivals.Result, tr *tracer, tp *tracedPlacer, trb *tracedRebalancer) map[string]float64 {
	m := map[string]float64{}
	steps, stepSelf, durs := tr.stats("arrivals.step")
	m["arrivals.steps"] = float64(steps)
	m["arrivals.step_self_s"] = stepSelf.Seconds()
	p50, tail, pct := stepPercentiles(durs)
	m["arrivals.step_p50_us"] = p50
	m["arrivals.step_tail_us"] = tail
	m["arrivals.step_tail_pct"] = pct
	_, finish, _ := tr.stats("arrivals.finish")
	m["arrivals.finish_s"] = finish.Seconds()

	_, place, _ := tr.stats("cluster.place")
	m["cluster.place_calls"] = float64(tp.calls)
	m["cluster.place_fails"] = float64(tp.fails)
	m["cluster.place_useful_frac"] = ratio(float64(tp.calls-tp.fails), float64(tp.calls))
	m["cluster.place_s"] = place.Seconds()
	m["cluster.plan_calls"] = 0
	m["detect.change_points"] = 0
	if trb != nil {
		m["cluster.plan_calls"] = float64(trb.calls)
		if sig, ok := trb.Rebalancer.(*cluster.Signature); ok {
			m["detect.change_points"] = float64(len(sig.ChangePoints()))
		}
	}
	m["cluster.migrations"] = float64(len(res.Migrations))
	for _, name := range []string{"capture", "encode", "decode", "resume"} {
		_, d, _ := tr.stats("snapshot." + name)
		m["snapshot."+name+"_s"] = d.Seconds()
	}

	var ins, acc, miss uint64
	for _, rec := range res.Records {
		ins += rec.Counters.Instructions
		acc += rec.Counters.Accesses
		miss += rec.Counters.LLCMisses
	}
	m["sim.instructions"] = float64(ins)
	m["sim.accesses"] = float64(acc)
	m["sim.llc_misses"] = float64(miss)

	virtual := float64(w.hosts) * float64(res.EndTick)
	busy := float64(busyHostTicks(res))
	m["cluster.virtual_host_ticks"] = virtual
	m["cluster.busy_host_ticks"] = busy
	m["cluster.elided_frac"] = 1 - ratio(busy, virtual)
	queued, peak := queueStats(res)
	m["arrivals.queued"] = float64(queued)
	m["arrivals.queue_peak"] = float64(peak)
	return m
}

// stepPercentiles returns the median step time and the highest of the
// 75th/90th/99th/99.9th/99.99th percentiles with at least ten steps
// beyond it, in microseconds, with the percentile used (0 when fewer
// than 40 steps leave no such percentile).
func stepPercentiles(durs []time.Duration) (p50, tail, pct float64) {
	if len(durs) == 0 {
		return 0, 0, 0
	}
	us := make([]float64, len(durs))
	for i, d := range durs {
		us[i] = float64(d) / 1e3
	}
	sort.Float64s(us)
	at := func(p float64) float64 {
		i := int(math.Ceil(p/100*float64(len(us)))) - 1
		return us[max(i, 0)]
	}
	p50 = at(50)
	for _, p := range []float64{99.99, 99.9, 99, 90, 75} {
		if float64(len(us))*(1-p/100) >= 10 {
			return p50, at(p), p
		}
	}
	return p50, 0, 0
}

// busyHostTicks counts host-ticks during which a host held at least one
// VM, from each record's residency and its migrations: the host-ticks
// the replay had to simulate. The rest were elided.
func busyHostTicks(res arrivals.Result) uint64 {
	type interval struct{ from, to uint64 }
	perHost := map[int][]interval{}
	moves := map[int][]arrivals.MigrationEvent{}
	for _, m := range res.Migrations {
		moves[m.Index] = append(moves[m.Index], m)
	}
	for i, rec := range res.Records {
		if rec.Rejected || rec.HostID < 0 {
			continue
		}
		from, host := rec.PlacedTick, rec.HostID
		if ms := moves[i]; len(ms) > 0 {
			host = ms[0].SrcHost
			for _, m := range ms {
				perHost[host] = append(perHost[host], interval{from, m.Tick})
				from, host = m.Tick, m.DstHost
			}
		}
		perHost[host] = append(perHost[host], interval{from, rec.Depart})
	}
	var busy uint64
	for _, ivs := range perHost {
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].from < ivs[b].from })
		var end uint64
		for _, iv := range ivs {
			from := max(iv.from, end)
			if iv.to > from {
				busy += iv.to - from
			}
			end = max(end, iv.to)
		}
	}
	return busy
}

// queueStats returns how many VMs ever waited in the pending queue and
// the most that waited at once.
func queueStats(res arrivals.Result) (queued, peak int) {
	type edge struct {
		tick  uint64
		delta int
	}
	var edges []edge
	for _, rec := range res.Records {
		if rec.Queued {
			queued++
			edges = append(edges, edge{rec.Submit, 1}, edge{rec.PlacedTick, -1})
		}
	}
	// Leaving before joining at the same tick: a VM placed at tick t no
	// longer waits alongside one submitted at t.
	sort.Slice(edges, func(a, b int) bool {
		if edges[a].tick != edges[b].tick {
			return edges[a].tick < edges[b].tick
		}
		return edges[a].delta < edges[b].delta
	})
	depth := 0
	for _, e := range edges {
		depth += e.delta
		peak = max(peak, depth)
	}
	return queued, peak
}
