package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"kyoto/bench/result"
	"kyoto/internal/cluster"
)

// span is one timed call across a layer boundary. Spans nest on the one
// goroutine that drives the replay, so a span's children never overlap.
type span struct {
	name       string
	idx        int // moment index for arrivals.step, call ordinal otherwise
	parent     int // index into tracer.spans, -1 at top level
	start, end time.Duration
}

// tracer records spans in memory; they are written out only at exit.
// A nil *tracer records nothing, which is how untraced reps run.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open one.
func (t *tracer) begin(name string, idx int) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.open = append(t.open, len(t.spans))
	t.spans = append(t.spans, span{name: name, idx: idx, parent: parent, start: time.Since(t.t0)})
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	n := len(t.open) - 1
	t.spans[t.open[n]].end = time.Since(t.t0)
	t.open = t.open[:n]
}

// now returns the tracer's clock, which span times are relative to.
func (t *tracer) now() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.t0)
}

// selfTimes returns each span's duration minus its children's.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// ledger splits the window [from, to) into per-name self times and the
// residual no span covers.
func (t *tracer) ledger(from, to time.Duration) *result.Ledger {
	self := t.selfTimes()
	rows := map[string]*result.LedgerRow{}
	var covered time.Duration
	for i, s := range t.spans {
		if s.start < from || s.end > to {
			continue
		}
		r := rows[s.name]
		if r == nil {
			r = &result.LedgerRow{Name: s.name}
			rows[s.name] = r
		}
		r.Count++
		r.SelfS += self[i].Seconds()
		covered += self[i]
	}
	l := &result.Ledger{WallS: (to - from).Seconds(), ResidualS: (to - from - covered).Seconds()}
	for _, r := range rows {
		l.Rows = append(l.Rows, *r)
	}
	sort.Slice(l.Rows, func(i, j int) bool { return l.Rows[i].Name < l.Rows[j].Name })
	return l
}

// stats returns the count and total self time of the spans named name,
// and their individual durations.
func (t *tracer) stats(name string) (n int, self time.Duration, durs []time.Duration) {
	st := t.selfTimes()
	for i, s := range t.spans {
		if s.name == name {
			n++
			self += st[i]
			durs = append(durs, s.end-s.start)
		}
	}
	return n, self, durs
}

// writeJSONL writes one JSON object per span: name, id, parent id (empty
// at top level), and start/end in nanoseconds since the tracer started.
// Every span belongs to the one replay named by trace.
func (t *tracer) writeJSONL(path, trace string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	id := func(i int) string {
		if i < 0 {
			return ""
		}
		return fmt.Sprintf("%s/%d", t.spans[i].name, t.spans[i].idx)
	}
	for i, s := range t.spans {
		rec := struct {
			Trace   string `json:"trace"`
			Name    string `json:"name"`
			ID      string `json:"id"`
			Parent  string `json:"parent"`
			StartNS int64  `json:"start_ns"`
			EndNS   int64  `json:"end_ns"`
		}{trace, s.name, id(i), id(s.parent), int64(s.start), int64(s.end)}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// tracedPlacer records a cluster.place span around every placement
// decision and counts the attempts that found no host.
type tracedPlacer struct {
	cluster.Placer
	tr           *tracer
	calls, fails int
}

func (p *tracedPlacer) Place(hosts []*cluster.Host, req cluster.Request) (int, error) {
	p.tr.begin("cluster.place", p.calls)
	id, err := p.Placer.Place(hosts, req)
	p.tr.end()
	p.calls++
	if err != nil {
		p.fails++
	}
	return id, err
}

// tracedRebalancer records a cluster.plan span around every plan. It
// forwards cluster.StatefulRebalancer, so a traced replay's checkpoints
// are byte-identical to an untraced one's.
type tracedRebalancer struct {
	cluster.Rebalancer
	tr    *tracer
	calls int
}

func (r *tracedRebalancer) Plan(hosts []*cluster.Host, view cluster.RebalanceView) []cluster.Migration {
	r.tr.begin("cluster.plan", r.calls)
	plan := r.Rebalancer.Plan(hosts, view)
	r.tr.end()
	r.calls++
	return plan
}

func (r *tracedRebalancer) CaptureRebalanceState() (json.RawMessage, error) {
	if s, ok := r.Rebalancer.(cluster.StatefulRebalancer); ok {
		return s.CaptureRebalanceState()
	}
	return nil, nil
}

func (r *tracedRebalancer) RestoreRebalanceState(data json.RawMessage) error {
	if s, ok := r.Rebalancer.(cluster.StatefulRebalancer); ok {
		return s.RestoreRebalanceState(data)
	}
	return nil
}
