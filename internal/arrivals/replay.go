package arrivals

import (
	"container/heap"
	"errors"
	"fmt"
	"sort"

	"kyoto/internal/cluster"
	"kyoto/internal/pmc"
	"kyoto/internal/vm"
)

// DefaultRebalanceEvery is the rebalance epoch length in ticks when
// Options enables a Rebalancer without choosing one: four scheduler
// slices, long enough for the epoch's Equation-1 rates to mean something.
const DefaultRebalanceEvery = 12

// Options tunes a replay.
type Options struct {
	// DrainTicks runs the fleet this many extra ticks after the last
	// event before final counters are read, letting VMs that never depart
	// accumulate a measurable window (default 0).
	DrainTicks int

	// Pending selects what happens to arrivals no host can take: reject
	// outright (PendingNone, the default), or park them in a Borg-style
	// pending queue and retry as capacity frees (PendingFIFO,
	// PendingDeadline, PendingSJF). See the PendingPolicy docs for retry
	// ordering.
	Pending PendingPolicy
	// MaxWait bounds a queued VM's wait under PendingDeadline, in ticks
	// (default DefaultMaxWait). Ignored by the other policies.
	MaxWait uint64

	// Rebalancer enables live migration: every RebalanceEvery ticks a
	// fleet monitor snapshots per-VM pollution (Equation 1 over the
	// epoch) and the policy's plan is applied through Fleet.Migrate.
	// nil (the default) never migrates.
	Rebalancer cluster.Rebalancer
	// RebalanceEvery is the epoch length in ticks (default
	// DefaultRebalanceEvery).
	RebalanceEvery uint64
	// MigrationDowntime suspends each migrated VM for this many ticks on
	// its destination — the stop-and-copy blackout (default 0: the only
	// migration cost is the lost cache footprint).
	MigrationDowntime int
}

// Record is one event's outcome: where the VM landed (or why it was
// rejected) and the PMC counters it accumulated over its residency.
type Record struct {
	// Index is the event's position in the sorted trace.
	Index int
	// Name and App echo the resolved event.
	Name string
	App  string
	// VCPUs echoes the event's requested vCPU count (0 means the default
	// of 1, as in Event) — the size-class key the per-class wait
	// percentiles group by. omitempty keeps the JSON of all-default
	// traces byte-identical to records minted before the field existed,
	// so sweep payload fingerprints over such traces are unchanged.
	VCPUs int `json:",omitempty"`
	// Submit and Depart bound the VM's residency in ticks. For VMs still
	// running when the replay ends (Lifetime 0), Depart is the end tick.
	Submit uint64
	Depart uint64
	// PlacedTick is when the VM actually started: Submit unless it waited
	// in the pending queue. For rejected VMs it is the tick the rejection
	// became final (a deadline drop or the end of the replay).
	PlacedTick uint64
	// WaitTicks is PlacedTick - Submit: the time spent queued (0 when
	// placed immediately; for dropped VMs, the time waited before giving
	// up).
	WaitTicks uint64
	// Queued reports whether the VM ever sat in the pending queue.
	Queued bool
	// HostID is where the VM ran (its final host if it was migrated), -1
	// when rejected.
	HostID int
	// Migrations counts how many times the VM was live-migrated.
	Migrations int
	// Rejected is set when the VM never ran; Reason carries the placement
	// policy's last explanation (or the queue's drop reason).
	Rejected bool
	Reason   string
	// Departed distinguishes a real departure from an end-of-replay
	// snapshot of a still-running VM.
	Departed bool
	// Counters is the VM's aggregate PMC delta over its residency,
	// accumulated across every host it ran on.
	Counters pmc.Counters
}

// MigrationEvent is one applied live migration.
type MigrationEvent struct {
	// Tick is when the migration happened.
	Tick uint64
	// Index and Name identify the migrated VM's record.
	Index int
	Name  string
	// SrcHost and DstHost are the endpoints.
	SrcHost, DstHost int
	// Reason echoes the rebalancer's explanation.
	Reason string
}

// Result is a whole replay's outcome.
type Result struct {
	// Records parallels the sorted trace's events.
	Records []Record
	// Placed and Rejected count outcomes.
	Placed   int
	Rejected int
	// Migrations lists every applied live migration in order.
	Migrations []MigrationEvent
	// EndTick is the fleet clock when the replay finished.
	EndTick uint64
	// CPUUtilization is the time-weighted mean booked share of vCPU slots
	// over the whole replay, in [0, 1].
	CPUUtilization float64
	// PendingUsed and RebalanceUsed record which optional subsystems the
	// replay ran with; Fingerprint folds a subsystem's outcomes only when
	// it was active, so fingerprints of scenarios that predate a
	// subsystem are stable across its introduction.
	PendingUsed   bool
	RebalanceUsed bool
}

// RejectionRate returns rejected / submitted, in [0, 1].
func (r Result) RejectionRate() float64 {
	if len(r.Records) == 0 {
		return 0
	}
	return float64(r.Rejected) / float64(len(r.Records))
}

// PlacedWaits returns the queue wait in ticks of every placed VM (zero
// for VMs placed on arrival) — the wait-time distribution the pending
// queue trades against rejection rate. Dropped VMs are not included; they
// are counted by RejectionRate instead.
func (r Result) PlacedWaits() []float64 {
	waits := make([]float64, 0, r.Placed)
	for _, rec := range r.Records {
		if !rec.Rejected {
			waits = append(waits, float64(rec.WaitTicks))
		}
	}
	return waits
}

// SmallVMMaxCPUs is the size-class boundary for PlacedWaitsByClass:
// VMs booking at most this many vCPUs are "small", the rest "large".
// Matches the {1,2} vs {4} split of the Azure-calibrated size mix.
const SmallVMMaxCPUs = 2

// PlacedWaitsByClass splits PlacedWaits by VM size class: small VMs
// (booked vCPUs <= SmallVMMaxCPUs) versus large. Shortest-job-first
// pending queues systematically push large VMs to the back, so the two
// distributions expose the starvation cost a pooled percentile hides.
// Sizes are compared after booking normalization (0 vCPUs books as 1).
func (r Result) PlacedWaitsByClass() (small, large []float64) {
	for _, rec := range r.Records {
		if rec.Rejected {
			continue
		}
		req := cluster.Request{Spec: vm.Spec{VCPUs: rec.VCPUs}}
		if req.CPUs() <= SmallVMMaxCPUs {
			small = append(small, float64(rec.WaitTicks))
		} else {
			large = append(large, float64(rec.WaitTicks))
		}
	}
	return small, large
}

// Fingerprint folds every record's counters and placement metadata into
// one stable hash. Two replays of the same trace on identically
// configured fleets — serial or parallel, today or in a year — must
// produce the same fingerprint; the churn goldens pin several. Outcomes
// of the optional subsystems (pending-queue placement ticks, applied
// migrations) are folded only when the subsystem was active, so a
// fingerprint minted before a subsystem existed still matches.
func (r Result) Fingerprint() string {
	h := pmc.FoldSeed
	for _, rec := range r.Records {
		h = rec.Counters.Fold(h)
		h = pmc.FoldUint64(h, uint64(rec.HostID+2))
		h = pmc.FoldUint64(h, rec.Submit)
		h = pmc.FoldUint64(h, rec.Depart)
		var flags uint64
		if rec.Rejected {
			flags |= 1
		}
		if rec.Departed {
			flags |= 2
		}
		h = pmc.FoldUint64(h, flags)
		if r.PendingUsed {
			h = pmc.FoldUint64(h, rec.PlacedTick)
		}
	}
	if r.RebalanceUsed {
		h = pmc.FoldUint64(h, uint64(len(r.Migrations)))
		for _, m := range r.Migrations {
			h = pmc.FoldUint64(h, m.Tick)
			h = pmc.FoldUint64(h, uint64(m.Index))
			h = pmc.FoldUint64(h, uint64(m.SrcHost+2))
			h = pmc.FoldUint64(h, uint64(m.DstHost+2))
		}
	}
	return fmt.Sprintf("%016x", h)
}

// booking normalizes an event's request through the cluster's own
// zero-means-default accessors, so SJF compares what would actually be
// booked at placement (one source of truth for the defaults).
func booking(e Event) (cpus, memMB int) {
	req := cluster.Request{Spec: vm.Spec{VCPUs: e.VCPUs}, MemoryMB: e.MemoryMB}
	return req.CPUs(), req.MemMB()
}

// departure is a scheduled Fleet.Remove.
type departure struct {
	tick uint64
	idx  int // record index; orders same-tick departures deterministically
}

// departureHeap is a min-heap on (tick, idx).
type departureHeap []departure

func (h departureHeap) Len() int { return len(h) }
func (h departureHeap) Less(i, j int) bool {
	if h[i].tick != h[j].tick {
		return h[i].tick < h[j].tick
	}
	return h[i].idx < h[j].idx
}
func (h departureHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *departureHeap) Push(x any)   { *h = append(*h, x.(departure)) }
func (h *departureHeap) Pop() any {
	old := *h
	n := len(old)
	d := old[n-1]
	*h = old[:n-1]
	return d
}

// noTick marks "no next event" in the tick minimum computations.
const noTick = ^uint64(0)

// Replay feeds the trace through the fleet: at each event tick the fleet
// clock is advanced to that tick, departures are processed first (freeing
// booked CPU, memory and llc_cap, and evicting the departed VM's cache
// footprint), then — when the options enable them — the rebalance epoch
// runs, the pending queue retries, deadline drops fire, and finally
// arrivals are placed in trace order. Rejections are recorded, not fatal
// — a rejection is the placement policy speaking.
//
// Execution is event-horizon: only the hosts a moment actually touches
// are simulated up to it (the fleet's lazy per-host clocks; see the
// arrivals README), while rebalance epochs, checkpoints and the end of
// the run are global barriers. Because per-host simulation is
// chunk-invariant, the results are bit-identical to ticking every host
// every tick, and independent of the fleet's worker count.
//
// The fleet should be freshly built; Replay assumes its clock starts at
// the trace's epoch. Event order, the fixed same-tick ordering above, and
// the fleet's deterministic per-host advancement make the whole replay
// deterministic for a given trace, seed, fleet configuration and option
// set.
func Replay(f *cluster.Fleet, tr Trace, opt Options) (Result, error) {
	p, err := NewReplayer(f, tr, opt)
	if err != nil {
		return Result{}, err
	}
	return p.Finish()
}

// replayRun is one in-flight replay: the closure state of the original
// Replay loop lifted into fields so a replay can pause at a moment
// boundary, be checkpointed, and resume bit-identically. The methods
// below are the original loop's closures verbatim; any change to their
// statement order risks the churn goldens.
type replayRun struct {
	f      *cluster.Fleet
	events []Event
	opt    Options

	maxWait uint64
	every   uint64
	mon     *cluster.FleetMonitor

	nextRebalance uint64
	active        map[string]int  // live VM name -> record index
	waiting       map[string]bool // names parked in the pending queue
	pend          []int           // queued record indices, submit order
	deps          departureHeap
	now           uint64
	utilTicks     float64 // integral of booked-CPU fraction over ticks
	i             int
	res           Result
}

// runTo advances the replay clock to tick t, accruing utilization over
// the gap in one float addition — which is why pauses happen only at
// moment boundaries: splitting a gap would split the addition and could
// differ in the last bit.
//
// The fleet's virtual clock moves with the replay clock, but hosts are
// not simulated here: each one is fast-forwarded lazily by the fleet
// when the moment being processed actually touches it (a placement, a
// departure, a migration endpoint, a monitor observation or a
// checkpoint/end-of-run barrier). BookedCPUFraction reads only booking
// ledgers, so the utilization integral never forces a catch-up.
func (r *replayRun) runTo(t uint64) {
	if t <= r.now {
		return
	}
	r.utilTicks += r.f.BookedCPUFraction() * float64(t-r.now)
	r.f.SkipTicks(t - r.now)
	r.now = t
}

// tryPlace attempts to place the event's VM now. It returns false on a
// policy rejection (recording the reason) and propagates real errors.
func (r *replayRun) tryPlace(idx int) (bool, error) {
	ev := r.events[idx]
	rec := &r.res.Records[idx]
	p, err := r.f.Place(cluster.Request{
		Spec:     vm.Spec{Name: rec.Name, App: ev.App, VCPUs: ev.VCPUs, LLCCap: ev.LLCCap},
		MemoryMB: ev.MemoryMB,
	})
	if err != nil {
		if !errors.Is(err, cluster.ErrUnplaceable) {
			return false, err
		}
		rec.Reason = err.Error()
		return false, nil
	}
	rec.HostID = p.HostID
	rec.PlacedTick = r.now
	rec.WaitTicks = r.now - rec.Submit
	rec.Reason = ""
	r.active[rec.Name] = idx
	r.res.Placed++
	if ev.Lifetime > 0 {
		// Validate bounds Submit and Lifetime to MaxTick, so the
		// departure tick cannot overflow.
		heap.Push(&r.deps, departure{tick: r.now + ev.Lifetime, idx: idx})
	}
	return true, nil
}

// retryOrder returns the queued record indices in SJF retry order:
// smallest booked request first (vCPUs, then memory, then llc_cap;
// submit order breaks ties — record indices follow the sorted trace,
// so a lower index is an earlier submit). FIFO/deadline retries use
// pend directly.
func (r *replayRun) retryOrder() []int {
	if len(r.pend) < 2 {
		return r.pend
	}
	order := append([]int(nil), r.pend...)
	sort.SliceStable(order, func(a, b int) bool {
		ea, eb := r.events[order[a]], r.events[order[b]]
		ca, ma := booking(ea)
		cb, mb := booking(eb)
		if ca != cb {
			return ca < cb
		}
		if ma != mb {
			return ma < mb
		}
		if ea.LLCCap != eb.LLCCap {
			return ea.LLCCap < eb.LLCCap
		}
		return order[a] < order[b]
	})
	return order
}

// retryPending re-attempts the queue in the policy's order, skipping
// VMs that still do not fit (a scan, not head-of-line blocking:
// Borg's scheduler also keeps trying the rest of the queue). The
// queue itself stays in submit order whatever the retry order, so
// deadline scans and end-of-trace rejections stay deterministic.
func (r *replayRun) retryPending() error {
	if len(r.pend) == 0 {
		return nil
	}
	if r.opt.Pending != PendingSJF {
		// Retry order == queue order: compact in place, no allocation
		// (this runs on every capacity-freeing tick).
		kept := r.pend[:0]
		for _, idx := range r.pend {
			ok, err := r.tryPlace(idx)
			if err != nil {
				return err
			}
			if ok {
				delete(r.waiting, r.res.Records[idx].Name)
			} else {
				kept = append(kept, idx)
			}
		}
		r.pend = kept
		return nil
	}
	placed := make(map[int]bool)
	for _, idx := range r.retryOrder() {
		ok, err := r.tryPlace(idx)
		if err != nil {
			return err
		}
		if ok {
			placed[idx] = true
			delete(r.waiting, r.res.Records[idx].Name)
		}
	}
	if len(placed) > 0 {
		kept := r.pend[:0]
		for _, idx := range r.pend {
			if !placed[idx] {
				kept = append(kept, idx)
			}
		}
		r.pend = kept
	}
	return nil
}

// reject finalizes a queued VM as rejected with the given reason.
func (r *replayRun) reject(idx int, reason string) {
	rec := &r.res.Records[idx]
	rec.Rejected = true
	rec.Reason = reason
	rec.PlacedTick = r.now
	rec.WaitTicks = r.now - rec.Submit
	r.res.Rejected++
	delete(r.waiting, rec.Name)
}

// rebalance runs one epoch: observe, plan, migrate.
func (r *replayRun) rebalance() (bool, error) {
	view := r.mon.Observe(r.f)
	plan := r.opt.Rebalancer.Plan(r.f.Hosts(), view)
	for _, m := range plan {
		// The Rebalancer contract is to plan only feasible moves of
		// VMs this replay placed; surface violations loudly. The
		// active check matters when the caller handed Replay a
		// pre-populated fleet: migrating a pre-existing VM would
		// otherwise corrupt an unrelated record.
		idx, ok := r.active[m.VMName]
		if !ok {
			return false, fmt.Errorf("arrivals: rebalance at tick %d: plan moves %q, which this replay did not place", r.now, m.VMName)
		}
		if _, err := r.f.Migrate(m.VMName, m.DstHost, r.opt.MigrationDowntime); err != nil {
			return false, fmt.Errorf("arrivals: rebalance at tick %d: %w", r.now, err)
		}
		r.res.Records[idx].HostID = m.DstHost
		r.res.Records[idx].Migrations++
		r.res.Migrations = append(r.res.Migrations, MigrationEvent{
			Tick: r.now, Index: idx, Name: m.VMName,
			SrcHost: m.SrcHost, DstHost: m.DstHost, Reason: m.Reason,
		})
	}
	return len(plan) > 0, nil
}

// done reports whether the event loop has nothing left to process. Once
// only queued VMs remain, nothing frees capacity on its own: under
// PendingDeadline their deadlines still fire (and rebalance epochs may
// still make room before then); under PendingFIFO the queue can never
// drain, so the loop stops and Finish rejects the leftovers.
func (r *replayRun) done() bool {
	workRemains := r.i < len(r.events) || r.deps.Len() > 0
	return !workRemains && (r.opt.Pending != PendingDeadline || len(r.pend) == 0)
}

// step advances the replay to the next moment (event submit, departure,
// rebalance epoch or pending deadline, whichever is earliest) and
// processes everything due there, in the fixed same-tick order.
func (r *replayRun) step() error {
	next := noTick
	if r.i < len(r.events) {
		next = r.events[r.i].Submit
	}
	if r.deps.Len() > 0 && r.deps[0].tick < next {
		next = r.deps[0].tick
	}
	if r.nextRebalance < next {
		next = r.nextRebalance
	}
	if r.opt.Pending == PendingDeadline && len(r.pend) > 0 {
		// The queue is in submit order, so the head's deadline is the
		// earliest.
		if dl := r.res.Records[r.pend[0]].Submit + r.maxWait; dl < next {
			next = dl
		}
	}
	r.runTo(next)

	freed := false
	for r.deps.Len() > 0 && r.deps[0].tick == r.now {
		d := heap.Pop(&r.deps).(departure)
		rec := &r.res.Records[d.idx]
		p, err := r.f.Remove(rec.Name)
		if err != nil {
			return fmt.Errorf("arrivals: departing %q at tick %d: %w", rec.Name, r.now, err)
		}
		rec.Counters = p.VM.Counters()
		rec.Depart = r.now
		rec.Departed = true
		delete(r.active, rec.Name)
		freed = true
	}

	if r.now == r.nextRebalance {
		migrated, err := r.rebalance()
		if err != nil {
			return err
		}
		freed = freed || migrated
		r.nextRebalance += r.every
	}

	if freed {
		if err := r.retryPending(); err != nil {
			return err
		}
	}

	if r.opt.Pending == PendingDeadline {
		kept := r.pend[:0]
		for _, idx := range r.pend {
			if r.now-r.res.Records[idx].Submit >= r.maxWait {
				r.reject(idx, fmt.Sprintf("pending deadline: waited %d ticks (max %d)", r.now-r.res.Records[idx].Submit, r.maxWait))
			} else {
				kept = append(kept, idx)
			}
		}
		r.pend = kept
	}

	for r.i < len(r.events) && r.events[r.i].Submit == r.now {
		ev := r.events[r.i]
		rec := &r.res.Records[r.i]
		*rec = Record{Index: r.i, Name: ev.name(r.i), App: ev.App, VCPUs: ev.VCPUs, Submit: r.now, PlacedTick: r.now, HostID: -1}
		if _, dup := r.active[rec.Name]; dup {
			return fmt.Errorf("arrivals: event %d: VM name %q already active at tick %d", r.i, rec.Name, r.now)
		}
		if r.waiting[rec.Name] {
			return fmt.Errorf("arrivals: event %d: VM name %q already pending at tick %d", r.i, rec.Name, r.now)
		}
		ok, err := r.tryPlace(r.i)
		if err != nil {
			return err
		}
		if !ok {
			if r.opt.Pending == PendingNone {
				rec.Rejected = true
				r.res.Rejected++
			} else {
				rec.Queued = true
				r.waiting[rec.Name] = true
				r.pend = append(r.pend, r.i)
			}
		}
		r.i++
	}
	return nil
}

// Replayer is a pausable replay: the same loop Replay runs, exposed a
// moment at a time so callers can checkpoint between moments (see
// CaptureState) and resume later. A Replayer drives one fleet through
// one trace exactly once; after Finish it is spent.
type Replayer struct {
	run      *replayRun
	finished bool
}

// NewReplayer validates and sorts the trace and prepares a replay over
// the (freshly built) fleet, without advancing anything.
func NewReplayer(f *cluster.Fleet, tr Trace, opt Options) (*Replayer, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	sorted := tr.Sorted()
	events := sorted.Events
	r := &replayRun{
		f:      f,
		events: events,
		opt:    opt,
		res: Result{
			Records:       make([]Record, len(events)),
			PendingUsed:   opt.Pending != PendingNone,
			RebalanceUsed: opt.Rebalancer != nil,
		},
		active:        make(map[string]int, len(events)),
		waiting:       make(map[string]bool),
		nextRebalance: noTick,
	}
	r.maxWait = opt.MaxWait
	if r.maxWait == 0 {
		r.maxWait = DefaultMaxWait
	}
	r.every = opt.RebalanceEvery
	if r.every == 0 {
		r.every = DefaultRebalanceEvery
	}
	if opt.Rebalancer != nil {
		r.mon = cluster.NewFleetMonitor()
		r.nextRebalance = r.every
	}
	return &Replayer{run: r}, nil
}

// Now returns the fleet clock in ticks.
func (p *Replayer) Now() uint64 { return p.run.now }

// Done reports whether the event loop is exhausted; Finish remains to be
// called for the drain window and final snapshots.
func (p *Replayer) Done() bool { return p.finished || p.run.done() }

// Step processes the next moment of the replay and returns whether more
// remain. Between Step calls the replay sits at a moment boundary — the
// only place CaptureState may be called.
func (p *Replayer) Step() (bool, error) {
	if p.finished {
		return false, fmt.Errorf("arrivals: replayer already finished")
	}
	if p.run.done() {
		return false, nil
	}
	if err := p.run.step(); err != nil {
		return false, err
	}
	return !p.run.done(), nil
}

// StepUntil processes moments until the fleet clock reaches at least
// tick (the replay overshoots to the first moment boundary >= tick) or
// the event loop is exhausted, and returns whether more moments remain.
func (p *Replayer) StepUntil(tick uint64) (bool, error) {
	for {
		if p.finished || p.run.done() {
			return false, nil
		}
		if p.run.now >= tick {
			return true, nil
		}
		if err := p.run.step(); err != nil {
			return false, err
		}
	}
}

// Finish drives the remaining moments, runs the drain window, snapshots
// still-running VMs and returns the Result — exactly what Replay
// returns. The Replayer is spent afterwards.
func (p *Replayer) Finish() (Result, error) {
	if p.finished {
		return Result{}, fmt.Errorf("arrivals: replayer already finished")
	}
	r := p.run
	for !r.done() {
		if err := r.step(); err != nil {
			return r.res, err
		}
	}
	p.finished = true

	// VMs still queued when the events ran out can never be placed (under
	// PendingDeadline the loop above already drained the queue through
	// its deadlines).
	for _, idx := range r.pend {
		r.reject(idx, "pending at end of trace: no capacity ever freed")
	}
	r.pend = nil

	if r.opt.DrainTicks > 0 {
		r.runTo(r.now + uint64(r.opt.DrainTicks))
	}
	// End-of-run barrier: the still-running VMs' counters are about to
	// be read, so every lazily lagging host must reach the end tick.
	r.f.Barrier()
	// Snapshot VMs that never depart (Lifetime 0) as of the end tick, in
	// record order for determinism.
	for idx := range r.res.Records {
		rec := &r.res.Records[idx]
		if aidx, ok := r.active[rec.Name]; ok && aidx == idx {
			if v, _ := r.f.FindVM(rec.Name); v != nil {
				rec.Counters = v.Counters()
			}
			rec.Depart = r.now
		}
	}
	r.res.EndTick = r.now
	if r.now > 0 {
		r.res.CPUUtilization = r.utilTicks / float64(r.now)
	}
	return r.res, nil
}
