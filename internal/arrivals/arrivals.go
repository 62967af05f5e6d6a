// Package arrivals drives a simulated fleet through datacenter lifecycle
// dynamics: VMs arrive, live for a while, and leave. It is the layer that
// turns the cluster simulator from fixed-population snapshots into the
// long-running, churn-and-heterogeneity regime where public-cloud
// measurement studies locate tail unpredictability — and therefore where
// the paper's claim (Kyoto llc_cap permits make *any* placement safe,
// versus NP-hard contention-aware packing) is actually testable.
//
// The package has three parts:
//
//   - a Trace of Events (submit tick, lifetime, vCPUs, memory, cache
//     aggressiveness class, llc_cap permit), loadable from Azure/Borg-
//     shaped JSON or CSV files and writable back (tracefile.go);
//   - a seeded synthetic generator (Synthesize): Poisson-style arrivals
//     with heavy-tailed Pareto lifetimes over a weighted application mix,
//     built on internal/xrand so traces are reproducible bit for bit;
//   - a replay engine (Replay) that feeds the events through
//     cluster.Fleet.Place and Fleet.Remove in deterministic order and
//     reports per-VM lifetime counters, rejections and fleet utilization.
//     Options extend the replay with a Borg-style pending queue for
//     rejected arrivals (pending.go: FIFO retry, deadline drops,
//     wait-time accounting) and epoch-driven live migration through
//     cluster.Fleet.Migrate (reactive or topology-aware rebalancers).
//
// Determinism: replay interleaves fleet ticks and placement decisions on
// the calling goroutine, and Fleet.RunTicks is bit-identical serial or
// parallel, so a seeded churn scenario has a stable Result.Fingerprint —
// the churn golden test in internal/cluster/testdata pins one.
package arrivals

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"unicode"
	"unicode/utf8"

	"kyoto/internal/workload"
)

// Event is one trace record: a VM that is submitted at tick Submit and,
// if placed, departs Lifetime ticks later.
type Event struct {
	// Submit is the arrival tick.
	Submit uint64 `json:"submit"`
	// Lifetime is the number of ticks the VM stays once placed; 0 means
	// the VM never departs (it survives to the end of the replay).
	Lifetime uint64 `json:"lifetime,omitempty"`
	// Name identifies the VM; empty derives "vm<index>" from the event's
	// position in the trace.
	Name string `json:"name,omitempty"`
	// App is the cache-aggressiveness class: a workload profile name
	// ("gcc", "lbm", "blockie", ...; see workload.Names).
	App string `json:"app"`
	// VCPUs is the vCPU count booked and instantiated (default 1).
	VCPUs int `json:"vcpus,omitempty"`
	// MemoryMB is the memory booking (default cluster.DefaultVMMemoryMB).
	MemoryMB int `json:"memory_mb,omitempty"`
	// LLCCap is the pollution permit in Equation-1 units. Kyoto admission
	// rejects VMs that book none; the other placers ignore it.
	LLCCap float64 `json:"llc_cap,omitempty"`
}

// Trace is an ordered set of lifecycle events.
type Trace struct {
	Events []Event `json:"events"`
}

// MaxTick bounds Submit and Lifetime values (about 350 simulated years
// of 10 ms ticks). The ceiling keeps tick sums (submit + lifetime) far
// below uint64 overflow, so absurd trace values fail validation instead
// of corrupting the replay clock; the replay itself advances the fleet
// in int-sized chunks, so the bound is safe on 32-bit platforms too.
const MaxTick = 1 << 40

// Validate reports the first malformed event.
func (t Trace) Validate() error {
	for i, e := range t.Events {
		if e.App == "" {
			return fmt.Errorf("arrivals: event %d: missing app class", i)
		}
		// Resolve the class now: a typo'd app should fail at load time,
		// not abort a replay thousands of ticks in.
		if _, err := workload.Lookup(e.App); err != nil {
			return fmt.Errorf("arrivals: event %d: %w", i, err)
		}
		// Names are printable text: CSV cannot carry a carriage return
		// and JSON cannot carry invalid UTF-8.
		if !utf8.ValidString(e.Name) || strings.ContainsFunc(e.Name, unicode.IsControl) {
			return fmt.Errorf("arrivals: event %d (%s): name %q is not printable UTF-8", i, e.App, e.Name)
		}
		if e.Submit > MaxTick || e.Lifetime > MaxTick {
			return fmt.Errorf("arrivals: event %d (%s): submit/lifetime beyond MaxTick (%d)", i, e.App, uint64(MaxTick))
		}
		if e.VCPUs < 0 {
			return fmt.Errorf("arrivals: event %d (%s): negative vcpus", i, e.App)
		}
		if e.MemoryMB < 0 {
			return fmt.Errorf("arrivals: event %d (%s): negative memory", i, e.App)
		}
		if e.LLCCap < 0 {
			return fmt.Errorf("arrivals: event %d (%s): negative llc_cap", i, e.App)
		}
		// A NaN permit slips past the sign check above (every comparison
		// with NaN is false) and so past Kyoto admission too; neither it
		// nor an infinite one can be written as JSON.
		if math.IsNaN(e.LLCCap) || math.IsInf(e.LLCCap, 1) {
			return fmt.Errorf("arrivals: event %d (%s): non-finite llc_cap", i, e.App)
		}
	}
	return nil
}

// Sorted returns a copy of the trace ordered by submit tick; events with
// equal submit ticks keep their input order (stable), which is the order
// Replay places them in.
func (t Trace) Sorted() Trace {
	evs := make([]Event, len(t.Events))
	copy(evs, t.Events)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Submit < evs[j].Submit })
	return Trace{Events: evs}
}

// name returns the VM name Replay uses for the event at index i.
func (e Event) name(i int) string {
	if e.Name != "" {
		return e.Name
	}
	return fmt.Sprintf("vm%03d", i)
}
