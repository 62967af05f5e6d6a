package cluster

import (
	"errors"
	"strings"
	"testing"

	"kyoto/internal/vm"
)

// req builds a single-vCPU request booking the default memory.
func req(name, app string, llcCap float64) Request {
	return Request{Spec: vm.Spec{Name: name, App: app, LLCCap: llcCap}}
}

// newTestFleet builds a small fleet with the given policy.
func newTestFleet(t *testing.T, hosts int, p Placer) *Fleet {
	t.Helper()
	f, err := New(Config{Hosts: hosts, Template: HostTemplate{Seed: 1}, Placer: p})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestPlacerPolicies(t *testing.T) {
	// Each case places a request sequence on a 2-host Table-1 fleet
	// (4 vCPU slots, 506 MB, llc budget 1000 per host) and checks the
	// host chosen for each, or the rejection.
	type placement struct {
		req      Request
		wantHost int    // -1 means the request must be rejected
		wantErr  string // substring of the rejection
	}
	cases := []struct {
		name   string
		placer Placer
		seq    []placement
	}{
		{
			name:   "first-fit packs host 0 before touching host 1",
			placer: FirstFit{},
			seq: []placement{
				{req: req("a", "gcc", 0), wantHost: 0},
				{req: req("b", "lbm", 0), wantHost: 0},
				{req: req("c", "mcf", 0), wantHost: 0},
				{req: req("d", "bzip", 0), wantHost: 0},
				{req: req("e", "astar", 0), wantHost: 1}, // host 0's 4 slots gone
			},
		},
		{
			name:   "first-fit respects memory",
			placer: FirstFit{},
			seq: []placement{
				{req: Request{Spec: vm.Spec{Name: "big", App: "gcc"}, MemoryMB: 400}, wantHost: 0},
				{req: Request{Spec: vm.Spec{Name: "big2", App: "gcc"}, MemoryMB: 400}, wantHost: 1},
				{req: Request{Spec: vm.Spec{Name: "big3", App: "gcc"}, MemoryMB: 400}, wantHost: -1,
					wantErr: "no host"},
			},
		},
		{
			name:   "spread separates the polluters",
			placer: Spread{},
			seq: []placement{
				{req: req("dis1", "lbm", 0), wantHost: 0},
				// blockie is the most aggressive app: it must avoid lbm's host.
				{req: req("dis2", "blockie", 0), wantHost: 1},
				// gcc (weight 8) joins the lighter host: host 0 carries lbm
				// (30), host 1 blockie (35).
				{req: req("sen1", "gcc", 0), wantHost: 0},
				// next sensitive VM joins host 1 (38 vs 35 after gcc).
				{req: req("sen2", "omnetpp", 0), wantHost: 1},
			},
		},
		{
			name:   "spread ties break toward the lowest host ID",
			placer: Spread{},
			seq: []placement{
				{req: req("a", "gcc", 0), wantHost: 0},
				{req: req("b", "gcc", 0), wantHost: 1},
				{req: req("c", "gcc", 0), wantHost: 0},
				{req: req("d", "gcc", 0), wantHost: 1},
			},
		},
		{
			name:   "kyoto admission books llc_cap and rejects oversubscription",
			placer: Admission{},
			seq: []placement{
				{req: req("a", "lbm", 600), wantHost: 0},
				// 600 booked on host 0 leaves 400 free: next 600 goes to host 1.
				{req: req("b", "blockie", 600), wantHost: 1},
				// 400 still fits host 0.
				{req: req("c", "mcf", 400), wantHost: 0},
				// permits exhausted on host 0, 400 free on host 1.
				{req: req("d", "milc", 400), wantHost: 1},
				// every host's permit budget is now fully subscribed.
				{req: req("e", "gcc", 100), wantHost: -1, wantErr: "oversubscribes"},
			},
		},
		{
			name:   "kyoto admission requires a permit",
			placer: Admission{},
			seq: []placement{
				{req: req("nopermit", "gcc", 0), wantHost: -1, wantErr: "books no llc_cap"},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newTestFleet(t, 2, tc.placer)
			for _, step := range tc.seq {
				p, err := f.Place(step.req)
				if step.wantHost == -1 {
					if err == nil {
						t.Fatalf("placing %q: want rejection, got host %d", step.req.Name, p.HostID)
					}
					if !errors.Is(err, ErrUnplaceable) {
						t.Fatalf("placing %q: error %v must wrap ErrUnplaceable", step.req.Name, err)
					}
					if !strings.Contains(err.Error(), step.wantErr) {
						t.Fatalf("placing %q: error %q missing %q", step.req.Name, err, step.wantErr)
					}
					continue
				}
				if err != nil {
					t.Fatalf("placing %q: %v", step.req.Name, err)
				}
				if p.HostID != step.wantHost {
					t.Fatalf("placing %q: host %d, want %d", step.req.Name, p.HostID, step.wantHost)
				}
			}
		})
	}
}

func TestPlacementBookkeeping(t *testing.T) {
	f := newTestFleet(t, 1, FirstFit{})
	h := f.Host(0)
	if h.CapacityCPUs != 4 || h.LLCBudget != 1000 {
		t.Fatalf("table-1 host capacity: %d vCPUs, llc %v", h.CapacityCPUs, h.LLCBudget)
	}
	if _, err := f.Place(Request{Spec: vm.Spec{Name: "v", App: "gcc", VCPUs: 2, LLCCap: 250}, MemoryMB: 100}); err != nil {
		t.Fatal(err)
	}
	if h.BookedCPUs != 2 || h.BookedMemMB != 100 || h.BookedLLC != 250 {
		t.Fatalf("booked %d/%d/%v", h.BookedCPUs, h.BookedMemMB, h.BookedLLC)
	}
	if h.FreeCPUs() != 2 || h.FreeMemMB() != h.CapacityMemMB-100 || h.FreeLLC() != 750 {
		t.Fatalf("free %d/%d/%v", h.FreeCPUs(), h.FreeMemMB(), h.FreeLLC())
	}
	if len(f.Placements()) != 1 || len(h.Placements()) != 1 {
		t.Fatal("placement not recorded")
	}
}

func TestPlaceRejectsBadSpec(t *testing.T) {
	f := newTestFleet(t, 1, FirstFit{})
	if _, err := f.Place(req("x", "no-such-app", 0)); err == nil {
		t.Fatal("unknown app must fail")
	}
}

func TestPlacerByName(t *testing.T) {
	for _, name := range PlacerNames() {
		p, err := PlacerByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.Name() != name {
			t.Fatalf("round trip: %q -> %q", name, p.Name())
		}
	}
	// One spelling per policy: the retired "firstfit" alias must fail.
	for _, name := range []string{"nope", "firstfit"} {
		if _, err := PlacerByName(name); err == nil {
			t.Fatalf("placer name %q must fail", name)
		}
	}
	if p, err := PlacerByName(""); err != nil || p.Name() != "first-fit" {
		t.Fatalf("empty name must default to first-fit, got %v, %v", p, err)
	}
}

func TestAggressivenessCoversFigure4(t *testing.T) {
	// Spread's weights must rank the heavy polluters above the quiet
	// cache-resident apps, matching the paper's o1 ordering.
	if !(AggressivenessOf("blockie") > AggressivenessOf("lbm")) {
		t.Fatal("blockie leads o1")
	}
	if !(AggressivenessOf("lbm") > AggressivenessOf("gcc")) {
		t.Fatal("polluters out-rank sensitive apps")
	}
	if !(AggressivenessOf("gcc") > AggressivenessOf("bzip")) {
		t.Fatal("bzip trails o1")
	}
	if AggressivenessOf("povray") != defaultAggressiveness {
		t.Fatal("unknown apps get the default weight")
	}
}

func TestDeterministicPlacementOrdering(t *testing.T) {
	// The same request sequence on two fresh fleets must produce the
	// identical placement, whatever the policy.
	seq := []Request{
		req("a", "lbm", 250), req("b", "gcc", 250), req("c", "blockie", 250),
		req("d", "omnetpp", 250), req("e", "mcf", 250), req("f", "bzip", 250),
	}
	for _, name := range PlacerNames() {
		p, err := PlacerByName(name)
		if err != nil {
			t.Fatal(err)
		}
		f1 := newTestFleet(t, 4, p)
		f2 := newTestFleet(t, 4, p)
		p1, err1 := f1.PlaceAll(seq)
		p2, err2 := f2.PlaceAll(seq)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("%s: divergent errors %v vs %v", name, err1, err2)
		}
		for i := range p1 {
			if p1[i].HostID != p2[i].HostID {
				t.Fatalf("%s: request %d placed on host %d then %d", name, i, p1[i].HostID, p2[i].HostID)
			}
		}
	}
}
