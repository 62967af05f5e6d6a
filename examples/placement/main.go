// Command placement contrasts the two solution families from the paper's
// related-work section on one concrete fleet, using the cluster API:
// contention-aware VM placement (spread the polluters; an NP-hard
// bin-packing the paper criticizes) versus Kyoto permits (co-locate
// freely; the scheduler enforces pollution budgets).
//
// Four VMs arrive at a two-host cluster. A contention-blind first-fit
// placer packs both polluters next to the sensitive VMs; the
// contention-aware spread placer separates them using Figure-4
// aggressiveness data (knowledge a real IaaS lacks); Kyoto admission
// takes the same naive first-fit placement and makes it safe with
// permits.
//
// Run it with:
//
//	go run ./examples/placement
package main

import (
	"fmt"
	"log"

	"kyoto"
)

// arrival fleet: interleaved so first-fit pairs each sensitive VM with a
// polluter — the worst case placement-blind packing produces.
var fleet = []struct {
	name string
	app  string
}{
	{"sen1", "gcc"},
	{"dis1", "lbm"},
	{"sen2", "omnetpp"},
	{"dis2", "blockie"},
}

func main() {
	log.SetFlags(0)

	solo := map[string]float64{}
	for _, f := range fleet {
		ipc, err := soloRun(f.app)
		if err != nil {
			log.Fatalf("placement: %v", err)
		}
		solo[f.name] = ipc
	}

	fmt.Println("Fleet: gcc + omnetpp (sensitive), lbm + blockie (polluters),")
	fmt.Println("arriving interleaved at two 2-core hosts; normalized performance")
	fmt.Println("of the sensitive VMs.")
	fmt.Println()
	fmt.Printf("%-36s %-10s %-10s %-10s %-8s\n", "strategy", "placement", "sen1 norm", "sen2 norm", "worst")

	type strategy struct {
		label  string
		placer kyoto.PlacerKind
		permit bool
	}
	for _, s := range []strategy{
		// First-fit packs in arrival order: each host gets one sensitive
		// VM and one polluter.
		{"first-fit (contention-blind)", kyoto.PlacerFirstFit, false},
		// Spread balances Figure-4 aggressiveness: the polluters land on
		// different hosts, but so do the sensitive VMs — with two
		// polluters and two hosts somebody always shares with one.
		// Spread's real weakness is needing every app's behaviour up
		// front; here it also simply runs out of quiet hosts.
		{"spread (contention-aware)", kyoto.PlacerSpread, false},
		// Kyoto: identical first-fit placement, but llc_cap permits are
		// booked at admission and enforced by each host's scheduler.
		{"first-fit + Kyoto permits", kyoto.PlacerKyoto, true},
	} {
		if err := report(s.label, s.placer, s.permit, solo); err != nil {
			log.Fatalf("placement: %v", err)
		}
	}

	fmt.Println()
	fmt.Println("Placement can only rescue a fleet while there are spare quiet")
	fmt.Println("hosts, and choosing optimally is NP-hard with knowledge nobody")
	fmt.Println("has. Permits make the naive placement itself safe.")
}

// report builds a cluster of two 2-core hosts behind the given placer,
// places the fleet, runs it, and prints the sensitive VMs' normalized
// performance.
func report(label string, placer kyoto.PlacerKind, permits bool, solo map[string]float64) error {
	mcfg := kyoto.TableOneMachine()
	mcfg.CoresPerSocket = 2 // the example's two 2-core hosts
	c, err := kyoto.NewCluster(kyoto.ClusterConfig{
		Hosts:  2,
		World:  kyoto.WorldConfig{Machine: mcfg, Seed: 11, EnableKyoto: permits},
		Placer: placer,
	})
	if err != nil {
		return err
	}
	placedOn := map[string]int{}
	perHostCore := map[int]int{}
	for _, f := range fleet {
		// Every VM books the paper's permit; it is enforced only on the
		// Kyoto arm and bin-packed only by the admission placer.
		spec := kyoto.VMSpec{Name: f.name, App: f.app, LLCCap: 250}
		p, err := c.Place(kyoto.ClusterVMSpec{VMSpec: spec})
		if err != nil {
			return err
		}
		placedOn[f.name] = p.HostID
		// Pin within the host in placement order.
		p.VM.VCPUs[0].Pin = perHostCore[p.HostID]
		perHostCore[p.HostID]++
	}
	c.RunTicks(45)

	norm := map[string]float64{}
	for _, f := range fleet {
		v, _ := c.FindVM(f.name)
		norm[f.name] = v.Counters().IPC() / solo[f.name]
	}
	worst := 1.0
	for _, name := range []string{"sen1", "sen2"} {
		if norm[name] < worst {
			worst = norm[name]
		}
	}
	layout := fmt.Sprintf("%d%d|%d%d",
		placedOn["sen1"], placedOn["dis1"], placedOn["sen2"], placedOn["dis2"])
	fmt.Printf("%-36s %-10s %-10.2f %-10.2f %-8.2f\n", label, layout, norm["sen1"], norm["sen2"], worst)
	return nil
}

// soloRun measures one app alone on a host.
func soloRun(app string) (float64, error) {
	w, err := kyoto.NewWorld(kyoto.WorldConfig{Seed: 11})
	if err != nil {
		return 0, err
	}
	v, err := w.AddVM(kyoto.VMSpec{Name: "solo", App: app, Pins: []int{0}})
	if err != nil {
		return 0, err
	}
	w.RunTicks(45)
	return v.Counters().IPC(), nil
}
