package experiments

import (
	"kyoto/internal/machine"
	"kyoto/internal/workload"
)

// Table1 renders the experimental machine description (the paper's
// Table 1), annotated with the simulator's scaling.
func Table1() Table {
	cfg := machine.TableOne()
	t := Table{
		Title: "Table 1: Experimental machine",
		Note: "scaled replica: capacities 1:16, clock 1:28 of the paper's Dell / Xeon E5-1603 v3\n" +
			"(paper: 8096 MB RAM; L1 D/I 32 KB 8-way; L2 256 KB 8-way; LLC 10 MB 20-way; 1 socket x 4 cores @ 2.8 GHz)",
		Columns: []string{"component", "simulated value"},
	}
	t.AddRow("Main memory", intKB(cfg.MainMemoryMB*1024)+" (MB-scale)")
	t.AddRow("L1 cache", intKB(cfg.L1.SizeBytes)+", "+ways(cfg.L1.Ways))
	t.AddRow("L2 cache", intKB(cfg.L2.SizeBytes)+", "+ways(cfg.L2.Ways))
	t.AddRow("LLC", intKB(cfg.LLC.SizeBytes)+", "+ways(cfg.LLC.Ways))
	t.AddRow("Processor", "1 socket, 4 cores/socket @ 100 MHz (model)")
	t.AddRow("Latencies", "L1 4cy, L2 12cy, LLC 45cy, memory 180cy (+120 remote)")
	return t
}

// Table2 renders the VM-to-application mapping (the paper's Table 2).
func Table2() Table {
	t := Table{
		Title:   "Table 2: Experimental VMs",
		Columns: []string{"VM name", "application", "class", "role"},
	}
	rows := []struct{ vm, app, role string }{
		{"vsen1", workload.VSen1, "sensitive"},
		{"vsen2", workload.VSen2, "sensitive"},
		{"vsen3", workload.VSen3, "sensitive"},
		{"vdis1", workload.VDis1, "disruptive"},
		{"vdis2", workload.VDis2, "disruptive"},
		{"vdis3", workload.VDis3, "disruptive"},
	}
	for _, r := range rows {
		p := workload.MustLookup(r.app)
		t.AddRow(r.vm, r.app, p.Class.String(), r.role)
	}
	return t
}

// Table1Sweep is Table 1 as a one-job sweep whose payload is the table.
func Table1Sweep(uint64) Experiment { return tableSweep("table1", Table1) }

// Table2Sweep is Table 2 as a one-job sweep whose payload is the table.
func Table2Sweep(uint64) Experiment { return tableSweep("table2", Table2) }

// tableSweep is a static table as a one-job sweep, so the tables shard
// and merge like every other experiment.
func tableSweep(name string, render func() Table) *figSweep[Table, Table] {
	return &figSweep[Table, Table]{
		name: name,
		arms: []figArm[Table]{{name, func() (Table, error) { return render(), nil }}},
		fold: func(ts []Table) (Table, []Table, error) { return ts[0], ts, nil },
	}
}

// intKB formats a byte count in KB.
func intKB(bytes int) string {
	return formatFloat(float64(bytes)/1024) + " KB"
}

// ways formats associativity.
func ways(n int) string { return formatFloat(float64(n)) + "-way" }
