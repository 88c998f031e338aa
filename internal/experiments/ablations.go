package experiments

import (
	"fmt"

	"elsc/internal/sched"
	"elsc/internal/sched/elsc"
	"elsc/internal/stats"
	"elsc/internal/workload"
	"elsc/internal/workload/volano"
)

// Ablations quantify the ELSC design choices the paper discusses but does
// not measure separately:
//
//   - the per-list search limit ("half the number of processors plus
//     five"),
//   - the table size (30 lists),
//   - the uniprocessor memory-map shortcut (§5.2).

// runELSCVariants runs VolanoMark once per ELSC config on spec, in
// parallel, and returns the runs in cfgs order.
func runELSCVariants(spec MachineSpec, cfgs []elsc.Config, rooms int, sc Scale) []WorkloadRun {
	cells := make([]Cell, len(cfgs))
	for i, cfg := range cfgs {
		cfg := cfg
		cells[i] = Cell{Spec: spec, Policy: ELSC, Load: volanoLoad(rooms),
			Factory: func(env *sched.Env) sched.Scheduler { return elsc.NewWithConfig(env, cfg) },
			Build:   builds(workload.NewVolano, volano.Config{Rooms: rooms, MessagesPerUser: sc.Messages})}
	}
	return RunCells(cells, sc)
}

// AblateSearchLimit sweeps the per-list examination cap.
func AblateSearchLimit(spec MachineSpec, rooms int, limits []int, sc Scale) *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Ablation: ELSC search limit (%s, %d rooms; paper uses ncpu/2+5 = %d)",
			spec.Label, rooms, spec.CPUs/2+5),
		"Limit", "Throughput", "cyc/sched", "examined", "migrations")
	cfgs := make([]elsc.Config, len(limits))
	for i, lim := range limits {
		cfgs[i] = elsc.Config{SearchLimit: lim}
	}
	for i, r := range runELSCVariants(spec, cfgs, rooms, sc) {
		t.AddRow(limits[i], int(r.Result.Throughput), int(r.Stats.CyclesPerSchedule()),
			r.Stats.ExaminedPerSchedule(), r.Stats.Migrations)
	}
	return t
}

// AblateTableSize sweeps the number of lists in the table.
func AblateTableSize(spec MachineSpec, rooms int, sizes []int, sc Scale) *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Ablation: ELSC table size (%s, %d rooms; paper uses 30)", spec.Label, rooms),
		"Lists", "Throughput", "cyc/sched", "examined")
	cfgs := make([]elsc.Config, len(sizes))
	for i, size := range sizes {
		cfgs[i] = elsc.Config{TableSize: size}
	}
	for i, r := range runELSCVariants(spec, cfgs, rooms, sc) {
		t.AddRow(sizes[i], int(r.Result.Throughput), int(r.Stats.CyclesPerSchedule()),
			r.Stats.ExaminedPerSchedule())
	}
	return t
}

// AblateUPShortcut measures the uniprocessor mm-match early exit.
func AblateUPShortcut(rooms int, sc Scale) *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Ablation: ELSC UP shortcut (UP, %d rooms)", rooms),
		"Shortcut", "Throughput", "cyc/sched", "examined")
	runs := runELSCVariants(SpecByLabel("UP"), []elsc.Config{{}, {DisableUPShortcut: true}}, rooms, sc)
	for i, label := range []string{"on (paper)", "off"} {
		r := runs[i]
		t.AddRow(label, int(r.Result.Throughput), int(r.Stats.CyclesPerSchedule()),
			r.Stats.ExaminedPerSchedule())
	}
	return t
}
