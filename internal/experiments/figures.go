package experiments

import (
	"fmt"

	"elsc/internal/kernel"
	"elsc/internal/stats"
	"elsc/internal/workload"
	"elsc/internal/workload/kbuild"
	"elsc/internal/workload/latency"
	"elsc/internal/workload/volano"
	"elsc/internal/workload/webserver"
)

// builds returns a Cell.Build that runs a workload adapter on cfg.
func builds[C any](adapter func(*kernel.Machine, C) workload.Instance, cfg C) func(*kernel.Machine) workload.Instance {
	return func(m *kernel.Machine) workload.Instance { return adapter(m, cfg) }
}

// policyCells lists one cell per policy on spec, every one building the
// same workload.
func policyCells(spec MachineSpec, policies []string, load string, build func(*kernel.Machine) workload.Instance) []Cell {
	cells := make([]Cell, len(policies))
	for i, p := range policies {
		cells[i] = Cell{Spec: spec, Policy: p, Load: load, Build: build}
	}
	return cells
}

// volanoLoad labels a VolanoMark figure cell with its room count
// ("volano@10"), so figure lookups are FindWorkload lookups.
func volanoLoad(rooms int) string { return fmt.Sprintf("%s@%d", workload.Volano, rooms) }

// VolanoCells lists the paper's VolanoMark sweep, policies x specs x
// rooms, at the scale's messages per user — the runs figures 2-6 and the
// profile table read.
func VolanoCells(policies []string, specs []MachineSpec, rooms []int, sc Scale) []Cell {
	var cells []Cell
	for _, p := range policies {
		for _, spec := range specs {
			for _, r := range rooms {
				cells = append(cells, Cell{Spec: spec, Policy: p, Load: volanoLoad(r),
					Build: builds(workload.NewVolano, volano.Config{Rooms: r, MessagesPerUser: sc.Messages})})
			}
		}
	}
	return cells
}

// Table2 reproduces the paper's Table 2: average time to complete a full
// kernel compile under both schedulers, on UP and 2P machines. cfg sizes
// the build: cmd/sweep passes the registry's kbuild shape for the scale,
// cmd/kcompile its own tree size and -j.
func Table2(sc Scale, cfg kbuild.Config) *stats.Table {
	t := stats.NewTable("Table 2: time to complete kernel compilation (make -j4)",
		"Scheduler", "Time", "Seconds")
	var cells []Cell
	for _, label := range []string{"UP", "2P"} {
		cells = append(cells, policyCells(SpecByLabel(label), []string{Reg, ELSC}, workload.KBuild, builds(workload.NewKBuild, cfg))...)
	}
	for _, r := range RunCells(cells, sc) {
		name := map[string]string{Reg: "Current", ELSC: "ELSC"}[r.Policy]
		t.AddRow(fmt.Sprintf("%s - %s", name, r.Spec.Label),
			stats.FormatDuration(r.Result.Cycles, kernel.DefaultHz), r.Result.Seconds)
	}
	return t
}

// Fig2 reproduces Figure 2: counter-recalculation loop entries per
// VolanoMark run (log-scale contrast), per machine configuration.
func Fig2(runs []WorkloadRun, rooms int) *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Figure 2: recalculate-loop entries (VolanoMark, %d rooms)", rooms),
		"Config", "elsc", "reg", "reg/elsc")
	for _, spec := range PaperSpecs {
		e := FindWorkload(runs, ELSC, spec.Label, volanoLoad(rooms)).Stats.Recalcs
		r := FindWorkload(runs, Reg, spec.Label, volanoLoad(rooms)).Stats.Recalcs
		ratio := "inf"
		if e > 0 {
			ratio = fmt.Sprintf("%.1f", float64(r)/float64(e))
		}
		t.AddRow(spec.Label, e, r, ratio)
	}
	return t
}

// Fig3 reproduces Figure 3: message throughput versus room count. The
// paper splits it into a UP/1P panel and a 4P panel; this renders all four
// configurations as series.
func Fig3(runs []WorkloadRun, rooms []int) *stats.Table {
	t := stats.NewTable("Figure 3: VolanoMark throughput (messages/second)",
		"Rooms", "elsc-up", "reg-up", "elsc-1p", "reg-1p", "elsc-2p", "reg-2p", "elsc-4p", "reg-4p")
	for _, r := range rooms {
		row := []any{r}
		for _, label := range []string{"UP", "1P", "2P", "4P"} {
			for _, policy := range []string{ELSC, Reg} {
				row = append(row, int(FindWorkload(runs, policy, label, volanoLoad(r)).Result.Throughput))
			}
		}
		t.AddRow(row...)
	}
	return t
}

// Fig4 reproduces Figure 4: the scaling factor, throughput at the largest
// room count divided by throughput at the smallest.
func Fig4(runs []WorkloadRun, loRooms, hiRooms int) *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Figure 4: scaling factor (%d-room / %d-room throughput)", hiRooms, loRooms),
		"Config", "elsc", "reg")
	for _, spec := range PaperSpecs {
		row := []any{spec.Label}
		for _, policy := range []string{ELSC, Reg} {
			row = append(row, FindWorkload(runs, policy, spec.Label, volanoLoad(hiRooms)).Result.Throughput/
				FindWorkload(runs, policy, spec.Label, volanoLoad(loRooms)).Result.Throughput)
		}
		t.AddRow(row...)
	}
	return t
}

// Fig5 reproduces Figure 5: cycles per schedule() entry and tasks examined
// per entry.
func Fig5(runs []WorkloadRun, rooms int) *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Figure 5: schedule() cost (VolanoMark, %d rooms)", rooms),
		"Config", "elsc cyc/call", "reg cyc/call", "elsc examined", "reg examined")
	for _, spec := range PaperSpecs {
		e := FindWorkload(runs, ELSC, spec.Label, volanoLoad(rooms)).Stats
		r := FindWorkload(runs, Reg, spec.Label, volanoLoad(rooms)).Stats
		t.AddRow(spec.Label,
			int(e.CyclesPerSchedule()), int(r.CyclesPerSchedule()),
			e.ExaminedPerSchedule(), r.ExaminedPerSchedule())
	}
	return t
}

// Fig6 reproduces Figure 6: total calls to schedule() (thousands) and
// tasks scheduled on a processor other than their last, both for the
// 10-room runs the paper uses.
func Fig6(runs []WorkloadRun, rooms int) *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Figure 6: schedule() calls and migrations (VolanoMark, %d rooms)", rooms),
		"Config", "elsc calls(k)", "reg calls(k)", "elsc new-cpu", "reg new-cpu")
	for _, spec := range PaperSpecs {
		e := FindWorkload(runs, ELSC, spec.Label, volanoLoad(rooms)).Stats
		r := FindWorkload(runs, Reg, spec.Label, volanoLoad(rooms)).Stats
		t.AddRow(spec.Label,
			int(e.SchedCalls/1000), int(r.SchedCalls/1000),
			e.Migrations, r.Migrations)
	}
	return t
}

// Profile reproduces the §4 claim that 37-55% of kernel time goes to the
// scheduler under the stock scheduler, and contrasts ELSC.
func Profile(runs []WorkloadRun, rooms []int) *stats.Table {
	t := stats.NewTable("§4 profile: scheduler share of kernel time (UP)",
		"Rooms", "reg %", "elsc %")
	for _, r := range rooms {
		regStats := FindWorkload(runs, Reg, "UP", volanoLoad(r)).Stats
		elscStats := FindWorkload(runs, ELSC, "UP", volanoLoad(r)).Stats
		t.AddRow(r,
			100*regStats.SchedulerShareOfKernel(),
			100*elscStats.SchedulerShareOfKernel())
	}
	return t
}

// AltSchedulers compares the future-work designs (§8) against ELSC and the
// stock scheduler on one VolanoMark configuration.
func AltSchedulers(spec MachineSpec, rooms int, sc Scale) *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("§8 alternatives: VolanoMark %d rooms on %s", rooms, spec.Label),
		"Scheduler", "Throughput", "cyc/sched", "examined", "recalcs", "migrations")
	for _, r := range RunCells(VolanoCells(Policies, []MachineSpec{spec}, []int{rooms}, sc), sc) {
		t.AddRow(r.Policy,
			int(r.Result.Throughput),
			int(r.Stats.CyclesPerSchedule()),
			r.Stats.ExaminedPerSchedule(),
			r.Stats.Recalcs,
			r.Stats.Migrations)
	}
	return t
}

// spinPerSchedule is run-queue lock spin cycles per schedule() call.
func spinPerSchedule(s kernel.Stats) float64 {
	if s.SchedCalls == 0 {
		return 0
	}
	return float64(s.SpinCycles) / float64(s.SchedCalls)
}

// LockContention races every scheduler on one VolanoMark configuration
// and reports run-queue lock behavior: spin cycles per schedule() call,
// the fraction of acquisitions that hit a held lock, and throughput. On
// the 8P spec this isolates the benefit of splitting the global lock —
// the per-CPU policies (mq, o1) should show an order less lock wait than
// the global-lock ones.
func LockContention(spec MachineSpec, rooms int, sc Scale) *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Run-queue lock wait: VolanoMark %d rooms on %s", rooms, spec.Label),
		"Scheduler", "Throughput", "spin cyc/sched", "contended %", "acquisitions")
	for _, r := range RunCells(VolanoCells(Policies, []MachineSpec{spec}, []int{rooms}, sc), sc) {
		contended := 0.0
		if r.Stats.LockAcquisitions > 0 {
			contended = 100 * float64(r.Stats.LockContended) / float64(r.Stats.LockAcquisitions)
		}
		t.AddRow(r.Policy,
			int(r.Result.Throughput),
			int(spinPerSchedule(r.Stats)),
			contended,
			r.Stats.LockAcquisitions)
	}
	return t
}

// WakeLatency measures wake-to-dispatch latency versus background load —
// an extension along the related-work axis (§2): the stock scheduler's
// O(n) scan sits on the wake path, so its latency grows with the run
// queue. The probes run at the latency package's default (maximum)
// priority, which isolates the raw wake path.
func WakeLatency(spec MachineSpec, hogCounts []int, sc Scale) *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Extension: wake-to-dispatch latency on %s (us)", spec.Label),
		"Hogs", "reg mean", "reg p99", "reg max", "elsc mean", "elsc p99", "elsc max")
	var cells []Cell
	for _, hogs := range hogCounts {
		cells = append(cells, policyCells(spec, []string{Reg, ELSC}, workload.Latency,
			builds(workload.NewLatency, latency.Config{Hogs: hogs}))...)
	}
	runs := RunCells(cells, sc)
	for i, hogs := range hogCounts {
		row := []any{hogs}
		for _, r := range runs[2*i : 2*i+2] {
			for _, name := range []string{"mean_us", "p99_us", "max_us"} {
				v, _ := r.Result.Extra(name)
				row = append(row, v)
			}
		}
		t.AddRow(row...)
	}
	return t
}

// Webserver runs the §8 Apache question: throughput and latency under
// both schedulers at a given machine spec. cfg shapes the offered load:
// cmd/sweep passes the registry's webserver shape for the scale,
// cmd/websim its own flags.
func Webserver(spec MachineSpec, cfg webserver.Config, sc Scale) *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("§8 future work: Apache-style webserver on %s", spec.Label),
		"Scheduler", "req/s", "mean lat (ms)", "max lat (ms)", "cyc/sched")
	for _, r := range RunCells(policyCells(spec, []string{Reg, ELSC}, workload.WebServer, builds(workload.NewWebServer, cfg)), sc) {
		meanLat, _ := r.Result.Extra("mean_lat_ms")
		maxLat, _ := r.Result.Extra("max_lat_ms")
		t.AddRow(r.Policy,
			int(r.Result.Throughput),
			meanLat,
			maxLat,
			int(r.Stats.CyclesPerSchedule()))
	}
	return t
}
