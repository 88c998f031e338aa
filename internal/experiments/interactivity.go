package experiments

import (
	"fmt"

	"elsc/internal/sched"
	"elsc/internal/sched/o1"
	"elsc/internal/stats"
	"elsc/internal/workload"
)

// The interactivity experiments: measure what the o1 scheduler's
// sleep_avg machinery (dynamic-priority bonus, active-array requeue,
// tick preemption, TIMESLICE_GRANULARITY chunking) and SD_WAKE_IDLE
// placement buy on the latency-sensitive workloads — the matrix column
// PR 3 exposed as o1's fidelity gap, where quantum-expired probes parked
// behind a full hog quantum in the expired array.

// O1InteractivityCell is the interactivity ablation's cell: one registry
// workload under o1 with the full interactivity machinery, or (off) with
// both halves disabled — the pre-interactivity scheduler, kept as the
// baseline.
func O1InteractivityCell(spec MachineSpec, load string, off bool, sc Scale) Cell {
	cfg := o1.Config{InteractivityOff: off, WakeIdleOff: off}
	c := RegistryCell(spec, O1, load, sc)
	c.Factory = func(env *sched.Env) sched.Scheduler { return o1.NewWithConfig(env, cfg) }
	return c
}

// AblateInteractivity isolates the interactivity machinery on one spec:
// the same o1 scheduler with and without it, racing the two
// latency-sensitive registry workloads. The latency columns are the
// headline — with the machinery off, a probe at the hogs' static
// priority waits out hog quanta; with it on, the sleep_avg bonus
// preempts within microseconds — and the estimator columns show the
// mechanism at work (bonus spread, active-array requeues, wake-idle
// placements).
func AblateInteractivity(spec MachineSpec, sc Scale) *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Ablation: o1 interactivity (%s)", spec.Label),
		"o1 variant", "lat p99 us", "lat max us", "storm p99 us",
		"+bonus enq", "-bonus enq", "requeues", "wake-idle", "tick-preempt", "rotations")
	type arm struct {
		label string
		off   bool
	}
	arms := []arm{{"interactive", false}, {"interactivity-off", true}}
	var cells []Cell
	for _, a := range arms {
		cells = append(cells,
			O1InteractivityCell(spec, workload.Latency, a.off, sc),
			O1InteractivityCell(spec, workload.WakeStorm, a.off, sc))
	}
	runs := RunCells(cells, sc)
	for i, a := range arms {
		lat, storm := runs[2*i], runs[2*i+1]
		latP99, _ := lat.Result.Extra("p99_us")
		latMax, _ := lat.Result.Extra("max_us")
		stormP99, _ := storm.Result.Extra("p99_us")
		var plus, minus uint64
		for b, n := range lat.BonusLevels {
			if b > o1.BonusSpan/2 {
				plus += n
			} else if b < o1.BonusSpan/2 {
				minus += n
			}
		}
		t.AddRow(a.label,
			int(latP99), int(latMax), int(stormP99),
			plus, minus, lat.InteractiveRequeues,
			lat.Stats.WakeIdlePlacements+storm.Stats.WakeIdlePlacements,
			lat.Stats.TickPreemptions+storm.Stats.TickPreemptions,
			lat.Stats.TimesliceRotations+storm.Stats.TimesliceRotations)
	}
	return t
}
