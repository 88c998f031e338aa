package experiments

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"elsc/internal/stats"
)

// The parallel-scaling sweep: the same workload matrix run at increasing
// worker-pool sizes, timed on the host clock. Simulated results must be
// bit-identical at every rung — parallelism in this harness distributes
// whole independent cells, never one simulation — so each rung is
// deep-compared against the serial reference before its timing is
// trusted. What varies is only the wall clock, and that is the
// measurement: how much of the matrix's cost the pool actually recovers
// on this host, and what one engine event costs end to end.

// ScalingLevel is one rung of the scaling sweep.
type ScalingLevel struct {
	// Parallel is the worker-pool size for this rung.
	Parallel int `json:"parallel"`
	// Seconds is the host wall-clock for the whole matrix at this rung.
	Seconds float64 `json:"seconds"`
	// Events is the total engine events dispatched across all cells
	// (identical at every rung, by determinism).
	Events uint64 `json:"events"`
	// Speedup is serial Seconds divided by this rung's Seconds.
	Speedup float64 `json:"speedup"`
	// NsPerEvent is wall nanoseconds per engine event at this rung.
	NsPerEvent float64 `json:"ns_per_event"`
}

// ScalingRungs returns the default worker counts the sweep measures: 1,
// 2, 4, and GOMAXPROCS, deduplicated and ascending (on a 4-core host
// that is 1, 2, 4; on a 1-core host just 1, 2, 4 with the upper rungs
// measuring scheduling overhead rather than speedup). Real-host runs
// pass custom widths via RunScalingSweep's rungs argument (`sweep
// -rungs`).
func ScalingRungs() []int {
	return NormalizeRungs([]int{1, 2, 4, runtime.GOMAXPROCS(0)})
}

// NormalizeRungs sorts, deduplicates, and prepends the serial rung the
// cross-rung determinism validation (and the speedup baseline) needs.
// Non-positive widths panic: the flag parser validates user input, so a
// bad width reaching here is a harness bug.
func NormalizeRungs(rungs []int) []int {
	out := append([]int{1}, rungs...)
	for _, r := range out {
		if r < 1 {
			panic(fmt.Sprintf("experiments: scaling rung %d out of range", r))
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	dedup := out[:1]
	for _, r := range out[1:] {
		if r != dedup[len(dedup)-1] {
			dedup = append(dedup, r)
		}
	}
	return dedup
}

// stripHostTime zeroes the one host-dependent field so rungs can be
// deep-compared.
func stripHostTime(runs []WorkloadRun) []WorkloadRun {
	out := append([]WorkloadRun(nil), runs...)
	for i := range out {
		out[i].WallNS = 0
	}
	return out
}

// RunScalingSweep runs the policies x specs x loads matrix once per
// rung, verifies each rung's simulated results are identical to the
// serial rung's (modulo wall-clock), and returns the measured levels
// plus the serial reference runs. A mismatch is returned as an error:
// it means cell-level parallelism perturbed a simulation, which the
// engine's determinism contract forbids. rungs gives the worker widths
// to measure (normalized via NormalizeRungs, so the serial baseline is
// always included); nil selects the ScalingRungs default.
func RunScalingSweep(policies []string, specs []MachineSpec, loads []string, sc Scale, rungs []int) ([]ScalingLevel, []WorkloadRun, error) {
	if rungs == nil {
		rungs = ScalingRungs()
	} else {
		rungs = NormalizeRungs(rungs)
	}
	var (
		levels    []ScalingLevel
		reference []WorkloadRun // serial runs, WallNS stripped
		serialRef []WorkloadRun // serial runs as measured
	)
	cells := MatrixCells(policies, specs, loads, sc)
	for _, rung := range rungs {
		rsc := sc
		rsc.Parallel = rung
		t0 := time.Now()
		runs := RunCells(cells, rsc)
		secs := time.Since(t0).Seconds()

		var events uint64
		for _, r := range runs {
			events += r.Stats.EventsFired
		}
		stripped := stripHostTime(runs)
		if reference == nil {
			reference = stripped
			serialRef = runs
		} else if !reflect.DeepEqual(stripped, reference) {
			return nil, nil, fmt.Errorf(
				"experiments: parallel=%d matrix diverged from serial reference (determinism violation)", rung)
		}
		lvl := ScalingLevel{Parallel: rung, Seconds: secs, Events: events}
		if secs > 0 {
			lvl.Speedup = levels0Seconds(levels, secs)
			lvl.NsPerEvent = secs * 1e9 / float64(events)
		}
		levels = append(levels, lvl)
	}
	return levels, serialRef, nil
}

// levels0Seconds computes the speedup of a rung that took secs against
// the first (serial) rung; the serial rung itself reports 1.0.
func levels0Seconds(levels []ScalingLevel, secs float64) float64 {
	if len(levels) == 0 {
		return 1.0
	}
	return levels[0].Seconds / secs
}

// ParallelSpeedup returns the speedup of the highest rung, or 0 when
// the sweep has not run.
func ParallelSpeedup(levels []ScalingLevel) float64 {
	if len(levels) == 0 {
		return 0
	}
	return levels[len(levels)-1].Speedup
}

// ScalingTable renders the measured rungs.
func ScalingTable(levels []ScalingLevel, spec string) *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Parallel scaling: workload matrix wall-clock (%s, GOMAXPROCS=%d)",
			spec, runtime.GOMAXPROCS(0)),
		"workers", "seconds", "speedup", "ns/event", "events")
	for _, l := range levels {
		t.AddRow(l.Parallel,
			fmt.Sprintf("%.2f", l.Seconds),
			fmt.Sprintf("%.2fx", l.Speedup),
			int(l.NsPerEvent),
			l.Events)
	}
	return t
}
