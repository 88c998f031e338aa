package main

import (
	"math"
	"strings"
	"testing"
)

// cannedTraces is `go tool pprof -traces` output in the shape the fold
// reads: a header, then one block per distinct stack, leaf first, the
// sampled time on the leaf's line.
const cannedTraces = `File: perfbench
Type: cpu
Time: 2026-01-02 03:04:05 UTC
Duration: 3.02s, Total samples = 2.93s (97.02%)
-----------+-------------------------------------------------------
     1.40s   runtime.duffcopy
             elsc/internal/sched.(*CostModel).Evaluate
             elsc/internal/sched/vanilla.(*Sched).Schedule
             elsc/internal/kernel.(*Machine).schedule
             elsc/internal/sim.(*Engine).Run
             main.runJob
             main.main
             runtime.main
-----------+-------------------------------------------------------
     100ms   elsc/internal/sched.CostModel.Evaluate (inline)
             elsc/internal/sched/vanilla.(*Sched).Schedule.func1 (inline)
             elsc/internal/klist.(*Head).ForEach (inline)
             elsc/internal/sched/vanilla.(*Sched).Schedule
             elsc/internal/kernel.(*Machine).schedule
             elsc/internal/sim.(*Engine).Run
             main.runJob
             main.main
             runtime.main
-----------+-------------------------------------------------------
     600ms   elsc/internal/kernel.(*Machine).kickIdleBacklog
             elsc/internal/kernel.(*Machine).dispatch
             elsc/internal/sim.(*Engine).Run
-----------+-------------------------------------------------------
     250ms   runtime.memclrNoHeapPointers
             runtime.mallocgc
             runtime.gcAssistAlloc
             elsc/internal/kernel.(*Machine).Spawn
-----------+-------------------------------------------------------
     200ms   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker.func2
             runtime.systemstack
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
     120ms   elsc/internal/sim.(*Engine).pop
             elsc/internal/sim.(*Engine).Run
-----------+-------------------------------------------------------
  sweep_worker:  0
      80ms   elsc/internal/klist.(*List).PushFront
             elsc/internal/sched/o1.(*Sched).AddToRunqueue
-----------+-------------------------------------------------------
      70ms   runtime.nanotime
             time.Since
             main.timed.Schedule
             elsc/internal/kernel.(*Machine).schedule
-----------+-------------------------------------------------------
      50ms   elsc/internal/workload/volano.(*Benchmark).Run.func1
             elsc/internal/prog.(*Program).Step
-----------+-------------------------------------------------------
      30ms   elsc/internal/ipc.(*YieldMutex).Lock
-----------+-------------------------------------------------------
      20ms   elsc/internal/stats.(*Dist).Observe
             elsc/internal/kernel.(*Machine).schedule
-----------+-------------------------------------------------------
      10ms   runtime.futex
             runtime.findRunnable
             runtime.schedule
             runtime.mcall
-----------+-------------------------------------------------------
`

func TestFoldTraces(t *testing.T) {
	got, err := foldTraces(cannedTraces)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"sched":    1.50, // duffcopy charged to CostModel.Evaluate; inlined frames count
		"kernel":   0.85, // kickIdleBacklog, plus a GC assist under Spawn
		"gc":       0.20, // only the background mark worker
		"sim":      0.12,
		"task":     0.08, // klist counts with task
		"bench":    0.07, // the timing wrapper's clock reads
		"workload": 0.05,
		"ipc":      0.03,
		"other":    0.02, // a program package outside the named layers
		"runtime":  0.01,
	}
	for layer, w := range want {
		if math.Abs(got[layer]-w) > 1e-9 {
			t.Errorf("%s = %v, want %v", layer, got[layer], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("layers %v, want exactly %v", got, want)
	}
}

func TestFoldTracesRejectsEmpty(t *testing.T) {
	if _, err := foldTraces("File: x\nType: cpu\n"); err == nil {
		t.Fatal("no error for output without samples")
	}
}

// TestFoldTracesChecksTotal: samples the fold cannot read must fail the
// fold, not vanish from it.
func TestFoldTracesChecksTotal(t *testing.T) {
	short := strings.Replace(cannedTraces, "Total samples = 2.93s", "Total samples = 3.93s", 1)
	if _, err := foldTraces(short); err == nil {
		t.Fatal("no error when the fold reads less than the profile's total")
	}
}

func TestParseSeconds(t *testing.T) {
	for in, want := range map[string]float64{"10ms": 0.01, "1.50s": 1.5, "2mins": 120, "250us": 0.00025, "3ns": 3e-9} {
		got, err := parseSeconds(in)
		if err != nil || math.Abs(got-want) > 1e-12 {
			t.Errorf("parseSeconds(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := parseSeconds("12"); err == nil {
		t.Error("no error for a value without a unit")
	}
}
