package kernel_test

import (
	"fmt"
	"testing"

	"elsc/internal/experiments"
	"elsc/internal/kernel"
	"elsc/internal/task"
	"elsc/internal/workload"
)

// The lost-kick backstop's one-pass predicate must agree with the
// per-CPU process scans it replaced (kernel.CheckBacklogPredicate) in
// every state a machine passes through, not only in the states that
// decide a kick. These tests drive whole machines one engine event at a
// time and compare after each.

var backstopSpecs = []string{"8P", "32P-NUMA"}

// maxCheckedEvents bounds a checked run; every run here finishes well
// inside it.
const maxCheckedEvents = 200_000

// stepChecked kicks every CPU's first schedule(), as Machine.Run does,
// then steps the engine until done reports true or the events run out,
// checking the predicate before the first event and after every one.
// between, when non-nil, runs after each event's check with the event
// count, for injections. The run must finish, and at least one checked
// state must have held deliverable work, or the comparison proved
// nothing.
func stepChecked(t *testing.T, m *kernel.Machine, done func() bool, between func(n int)) {
	t.Helper()
	m.Run(func() bool { return true })
	sawWork := false
	check := func(n int) {
		t.Helper()
		hits, err := kernel.CheckBacklogPredicate(m)
		if err != nil {
			t.Fatalf("after event %d (t=%d): %v", n, m.Now(), err)
		}
		sawWork = sawWork || hits != 0
	}
	check(0)
	for n := 1; n <= maxCheckedEvents && !done() && m.Engine().Step(); n++ {
		check(n)
		if between != nil {
			between(n)
		}
	}
	if !done() {
		t.Fatalf("run did not finish within %d events", maxCheckedEvents)
	}
	if !sawWork {
		t.Fatal("no checked state held deliverable work")
	}
}

// TestBacklogPredicateMatchesReferenceOnRegistry runs every registered
// workload's quick shape to completion under every policy on the flat 8P
// and the 32P-NUMA machine, checking after each event.
func TestBacklogPredicateMatchesReferenceOnRegistry(t *testing.T) {
	sc := experiments.QuickScale()
	for _, label := range backstopSpecs {
		spec := experiments.SpecByLabel(label)
		for _, policy := range experiments.Policies {
			for _, load := range workload.Names() {
				t.Run(fmt.Sprintf("%s/%s/%s", label, policy, load), func(t *testing.T) {
					m := experiments.NewMachine(spec, policy, sc)
					inst := workload.Build(load, m, experiments.WorkloadParams(spec, sc))
					stepChecked(t, m, inst.Done, nil)
				})
			}
		}
	}
}

// TestBacklogPredicateMatchesReferenceOnMixedScenario covers what the
// registry workloads rarely reach: tasks pinned to one CPU, FIFO tasks
// queued with an empty counter (FIFO selection ignores it), RR tasks,
// counters exhausted by hogs under the epoch policies, priority and
// affinity changes, a mask naming no present CPU (set behind the
// kernel's back, so a per-CPU policy files the task on a queue it may not
// run on, like the leftovers of an affinity change), and a CPU going
// offline and coming back while its queue holds work.
func TestBacklogPredicateMatchesReferenceOnMixedScenario(t *testing.T) {
	for _, label := range backstopSpecs {
		spec := experiments.SpecByLabel(label)
		for _, policy := range experiments.Policies {
			t.Run(fmt.Sprintf("%s/%s", label, policy), func(t *testing.T) {
				m := experiments.NewMachine(spec, policy, experiments.QuickScale())
				var hogs, pinned []*kernel.Proc
				for i := 0; i < spec.CPUs+8; i++ {
					hogs = append(hogs, m.Spawn(fmt.Sprintf("hog%d", i), nil, hog(40, 2*kernel.DefaultTickCycles)))
				}
				for i := 0; i < 6; i++ {
					p := m.Spawn(fmt.Sprintf("pinned%d", i), nil, sleeper(30))
					m.SetAffinity(p, 1<<uint(i%3))
					pinned = append(pinned, p)
				}
				for i := 0; i < 3; i++ {
					p := m.SpawnRT(fmt.Sprintf("fifo%d", i), task.FIFO, 10, sleeper(30))
					p.Task.SetCounter(m.Env().Epoch, 0)
				}
				m.SpawnRT("rr", task.RR, 5, hog(20, kernel.DefaultTickCycles))
				victim := spec.CPUs - 1
				stepChecked(t, m, func() bool { return m.Alive() == 0 }, func(n int) {
					switch n {
					case 500:
						m.SetPriority(hogs[0], 1)
						m.SetPriority(hogs[1], 40)
					case 800:
						m.SetAffinity(hogs[2], 1<<uint(victim))
					case 1_000:
						if err := m.OfflineCPU(victim); err != nil {
							t.Fatal(err)
						}
					case 1_500:
						pinned[3].Task.CPUsAllowed = 1 << 63
					case 2_500:
						m.SetAffinity(pinned[3], 0)
					case 3_000:
						if err := m.OnlineCPU(victim); err != nil {
							t.Fatal(err)
						}
					}
				})
			})
		}
	}
}

// hog computes steps chunks of c cycles, then exits.
func hog(steps int, c uint64) kernel.Program {
	n := 0
	return kernel.ProgramFunc(func(*kernel.Proc) kernel.Action {
		n++
		if n > steps {
			return kernel.Exit{}
		}
		return kernel.Compute{Cycles: c}
	})
}

// sleeper alternates short computes with sleeps, steps times, so its
// wake-ups keep racing CPUs into and out of idle.
func sleeper(steps int) kernel.Program {
	n := 0
	return kernel.ProgramFunc(func(*kernel.Proc) kernel.Action {
		n++
		switch {
		case n > 2*steps:
			return kernel.Exit{}
		case n%2 == 0:
			return kernel.Sleep{Cycles: 300_000}
		default:
			return kernel.Compute{Cycles: 100_000}
		}
	})
}
