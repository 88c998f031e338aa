package kernel_test

import (
	"fmt"
	"testing"

	"elsc/internal/experiments"
	"elsc/internal/kernel"
	"elsc/internal/task"
	"elsc/internal/workload"
)

// A counter read applies pending recalculations lazily, and
// TickDecrement absorbs them without the refill. So a SCHED_OTHER task
// dispatched with a stale counter would keep that stale quantum, and the
// simulated result would depend on who happened to read the counter
// first. Every policy must therefore sync the task it dispatches.

// counterStale reports whether t's counter lags the recalculation epoch.
// It works on a copy, so the check cannot change the run: the copy's
// counter is zeroed without touching its epoch stamp, and a pending
// recalculation would then refill it to at least the task's priority.
func counterStale(t *task.Task, ep *task.Epoch) bool {
	c := *t
	c.SetCounter(nil, 0)
	return c.Counter(ep) != 0
}

func TestCounterStaleDetectsPendingRecalc(t *testing.T) {
	ep := new(task.Epoch)
	tk := task.New(1, "t", nil, ep)
	if counterStale(tk, ep) {
		t.Fatal("a task stamped at the current epoch reads as stale")
	}
	ep.Bump()
	if !counterStale(tk, ep) {
		t.Fatal("a task one recalculation behind reads as synced")
	}
	tk.SyncCounter(ep)
	if counterStale(tk, ep) {
		t.Fatal("a synced task reads as stale")
	}
}

// TestDispatchedCounterSynced runs every registry workload's quick shape
// under every policy on 2P, 8P and 32P-NUMA and checks, from the
// schedule() trace hook, that each SCHED_OTHER task schedule() returns
// is already synced to the current epoch.
func TestDispatchedCounterSynced(t *testing.T) {
	sc := experiments.QuickScale()
	recalcs := map[string]uint64{}
	for _, label := range []string{"2P", "8P", "32P-NUMA"} {
		spec := experiments.SpecByLabel(label)
		for _, policy := range experiments.Policies {
			for _, load := range workload.Names() {
				t.Run(fmt.Sprintf("%s/%s/%s", label, policy, load), func(t *testing.T) {
					var m *kernel.Machine
					var dispatched, stale int
					m = experiments.NewMachine(spec, experiments.Factory(policy), sc, func(cfg *kernel.Config) {
						cfg.Trace = func(ev kernel.TraceEvent) {
							if ev.Next == nil || ev.Next.RealTime() {
								return
							}
							dispatched++
							if counterStale(ev.Next, m.Env().Epoch) {
								if stale == 0 {
									t.Errorf("t=%d cpu%d dispatched %s with a counter behind epoch %d",
										ev.Now, ev.CPU, ev.Next, m.Env().Epoch.N())
								}
								stale++
							}
						}
					})
					res := workload.Build(load, m, experiments.WorkloadParams(spec, sc)).Run()
					if !res.Complete {
						t.Fatalf("%s did not complete", load)
					}
					if dispatched == 0 {
						t.Fatal("no SCHED_OTHER dispatch was checked")
					}
					if stale > 0 {
						t.Fatalf("%d of %d dispatches carried an unsynced counter", stale, dispatched)
					}
					recalcs[policy] += m.Stats().Recalcs
				})
			}
		}
	}
	// The check only bites where epochs advance: the counter-based
	// policies must have recalculated somewhere in the sweep.
	for _, policy := range []string{experiments.Reg, experiments.ELSC, experiments.Heap, experiments.MQ} {
		if recalcs[policy] == 0 {
			t.Errorf("%s never recalculated; its dispatches were checked against a frozen epoch", policy)
		}
	}
}
