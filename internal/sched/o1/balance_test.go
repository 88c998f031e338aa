package o1

import (
	"testing"

	"elsc/internal/sched"
	"elsc/internal/sched/cfs"
	"elsc/internal/task"
)

// balanced is a policy that balances through sched.Balancer.
type balanced interface {
	sched.Scheduler
	QueueLen(q int) int
	DomainSteals() (intra, cross uint64)
	PerCPUSteals() []sched.CPUSteals
	Pull(cpu int, res *sched.Result)
}

// forEachBalanced runs the domain-balancing tests against every policy
// that embeds the shared balancer, each through its own queue adapter.
func forEachBalanced(t *testing.T, test func(t *testing.T, newSched func(*sched.Env) balanced)) {
	policies := []struct {
		name string
		new  func(*sched.Env) balanced
	}{
		{"o1", func(env *sched.Env) balanced { return New(env) }},
		{"cfs", func(env *sched.Env) balanced { return cfs.New(env) }},
	}
	for _, p := range policies {
		t.Run(p.name, func(t *testing.T) { test(t, p.new) })
	}
}

func TestStealPrefersLocalDomainVictim(t *testing.T) {
	// Two domains: CPUs {0,1} and {2,3}. CPU 1 holds one task; CPU 2 is
	// the busiest queue with three. A topology-blind thief on CPU 0
	// would raid CPU 2; a hierarchical one must take the in-domain task.
	forEachBalanced(t, func(t *testing.T, newSched func(*sched.Env) balanced) {
		env := newNumaEnv(4, 2, 4)
		s := newSched(env)
		local := homedTask(env, 1, 1)
		s.AddToRunqueue(local)
		for i := 0; i < 3; i++ {
			s.AddToRunqueue(homedTask(env, 10+i, 2))
		}
		res := s.Schedule(0, idlePrev())
		if res.Next != local {
			t.Fatalf("stole %v, want the in-domain task", res.Next)
		}
		intra, cross := s.DomainSteals()
		if intra != 1 || cross != 0 {
			t.Fatalf("steal counters = %d intra / %d cross, want 1/0", intra, cross)
		}
	})
}

func TestCrossDomainStealRequiresImbalance(t *testing.T) {
	// The only queued task sits alone in a foreign domain: dragging it
	// across the interconnect for an imbalance of one is a loss, so the
	// idle CPU must stay idle and let the task's home CPU run it.
	forEachBalanced(t, func(t *testing.T, newSched func(*sched.Env) balanced) {
		env := newNumaEnv(4, 2, 2)
		s := newSched(env)
		lone := homedTask(env, 1, 2)
		s.AddToRunqueue(lone)
		if res := s.Schedule(0, idlePrev()); res.Next != nil {
			t.Fatalf("stole %v across domains for an imbalance of one", res.Next)
		}
		// A second task on the same foreign queue is a real imbalance.
		s.AddToRunqueue(homedTask(env, 2, 2))
		res := s.Schedule(0, idlePrev())
		if res.Next == nil {
			t.Fatal("idle CPU refused a two-task cross-domain steal")
		}
		intra, cross := s.DomainSteals()
		if intra != 0 || cross != 1 {
			t.Fatalf("steal counters = %d intra / %d cross, want 0/1", intra, cross)
		}
	})
}

func TestCrossDomainPullBatches(t *testing.T) {
	// No in-domain imbalance, a large foreign one: the periodic balancer
	// must move a batch in one pull, amortizing the interconnect refill.
	forEachBalanced(t, func(t *testing.T, newSched func(*sched.Env) balanced) {
		env := newNumaEnv(4, 2, 8)
		s := newSched(env)
		for i := 0; i < 8; i++ {
			s.AddToRunqueue(homedTask(env, i+1, 2))
		}
		var res sched.Result
		s.Pull(0, &res)
		if got := s.QueueLen(0); got != 4 {
			t.Fatalf("cross-domain pull moved %d tasks, want a batch of 4", got)
		}
		intra, cross := s.DomainSteals()
		if intra != 0 || cross != 4 {
			t.Fatalf("steal counters = %d intra / %d cross, want 0/4", intra, cross)
		}
	})
}

func TestCrossDomainPullNeedsLargerGap(t *testing.T) {
	// An imbalance that would trigger an intra-domain pull (2) must NOT
	// trigger a cross-domain one: the threshold doubles across domains.
	forEachBalanced(t, func(t *testing.T, newSched func(*sched.Env) balanced) {
		env := newNumaEnv(4, 2, 2)
		s := newSched(env)
		for i := 0; i < 2; i++ {
			s.AddToRunqueue(homedTask(env, i+1, 2))
		}
		var res sched.Result
		s.Pull(0, &res)
		if got := s.QueueLen(0); got != 0 {
			t.Fatalf("cross-domain pull fired at imbalance 2, moved %d tasks", got)
		}
		// Same gap inside the domain does move work.
		env2 := newNumaEnv(4, 2, 2)
		s2 := newSched(env2)
		for i := 0; i < 2; i++ {
			s2.AddToRunqueue(homedTask(env2, i+1, 1))
		}
		var res2 sched.Result
		s2.Pull(0, &res2)
		if got := s2.QueueLen(0); got != 1 {
			t.Fatalf("intra-domain pull at imbalance 2 moved %d tasks, want 1", got)
		}
	})
}

func TestPerCPUStealCountersAttributeToThief(t *testing.T) {
	// Two domains: CPU 0 steals in-domain from CPU 1, then cross-domain
	// from CPU 2 (two tasks queued there makes the cross steal legal).
	// Both moves must land on CPU 0's counters, split by domain, and the
	// machine-wide DomainSteals must equal the per-CPU sum.
	forEachBalanced(t, func(t *testing.T, newSched func(*sched.Env) balanced) {
		env := newNumaEnv(4, 2, 4)
		s := newSched(env)
		s.AddToRunqueue(homedTask(env, 1, 1))
		res := s.Schedule(0, idlePrev())
		if res.Next == nil {
			t.Fatal("in-domain steal failed")
		}
		res.Next.State = task.Interruptible // retire the stolen task
		s.AddToRunqueue(homedTask(env, 2, 2))
		s.AddToRunqueue(homedTask(env, 3, 2))
		if res := s.Schedule(0, res.Next); res.Next == nil {
			t.Fatal("cross-domain steal failed")
		}
		per := s.PerCPUSteals()
		if per[0].Intra != 1 || per[0].Cross != 1 {
			t.Fatalf("CPU 0 counters = %+v, want 1 intra / 1 cross", per[0])
		}
		for cpu := 1; cpu < 4; cpu++ {
			if per[cpu] != (sched.CPUSteals{}) {
				t.Fatalf("CPU %d counters = %+v, want zero (it stole nothing)", cpu, per[cpu])
			}
		}
		intra, cross := s.DomainSteals()
		if intra != 1 || cross != 1 {
			t.Fatalf("totals = %d/%d, want the per-CPU sum 1/1", intra, cross)
		}
	})
}
