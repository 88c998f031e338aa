package main

import (
	"fmt"
	"time"

	"elsc/internal/experiments"
	"elsc/internal/kernel"
	"elsc/internal/sched"
	"elsc/internal/sched/cfs"
	"elsc/internal/sched/elsc"
	"elsc/internal/sched/heapsched"
	"elsc/internal/sched/mq"
	"elsc/internal/sched/o1"
	"elsc/internal/sched/vanilla"
	"elsc/internal/task"
)

// policyTimes accumulates the host time spent inside one policy's
// sched.Scheduler methods, including the task and klist code they call.
type policyTimes struct {
	bias     time.Duration // subtracted from every interval: see clockCost
	total    time.Duration
	schedule []uint32 // ns per Schedule call
	enqueue  []uint32 // ns per AddToRunqueue call
}

// timed times every sched.Scheduler method of the policy it wraps.
type timed struct {
	in  sched.Scheduler
	rec *policyTimes
}

func (t timed) stop(start time.Time) { t.rec.total += t.since(start) }

func (t timed) stopInto(samples *[]uint32, start time.Time) {
	d := t.since(start)
	t.rec.total += d
	*samples = append(*samples, uint32(d))
}

func (t timed) since(start time.Time) time.Duration {
	return max(time.Since(start)-t.rec.bias, 0)
}

// clockCost is the median length of an empty timed interval: the part of
// reading the clock twice that lands inside every measured call.
func clockCost() time.Duration {
	d := make([]float64, 1001)
	for i := range d {
		start := time.Now()
		d[i] = float64(time.Since(start))
	}
	return time.Duration(median(d))
}

func (t timed) Name() string { defer t.stop(time.Now()); return t.in.Name() }

func (t timed) AddToRunqueue(p *task.Task) {
	defer t.stopInto(&t.rec.enqueue, time.Now())
	t.in.AddToRunqueue(p)
}

func (t timed) DelFromRunqueue(p *task.Task)   { defer t.stop(time.Now()); t.in.DelFromRunqueue(p) }
func (t timed) MoveFirstRunqueue(p *task.Task) { defer t.stop(time.Now()); t.in.MoveFirstRunqueue(p) }
func (t timed) MoveLastRunqueue(p *task.Task)  { defer t.stop(time.Now()); t.in.MoveLastRunqueue(p) }

func (t timed) Schedule(cpu int, prev *task.Task) sched.Result {
	defer t.stopInto(&t.rec.schedule, time.Now())
	return t.in.Schedule(cpu, prev)
}

func (t timed) Runnable() int                { defer t.stop(time.Now()); return t.in.Runnable() }
func (t timed) OnRunqueue(p *task.Task) bool { defer t.stop(time.Now()); return t.in.OnRunqueue(p) }
func (t timed) ExportRunnable() []*task.Task { defer t.stop(time.Now()); return t.in.ExportRunnable() }
func (t timed) DrainCPU(cpu int, out []*task.Task) []*task.Task {
	defer t.stop(time.Now())
	return t.in.DrainCPU(cpu, out)
}

// Each wrapper embeds timed at depth one and the concrete policy at depth
// two, so timed's methods take precedence while the policy's optional
// hooks (PlaceWake, TickPreempt, PreemptsCurr, NoteRunning, PerCPU,
// BonusLevels, DomainSteals, ...) are promoted unchanged and still satisfy
// the kernel's and the harness's type assertions.
type (
	regPolicy  struct{ *vanilla.Sched }
	elscPolicy struct{ *elsc.Sched }
	heapPolicy struct{ *heapsched.Sched }
	mqPolicy   struct{ *mq.Sched }
	o1Policy   struct{ *o1.Sched }
	cfsPolicy  struct{ *cfs.Sched }

	timedReg struct {
		timed
		regPolicy
	}
	timedELSC struct {
		timed
		elscPolicy
	}
	timedHeap struct {
		timed
		heapPolicy
	}
	timedMQ struct {
		timed
		mqPolicy
	}
	timedO1 struct {
		timed
		o1Policy
	}
	timedCFS struct {
		timed
		cfsPolicy
	}
)

// timedFactory builds the named policy exactly as experiments.Factory
// does and wraps it so every sched.Scheduler call is timed into rec.
func timedFactory(policy string, rec *policyTimes) kernel.SchedulerFactory {
	build := experiments.Factory(policy)
	return func(env *sched.Env) sched.Scheduler {
		s := build(env)
		t := timed{in: s, rec: rec}
		switch p := s.(type) {
		case *vanilla.Sched:
			return timedReg{t, regPolicy{p}}
		case *elsc.Sched:
			return timedELSC{t, elscPolicy{p}}
		case *heapsched.Sched:
			return timedHeap{t, heapPolicy{p}}
		case *mq.Sched:
			return timedMQ{t, mqPolicy{p}}
		case *o1.Sched:
			return timedO1{t, o1Policy{p}}
		case *cfs.Sched:
			return timedCFS{t, cfsPolicy{p}}
		}
		panic(fmt.Sprintf("perfbench: no timing wrapper for policy %q (%T)", policy, s))
	}
}
