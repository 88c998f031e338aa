// Package cfs implements a weighted-vruntime fair scheduler — the modern
// counter-argument to the paper's O(1) lineage, in the shape Linux took
// from 2.6.23 on (CFS). It joins the registry as a drop-in policy so the
// conformance, latency-invariant, and matrix machinery can stage a
// genuine O(1)-vs-fair shootout.
//
// The design maps the task layer's static Priority (1..40, default 20)
// onto the CFS weight table: Priority 20 is nice 0 and weight 1024, and
// each priority step multiplies the weight by ~1.25, so a task with
// double the weight of another receives double the CPU time. Every
// processor owns a private queue (the kernel detects the PerCPU marker
// and splits the run-queue lock) holding an indexed binary min-heap of
// SCHED_OTHER tasks ordered by virtual runtime (the shared
// sched.TaskHeap: no container/heap boxing, zero allocations in steady
// state) plus a small priority array for real-time tasks, which always
// outrank fair ones (the shared sched.PrioArray, sized to the 100
// rt_priority levels).
//
// A task's vruntime advances by executed-cycles x 1024/weight whenever
// it comes back through Schedule, so heavier tasks age slower and
// naturally earn proportionally more CPU. Each queue tracks a monotone
// min_vruntime; a waking or newly forked task is clamped to
// max(vruntime, min_vruntime - sleeperBonus), so sleepers get a bounded
// boost ahead of the queue instead of the sleep_avg estimator's
// heuristic credit, and a task returning from a policy swap cannot
// carry a stale virtual clock into the queue. Timeslices are dynamic:
// periodTicks of latency target split by weight share, floored at a
// granularity, delivered through the task counter so the kernel's
// ordinary quantum-expiry machinery ends the slice.
//
// Balancing is the shared topology-aware sched.Balancer, the same one o1
// runs: idle steal and periodic pull, in-domain victims first, a larger
// imbalance and a batched move across domains. This policy's queue
// adapter offers a victim's best real-time task, then its greatest-lag
// (minimum-vruntime) fair task, and renormalizes a migrating task's
// vruntime from the victim queue's min_vruntime to the thief's, so
// cross-queue clock skew never turns into a fairness bug.
package cfs

import (
	"elsc/internal/sched"
	"elsc/internal/task"
)

const (
	// weightScale is the weight of a Priority-20 (nice-0) task; vruntime
	// is measured in "nice-0 cycles": executed cycles x weightScale/weight.
	weightScale = 1024

	// periodTicks is the scheduling latency target in 10ms ticks: the
	// horizon every queued fair task should run once within, split by
	// weight share. minGranTicks floors the split so a crowded queue
	// degrades to round-robin at a sane quantum instead of thrashing.
	periodTicks  = 20
	minGranTicks = 2

	// tickCycles is one timer tick in simulated cycles: 10ms at the
	// 400 MHz machine every spec runs. It scales the vruntime-
	// denominated constants below.
	tickCycles = 4_000_000
	// sleeperBonus is the placement clamp: one latency period.
	sleeperBonus = periodTicks * tickCycles
	// wakeGran is the wakeup/tick preemption hysteresis: an eighth of a
	// tick.
	wakeGran = tickCycles / 8
)

// weightOf maps a static priority onto the CFS prio_to_weight table:
// Priority 20 = nice 0 = 1024, each step up multiplies by ~1.25 (so
// Priority 23 has ~2x the weight of 20, and 28 ~6x). Index 0 is
// Priority 40 (nice -20).
var prioToWeight = [task.MaxPriority]uint64{
	88761, 71755, 56483, 46273, 36291,
	29154, 23254, 18705, 14949, 11916,
	9548, 7620, 6100, 4904, 3906,
	3121, 2501, 1991, 1586, 1277,
	1024, 820, 655, 526, 423,
	335, 272, 215, 172, 137,
	110, 87, 70, 56, 45,
	36, 29, 23, 18, 15,
}

// Weight returns the CFS weight for a static priority, clamping
// out-of-range values to the table ends.
func Weight(prio int) uint64 {
	idx := task.MaxPriority - prio
	if idx < 0 {
		idx = 0
	}
	if idx >= len(prioToWeight) {
		idx = len(prioToWeight) - 1
	}
	return prioToWeight[idx]
}

// rtLevelOf maps a real-time task onto one of the sched.RTLevels levels,
// best (highest rt_priority) at level 0 as in the o1 arrays.
func rtLevelOf(t *task.Task) int { return task.MaxRTPriority - t.RTPriority }

// runqueue is one CPU's fair heap plus real-time array. The fair heap
// is a sched.TaskHeap keyed (vruntime, order), carrying each entry's
// enqueue-time weight in Val so removal subtracts exactly the weight it
// added even if the task's priority mutated while queued; a held task's
// QStamp is its heap position. The real-time side is a sched.PrioArray
// over the real-time levels, level 0 the best (rt_priority 99), QStamp
// the level. minVR is the
// monotone virtual clock the sleeper clamp and migration renorm anchor
// to; maxVR is the high-watermark a yielding task is sent behind;
// weight sums the queued fair entries' weights for slice computation.
type runqueue struct {
	fair  sched.TaskHeap
	rt    sched.PrioArray[sched.RTLevelLists]
	minVR uint64
	maxVR uint64

	weight uint64

	// order tie-break counters: MoveFirst hands out ever-smaller front
	// orders, ordinary enqueues and MoveLast ever-larger back orders.
	frontSeq int64
	backSeq  int64

	// curr is the fair task this queue last dispatched and currBase its
	// executed-cycle odometer at dispatch; the next Schedule on this CPU
	// settles the difference into the task's vruntime.
	curr     *task.Task
	currBase uint64
}

func (rq *runqueue) len() int { return rq.fair.Len() + rq.rt.Len() }

// Sched is the weighted-vruntime fair scheduler. Create with New.
type Sched struct {
	// Balancer moves tasks between the per-CPU queues and counts the
	// moves by cache domain.
	sched.Balancer

	env   *sched.Env
	rqs   []runqueue
	total int
}

// New returns a fair scheduler bound to env.
func New(env *sched.Env) *Sched {
	s := &Sched{
		env: env,
		rqs: make([]runqueue, env.NCPU),
	}
	s.Balancer = sched.NewBalancer(env, env.Topo, (*queues)(s))
	for i := range s.rqs {
		s.rqs[i].rt.Init()
	}
	return s
}

// Name implements sched.Scheduler.
func (s *Sched) Name() string { return "cfs" }

// PerCPU marks the policy as using per-CPU run-queue locks.
func (s *Sched) PerCPU() bool { return true }

// MinVR exposes a queue's monotone min_vruntime, for tests.
func (s *Sched) MinVR(cpu int) uint64 { return s.rqs[cpu].minVR }

// QueueLen returns CPU q's queued tasks (fair + real-time), for tests.
func (s *Sched) QueueLen(q int) int { return s.rqs[q].len() }

// queues is the Sched seen as the balancer's queue adapter.
type queues Sched

func (q *queues) Len(cpu int) int { return q.rqs[cpu].len() }

// Movable offers the victim's best pickable real-time task, then its
// minimum-vruntime (greatest-lag) fair task — the one the victim owes the
// most CPU, so moving it helps fairness machine-wide, not just
// throughput.
func (q *queues) Movable(victim, cpu int, res *sched.Result) *task.Task {
	s := (*Sched)(q)
	if t := s.rqs[victim].rt.Pick(s.env, cpu, res); t != nil {
		return t
	}
	return s.pickFair(&s.rqs[victim], cpu, res)
}

// Migrate re-files t on cpu's queue, its vruntime renormalized from the
// victim's clock to cpu's (dequeue never moves min_vruntime, so the order
// is free). A stolen task goes to the front, so the thief's post-dispatch
// bookkeeping (minVR, curr) lands on its own queue; a pulled one waits at
// the tail.
func (q *queues) Migrate(t *task.Task, victim, cpu int, steal bool, res *sched.Result) {
	s := (*Sched)(q)
	s.DelFromRunqueue(t)
	if t.RealTime() {
		s.enqueueRT(t, cpu, steal)
	} else {
		s.renorm(t, s.rqs[victim].minVR, &s.rqs[cpu])
		s.enqueueFair(t, cpu, steal)
	}
	res.Cycles += s.env.Cost.MoveRunqueue + s.logCost(cpu)
}

// placeClamp applies the new-task/wake placement rule: a task whose
// virtual clock lags the queue (a long sleeper, a fresh fork, a survivor
// of a policy swap whose vruntime era is stale) is pulled up to
// min_vruntime minus one latency period — a bounded boost, never an
// unbounded head start — while a task ahead of the queue keeps its own
// clock and waits its turn.
func (s *Sched) placeClamp(t *task.Task, rq *runqueue) {
	floor := uint64(0)
	if rq.minVR > sleeperBonus {
		floor = rq.minVR - sleeperBonus
	}
	if t.VRuntime < floor {
		t.VRuntime = floor
	}
}

// enqueueFair files a fair task on cpu's queue. front biases the order
// tie-break ahead of every queued equal (MoveFirst semantics); ordinary
// enqueues go behind their equals, preserving FIFO among exact ties.
func (s *Sched) enqueueFair(t *task.Task, cpu int, front bool) {
	rq := &s.rqs[cpu]
	var order int64
	if front {
		rq.frontSeq--
		order = rq.frontSeq
	} else {
		rq.backSeq++
		order = rq.backSeq
	}
	w := Weight(t.Priority)
	rq.fair.Push(sched.HeapEntry{T: t, Key: t.VRuntime, Tie: order, Val: w})
	rq.weight += w
	if t.VRuntime > rq.maxVR {
		rq.maxVR = t.VRuntime
	}
	t.QIndex = cpu
	t.QZero = true
	s.total++
}

// enqueueRT files a real-time task at its rt_priority level on cpu.
func (s *Sched) enqueueRT(t *task.Task, cpu int, front bool) {
	rq := &s.rqs[cpu]
	lvl := rtLevelOf(t)
	rq.rt.Push(t, lvl, front)
	t.QIndex = cpu
	t.QStamp = uint64(lvl)
	t.QZero = true
	s.total++
}

// AddToRunqueue files a newly runnable task on its home CPU's queue,
// applying the sleeper clamp to fair tasks. A task sched.Home re-homes
// away from its last CPU (offline, affinity change) is renormalized to
// the new queue's clock first — placeClamp only bounds the lagging side, so
// without the rebase a vruntime earned on a fast-clock queue would park
// the task far ahead of the new queue.
func (s *Sched) AddToRunqueue(t *task.Task) {
	if t.IsIdle {
		panic("cfs: idle task on run queue")
	}
	if t.QZero {
		return
	}
	cpu := sched.Home(s.env, (*queues)(s), t)
	if t.RealTime() {
		s.enqueueRT(t, cpu, true)
		return
	}
	if t.EverRan && t.Processor < len(s.rqs) && cpu != t.Processor {
		s.renorm(t, s.homeVR(t), &s.rqs[cpu])
	}
	s.placeClamp(t, &s.rqs[cpu])
	s.enqueueFair(t, cpu, false)
}

// PlaceWake accepts the kernel's SD_WAKE_IDLE hint: file the woken task
// directly on the given idle CPU's queue, inside the waker's cache
// domain, instead of behind its home CPU's backlog.
func (s *Sched) PlaceWake(t *task.Task, cpu int) bool {
	if t.IsIdle || cpu < 0 || cpu >= len(s.rqs) || !t.AllowedOn(cpu) || !s.env.CPUOnline(cpu) {
		return false
	}
	if t.QZero {
		return false
	}
	if t.RealTime() {
		s.enqueueRT(t, cpu, true)
		return true
	}
	s.renorm(t, s.homeVR(t), &s.rqs[cpu])
	s.placeClamp(t, &s.rqs[cpu])
	s.enqueueFair(t, cpu, false)
	return true
}

// homeVR returns the min_vruntime of the queue t's clock is relative to:
// its last CPU's queue when valid, else zero (the clamp bounds the rest).
func (s *Sched) homeVR(t *task.Task) uint64 {
	if t.EverRan && t.Processor < len(s.rqs) {
		return s.rqs[t.Processor].minVR
	}
	return 0
}

// renorm rebases a migrating task's vruntime from one queue's virtual
// clock to another's, preserving its lag: per-queue clocks advance at
// different rates, so raw vruntimes are not comparable across queues.
func (s *Sched) renorm(t *task.Task, fromMin uint64, to *runqueue) {
	lag := int64(t.VRuntime) - int64(fromMin)
	nv := int64(to.minVR) + lag
	if nv < 0 {
		nv = 0
	}
	t.VRuntime = uint64(nv)
}

// DelFromRunqueue removes t from whichever structure holds it. A task in
// an rt list is physically linked (RunList); a fair task lives in the
// heap at index QStamp.
func (s *Sched) DelFromRunqueue(t *task.Task) {
	if !t.QZero {
		return
	}
	rq := &s.rqs[t.QIndex]
	if t.RunList.OnList() {
		rq.rt.Remove(t, int(t.QStamp))
	} else {
		rq.weight -= rq.fair.RemoveAt(int(t.QStamp)).Val
	}
	t.QZero = false
	s.total--
}

// MoveFirstRunqueue re-keys t ahead of its exact-vruntime equals.
func (s *Sched) MoveFirstRunqueue(t *task.Task) {
	if !t.QZero {
		return
	}
	cpu := t.QIndex
	if t.RunList.OnList() {
		s.rqs[cpu].rt.MoveFront(t, int(t.QStamp))
		return
	}
	s.DelFromRunqueue(t)
	s.enqueueFair(t, cpu, true)
}

// MoveLastRunqueue re-keys t behind its exact-vruntime equals.
func (s *Sched) MoveLastRunqueue(t *task.Task) {
	if !t.QZero {
		return
	}
	cpu := t.QIndex
	if t.RunList.OnList() {
		s.rqs[cpu].rt.MoveBack(t, int(t.QStamp))
		return
	}
	s.DelFromRunqueue(t)
	s.enqueueFair(t, cpu, false)
}

// Runnable returns the number of queued tasks; running tasks are
// dequeued while they execute.
func (s *Sched) Runnable() int { return s.total }

// OnRunqueue reports whether the scheduler currently tracks t.
func (s *Sched) OnRunqueue(t *task.Task) bool { return t.QZero }

// sliceFor computes the dispatched task's timeslice in ticks: its weight
// share of the latency period against the tasks still queued on rq,
// floored at the granularity. A lone task gets the whole period.
func (s *Sched) sliceFor(t *task.Task, rq *runqueue) int {
	w := Weight(t.Priority)
	total := rq.weight + w
	slice := int(periodTicks * w / total)
	if slice < minGranTicks {
		slice = minGranTicks
	}
	return slice
}

// advance settles prev's executed cycles into its vruntime, if prev is
// the fair task this queue dispatched: vruntime += executed x 1024/weight.
func (rq *runqueue) advance(prev *task.Task) {
	if rq.curr != prev || prev.IsIdle {
		return
	}
	rq.curr = nil
	exec := prev.UserCycles + prev.SystemCycles - rq.currBase
	if exec == 0 {
		return
	}
	prev.VRuntime += exec * weightScale / Weight(prev.Priority)
}

// logCost approximates the O(log n) sift cost of one heap operation on
// cpu's fair heap.
func (s *Sched) logCost(cpu int) uint64 {
	cost := uint64(0)
	for n := s.rqs[cpu].fair.Len(); n > 1; n >>= 1 {
		cost += 35
	}
	return cost
}

// Schedule implements the fair pick: settle the previous task's
// vruntime, requeue it if still runnable, then run the lowest-vruntime
// fair task — unless a real-time task is queued, which always wins.
// Recalcs is always zero: there is no global recalculation in this
// design, quantum refill happens per-dispatch via the slice.
func (s *Sched) Schedule(cpu int, prev *task.Task) sched.Result {
	env := s.env
	res := sched.Result{Cycles: env.Cost.ScheduleBase}
	rq := &s.rqs[cpu]
	rq.advance(prev)

	if !prev.IsIdle {
		yielded := prev.Yielded
		prev.Yielded = false
		rrExpired := false
		if prev.Policy == task.RR && prev.Counter(env.Epoch) == 0 {
			prev.SetCounter(env.Epoch, prev.Priority)
			rrExpired = true
		}
		if prev.Runnable() && !prev.QZero {
			home := sched.Home(s.env, (*queues)(s), prev)
			hrq := &s.rqs[home]
			switch {
			case prev.RealTime():
				// Preempted RT keeps the head of its level; a yielding
				// or RR-rotated one goes behind its level peers.
				s.enqueueRT(prev, home, !(yielded || rrExpired))
			case yielded:
				// sched_yield: park behind the queue's vruntime
				// high-watermark so every queued task runs first.
				if home != cpu {
					s.renorm(prev, rq.minVR, hrq)
				}
				if hrq.maxVR > prev.VRuntime {
					prev.VRuntime = hrq.maxVR
				}
				s.enqueueFair(prev, home, false)
			default:
				// Quantum expiry or preemption: the settled vruntime is
				// the only ordering input; no recharge loop, no arrays.
				if home != cpu {
					s.renorm(prev, rq.minVR, hrq)
				}
				s.enqueueFair(prev, home, false)
			}
			res.Cycles += env.Cost.AddRunqueue + s.logCost(home)
		}
	}

	s.Rebalance(cpu, &res)
	best := s.pickLocal(cpu, &res)
	if best == nil {
		best = s.Steal(cpu, &res)
	}
	if best == nil {
		return res
	}
	s.DelFromRunqueue(best)
	res.Cycles += env.Cost.DelRunqueue + s.logCost(cpu)
	if !best.RealTime() {
		// The dispatched task is the queue minimum, so min_vruntime
		// follows it — monotone by construction.
		if best.VRuntime > rq.minVR {
			rq.minVR = best.VRuntime
		}
		if best.VRuntime > rq.maxVR {
			rq.maxVR = best.VRuntime
		}
		best.SetCounter(env.Epoch, s.sliceFor(best, rq))
		rq.curr = best
		rq.currBase = best.UserCycles + best.SystemCycles
	} else {
		rq.curr = nil
	}
	res.Next = best
	return res
}

// pickLocal selects from cpu's own queue: best real-time level first,
// then the fair heap root. When the root is unpickable (running
// elsewhere mid-claim, or an affinity straggler sched.Home's fallback
// filed here) the heap array is scanned for the minimum pickable entry.
func (s *Sched) pickLocal(cpu int, res *sched.Result) *task.Task {
	if t := s.rqs[cpu].rt.Pick(s.env, cpu, res); t != nil {
		return t
	}
	return s.pickFair(&s.rqs[cpu], cpu, res)
}

func (s *Sched) pickFair(rq *runqueue, cpu int, res *sched.Result) *task.Task {
	env := s.env
	if rq.fair.Len() == 0 {
		return nil
	}
	root := rq.fair.At(0).T
	res.Examined++
	res.Cycles += env.Cost.Touch(env.NCPU)
	if sched.CanSchedule(root, cpu) {
		return root
	}
	// Rare path: the O(1) root is unpickable; find the least-vruntime
	// pickable entry by scanning the backing array.
	var best *task.Task
	bi := -1
	for i := 1; i < rq.fair.Len(); i++ {
		res.Examined++
		res.Cycles += env.Cost.Touch(env.NCPU)
		t := rq.fair.At(i).T
		if !sched.CanSchedule(t, cpu) {
			continue
		}
		if bi < 0 || rq.fair.Less(i, bi) {
			best, bi = t, i
		}
	}
	return best
}

// ExportRunnable implements sched.Scheduler. Drain order is CPU 0..n-1;
// per CPU the real-time levels in ascending level order (FIFO within),
// then the fair heap popped in ascending vruntime order.
func (s *Sched) ExportRunnable() []*task.Task {
	out := make([]*task.Task, 0, s.total)
	for cpu := range s.rqs {
		out = s.DrainCPU(cpu, out)
	}
	return out
}

// DrainCPU implements sched.Scheduler: empty the offlined CPU's private
// structures so its tasks can be re-filed on surviving queues.
func (s *Sched) DrainCPU(cpu int, out []*task.Task) []*task.Task {
	rq := &s.rqs[cpu]
	n := len(out)
	out = rq.rt.Drain(out)
	s.total -= len(out) - n
	for rq.fair.Len() > 0 {
		t := rq.fair.At(0).T
		s.DelFromRunqueue(t)
		sched.ResetQueueState(t)
		out = append(out, t)
	}
	rq.weight = 0
	return out
}

// effectiveVR returns t's virtual clock including the cycles executed
// since its current dispatch, which are not yet settled into VRuntime —
// the number wake preemption must compare against, or a long-running
// task looks perpetually fresh.
func (s *Sched) effectiveVR(t *task.Task) uint64 {
	vr := t.VRuntime
	if t.HasCPU && t.Processor < len(s.rqs) {
		rq := &s.rqs[t.Processor]
		if rq.curr == t {
			exec := t.UserCycles + t.SystemCycles - rq.currBase
			vr += exec * weightScale / Weight(t.Priority)
		}
	}
	return vr
}

// PreemptsCurr implements the kernel's wake-preemption comparison: a
// real-time task preempts any fair one (and a lower rt_priority), and a
// waking fair task preempts the running one when its clamped vruntime
// lags the runner's effective clock by more than the wakeup granularity
// — the sleeper boost reaching the wake path, where the 2.3.99 goodness
// delta would see a tie.
func (s *Sched) PreemptsCurr(t, curr *task.Task) bool {
	if t.RealTime() {
		return !curr.RealTime() || t.RTPriority > curr.RTPriority
	}
	if curr.RealTime() {
		return false
	}
	return t.VRuntime+wakeGran < s.effectiveVR(curr)
}

// TickPreempt implements the kernel's tick-time preemption hook, called
// while t runs on cpu with quantum remaining. The running task's
// effective vruntime (settled clock plus cycles executed this stint) is
// compared against the queue: a waiting real-time task preempts a fair
// runner unconditionally and a real-time runner only from a strictly
// better level (an equal-level RR peer waits for quantum expiry, a worse
// one for the runner to block — no per-tick resched churn), and a fair
// task whose vruntime lags the runner by more than the wakeup
// granularity preempts so the slice machinery's tick quantization cannot
// hold the virtual clock hostage. Rotation is never reported: cfs has no
// same-level round-robin distinct from the vruntime order itself.
func (s *Sched) TickPreempt(cpu int, t *task.Task) (preempt, rotation bool) {
	rq := &s.rqs[cpu]
	if lvl := rq.rt.First(); lvl >= 0 {
		if sched.CanSchedule(rq.rt.Head(lvl), cpu) && (!t.RealTime() || lvl < rtLevelOf(t)) {
			return true, false
		}
	}
	if t.RealTime() || rq.fair.Len() == 0 {
		return false, false
	}
	currVR := s.effectiveVR(t)
	head := rq.fair.At(0)
	if sched.CanSchedule(head.T, cpu) && head.Key+wakeGran < currVR {
		return true, false
	}
	return false, false
}
