// Package heapsched implements the first alternative design from the
// paper's future work (§8): "sorting tasks by static goodness within heaps
// for each processor and address space. One could choose the absolute best
// task available simply by examining the top of each heap."
//
// Tasks are filed into one max-heap per processor (by the CPU they last
// ran on, so the affinity bonus is homogeneous within a heap) plus one
// heap for never-run tasks. schedule() computes the full goodness of each
// heap's top — at most NCPU+2 candidates — and picks the best, so unlike
// ELSC it never misses a bonus-heavy task hiding below the top static
// class.
//
// The design also demonstrates the cost the ELSC authors avoided by
// choosing a table: heap insertion and removal are O(log n), and the
// counter recalculation changes every key, forcing an O(n) re-heapify —
// exactly the "overhead of sorting" and "complexity when inserting or
// removing tasks" §5 warns about. The ablation benchmarks quantify it.
//
// The heaps are the shared sched.TaskHeap, a min-heap, so each entry's
// key is the complemented static goodness (^key): the root is the best
// task, and the order (goodness desc, sequence asc) is exact. A queued
// task's QIndex holds its heap id, QStamp its heap position, and QZero
// marks membership.
package heapsched

import (
	"elsc/internal/sched"
	"elsc/internal/task"
)

// Sched is the heap-based scheduler. Create with New.
type Sched struct {
	env *sched.Env
	// heaps[cpu] holds tasks whose last run was on cpu; heaps[ncpu]
	// holds tasks that have never run.
	heaps []sched.TaskHeap
	seq   uint64
	total int
}

// New returns a heap scheduler bound to env.
func New(env *sched.Env) *Sched {
	s := &Sched{env: env}
	s.heaps = make([]sched.TaskHeap, env.NCPU+1)
	return s
}

// Name implements sched.Scheduler.
func (s *Sched) Name() string { return "heap" }

// key orders the heaps: real-time tasks above everything, exhausted tasks
// at the bottom (they are not selectable until recalculation), and
// everything else by static goodness.
func key(ep *task.Epoch, t *task.Task) int {
	if t.RealTime() {
		return sched.RTBase + t.RTPriority
	}
	c := t.Counter(ep)
	if c == 0 {
		return 0
	}
	return c + t.Priority
}

// heapOf returns the heap index for t.
func (s *Sched) heapOf(t *task.Task) int {
	if !t.EverRan {
		return s.env.NCPU
	}
	return t.Processor
}

// AddToRunqueue files t into its processor's heap.
func (s *Sched) AddToRunqueue(t *task.Task) {
	if t.IsIdle {
		panic("heapsched: idle task on run queue")
	}
	if t.QZero {
		return // already queued
	}
	s.seq++
	s.push(t, s.heapOf(t), s.seq)
	s.total++
}

// push files t in heap h with tie-break seq: lower seq wins among equal
// goodness.
func (s *Sched) push(t *task.Task, h int, seq uint64) {
	t.QIndex = h
	t.QZero = true
	s.heaps[h].Push(sched.HeapEntry{T: t, Key: ^uint64(key(s.env.Epoch, t)), Tie: int64(seq)})
}

// DelFromRunqueue removes t from whichever heap holds it.
func (s *Sched) DelFromRunqueue(t *task.Task) {
	if !t.QZero {
		return
	}
	s.heaps[t.QIndex].RemoveAt(int(t.QStamp))
	t.QZero = false
	s.total--
}

// MoveFirstRunqueue re-keys t to win ties by giving it the freshest
// sequence bias; heaps break key ties by preferring lower seq, so reusing
// an early sequence number moves it ahead of equals.
func (s *Sched) MoveFirstRunqueue(t *task.Task) {
	if !t.QZero {
		return
	}
	h := t.QIndex
	s.heaps[h].RemoveAt(int(t.QStamp))
	s.push(t, h, 0)
}

// MoveLastRunqueue pushes t behind its equals.
func (s *Sched) MoveLastRunqueue(t *task.Task) {
	if !t.QZero {
		return
	}
	h := t.QIndex
	s.seq++
	s.heaps[h].RemoveAt(int(t.QStamp))
	s.push(t, h, s.seq)
}

// Runnable returns the number of queued tasks.
func (s *Sched) Runnable() int { return s.total }

// OnRunqueue reports whether the scheduler holds t.
func (s *Sched) OnRunqueue(t *task.Task) bool { return t.QZero }

// ExportRunnable implements sched.Scheduler. Drain order is heap 0..NCPU
// (per-CPU affinity heaps then the never-ran heap), each popped root
// first — i.e. per heap in (key desc, seq asc) priority order.
func (s *Sched) ExportRunnable() []*task.Task {
	out := make([]*task.Task, 0, s.total)
	for h := range s.heaps {
		for s.heaps[h].Len() > 0 {
			t := s.heaps[h].At(0).T
			s.DelFromRunqueue(t)
			sched.ResetQueueState(t)
			out = append(out, t)
		}
	}
	return out
}

// DrainCPU implements sched.Scheduler. The per-last-run-CPU heaps are all
// globally visible — Schedule scans every heap top from any CPU — so tasks
// keyed to an offlined CPU's heap remain reachable and nothing is drained.
func (s *Sched) DrainCPU(cpu int, out []*task.Task) []*task.Task { return out }

// Schedule picks the best of the heap tops.
func (s *Sched) Schedule(cpu int, prev *task.Task) sched.Result {
	env := s.env
	res := sched.Result{Cycles: env.Cost.ScheduleBase}

	yielded := false
	if !prev.IsIdle {
		yielded = prev.Yielded
		prev.Yielded = false
		if prev.Policy == task.RR && prev.Counter(env.Epoch) == 0 {
			prev.SetCounter(env.Epoch, prev.Priority)
		}
		if prev.Runnable() && !s.OnRunqueue(prev) {
			s.AddToRunqueue(prev)
			res.Cycles += env.Cost.AddRunqueue + s.logCost()
		}
	}

	for attempt := 0; ; attempt++ {
		best := (*task.Task)(nil)
		bestG := -1
		allExhausted := s.total > 0
		sawBusy := false
		for h := range s.heaps {
			if s.heaps[h].Len() == 0 {
				continue
			}
			res.Examined++
			res.Cycles += env.Cost.Evaluate(env.NCPU)
			t := s.heaps[h].At(0).T
			if !sched.CanSchedule(t, cpu) {
				// A top running elsewhere (or pinned elsewhere)
				// hides its heap's second element — a structural
				// blind spot of this design.
				sawBusy = true
				continue
			}
			g := sched.Goodness(env.Epoch, t, cpu, prev.MM)
			if g > 0 {
				allExhausted = false
			} else {
				continue // exhausted: not selectable until recalculation
			}
			if t == prev && yielded {
				continue // offer the yielder only as a last resort
			}
			if g > bestG {
				bestG = g
				best = t
			}
		}
		if best == nil && allExhausted && !sawBusy && attempt == 0 {
			// Every top is exhausted: recalculate and re-heapify.
			sched.Recalc(env, &res)
			res.Cycles += s.reheapify()
			continue
		}
		if best == nil && yielded && prev.Runnable() && s.OnRunqueue(prev) {
			best = prev
		}
		if best != nil {
			s.DelFromRunqueue(best)
			res.Cycles += env.Cost.DelRunqueue + s.logCost()
			res.Next = best
		}
		return res
	}
}

// logCost approximates the O(log n) sift cost of one heap operation.
func (s *Sched) logCost() uint64 {
	cost := uint64(0)
	for n := s.total; n > 1; n >>= 1 {
		cost += 35
	}
	return cost
}

// reheapify rebuilds every heap after a recalculation changed all keys,
// returning its simulated cycle cost — the structural weakness of the
// heap design.
func (s *Sched) reheapify() uint64 {
	var cost uint64
	for h := range s.heaps {
		for i := 0; i < s.heaps[h].Len(); i++ {
			e := s.heaps[h].At(i)
			e.Key = ^uint64(key(s.env.Epoch, e.T))
			cost += 40
		}
		s.heaps[h].Rebuild()
	}
	return cost
}
