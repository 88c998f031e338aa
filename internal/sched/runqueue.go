package sched

import (
	"fmt"
	"math/bits"

	"elsc/internal/klist"
	"elsc/internal/task"
)

// This file holds the run-queue building blocks the policies share: the
// can_schedule test, the counter-recalculation charge, the 2.5-style
// priority array (o1's active/expired arrays, cfs's real-time side) and
// the indexed task heap (heapsched's goodness heaps, cfs's vruntime
// heaps). Each policy keeps its own level mapping, keys, tie-break
// counters and cycle charging; the structures only file and find tasks.

// CanSchedule is the kernel's can_schedule: t may be picked on cpu when it
// is not executing on another processor and its affinity mask allows cpu.
func CanSchedule(t *task.Task, cpu int) bool {
	return (!t.HasCPU || t.Processor == cpu) && t.AllowedOn(cpu)
}

// Recalc runs the counter-recalculation loop (paper §3.3.2): a new epoch
// recharges every task's counter lazily, and res is charged one pass over
// the whole task list.
func Recalc(env *Env, res *Result) {
	env.Epoch.Bump()
	res.Recalcs++
	res.Cycles += uint64(env.NTasks()) * env.Cost.RecalcPerTask
}

// RTLevels is the number of real-time priority levels, one per
// rt_priority value (0..99); MaxPrioLevels adds one per SCHED_OTHER
// static priority (1..40), o1's layout.
const (
	RTLevels      = task.MaxRTPriority + 1
	MaxPrioLevels = RTLevels + task.MaxPriority
)

const prioWords = (MaxPrioLevels + 63) / 64

// AllLevelLists and RTLevelLists are the two PrioArray sizes: every
// priority level (o1's active and expired arrays) and the real-time
// levels only (cfs's real-time side).
type (
	AllLevelLists = [MaxPrioLevels]klist.Head
	RTLevelLists  = [RTLevels]klist.Head
)

// LevelLists is what a PrioArray is sized by: one list head per level.
// The lists live inline in the array, so a queue holding arrays is one
// allocation, and the small size does not pay for the large one's lists.
type LevelLists interface {
	AllLevelLists | RTLevelLists
}

// PrioArray is one priority array in the shape of 2.5's struct
// prio_array: a FIFO list per level and a find-first-set bitmap over the
// levels, lower level = higher priority. Tasks are linked through their
// RunList; the array never touches the scheduler-private Q* fields, which
// stay the caller's record of where a task is filed. Init must run
// once before use.
type PrioArray[L LevelLists] struct {
	bitmap [prioWords]uint64
	lists  L
	count  int
}

// Init readies the level lists of a zero PrioArray.
func (a *PrioArray[L]) Init() {
	for i := 0; i < len(a.lists); i++ {
		a.lists[i].Init()
	}
}

// Len returns the number of queued tasks.
func (a *PrioArray[L]) Len() int { return a.count }

// Push files t at level lvl: at the head of the level when front is set
// (it wins the FIFO tie), else at the tail.
func (a *PrioArray[L]) Push(t *task.Task, lvl int, front bool) {
	l := &a.lists[lvl]
	if front {
		l.PushFront(&t.RunList)
	} else {
		l.PushBack(&t.RunList)
	}
	a.bitmap[uint(lvl)/64] |= 1 << (uint(lvl) % 64)
	a.count++
}

// Remove unlinks t from level lvl, where the caller filed it.
func (a *PrioArray[L]) Remove(t *task.Task, lvl int) {
	l := &a.lists[lvl]
	l.Remove(&t.RunList)
	a.count--
	if l.Empty() {
		a.bitmap[uint(lvl)/64] &^= 1 << (uint(lvl) % 64)
	}
}

// MoveFront moves t to the head of its level lvl.
func (a *PrioArray[L]) MoveFront(t *task.Task, lvl int) { a.lists[lvl].MoveFront(&t.RunList) }

// MoveBack moves t to the tail of its level lvl.
func (a *PrioArray[L]) MoveBack(t *task.Task, lvl int) { a.lists[lvl].MoveBack(&t.RunList) }

// First returns the best populated level, or -1 when the array is empty.
func (a *PrioArray[L]) First() int { return a.Next(0) }

// Next returns the first populated level >= from, or -1.
func (a *PrioArray[L]) Next(from int) int {
	if from >= len(a.lists) {
		return -1
	}
	w := from / 64
	word := a.bitmap[w] &^ (1<<uint(from%64) - 1)
	for {
		if word != 0 {
			return w*64 + bits.TrailingZeros64(word)
		}
		w++
		if w >= prioWords {
			return -1
		}
		word = a.bitmap[w]
	}
}

// Head returns the task at the head of level lvl, or nil if it is empty.
func (a *PrioArray[L]) Head(lvl int) *task.Task {
	if n := a.lists[lvl].First(); n != nil {
		return task.FromNode(n)
	}
	return nil
}

// Pick walks the populated levels best first, each front to back, and
// returns the first task CanSchedule allows on cpu; tasks running or
// pinned elsewhere (the rare leftovers of an affinity change) are
// skipped. res is charged one BitmapOp per level visited and one Touch
// per task examined — never per queued task.
func (a *PrioArray[L]) Pick(env *Env, cpu int, res *Result) *task.Task {
	for lvl := a.First(); lvl >= 0; lvl = a.Next(lvl + 1) {
		res.Cycles += env.Cost.BitmapOp
		var found *task.Task
		a.lists[lvl].ForEach(func(n *klist.Node) bool {
			t := task.FromNode(n)
			res.Examined++
			res.Cycles += env.Cost.Touch(env.NCPU)
			if !CanSchedule(t, cpu) {
				return true
			}
			found = t
			return false
		})
		if found != nil {
			return found
		}
	}
	return nil
}

// Drain empties the array best level first, each level front to back,
// appending the tasks to out fully detached (RunList unlinked,
// ResetQueueState applied). The caller adjusts any totals it keeps by the
// number appended.
func (a *PrioArray[L]) Drain(out []*task.Task) []*task.Task {
	for lvl := a.First(); lvl >= 0; lvl = a.First() {
		t := a.Head(lvl)
		a.Remove(t, lvl)
		ResetQueueState(t)
		out = append(out, t)
	}
	return out
}

// Check verifies the array's structure: every level's bit is set exactly
// when its list is non-empty, every linked task names its own list, no
// list is cyclic, and Len matches the lists. visit, when non-nil, sees
// every queued task with its level, front to back, so callers can check
// their own bookkeeping against the layout; its first error is returned.
func (a *PrioArray[L]) Check(visit func(t *task.Task, lvl int) error) error {
	total := 0
	for lvl := 0; lvl < len(a.lists); lvl++ {
		l := &a.lists[lvl]
		n := 0
		for node := l.First(); node != nil; node = node.Next() {
			if node.List() != l {
				return fmt.Errorf("level %d: node linked under another list", lvl)
			}
			n++
			if total+n > a.count {
				return fmt.Errorf("level %d: lists hold more than Len()=%d tasks (or a list is cyclic)", lvl, a.count)
			}
			if visit != nil {
				if err := visit(task.FromNode(node), lvl); err != nil {
					return err
				}
			}
		}
		if bit := a.bitmap[lvl/64]>>uint(lvl%64)&1 == 1; (n > 0) != bit {
			return fmt.Errorf("level %d: %d tasks but bit=%v", lvl, n, bit)
		}
		total += n
	}
	for lvl := len(a.lists); lvl < prioWords*64; lvl++ {
		if a.bitmap[lvl/64]>>uint(lvl%64)&1 == 1 {
			return fmt.Errorf("bit %d set beyond the array's %d levels", lvl, len(a.lists))
		}
	}
	if total != a.count {
		return fmt.Errorf("Len()=%d but lists hold %d", a.count, total)
	}
	return nil
}

// HeapEntry is one TaskHeap element. The heap orders entries by Key, then
// Tie, both ascending; Val is caller data it carries untouched.
type HeapEntry struct {
	T   *task.Task
	Key uint64
	Tie int64
	Val uint64
}

// TaskHeap is an indexed binary min-heap of tasks ordered by (Key, Tie).
// Each held task's QStamp is its position, updated on every swap, so
// removal never searches. Comparisons are concrete — no interface or
// callback on the sift path. The zero value is an empty heap.
type TaskHeap struct {
	es []HeapEntry
}

// Len returns the number of held tasks.
func (h *TaskHeap) Len() int { return len(h.es) }

// At returns entry i (0 is the minimum). A caller may rewrite Key, Tie or
// Val in place as long as it calls Rebuild before the next Push or
// RemoveAt.
func (h *TaskHeap) At(i int) *HeapEntry { return &h.es[i] }

// Less reports whether entry i orders before entry j.
func (h *TaskHeap) Less(i, j int) bool {
	if h.es[i].Key != h.es[j].Key {
		return h.es[i].Key < h.es[j].Key
	}
	return h.es[i].Tie < h.es[j].Tie
}

func (h *TaskHeap) swap(i, j int) {
	h.es[i], h.es[j] = h.es[j], h.es[i]
	h.es[i].T.QStamp = uint64(i)
	h.es[j].T.QStamp = uint64(j)
}

func (h *TaskHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.Less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *TaskHeap) down(i int) {
	n := len(h.es)
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < n && h.Less(l, best) {
			best = l
		}
		if r < n && h.Less(r, best) {
			best = r
		}
		if best == i {
			return
		}
		h.swap(i, best)
		i = best
	}
}

// Push inserts e and records its position in e.T.QStamp.
func (h *TaskHeap) Push(e HeapEntry) {
	e.T.QStamp = uint64(len(h.es))
	h.es = append(h.es, e)
	h.up(len(h.es) - 1)
}

// RemoveAt removes and returns entry i — for a held task t, i is
// t.QStamp.
func (h *TaskHeap) RemoveAt(i int) HeapEntry {
	n := len(h.es) - 1
	if i < 0 || i > n {
		panic("sched: TaskHeap.RemoveAt out of range")
	}
	h.swap(i, n)
	e := h.es[n]
	h.es[n] = HeapEntry{}
	h.es = h.es[:n]
	if i < n {
		h.down(i)
		h.up(i)
	}
	return e
}

// Rebuild restores heap order in O(n) after entries were re-keyed
// through At.
func (h *TaskHeap) Rebuild() {
	for i := len(h.es)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// Check verifies heap order (no child orders before its parent) and that
// every held task's QStamp is its position.
func (h *TaskHeap) Check() error {
	for i := range h.es {
		if got := h.es[i].T.QStamp; got != uint64(i) {
			return fmt.Errorf("slot %d: task %v has QStamp %d", i, h.es[i].T, got)
		}
		for _, child := range [2]int{2*i + 1, 2*i + 2} {
			if child < len(h.es) && h.Less(child, i) {
				return fmt.Errorf("child %d orders before parent %d", child, i)
			}
		}
	}
	return nil
}
