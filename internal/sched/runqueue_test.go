package sched

import (
	"fmt"
	"math/rand"
	"testing"

	"elsc/internal/task"
)

// The run-queue primitives' property test: random push, remove, move,
// pick, drain, pop and rebuild-after-rekey operations run against a
// PrioArray and a TaskHeap and, in lockstep, against brute-force
// references (per-level slices; an unordered entry set). After every
// operation the structures' own Check must pass and their observable
// state — level order, First/Next, Len, heap entries, QStamp
// back-pointers — must equal the reference. Every three input bytes
// drive one operation, so a shrunk counterexample names the first op
// that diverged.

const (
	rqRigCPUs   = 3
	rqArrTasks  = 10
	rqHeapTasks = 16
)

type rqRig[L LevelLists] struct {
	env *Env

	arr    PrioArray[L]
	levels int
	ref    [][]*task.Task // per level, front to back
	lvlOf  map[*task.Task]int
	atasks []*task.Task

	heap   TaskHeap
	href   map[*task.Task]HeapEntry
	htasks []*task.Task
}

func newRQRig[L LevelLists]() *rqRig[L] {
	r := &rqRig[L]{
		env:   NewEnv(rqRigCPUs, true, func() int { return rqArrTasks + rqHeapTasks }),
		lvlOf: make(map[*task.Task]int),
		href:  make(map[*task.Task]HeapEntry),
	}
	r.arr.Init()
	r.levels = len(r.arr.lists)
	r.ref = make([][]*task.Task, r.levels)
	for i := 0; i < rqArrTasks; i++ {
		r.atasks = append(r.atasks, task.New(i+1, fmt.Sprintf("a%d", i), nil, r.env.Epoch))
	}
	for i := 0; i < rqHeapTasks; i++ {
		r.htasks = append(r.htasks, task.New(100+i, fmt.Sprintf("h%d", i), nil, r.env.Epoch))
	}
	return r
}

// refCanSchedule restates can_schedule from the task fields.
func refCanSchedule(t *task.Task, cpu int) bool {
	if t.HasCPU && t.Processor != cpu {
		return false
	}
	return t.CPUsAllowed == 0 || t.CPUsAllowed>>uint(cpu)&1 == 1
}

func (r *rqRig[L]) refRemove(t *task.Task) {
	lvl := r.lvlOf[t]
	l := r.ref[lvl]
	for i, x := range l {
		if x == t {
			r.ref[lvl] = append(l[:i:i], l[i+1:]...)
			break
		}
	}
	delete(r.lvlOf, t)
}

// refMin returns the reference's least (Key, Tie).
func (r *rqRig[L]) refMin() (HeapEntry, bool) {
	var best HeapEntry
	found := false
	for _, e := range r.href {
		if !found || e.Key < best.Key || e.Key == best.Key && e.Tie < best.Tie {
			best, found = e, true
		}
	}
	return best, found
}

func (r *rqRig[L]) step(op, a, b byte) error {
	at := r.atasks[int(a)%len(r.atasks)]
	ht := r.htasks[int(a)%len(r.htasks)]
	lvl := int(b) % r.levels
	_, queued := r.lvlOf[at]
	_, held := r.href[ht]
	// Heap pushes get four op codes and pops run on half their draws,
	// so the heap settles around twelve entries, deep enough for
	// removals to sift both ways.
	switch op % 16 {
	case 0, 1: // push front / back
		if queued {
			return nil
		}
		front := op%16 == 0
		r.arr.Push(at, lvl, front)
		// A policy's own record of where it filed the task, which Drain
		// must reset.
		at.QIndex, at.QStamp, at.QZero = 1, uint64(lvl), true
		if front {
			r.ref[lvl] = append([]*task.Task{at}, r.ref[lvl]...)
		} else {
			r.ref[lvl] = append(r.ref[lvl], at)
		}
		r.lvlOf[at] = lvl
	case 2: // remove
		if queued {
			r.arr.Remove(at, r.lvlOf[at])
			r.refRemove(at)
		}
	case 3, 4: // move to front / back of its level
		if !queued {
			return nil
		}
		l := r.lvlOf[at]
		r.refRemove(at)
		r.lvlOf[at] = l
		if op%16 == 3 {
			r.arr.MoveFront(at, l)
			r.ref[l] = append([]*task.Task{at}, r.ref[l]...)
		} else {
			r.arr.MoveBack(at, l)
			r.ref[l] = append(r.ref[l], at)
		}
	case 5: // change what can_schedule sees
		at.HasCPU = b&1 == 1
		at.Processor = int(b>>1) % rqRigCPUs
		at.CPUsAllowed = uint64(b>>3) & (1<<rqRigCPUs - 1)
	case 6: // pick
		cpu := int(b) % rqRigCPUs
		var res Result
		got := r.arr.Pick(r.env, cpu, &res)
		var want *task.Task
		levelsSeen, examined := 0, 0
	walk:
		for l := range r.ref {
			if len(r.ref[l]) == 0 {
				continue
			}
			levelsSeen++
			for _, t := range r.ref[l] {
				examined++
				if refCanSchedule(t, cpu) {
					want = t
					break walk
				}
			}
		}
		if got != want {
			return fmt.Errorf("Pick(cpu %d) = %v, want %v", cpu, got, want)
		}
		cost := uint64(levelsSeen)*r.env.Cost.BitmapOp + uint64(examined)*r.env.Cost.Touch(r.env.NCPU)
		if res.Examined != examined || res.Cycles != cost {
			return fmt.Errorf("Pick charged examined=%d cycles=%d, want %d/%d", res.Examined, res.Cycles, examined, cost)
		}
	case 7: // drain
		if b%4 != 0 {
			return nil // drains empty the array; keep them rare
		}
		out := r.arr.Drain([]*task.Task{nil})
		var want []*task.Task
		for l := range r.ref {
			want = append(want, r.ref[l]...)
			r.ref[l] = nil
		}
		r.lvlOf = make(map[*task.Task]int)
		if len(out) != len(want)+1 || out[0] != nil {
			return fmt.Errorf("Drain appended %d tasks, want %d after the existing element", len(out)-1, len(want))
		}
		for i, t := range want {
			if out[i+1] != t {
				return fmt.Errorf("Drain order[%d] = %v, want %v", i, out[i+1], t)
			}
			if t.RunList.OnList() || t.QZero || t.QIndex != 0 || t.QStamp != 0 {
				return fmt.Errorf("drained task %v not detached", t)
			}
		}
	case 8, 9, 10, 11: // heap push; a narrow key range forces ties, and Ties repeat
		if held {
			return nil
		}
		e := HeapEntry{T: ht, Key: uint64(b % 6), Tie: int64(b>>3) - 8, Val: uint64(a)}
		r.heap.Push(e)
		r.href[ht] = e
	case 12: // heap remove by back-pointer
		if !held {
			return nil
		}
		e := r.heap.RemoveAt(int(ht.QStamp))
		if e != r.href[ht] {
			return fmt.Errorf("RemoveAt(QStamp of %v) = %+v, want %+v", ht, e, r.href[ht])
		}
		delete(r.href, ht)
	case 13: // heap pop minimum
		want, ok := r.refMin()
		if !ok || b%2 == 1 {
			return nil
		}
		e := r.heap.RemoveAt(0)
		if e.Key != want.Key || e.Tie != want.Tie || e != r.href[e.T] {
			return fmt.Errorf("pop = %+v, want (Key %d, Tie %d) as pushed", e, want.Key, want.Tie)
		}
		delete(r.href, e.T)
	case 14: // re-key every entry in place, then rebuild
		for i := 0; i < r.heap.Len(); i++ {
			e := r.heap.At(i)
			e.Key = (e.Key*uint64(b|1) + uint64(e.Tie)) % 7
			r.href[e.T] = *e
		}
		r.heap.Rebuild()
	}
	return nil
}

// check compares both structures with their references.
func (r *rqRig[L]) check() error {
	pos := make(map[int]int)
	err := r.arr.Check(func(t *task.Task, lvl int) error {
		i := pos[lvl]
		pos[lvl]++
		if i >= len(r.ref[lvl]) || r.ref[lvl][i] != t {
			return fmt.Errorf("level %d slot %d holds %v, reference disagrees", lvl, i, t)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("array: %w", err)
	}
	if r.arr.Len() != len(r.lvlOf) {
		return fmt.Errorf("array Len()=%d, reference holds %d", r.arr.Len(), len(r.lvlOf))
	}
	next := -1
	for l := r.levels - 1; l >= 0; l-- {
		if len(r.ref[l]) > 0 {
			next = l
		}
		if pos[l] != len(r.ref[l]) {
			return fmt.Errorf("level %d holds %d tasks, reference %d", l, pos[l], len(r.ref[l]))
		}
		if got := r.arr.Next(l); got != next {
			return fmt.Errorf("Next(%d) = %d, want %d", l, got, next)
		}
		if head := r.arr.Head(l); len(r.ref[l]) > 0 && head != r.ref[l][0] || len(r.ref[l]) == 0 && head != nil {
			return fmt.Errorf("Head(%d) = %v", l, head)
		}
	}
	if r.arr.First() != next || r.arr.Next(r.levels) != -1 {
		return fmt.Errorf("First() = %d, want %d", r.arr.First(), next)
	}

	if err := r.heap.Check(); err != nil {
		return fmt.Errorf("heap: %w", err)
	}
	if r.heap.Len() != len(r.href) {
		return fmt.Errorf("heap Len()=%d, reference holds %d", r.heap.Len(), len(r.href))
	}
	for t, want := range r.href {
		if t.QStamp >= uint64(r.heap.Len()) || *r.heap.At(int(t.QStamp)) != want {
			return fmt.Errorf("task %v: QStamp %d does not point at its entry", t, t.QStamp)
		}
	}
	return nil
}

// runRQOps replays an input at one array size, checking after every op.
func runRQOps[L LevelLists](data []byte) error {
	r := newRQRig[L]()
	for i := 0; i+2 < len(data); i += 3 {
		if err := r.step(data[i], data[i+1], data[i+2]); err != nil {
			return fmt.Errorf("%d levels, op %d (%d,%d,%d): %w", r.levels, i/3, data[i], data[i+1], data[i+2], err)
		}
		if err := r.check(); err != nil {
			return fmt.Errorf("%d levels, after op %d (%d,%d,%d): %w", r.levels, i/3, data[i], data[i+1], data[i+2], err)
		}
	}
	return nil
}

// runRQOpsBothSizes replays an input at the two array sizes the policies
// use: o1's 140 levels and cfs's 100 real-time levels.
func runRQOpsBothSizes(data []byte) error {
	if err := runRQOps[AllLevelLists](data); err != nil {
		return err
	}
	return runRQOps[RTLevelLists](data)
}

func TestRunQueuePrimitivesRandomOps(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		data := make([]byte, 900)
		rand.New(rand.NewSource(seed)).Read(data)
		if err := runRQOpsBothSizes(data); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func FuzzRunQueues(f *testing.F) {
	f.Add([]byte{0, 0, 7, 1, 1, 7, 0, 2, 139, 6, 0, 0, 5, 0, 1, 6, 0, 0, 2, 1, 0})
	f.Add([]byte{8, 0, 3, 9, 1, 3, 10, 2, 3, 13, 0, 0, 14, 0, 5, 12, 1, 0, 13, 0, 2})
	f.Add([]byte{0, 0, 64, 1, 1, 63, 3, 1, 0, 4, 0, 0, 7, 0, 0, 0, 2, 99})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1536 {
			return // long inputs add time, not coverage
		}
		if err := runRQOpsBothSizes(data); err != nil {
			t.Fatal(err)
		}
	})
}

func TestPrioArrayCheckCatchesStaleBit(t *testing.T) {
	ep := &task.Epoch{}
	var a PrioArray[RTLevelLists]
	a.Init()
	tk := mkTask(1, 20, 5, ep)
	a.Push(tk, 3, true)
	a.bitmap[0] |= 1 << 9 // a level with no tasks
	if err := a.Check(nil); err == nil {
		t.Fatal("Check accepted a bit over an empty level")
	}
}

func TestTaskHeapCheckCatchesStaleBackPointer(t *testing.T) {
	ep := &task.Epoch{}
	var h TaskHeap
	for i := 0; i < 4; i++ {
		h.Push(HeapEntry{T: mkTask(i, 20, 5, ep), Key: uint64(i)})
	}
	h.At(2).T.QStamp = 3
	if err := h.Check(); err == nil {
		t.Fatal("Check accepted a stale QStamp")
	}
}

func TestRecalcChargesEveryTask(t *testing.T) {
	env := NewEnv(2, true, func() int { return 7 })
	before := env.Epoch.N()
	res := Result{Cycles: 100}
	Recalc(env, &res)
	if env.Epoch.N() != before+1 || res.Recalcs != 1 {
		t.Fatalf("epoch %d -> %d, Recalcs %d", before, env.Epoch.N(), res.Recalcs)
	}
	if want := 100 + 7*env.Cost.RecalcPerTask; res.Cycles != want {
		t.Fatalf("Cycles = %d, want %d", res.Cycles, want)
	}
}
