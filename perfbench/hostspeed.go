package main

import "time"

// The host's speed drifts: on a shared 2-vCPU virtual machine the same
// webserver workload ran 1.8 times faster at one point than six minutes
// earlier, and every job, set-up included, moved with it. So before each
// job of a plain round the benchmark times one pass of a fixed reference
// computation, and scales the round's host times by how long the passes
// took against refNominal. Host-time metrics are therefore seconds on a
// host where a pass takes refNominal. The pass is this file's own code,
// so no change to the simulator moves it: a change that slows the
// simulator by a tenth still reads a tenth slower. The pass tracks about
// half of the host's drift (it moves less than the simulator does), which
// halved the spread of host-time metrics between runs.

// refNominal is a pass's median time on a 2-vCPU Intel Xeon virtual
// machine (go1.24, linux/amd64), the host the baseline was measured on.
const refNominal = 8 * time.Millisecond

// refTasks is the reference's task table: 8192 entries of 64 bytes, half a
// megabyte, linked into one cycle in a shuffled order.
const refTasks = 8192

type refTask struct {
	next, counter, priority, cpu int32
	_                            [12]int32
}

type refEvent struct {
	at uint64
	id int32
}

// hostRef is the reference computation: a binary-heap event queue whose
// every event walks a stretch of the task cycle scoring entries, like the
// simulator's event loop and goodness scan. It allocates nothing after
// newHostRef.
type hostRef struct {
	tasks  []refTask
	events []refEvent
	sink   int64
}

func newHostRef() *hostRef {
	h := &hostRef{tasks: make([]refTask, refTasks), events: make([]refEvent, 0, 1024)}
	x := uint64(88172645463325252)
	perm := make([]int32, refTasks)
	for i := range perm {
		perm[i] = int32(i)
	}
	for i := len(perm) - 1; i > 0; i-- {
		x = xorshift(x)
		j := int(x % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	for i, p := range perm {
		h.tasks[p].next = perm[(i+1)%len(perm)]
		h.tasks[i].counter = int32(x % 40)
		h.tasks[i].priority = 20
	}
	return h
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// pass runs the fixed reference work once and returns how long it took.
func (h *hostRef) pass() time.Duration {
	start := time.Now()
	h.events = h.events[:0]
	x := uint64(2463534242)
	for i := 0; i < cap(h.events); i++ {
		x = xorshift(x)
		h.push(refEvent{x % 100000, int32(i)})
	}
	cur := int32(0)
	for step := 0; step < 20000; step++ {
		e := h.pop()
		best := int32(-1)
		for k := 0; k < 24; k++ {
			t := &h.tasks[cur]
			best = max(best, t.counter+t.priority-t.cpu)
			t.counter = (t.counter + 1) & 63
			cur = t.next
		}
		h.sink += int64(best)
		x = xorshift(x)
		h.push(refEvent{e.at + x%5000, e.id})
	}
	return time.Since(start)
}

func (h *hostRef) push(e refEvent) {
	q := append(h.events, e)
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if q[p].at <= q[i].at {
			break
		}
		q[p], q[i] = q[i], q[p]
		i = p
	}
	h.events = q
}

func (h *hostRef) pop() refEvent {
	q := h.events
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	for i := 0; ; {
		l := 2*i + 1
		if l >= n {
			break
		}
		if r := l + 1; r < n && q[r].at < q[l].at {
			l = r
		}
		if q[i].at <= q[l].at {
			break
		}
		q[i], q[l] = q[l], q[i]
		i = l
	}
	h.events = q
	return top
}
