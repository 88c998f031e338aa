package sim

import "math/bits"

// Hierarchical timer wheel: a fast path in front of the min-heap for the
// event classes that dominate a scheduler simulation — strictly-periodic
// re-armed timers (per-CPU tick, watchdog sweep) and near-deadline
// latencies (IPI, dispatch, short sleeps). Insert and cancel are O(1);
// firing order is still exactly (At, seq) across both structures, so the
// wheel is invisible to everything but the profiler.
//
// Geometry: wheelLevels levels of wheelSlots slots each. A level-0 slot
// covers wheelGran0 cycles — coarse enough that the cursor crosses a
// typical inter-event gap in a couple of bitmap words, fine enough that a
// slot rarely holds more than a handful of deadlines — and keeps its
// residents sorted by (At, seq) so the head is always the slot's next
// firing. Each coarser level multiplies the slot span by wheelSlots; an
// event whose deadline is further out than a level can express parks in a
// coarser level and cascades down one level at a time as the cursor
// crosses its window start. Power-of-two sizing makes every slot index a
// shift+mask and aligns window boundaries with bitmap words, so cursor
// scans never wrap mid-window.
const (
	wheelShift  = 9 // log2 cycles per level-0 slot
	wheelBits   = 11
	wheelSlots  = 1 << wheelBits // 2048 slots per level
	wheelMask   = wheelSlots - 1
	wheelLevels = 3
	wheelWords  = wheelSlots / 64

	// wheelGran0 is the level-0 slot granularity (512 cycles, ~1.3µs at
	// the default clock); wheelSpan0 is the level-0 ring span and the
	// level-1 slot granularity (~1M cycles, ~2.6ms).
	wheelGran0 = 1 << wheelShift
	wheelSpan0 = 1 << (wheelShift + wheelBits)
	// wheelGran2 is the level-2 slot granularity — equivalently the span
	// of the level-1 ring (~2.1G cycles, ~5.4s at the default clock).
	// Unhinted one-shot events take the wheel only inside this span; the
	// heap keeps the far-future long tail.
	wheelGran2 = 1 << (wheelShift + 2*wheelBits)
	// wheelHorizon is the span of the level-2 ring (~4.4T cycles): the
	// furthest deadline the wheel can express at all. Periodic-hinted
	// events ride the wheel anywhere inside it.
	wheelHorizon = 1 << (wheelShift + 3*wheelBits)
)

// slot heads one intrusive singly-linked list of events (chained
// through Event.wheelNext). Level-0 lists are kept sorted by (At, seq);
// the tail pointer makes the common insert — a fresh arm whose deadline
// lands at or past everything already parked — an O(1) append.
type slot struct {
	head, tail *Event
}

// wheel is the three-level ring. cur is the cursor: every resident event
// satisfies At >= cur, and cur only advances as far as a caller-supplied
// limit justifies, so later arms can still land ahead of it. Occupancy
// bitmaps (one bit per slot) let scans skip 64 empty slots per word, and
// per-level resident counts let them skip levels entirely.
type wheel struct {
	cur   Time
	count int // resident events, including lazily-cancelled ones
	occ   [wheelLevels]int

	// One-entry scan cache: the engine asks for the wheel's earliest
	// event once per dispatch, but the answer only changes when the
	// wheel does. hit is a confirmed global earliest — the live head of
	// the level-0 slot the cursor stands on — and stays valid until it
	// is popped, cancelled, or beaten by an earlier arm; popping it
	// promotes its slot successor, so a burst draining one slot never
	// rescans. missTo (valid when missOK) records a confirmed "nothing
	// at or before missTo", valid until an arm lands inside that range.
	hit    *Event
	missTo Time
	missOK bool

	bits  [wheelLevels][wheelWords]uint64
	slots [wheelLevels][wheelSlots]slot
}

// wheelInsert routes an armed event onto the wheel when its deadline is
// in range, reporting whether it did. Deadlines behind the cursor (or
// beyond the event's allowed span) fall back to the heap, which handles
// any (At, seq) — the split is pure fast-path/slow-path.
func (e *Engine) wheelInsert(ev *Event, at Time) bool {
	if e.noWheel {
		return false
	}
	w := e.wheel
	if w == nil {
		w = &wheel{cur: e.now}
		e.wheel = w
	} else if w.count == 0 && w.cur != e.now {
		// Empty wheel: resynchronize the cursor so level selection sees
		// true deltas (cur may trail now after a heap-only stretch, or
		// sit past it after a capped advance).
		w.cur = e.now
	}
	if at < w.cur {
		return false
	}
	delta := at - w.cur
	if ev.periodic {
		if delta >= wheelHorizon {
			return false
		}
	} else if delta >= wheelGran2 {
		return false
	}
	if w.hit != nil && at < w.hit.At {
		// The new arrival fires strictly before the confirmed earliest,
		// so it is the new confirmed earliest (an equal At keeps the
		// incumbent: it carries the older seq).
		w.hit = ev
	}
	if w.missOK && at <= w.missTo {
		w.missOK = false
	}
	w.insert(ev, at)
	return true
}

// insert links ev into the slot its deadline selects at the finest level
// that can still express it.
func (w *wheel) insert(ev *Event, at Time) {
	delta := at - w.cur
	l := 0
	for l < wheelLevels-1 && delta>>(wheelShift+wheelBits*(l+1)) != 0 {
		l++
	}
	// delta can reach the full horizon during a cascade of a lap-wrapped
	// top-level slot (the event belongs to the slot's next window, one
	// whole ring revolution out); re-parking it in the same slot is
	// exactly right — it surfaces again when that window opens.
	idx := int(at>>(wheelShift+wheelBits*l)) & wheelMask
	s := &w.slots[l][idx]
	w.count++
	w.occ[l]++
	if s.head == nil {
		ev.wheelNext = nil
		s.head, s.tail = ev, ev
		w.bits[l][idx>>6] |= 1 << (idx & 63)
		return
	}
	if l > 0 {
		// Upper-level slots are only ever drained whole by a cascade,
		// which re-inserts each survivor individually — list order is
		// irrelevant there, so push front.
		ev.wheelNext = s.head
		s.head = ev
		return
	}
	// A level-0 slot pops from the head, so it must stay sorted by
	// (At, seq). A fresh arm usually lands at or past everything parked
	// (it carries the highest seq yet issued) and appends at the tail;
	// cascaded events and same-slot earlier deadlines walk to their spot.
	t := s.tail
	if t.At < ev.At || (t.At == ev.At && t.seq < ev.seq) {
		ev.wheelNext = nil
		t.wheelNext = ev
		s.tail = ev
		return
	}
	h := s.head
	if ev.At < h.At || (ev.At == h.At && ev.seq < h.seq) {
		ev.wheelNext = h
		s.head = ev
		return
	}
	p := h
	for n := p.wheelNext; n.At < ev.At || (n.At == ev.At && n.seq < ev.seq); n = p.wheelNext {
		p = n
	}
	// Not past the tail (that was the append case), so tail is unchanged.
	ev.wheelNext = p.wheelNext
	p.wheelNext = ev
}

// cascade drains one upper-level slot whose window start the cursor has
// reached, re-inserting each survivor at a finer level and recycling
// lazily-cancelled corpses.
func (e *Engine) cascade(l, idx int) {
	w := e.wheel
	s := &w.slots[l][idx]
	ev := s.head
	s.head, s.tail = nil, nil
	w.bits[l][idx>>6] &^= 1 << (idx & 63)
	for ev != nil {
		next := ev.wheelNext
		ev.wheelNext = nil
		w.count--
		w.occ[l]--
		if ev.cancelled {
			ev.queued = false
			e.release(ev)
		} else {
			w.insert(ev, ev.At)
		}
		ev = next
	}
}

// wheelOpen stands at window boundary t (a multiple of wheelSpan0) and
// cascades the level-1 — and, at coarser alignments, level-2 — slots
// whose windows open there.
func (e *Engine) wheelOpen(t Time) {
	w := e.wheel
	if t&(wheelGran2-1) == 0 {
		idx := int(t>>(wheelShift+2*wheelBits)) & wheelMask
		if w.bits[2][idx>>6]&(1<<(idx&63)) != 0 {
			e.cascade(2, idx)
		}
	}
	idx := int(t>>(wheelShift+wheelBits)) & wheelMask
	if w.bits[1][idx>>6]&(1<<(idx&63)) != 0 {
		e.cascade(1, idx)
	}
}

// scan finds the first occupied slot of level l at ring index >= from,
// never wrapping — window boundaries are aligned with the bitmap end, so
// a wrapped slot always belongs to a window past the next boundary and
// is the next lap's business.
func (w *wheel) scan(l, from int) (int, bool) {
	if word := w.bits[l][from>>6] >> (from & 63); word != 0 {
		return from + bits.TrailingZeros64(word), true
	}
	for i := from>>6 + 1; i < wheelWords; i++ {
		if word := w.bits[l][i]; word != 0 {
			return i<<6 + bits.TrailingZeros64(word), true
		}
	}
	return 0, false
}

// wheelScanL0 searches level 0 from the cursor to the end of its current
// window (exclusive boundary b), never surfacing an event past limit,
// pruning lazily-cancelled slot heads as it goes. On a hit the cursor
// stands on the event's slot; on a miss it stands where the scan
// stopped, so the next scan resumes without rework.
func (e *Engine) wheelScanL0(b, limit Time) *Event {
	w := e.wheel
	stop := b - 1
	if limit < stop {
		stop = limit
	}
	for w.cur <= stop && w.occ[0] > 0 {
		sidx := int(w.cur>>wheelShift) & wheelMask
		word := w.bits[0][sidx>>6] >> (sidx & 63)
		if word == 0 {
			w.cur = (w.cur>>wheelShift + Time(64-sidx&63)) << wheelShift
			continue
		}
		if skip := bits.TrailingZeros64(word); skip > 0 {
			w.cur = (w.cur>>wheelShift + Time(skip)) << wheelShift
			if w.cur > stop {
				// The next occupied slot starts beyond the cap, so every
				// deadline in it lies beyond the cap too; leave the
				// cursor on it (cur never passes a resident event).
				return nil
			}
			sidx = int(w.cur>>wheelShift) & wheelMask
		}
		s := &w.slots[0][sidx]
		for s.head != nil && s.head.cancelled {
			dead := s.head
			s.head = dead.wheelNext
			dead.wheelNext = nil
			dead.queued = false
			w.count--
			w.occ[0]--
			e.release(dead)
		}
		if s.head != nil {
			if s.head.At > limit {
				// The slot straddles the cap: its earliest live deadline
				// is past limit. Hold the cursor at the slot.
				return nil
			}
			return s.head
		}
		s.tail = nil
		w.bits[0][sidx>>6] &^= 1 << (sidx & 63)
		w.cur = (w.cur>>wheelShift + 1) << wheelShift
	}
	if w.cur >= b {
		// A word-skip (or final prune) landed exactly on the window
		// boundary. Hold the cursor inside the window — the last slot is
		// verified empty, and reaching b is exclusively the open path's
		// job: wheelEarliest must cascade b's window before the cursor
		// may stand on it.
		w.cur = b - 1
	}
	return nil
}

// nextWindow finds the start of the next window at or after b (a level-0
// span boundary) whose opening can surface events: the first occupied
// level-1 slot of the current lap, or an occupied level-2 slot at a lap
// boundary. Reports false when that start would lie past limit. Called
// only with level 0 empty and count > 0, so it terminates: every
// resident event is within one lap-wrap of its level's current lap.
func (w *wheel) nextWindow(b, limit Time) (Time, bool) {
	for {
		if b > limit {
			return 0, false
		}
		if b&(wheelGran2-1) == 0 {
			idx2 := int(b>>(wheelShift+2*wheelBits)) & wheelMask
			if w.bits[2][idx2>>6]&(1<<(idx2&63)) != 0 {
				// A level-2 window opens exactly here; it must cascade
				// before any finer window inside it is considered.
				return b, true
			}
			if w.occ[1] == 0 {
				if k, ok := w.scan(2, idx2); ok {
					t := b + Time(k-idx2)<<(wheelShift+2*wheelBits)
					if t > limit {
						return 0, false
					}
					return t, true
				}
				// Rest of the level-2 lap is empty: wrap to the next.
				b = (b &^ Time(wheelHorizon-1)) + wheelHorizon
				continue
			}
		}
		idx := int(b>>(wheelShift+wheelBits)) & wheelMask
		if j, ok := w.scan(1, idx); ok {
			t := b + Time(j-idx)<<(wheelShift+wheelBits)
			if t > limit {
				return 0, false
			}
			return t, true
		}
		// Level 1 empty for the rest of this lap: cross into the next
		// lap, where the level-2 slot check above takes over.
		b = (b &^ Time(wheelGran2-1)) + wheelGran2
	}
}

// wheelEarliest returns the earliest live wheel event at or before
// limit, advancing the cursor — cascading windows open along the way —
// but never opening a window that starts after limit. The cap keeps the
// advance conservative: the engine passes the heap root's time (or the
// run horizon) as limit, so events armed after a capped advance still
// order correctly against everything resident.
func (e *Engine) wheelEarliest(limit Time) *Event {
	w := e.wheel
	if w == nil {
		return nil
	}
	if w.hit != nil && !w.hit.cancelled {
		// Confirmed global earliest: answer without touching the rings.
		if w.hit.At <= limit {
			return w.hit
		}
		return nil
	}
	w.hit = nil
	if w.missOK && limit <= w.missTo {
		return nil
	}
	for w.count > 0 {
		b := (w.cur &^ Time(wheelSpan0-1)) + wheelSpan0
		if w.occ[0] > 0 {
			if ev := e.wheelScanL0(b, limit); ev != nil {
				w.hit = ev
				return ev
			}
			if b > limit {
				break
			}
			w.cur = b
			e.wheelOpen(b)
			continue
		}
		t, ok := w.nextWindow(b, limit)
		if !ok {
			break
		}
		w.cur = t
		e.wheelOpen(t)
	}
	w.missOK = true
	w.missTo = limit
	return nil
}

// popWheel unlinks ev — positioned by wheelEarliest as the live head of
// the level-0 slot under the cursor — from the wheel. The slot successor
// (if any) is promoted straight into the scan cache: level-0 lists are
// (At, seq)-sorted and every other resident lives at or past this slot's
// window, so the successor is provably the wheel's next earliest.
func (e *Engine) popWheel(ev *Event) {
	w := e.wheel
	idx := int(ev.At>>wheelShift) & wheelMask
	s := &w.slots[0][idx]
	next := ev.wheelNext
	ev.wheelNext = nil // a recycled event must not keep its old slot-mates reachable
	s.head = next
	if next == nil {
		s.tail = nil
		w.bits[0][idx>>6] &^= 1 << (idx & 63)
		// The slot drained: probe the rest of its bitmap word. Slots at
		// ring indices above the cursor's hold only current-window
		// deadlines (next-lap inserts land strictly below the cursor
		// index), which fire before every level-1/2 resident and every
		// wrapped slot — so the next occupied slot's head, if the word
		// has one, is provably the wheel's next earliest, and a burst
		// spanning nearby slots keeps the cache warm across 64 slots at
		// a time. (A cancelled head is fine: the cache rechecks.)
		if word := w.bits[0][idx>>6] >> (idx & 63); word != 0 {
			next = w.slots[0][idx+bits.TrailingZeros64(word)].head
		}
	}
	w.hit = next
	ev.queued = false
	w.count--
	w.occ[0]--
}

// wheelReset drops every resident event (recycling engine-owned ones via
// release) and rewinds the cursor, walking only occupied slots via the
// bitmaps so the cost scales with residency, not ring size.
func (e *Engine) wheelReset() {
	w := e.wheel
	if w == nil {
		return
	}
	if w.count > 0 {
		for l := 0; l < wheelLevels; l++ {
			if w.occ[l] == 0 {
				continue
			}
			for wi := range w.bits[l] {
				word := w.bits[l][wi]
				w.bits[l][wi] = 0
				for word != 0 {
					bit := bits.TrailingZeros64(word)
					word &^= 1 << bit
					s := &w.slots[l][wi<<6+bit]
					for ev := s.head; ev != nil; {
						next := ev.wheelNext
						ev.wheelNext = nil
						ev.queued = false
						ev.cancelled = false
						e.release(ev)
						ev = next
					}
					s.head, s.tail = nil, nil
				}
			}
			w.occ[l] = 0
		}
		w.count = 0
	}
	w.cur = 0
	w.hit = nil
	w.missOK = false
	w.missTo = 0
}
