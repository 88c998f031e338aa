package sim

import (
	"testing"
)

// TestWheelAllocs proves the wheel's steady state is allocation-free: a
// warmed engine re-arming a periodic event and recycling one-shot
// events through the freelist performs zero heap allocations per
// schedule/dispatch cycle. The first arm pays for the wheel rings and
// the Event; everything after that must be reuse.
func TestWheelAllocs(t *testing.T) {
	e := new(Engine)
	var tick *Event
	period := Cycles(4_000_000) // a kernel tick: lands in wheel level 1
	tick = e.NewPeriodicEvent("tick", func(now Time) {
		e.ScheduleAfter(tick, period)
	})
	e.ScheduleAfter(tick, period)
	// Warm the wheel, the freelist, and the one-shot path.
	e.After(1_000, "warm", func(Time) {})
	for i := 0; i < 64; i++ {
		e.Step()
	}
	if n := testing.AllocsPerRun(200, func() {
		e.After(45_000, "oneshot", func(Time) {})
		e.Step()
	}); n != 0 {
		t.Fatalf("wheel steady state allocates %.1f allocs/op, want 0", n)
	}
}

// TestWheelHeapSplitCounts checks FiredWheel/FiredHeap partition Fired:
// near events dispatch from the wheel, a far unhinted one-shot from the
// heap.
func TestWheelHeapSplitCounts(t *testing.T) {
	e := new(Engine)
	e.After(100, "near", func(Time) {})
	e.After(wheelGran2+100, "far", func(Time) {}) // beyond one-shot wheel range
	e.Run(nil)
	if e.FiredWheel() != 1 || e.FiredHeap() != 1 {
		t.Fatalf("FiredWheel=%d FiredHeap=%d, want 1 and 1", e.FiredWheel(), e.FiredHeap())
	}
	if e.Fired() != e.FiredWheel()+e.FiredHeap() {
		t.Fatalf("Fired=%d does not equal wheel+heap=%d", e.Fired(), e.FiredWheel()+e.FiredHeap())
	}
}

// BenchmarkWheelTick measures the wheel's periodic fast path: one
// kernel-tick-style event re-arming itself every 4M cycles, which lands
// in wheel level 1 and cascades once per fire. This is the dominant
// event shape of a machine simulation.
func BenchmarkWheelTick(b *testing.B) {
	e := new(Engine)
	var tick *Event
	tick = e.NewPeriodicEvent("tick", func(now Time) {
		e.ScheduleAfter(tick, 4_000_000)
	})
	e.ScheduleAfter(tick, 4_000_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkCascade measures cross-level traffic: every event is
// inserted a full level-0 span ahead, so each one parks in level 1 and
// must cascade into level 0 before it can fire.
func BenchmarkCascade(b *testing.B) {
	e := new(Engine)
	var ev *Event
	ev = e.NewPeriodicEvent("cascade", func(now Time) {
		e.ScheduleAfter(ev, Cycles(wheelSpan0)+wheelGran0*3)
	})
	e.ScheduleAfter(ev, Cycles(wheelSpan0)+wheelGran0*3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkWheelMixed interleaves a periodic tick with short one-shot
// events — the IPC-heavy cell shape, where most arms and pops hit
// level 0 and the scan cache.
func BenchmarkWheelMixed(b *testing.B) {
	e := new(Engine)
	var tick *Event
	tick = e.NewPeriodicEvent("tick", func(now Time) {
		e.ScheduleAfter(tick, 4_000_000)
	})
	e.ScheduleAfter(tick, 4_000_000)
	fn := func(Time) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(Cycles(20_000+(i%7)*11_000), "io", fn)
		e.Step()
	}
}

// TestResetLeavesNoWheelLinksOnFreelist checks that every way out of a
// wheel slot — a pop, a pruned cancelled head, a cancelled event dropped
// while cascading — clears the event's slot link. A recycled event that
// kept it would hold its former slot-mates, and through their callbacks
// whole earlier simulations, reachable from the freelist across Reset.
func TestResetLeavesNoWheelLinksOnFreelist(t *testing.T) {
	e := new(Engine)
	var near, far []*Event
	for i := 0; i < 8; i++ {
		// Eight deadlines in one level-0 slot, eight in one level-1 slot.
		near = append(near, e.After(Cycles(100+i), "near", func(Time) {}))
		far = append(far, e.After(Cycles(wheelSpan0+100+i), "far", func(Time) {}))
	}
	e.Cancel(near[0]) // pruned as the slot's cancelled head
	e.Cancel(near[1])
	e.Cancel(near[5])
	e.Cancel(far[0]) // dropped while its slot cascades
	e.Cancel(far[3])
	for i := 0; i < 8; i++ {
		e.Step()
	}
	e.Reset()
	if len(e.free) == 0 {
		t.Fatal("nothing reached the freelist")
	}
	for i, ev := range e.free {
		if ev.wheelNext != nil {
			t.Fatalf("freelist event %d (%s) still links to %s", i, ev.Name, ev.wheelNext.Name)
		}
	}
}
