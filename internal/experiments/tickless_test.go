package experiments

import (
	"reflect"
	"testing"

	"elsc/internal/workload"
)

// TestTicklessResultEquivalenceFullRegistry is the NO_HZ soundness
// proof by exhaustion: every workload x policy x spec cell runs twice,
// tickless on and off, and the registry Result — throughput, ops,
// seconds, completion, every extra metric — must be deep-equal. The
// instants a parked chain skips are exactly firings that would have
// found the CPU idle with nothing to do, so no scheduling decision may
// move. Harness-side counters (events fired, tick cost) are what the
// optimization exists to change; the on-mode run must also show real
// savings and a silent rescue audit.
func TestTicklessResultEquivalenceFullRegistry(t *testing.T) {
	on := QuickScale()
	off := QuickScale()
	off.TicklessOff = true

	var onEvents, offEvents, skipped uint64
	for _, spec := range AllSpecs {
		for _, policy := range Policies {
			for _, load := range workload.Names() {
				ron := RunCells([]Cell{RegistryCell(spec, policy, load, on)}, on)[0]
				roff := RunCells([]Cell{RegistryCell(spec, policy, load, off)}, off)[0]
				if !reflect.DeepEqual(ron.Result, roff.Result) {
					t.Errorf("%s: results diverge:\n  on:  %+v\n  off: %+v",
						ron.Key(), ron.Result, roff.Result)
				}
				if n := ron.Stats.IdleTickRescues; n != 0 {
					t.Errorf("%s: %d idle-tick rescue(s) — an enqueue-to-idle path owes a kick", ron.Key(), n)
				}
				if n := roff.Stats.TicksSkipped; n != 0 {
					t.Errorf("%s: tickless-off run counted %d skipped ticks", roff.Key(), n)
				}
				onEvents += ron.Stats.EventsFired
				offEvents += roff.Stats.EventsFired
				skipped += ron.Stats.TicksSkipped
			}
		}
	}
	if skipped == 0 {
		t.Error("no cell skipped a single idle tick; NO_HZ is not engaging")
	}
	if onEvents >= offEvents {
		t.Errorf("tickless on fired %d events, off fired %d; parking saved nothing",
			onEvents, offEvents)
	}
}

// TestTicklessRegressionSeedsBothModes replays the pinned fuzz seeds —
// including the watchdog-heavy ones (586, 90875, -74, 90031, 91091) —
// with NO_HZ disabled, so the ablation arm keeps the same liveness
// guarantees as the default. (The default-on arm is every other fuzz
// test in this package.)
func TestTicklessRegressionSeedsBothModes(t *testing.T) {
	for _, seed := range RegressionSeeds {
		s := GenScenario(seed)
		if _, err := RunScenarioOpts(s, ScenarioOpts{TicklessOff: true}); err != nil {
			t.Errorf("tickless off: %v", err)
		}
	}
}

// TestTicklessEventReductionAtScale pins the tick-elision win on the
// idle-heavy 32P-NUMA cells: every skipped instant is one engine event
// (and one TickCost) the off-mode run pays, so skipped + ticks-fired-on
// must equal ticks-fired-off exactly, and the idle-tick share of the
// off-mode chain must drop measurably. (Total cell events are dominated
// by dispatch/wake/sleep traffic on these workloads — the tick chain is
// 3-6% of events_fired — so the reduction is reported on the chain
// itself, where it is exact.)
func TestTicklessEventReductionAtScale(t *testing.T) {
	on := QuickScale()
	off := QuickScale()
	off.TicklessOff = true
	spec := SpecByLabel("32P-NUMA")
	const tickCost = 500 // sched.DefaultCost().TickCost
	for _, load := range []string{workload.WakeStorm, workload.WebServer, workload.DB} {
		ron := RunCells([]Cell{RegistryCell(spec, O1, load, on)}, on)[0]
		roff := RunCells([]Cell{RegistryCell(spec, O1, load, off)}, off)[0]
		if !reflect.DeepEqual(ron.Result, roff.Result) {
			t.Errorf("%s: results diverge across tickless modes", ron.Key())
		}
		onTicks := ron.Stats.TickCycles / tickCost
		offTicks := roff.Stats.TickCycles / tickCost
		if onTicks+ron.Stats.TicksSkipped != offTicks {
			t.Errorf("%s: ticks fired %d + skipped %d != always-on %d — elision is not exact",
				ron.Key(), onTicks, ron.Stats.TicksSkipped, offTicks)
		}
		if ron.Stats.TicksSkipped == 0 {
			t.Errorf("%s: no idle ticks skipped on a 32-CPU machine", ron.Key())
		}
		if ron.Stats.EventsFired >= roff.Stats.EventsFired {
			t.Errorf("%s: events %d (on) vs %d (off) — no event reduction",
				ron.Key(), ron.Stats.EventsFired, roff.Stats.EventsFired)
		}
	}
}
