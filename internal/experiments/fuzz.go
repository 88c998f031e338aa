package experiments

// The whole-machine scenario fuzzer. A Scenario is a seeded composition
// of one registry workload with mid-run fault injections — hot policy
// swaps, affinity and priority churn, fork storms, CPU hotplug storms —
// run on a real simulated machine and audited against the
// task-conservation invariants at every injection point and at the end
// of the run:
//
//   - census: every live runnable task is tracked (on the run queue or
//     holding a CPU), and the scheduler's Runnable() agrees with a walk
//     of the task table — no task lost, none double-counted;
//   - swap conservation: a policy swap migrates exactly the queued plus
//     running population, every queued task is still queued afterwards,
//     and virtual time does not move;
//   - hotplug conservation: offlining a CPU preempts and re-queues its
//     task and drains its private queues without losing anything, and
//     virtual time does not move;
//   - liveness: every machine runs with the kernel watchdog armed, so a
//     starved task, a lost wakeup, or a dead per-CPU timer chain fails
//     the scenario at the virtual instant the sweep catches it, not at
//     end-of-run;
//   - completion: the workload finishes before the horizon and every
//     storm-forked task exits;
//   - determinism: the same scenario produces byte-identical digests on
//     every run, and a scenario with zero injections reproduces the
//     plain (non-fuzzed) run's digest exactly — RunScenario checks that
//     one itself, against the baseline it measures anyway.
//
// Injection times are permille fractions of a baseline run of the same
// seed/spec/load/policy with no injections, so a swap at 500 lands
// mid-flight whether the workload runs for half a tick (wakestorm) or
// hundreds (latency). Scenarios are generated deterministically from a
// seed, so every failure the fuzzer finds is replayed by its seed alone;
// pinned seeds live in RegressionSeeds and the committed go-fuzz corpus.

import (
	"fmt"
	"strings"

	"elsc/internal/kernel"
	"elsc/internal/sim"
	"elsc/internal/task"
	"elsc/internal/workload"
)

// SwapPoint is one injected hot policy switch.
type SwapPoint struct {
	At uint64 // permille of the baseline run length
	To string // successor policy name
}

// ChurnPoint is one injected affinity/priority change on a random task.
type ChurnPoint struct {
	At     uint64
	Victim int    // index into the live task table, modulo its size
	Mask   uint64 // nonzero: pin to one CPU; zero: widen to all
	Prio   int    // nonzero: set static priority instead of affinity
}

// ForkPoint is one injected fork storm.
type ForkPoint struct {
	At   uint64
	N    int    // tasks spawned
	Work uint64 // compute cycles per task per step
}

// HotplugPoint is one injected offline→online cycle on one CPU.
type HotplugPoint struct {
	At     uint64 // offline instant, permille of the baseline run
	BackAt uint64 // online instant, permille; always > At
	CPU    int    // CPU index, modulo the spec's CPU count at run time
}

// Scenario is one deterministic whole-machine fuzz case.
type Scenario struct {
	Seed     int64
	Spec     string // machine spec label
	Load     string // registry workload name
	Policy   string // starting policy
	Swaps    []SwapPoint
	Churns   []ChurnPoint
	Forks    []ForkPoint
	Hotplugs []HotplugPoint
}

// String renders the scenario as a one-line trace for failure reports.
func (s Scenario) String() string {
	out := fmt.Sprintf("seed=%d %s/%s start=%s", s.Seed, s.Spec, s.Load, s.Policy)
	for _, sw := range s.Swaps {
		out += fmt.Sprintf(" swap@%d‰->%s", sw.At, sw.To)
	}
	for _, ch := range s.Churns {
		out += fmt.Sprintf(" churn@%d‰(mask=%#x,prio=%d)", ch.At, ch.Mask, ch.Prio)
	}
	for _, fk := range s.Forks {
		out += fmt.Sprintf(" fork@%d‰(n=%d)", fk.At, fk.N)
	}
	for _, hp := range s.Hotplugs {
		out += fmt.Sprintf(" hotplug@%d-%d‰(cpu=%d)", hp.At, hp.BackAt, hp.CPU)
	}
	return out
}

func (s Scenario) injections() int {
	return len(s.Swaps) + len(s.Churns) + len(s.Forks) + len(s.Hotplugs)
}

// fuzzSpecs are the machine shapes scenarios draw from: a paper-era SMP,
// the mid-size flat machine, and the NUMA spec — enough to cover the
// global-lock, per-CPU-lock, and domain-aware code paths.
var fuzzSpecs = []string{"2P", "4P", "8P", "32P-NUMA"}

// GenScenario derives a scenario deterministically from a seed.
func GenScenario(seed int64) Scenario {
	rng := sim.NewRNG(seed)
	loads := workload.Names()
	s := Scenario{
		Seed:   seed,
		Spec:   fuzzSpecs[rng.Intn(len(fuzzSpecs))],
		Load:   loads[rng.Intn(len(loads))],
		Policy: Policies[rng.Intn(len(Policies))],
	}
	// Injections land between 5% and 85% of the baseline run, the busy
	// stretch on every workload shape.
	at := func() uint64 { return rng.Range(50, 850) }
	for i, n := 0, rng.Intn(4); i < n; i++ {
		s.Swaps = append(s.Swaps, SwapPoint{
			At: at(),
			To: Policies[rng.Intn(len(Policies))],
		})
	}
	for i, n := 0, rng.Intn(5); i < n; i++ {
		ch := ChurnPoint{At: at(), Victim: rng.Intn(64)}
		switch rng.Intn(3) {
		case 0: // pin to one CPU (picked at run time)
			ch.Mask = 1
		case 1: // widen back to all
			ch.Mask = 0
		case 2:
			ch.Prio = 1 + rng.Intn(task.MaxPriority)
		}
		s.Churns = append(s.Churns, ch)
	}
	for i, n := 0, rng.Intn(3); i < n; i++ {
		s.Forks = append(s.Forks, ForkPoint{
			At:   at(),
			N:    1 + rng.Intn(8),
			Work: 50_000 + rng.Uint64n(400_000),
		})
	}
	// Hotplug draws come last so every seed pinned before hotplug existed
	// still generates its original swap/churn/fork composition.
	for i, n := 0, rng.Intn(3); i < n; i++ {
		off := at()
		back := off + 20 + rng.Uint64n(180)
		if back > 990 {
			back = 990
		}
		s.Hotplugs = append(s.Hotplugs, HotplugPoint{At: off, BackAt: back, CPU: rng.Intn(64)})
	}
	return s
}

// FuzzReport is what a scenario run yields when every invariant held.
type FuzzReport struct {
	Scenario Scenario
	Result   workload.Result
	Digest   string
	Migrated int // tasks handed over across all swaps
	Forked   int
	Offlined int // hot-unplugs that actually took effect
	Onlined  int // hot-plugs that actually took effect
}

// fuzzScale is the workload sizing every scenario runs at: the quick
// registry shapes, a long horizon, and the scenario's own seed.
func fuzzScale(seed int64) Scale {
	return Scale{Messages: 2, Seed: seed, HorizonSeconds: 600, Quick: true}
}

func fuzzDigest(res workload.Result, m *kernel.Machine) string {
	return fmt.Sprintf("%+v\n%s", res, m.Stats().Registry().Render())
}

// FuzzWatchdogConfig is the watchdog arming every fuzz machine runs
// with: the laxest policy-derived starvation bar, since scenarios can
// hot-swap to any registered policy mid-run.
func FuzzWatchdogConfig() kernel.WatchdogConfig {
	return kernel.WatchdogConfig{StarveQuanta: MaxWatchdogStarveQuanta()}
}

// ScenarioOpts tunes RunScenarioOpts for harness tests.
type ScenarioOpts struct {
	// FactoryFor overrides the policy-name-to-factory mapping for the
	// starting policy and every swap target (nil: the registry's
	// Factory). The seed-586 regression test uses it to replay the
	// scenario against the pre-fix mq recalc semantics.
	FactoryFor func(name string) kernel.SchedulerFactory
	// OnViolation observes every watchdog violation on the injected
	// machine, in addition to the run failing on the first one.
	OnViolation func(kernel.WatchdogViolation)
	// Trace, when non-nil, is installed on the injected machine — the
	// schedule()-decision firehose, for digging into a failing seed.
	Trace func(kernel.TraceEvent)
	// TicklessOff replays the scenario with NO_HZ idle disabled — the
	// ablation arm of the tickless regression replays.
	TicklessOff bool
}

// RunScenario executes one scenario and audits it. The returned error
// carries the scenario trace and the first violated invariant.
func RunScenario(s Scenario) (FuzzReport, error) {
	return RunScenarioOpts(s, ScenarioOpts{})
}

// RunScenarioOpts is RunScenario with harness-test hooks.
func RunScenarioOpts(s Scenario, opts ScenarioOpts) (FuzzReport, error) {
	rep := FuzzReport{Scenario: s}
	spec := SpecByLabel(s.Spec)
	sc := fuzzScale(s.Seed)
	sc.TicklessOff = opts.TicklessOff
	factoryFor := opts.FactoryFor
	if factoryFor == nil {
		factoryFor = Factory
	}

	var violation error
	fail := func(format string, args ...any) {
		if violation == nil {
			violation = fmt.Errorf("%s: %s", s, fmt.Sprintf(format, args...))
		}
	}

	// Baseline: the identical machine with no injections. It provides
	// the injection timebase (virtual cycles the undisturbed run takes)
	// and the reference digest for zero-injection scenarios. It runs
	// watchdog-armed like the injected machine — a violation here is a
	// liveness bug (or a watchdog false positive) on a clean run.
	bwd := FuzzWatchdogConfig()
	bwd.OnViolation = func(v kernel.WatchdogViolation) { fail("baseline %s", v) }
	bm := NewMachine(spec, factoryFor(s.Policy), sc, func(cfg *kernel.Config) { cfg.Watchdog = &bwd })
	bres := workload.Build(s.Load, bm, WorkloadParams(spec, sc)).Run()
	if violation != nil {
		return rep, violation
	}
	if !bres.Complete {
		return rep, fmt.Errorf("%s: baseline run incomplete", s)
	}
	span := uint64(bm.Now())

	wd := FuzzWatchdogConfig()
	wd.OnViolation = func(v kernel.WatchdogViolation) {
		fail("%s", v)
		if opts.OnViolation != nil {
			opts.OnViolation(v)
		}
	}
	m := NewMachine(spec, factoryFor(s.Policy), sc, func(cfg *kernel.Config) {
		cfg.Watchdog = &wd
		cfg.Trace = opts.Trace
	})
	inst := workload.Build(s.Load, m, WorkloadParams(spec, sc))

	rng := sim.NewRNG(s.Seed ^ 0x5eed)
	at := func(permille uint64) sim.Cycles {
		c := span * permille / 1000
		if c == 0 {
			c = 1
		}
		return c
	}

	for _, sw := range s.Swaps {
		to := sw.To
		m.Engine().After(at(sw.At), "fuzz-swap", func(now sim.Time) {
			if violation != nil {
				return
			}
			if err := auditCensus(m); err != nil {
				fail("pre-swap(%s) %v", to, err)
				return
			}
			queued := queuedTasks(m)
			running := runningCount(m)
			migrated := m.SwitchPolicy(factoryFor(to))
			rep.Migrated += migrated
			if migrated != len(queued)+running {
				fail("swap to %s migrated %d tasks, machine held %d queued + %d running",
					to, migrated, len(queued), running)
				return
			}
			if m.Now() != now {
				fail("swap to %s moved the clock from %d to %d", to, now, m.Now())
				return
			}
			for _, t := range queued {
				if !m.Scheduler().OnRunqueue(t) {
					fail("swap to %s dropped queued task %s", to, t.Name)
					return
				}
			}
			if err := auditCensus(m); err != nil {
				fail("post-swap(%s) %v", to, err)
			}
		})
	}
	for _, ch := range s.Churns {
		ch := ch
		m.Engine().After(at(ch.At), "fuzz-churn", func(now sim.Time) {
			if violation != nil {
				return
			}
			procs := m.Procs()
			p := procs[ch.Victim%len(procs)]
			if p.Exited() {
				return
			}
			switch {
			case ch.Prio > 0 && !p.Task.RealTime():
				m.SetPriority(p, ch.Prio)
			case ch.Mask != 0:
				m.SetAffinity(p, 1<<uint(rng.Intn(spec.CPUs)))
			default:
				m.SetAffinity(p, 0)
			}
			if err := auditCensus(m); err != nil {
				fail("post-churn %v", err)
			}
		})
	}
	for _, fk := range s.Forks {
		fk := fk
		m.Engine().After(at(fk.At), "fuzz-fork", func(now sim.Time) {
			if violation != nil {
				return
			}
			for i := 0; i < fk.N; i++ {
				steps := 0
				m.Spawn(fmt.Sprintf("storm%d", rep.Forked), nil,
					kernel.ProgramFunc(func(p *kernel.Proc) kernel.Action {
						steps++
						if steps > 4 {
							return kernel.Exit{}
						}
						return kernel.Compute{Cycles: fk.Work}
					}))
				rep.Forked++
			}
			if err := auditCensus(m); err != nil {
				fail("post-fork %v", err)
			}
		})
	}
	for _, hp := range s.Hotplugs {
		cpu := hp.CPU % spec.CPUs
		m.Engine().After(at(hp.At), "fuzz-offline", func(now sim.Time) {
			if violation != nil {
				return
			}
			if err := auditCensus(m); err != nil {
				fail("pre-offline(cpu%d) %v", cpu, err)
				return
			}
			queued := queuedTasks(m)
			if err := m.OfflineCPU(cpu); err != nil {
				// Refused: already offline (overlapping storms) or the
				// last online CPU. The refusal is the correct behavior;
				// nothing changed, nothing to audit.
				return
			}
			rep.Offlined++
			if m.Now() != now {
				fail("offlining cpu%d moved the clock from %d to %d", cpu, now, m.Now())
				return
			}
			for _, t := range queued {
				if !m.Scheduler().OnRunqueue(t) && !t.HasCPU {
					fail("offlining cpu%d dropped queued task %s", cpu, t.Name)
					return
				}
			}
			if err := auditCensus(m); err != nil {
				fail("post-offline(cpu%d) %v", cpu, err)
			}
		})
		m.Engine().After(at(hp.BackAt), "fuzz-online", func(now sim.Time) {
			if violation != nil {
				return
			}
			if err := m.OnlineCPU(cpu); err != nil {
				// Already online: its offline was refused, or an
				// overlapping storm brought it back first.
				return
			}
			rep.Onlined++
			if err := auditCensus(m); err != nil {
				fail("post-online(cpu%d) %v", cpu, err)
			}
		})
	}

	res := inst.Run()
	if violation != nil {
		return rep, violation
	}
	if err := auditCensus(m); err != nil {
		return rep, fmt.Errorf("%s: end-of-run %v", s, err)
	}
	if !res.Complete {
		return rep, fmt.Errorf("%s: workload incomplete after %.0fs virtual", s, res.Seconds)
	}
	if rep.Forked > 0 {
		// Let the fork-storm stragglers finish; they are pure compute
		// and must all exit before the horizon.
		m.Run(func() bool { return stormsLeft(m) == 0 })
		if left := stormsLeft(m); left > 0 {
			return rep, fmt.Errorf("%s: %d forked tasks never exited", s, left)
		}
	}
	rep.Result = res
	rep.Digest = fuzzDigest(res, m)
	if s.injections() == 0 && rep.Digest != fuzzDigest(bres, bm) {
		return rep, fmt.Errorf(
			"%s: zero-injection scenario diverged from the plain run:\n--- fuzz\n%s\n--- plain\n%s",
			s, rep.Digest, fuzzDigest(bres, bm))
	}
	return rep, nil
}

// stormsLeft counts fork-storm tasks that have not exited yet.
func stormsLeft(m *kernel.Machine) int {
	n := 0
	for _, p := range m.Procs() {
		if !p.Exited() && strings.HasPrefix(p.Task.Name, "storm") {
			n++
		}
	}
	return n
}

// queuedTasks returns the live tasks currently queued (tracked by the
// scheduler and not holding a CPU).
func queuedTasks(m *kernel.Machine) []*task.Task {
	var out []*task.Task
	for _, p := range m.Procs() {
		if p.Exited() {
			continue
		}
		t := p.Task
		if t.Runnable() && !t.HasCPU && m.Scheduler().OnRunqueue(t) {
			out = append(out, t)
		}
	}
	return out
}

// runningCount returns the number of live tasks holding (or claimed for)
// a CPU.
func runningCount(m *kernel.Machine) int {
	n := 0
	for _, p := range m.Procs() {
		if !p.Exited() && p.Task.HasCPU {
			n++
		}
	}
	return n
}

// AuditCensus re-exports the fuzzer's conservation walk for other suites
// (the hotplug conformance tests audit machines mid-cycle with it).
func AuditCensus(m *kernel.Machine) error { return auditCensus(m) }

// auditCensus walks the task table and checks task conservation: every
// live runnable task is either queued or running (nothing vanished), and
// the scheduler's Runnable() count agrees with the walk (nothing is
// double-tracked).
func auditCensus(m *kernel.Machine) error {
	queued := 0
	for _, p := range m.Procs() {
		if p.Exited() {
			continue
		}
		t := p.Task
		if !t.Runnable() {
			continue
		}
		tracked := m.Scheduler().OnRunqueue(t)
		switch {
		case t.HasCPU:
			// Running; some policies also keep it listed. Fine either way.
		case tracked:
			queued++
		default:
			return fmt.Errorf("census: runnable task %s (id %d) neither queued nor running",
				t.Name, t.ID)
		}
	}
	if got := m.Scheduler().Runnable(); got != queued {
		var names []string
		for _, p := range m.Procs() {
			t := p.Task
			if !p.Exited() && t.Runnable() && !t.HasCPU && m.Scheduler().OnRunqueue(t) {
				names = append(names, fmt.Sprintf("%s(id=%d,cpu=%d)", t.Name, t.ID, t.Processor))
			}
		}
		return fmt.Errorf("census: scheduler reports %d runnable, task table holds %d queued: %s",
			got, queued, strings.Join(names, " "))
	}
	// The tickless-idle liveness bar: an idle tick that had to rescue a
	// queued task means some enqueue-to-idle path failed to deliver a
	// kick — the machine survived only because the rescue safety net
	// caught it. That is a lost-kick bug wherever it happens.
	if n := m.Stats().IdleTickRescues; n != 0 {
		return fmt.Errorf("census: %d idle-tick rescue(s): a queued task sat on an idle CPU with no kick in flight", n)
	}
	return nil
}

// RegressionSeeds are scenario seeds pinned by TestFuzzRegressionScenarios:
// each one reproduces a composition that once found (or guards against) a
// real bug in the swap path, plus a spread of zero-injection baselines.
//
// Seed 586 (4P/latency, reg->mq swap plus affinity churn) starved a
// never-run probe for the whole 600-second horizon: mq recalculated
// counters whenever one private queue was exhausted, endlessly recharging
// the hogs sharing the probe's queue past its capped counter. Fixed by
// restoring the stock recalc condition (no quantum left anywhere) with a
// steal of the best remote task that still has quantum. The pre-fix
// semantics survive behind mq.Config.RecalcOnLocalExhaustion, and
// TestWatchdogCatchesSeed586PreFix replays this seed against them to
// prove the watchdog would have flagged the starvation at its first
// threshold crossing instead of end-of-run.
//
// Seeds 7700 and 31337 pin hotplug-storm compositions: offline→online
// cycles racing swaps and churn across the mid-size and NUMA specs.
//
// Seed 90875 (32P-NUMA/latency, heap→mq swap, churn that pinned a
// max-priority probe to a busy CPU, two hotplug cycles) was the armed
// watchdog's first live catch: with the probe exhausted and pinned, every
// other CPU's quantum expiry found nothing stealable and bumped the recalc
// epoch, and the running hogs — lazily resyncing their counters on each
// tick — absorbed counter/2+priority refills mid-quantum, postponing their
// own expiry ~10x past the nominal quantum. The whole 32-CPU machine
// collapsed to one or two schedule() calls per 100M cycles while the probe
// starved for 1.36G cycles. Fixed in task.TickDecrement: a running task's
// quantum is fixed at dispatch, remote recalcs no longer refill it.
//
// Seed -74 (4P/db, elsc, fork storm racing an offline) stranded a task the
// offlined CPU had claimed mid-dispatch: offlineDispatch released claimed
// tasks only when the policy said they were off the queue, but the global
// policies leave the run-list marker set on a running task (footnote 3),
// so the release was skipped — marked queued, in no list, invisible to
// every count. Caught by the post-fork census audit; fixed by mirroring
// the OfflineCPU preempt path's del-then-add release.
//
// Seed 90031 (4P/latency, heap, priority churn) pinned the watchdog's one
// false positive: the starvation threshold scales with the task's own
// quantum, so churning a long-queued hog from priority 20 down to 1 shrank
// its bar twenty-fold and the wait accrued under the old quantum crossed
// it instantly. SetPriority now restarts the starvation stopwatch of a
// queued task, the same way reconfiguring a real hung-task watchdog
// touches it.
//
// Seed 91091 (2P/latency, o1→heap, early churn to priority 1) pinned the
// companion calibration bug: the threshold scaled with the starved task's
// own quantum, but one turn of the rotation waits behind everyone else's
// timeslice — a priority-1 hog among twenty-five priority-20 hogs on two
// CPUs legitimately waits ~150 of its own 2-tick slices. The yardstick is
// now the largest runnable task's quantum.
//
// Seed 90622 (32P-NUMA/kbuild, elsc with churn) was the tickless rescue
// audit's first fuzz catch: a compile task descheduled-while-runnable by
// a wake preemption sat queued with quantum in hand while another CPU
// idled — the requeue path kicked no one, and with the idle CPU's tick
// chain parked nothing would ever notice it. 2.4's __schedule_tail runs
// reschedule_idle(prev) for exactly this; reschedule now kicks an idle
// allowed CPU for any still-selectable prev it did not re-choose.
//
// Seed 90140 (2P/kbuild, swap storm ending in heap) pinned the audit's
// decline case: a task with quantum sat on an idle CPU's own heap,
// buried under an exhausted top — the heap design's documented
// structural blind spot — while a pinned top kept the recalc from
// firing. schedule() refuses such a task by design, in both tickless
// modes, so a rescue is only charged when the reschedule actually
// dispatches something; a declined poll keeps the chain armed until the
// refusal's own resolution (here the recalc, whose epoch bump delivers
// the kick) and counts nothing.
//
// Seed 1197 (8P/latency, swap storm ending in heap, affinity churn)
// caught the pop-exposure variant of the same blind spot: a task pinned
// to one busy CPU topped the shared never-ran heap, hiding two dozen
// charged tasks from every other CPU while all other heap tops sat
// exhausted. When the pinned task's CPU finally dispatched it, the pop
// exposed the backlog to the whole machine — but the one kick those
// wake-ups had piggybacked on was long consumed, so the idle CPUs
// learned nothing and their polling ticks drained the queue one rescue
// at a time. reschedule now sweeps for stranded backlog (kickIdleBacklog)
// after any decision that dispatched a task or bumped the epoch — the
// two events that make previously undeliverable work deliverable.
//
// Seed 90093 (32P-NUMA/webserver, o1) caught a wake racing its home
// CPU's transition to idle: the owner was not isIdle() yet, so
// reschedule_idle kicked an idle CPU in a remote NUMA domain instead,
// whose steal rightly declined the one-deep queue — and once the owner's
// switch completed, nothing would ever look at its queue again. With
// per-CPU queues the owner is now served first: kicked when idle,
// flagged needResched when mid-transition to idle (the completion
// re-runs schedule(), exactly like a kick landing in flight); the
// global-queue path gained the equivalent almost-idle delivery before
// falling back to preemption.
//
// Seed -351 (4P/latency, heap, pin churn plus a hotplug cycle) caught
// the transition-race variant of the kickIdleBacklog sweep itself: a
// CPU dispatching a pinned task off a shared heap top exposed charged
// backlog just as another CPU was descheduling to idle — not isIdle()
// yet, so the sweep skipped it, and its switch completed into a parked
// tick with work visible on the queue. The sweep now treats a CPU
// mid-transition to idle as almost-idle and flags needResched, the same
// delivery rescheduleIdle uses for that window.
var RegressionSeeds = []int64{
	1, 2, 3, 5, 8, 13, 42, 586, 1001, 7700, 31337, 90210, 90875, -74, 90031, 91091, 90622, 90140, 1197, 90093, -351,
}
