// Package kernel simulates the parts of Linux 2.3.99-pre4 that surround
// the scheduler: an SMP machine with per-CPU dispatch, 10 ms timer ticks
// and quantum accounting, wait queues with wake-up preemption
// (reschedule_idle), the global run-queue spinlock, and a cache-affinity
// cost model. Scheduling policies plug in through sched.Scheduler, so the
// stock scheduler and ELSC run on an identical substrate.
//
// The simulation is a single-threaded discrete-event program over virtual
// CPU cycles; all scheduler work, lock spinning, context-switch and
// cache-refill penalties consume virtual CPU time, so workload throughput
// differences between schedulers emerge from the algorithms rather than
// being asserted.
package kernel

import (
	"fmt"
	"math/bits"

	"elsc/internal/sched"
	"elsc/internal/sim"
	"elsc/internal/task"
)

// Default machine parameters: a 400 MHz Pentium II-class SMP (the paper's
// IBM Netfinity testbeds) with HZ=100.
const (
	// DefaultHz is the simulated CPU clock rate in cycles per second.
	DefaultHz = 400_000_000
	// DefaultTickCycles is the timer interrupt period: 10 ms at 400 MHz.
	DefaultTickCycles = DefaultHz / 100
	// ipiLatency is the delay before a cross-CPU reschedule interrupt
	// lands.
	ipiLatency = 1200
	// syscallRetryCost is charged each time a blocked syscall recheck
	// runs after a wake-up.
	syscallRetryCost = 250
)

// SchedulerFactory builds a scheduling policy bound to the machine's
// environment.
type SchedulerFactory func(env *sched.Env) sched.Scheduler

// Config describes the machine to simulate.
type Config struct {
	// CPUs is the processor count, 1 to 64.
	CPUs int
	// SMP selects an SMP kernel build. The paper's "UP" rows are
	// CPUs=1, SMP=false; its "1P" rows are CPUs=1, SMP=true.
	SMP bool
	// Topology groups the CPUs into cache domains. Nil means flat: all
	// CPUs share one domain and no dispatch is ever cross-domain, which
	// reproduces the paper-era machines. A non-nil topology must cover
	// exactly CPUs processors; dispatches that cross a domain boundary
	// pay Cost.CrossDomainRefillMax instead of CacheRefillMax.
	Topology *sched.Topology
	// Seed drives all randomness in the machine and its workloads.
	Seed int64
	// NewScheduler builds the policy; nil panics.
	NewScheduler SchedulerFactory
	// Cost overrides the default cost model when non-nil.
	Cost *sched.CostModel
	// MaxCycles stops the simulation at this virtual time (0 = none).
	MaxCycles uint64
	// UniformSpawnCounter starts every task with a full quantum instead
	// of modeling fork's counter inheritance (the parent's quantum is
	// split with the child, so a process that forks many threads seeds
	// them with varied counters). Uniform counters make goodness
	// comparisons tie everywhere — convenient for unit tests, but not a
	// regime a real machine ever runs in.
	UniformSpawnCounter bool
	// Trace, when non-nil, is invoked at every schedule() decision.
	Trace func(ev TraceEvent)
	// TicklessOff disables NO_HZ tickless idle: every CPU re-arms its
	// timer tick forever, even while idle, as the pre-tickless kernel
	// did. The ablation knob for proving behavior equivalence — tickless
	// parking elides only ticks that would have been idle no-ops, so
	// scheduling decisions (and workload Results) are identical in both
	// modes while event counts and tick overhead differ.
	TicklessOff bool
	// Watchdog, when non-nil, arms the starvation/lockup watchdog at
	// boot (see WatchdogConfig). Off by default: the watchdog adds
	// periodic engine events, which perturbs event counts.
	Watchdog *WatchdogConfig
	// Engine, when non-nil, is a recycled event engine the machine boots
	// on instead of allocating a fresh one. NewMachine resets it, so its
	// heap array, wheel rings, and event freelist carry over from the
	// previous simulation — sweep workers run hundreds of cells without
	// re-paying engine construction. The engine must not be shared by a
	// live machine.
	Engine *sim.Engine
}

// TraceEvent describes one schedule() decision for tracing tools.
type TraceEvent struct {
	Now      sim.Time
	CPU      int
	Prev     *task.Task // what was running (the idle task when leaving idle)
	Next     *task.Task // what was chosen; nil means idle
	Examined int
	Cycles   uint64
	Spin     uint64
	Recalcs  int
}

// Machine is a simulated multiprocessor running one scheduler.
type Machine struct {
	cfg       Config
	eng       *sim.Engine
	rng       *sim.RNG
	env       *sched.Env
	sched     sched.Scheduler
	noter     runningNoter    // non-nil when the policy tracks HasCPU flips
	preempter preemptComparer // non-nil when the policy ranks preemption itself
	ticker    tickPreempter   // non-nil when the policy preempts at the tick
	placer    wakePlacer      // non-nil when the policy takes SD_WAKE_IDLE hints
	cpus      []*CPU

	procs   []*Proc
	byTask  map[*task.Task]*Proc
	alive   int
	nextPID int
	mmSeq   int

	// rqLocks is the run-queue lock timing model: a single global lock
	// for the stock and ELSC schedulers (as in 2.3.99), one per CPU for
	// policies that advertise PerCPU queues.
	rqLocks []spinlock
	// lockAcqBase/lockContBase carry lock totals from run-queue lock sets
	// retired by SwitchPolicy (the lock regime can change mid-run).
	lockAcqBase  uint64
	lockContBase uint64
	stats        Stats

	// wakerCPU is the processor executing the current syscall effect, or
	// -1 outside one (timer and engine-event wake-ups have no waker).
	// try_to_wake_up reads it for SD_WAKE_IDLE placement: a wake issued
	// from CPU c prefers an idle CPU in c's cache domain.
	wakerCPU int

	// drainBuf is the reusable buffer DrainCPU fills at each offline, so
	// steady-state hotplug never allocates.
	drainBuf []*task.Task
	// watchdog is the optional starvation/lockup detector.
	watchdog *watchdog
}

// wakePlacer is implemented by policies (o1) that accept an SD_WAKE_IDLE
// placement hint: file the woken task on the given idle CPU's queue
// instead of its home queue. PlaceWake returns false to decline (knob
// disabled, affinity forbids, task already queued), in which case the
// kernel falls back to the ordinary AddToRunqueue.
type wakePlacer interface {
	PlaceWake(t *task.Task, cpu int) bool
}

// tickPreempter is implemented by policies (o1) with tick-time
// preemption rules: TickPreempt is consulted by the timer tick while the
// running task still has quantum left. preempt true interrupts the task;
// rotation distinguishes a TIMESLICE_GRANULARITY same-level round-robin
// (the task goes to the tail of its level) from a plain better-level
// preemption (the task keeps its spot), so the stats attribute each
// mechanism correctly.
type tickPreempter interface {
	TickPreempt(cpu int, t *task.Task) (preempt, rotation bool)
}

// preemptComparer is implemented by policies (o1) whose dynamic priority
// differs from goodness(): the wake path asks the policy whether the
// woken task outranks a CPU's current one — 2.6's TASK_PREEMPTS_CURR,
// which compares bonus-laden effective priorities — instead of the
// 2.3.99 goodness delta. This is how the interactivity estimator reaches
// wake-up preemption: a sleep-heavy task at the same static priority as
// a hog preempts it on wake.
type preemptComparer interface {
	PreemptsCurr(t, curr *task.Task) bool
}

// perCPUQueues is implemented by policies with per-CPU run queues, which
// the kernel rewards with split run-queue locks.
type perCPUQueues interface {
	PerCPU() bool
}

// runningNoter is implemented by policies (the stock scheduler) that keep
// running tasks on the run queue and need to know when HasCPU flips.
type runningNoter interface {
	NoteRunning(t *task.Task, running bool)
}

// NewMachine builds and boots a machine: CPUs idle, ticks armed.
func NewMachine(cfg Config) *Machine {
	if cfg.CPUs < 1 {
		panic("kernel: need at least one CPU")
	}
	if cfg.CPUs > 64 {
		panic(fmt.Sprintf("kernel: at most 64 CPUs (affinity masks are 64 bits), got %d", cfg.CPUs))
	}
	if cfg.NewScheduler == nil {
		panic("kernel: config needs a scheduler factory")
	}
	if cfg.Topology != nil && cfg.Topology.NumCPU() != cfg.CPUs {
		panic(fmt.Sprintf("kernel: topology covers %d CPUs, machine has %d",
			cfg.Topology.NumCPU(), cfg.CPUs))
	}
	m := &Machine{
		cfg:      cfg,
		eng:      cfg.Engine,
		rng:      sim.NewRNG(cfg.Seed),
		byTask:   make(map[*task.Task]*Proc),
		wakerCPU: -1,
	}
	if m.eng == nil {
		m.eng = new(sim.Engine)
	} else {
		m.eng.Reset()
	}
	m.eng.MaxDur = sim.Time(cfg.MaxCycles)
	m.env = sched.NewEnv(cfg.CPUs, cfg.SMP, func() int { return m.alive })
	if cfg.Topology != nil {
		m.env.Topo = cfg.Topology
	}
	if cfg.Cost != nil {
		m.env.Cost = *cfg.Cost
	}
	m.bindPolicy(cfg.NewScheduler)

	m.cpus = make([]*CPU, cfg.CPUs)
	for i := range m.cpus {
		c := &CPU{id: i, m: m, online: true}
		c.idleTask = task.New(-(i + 1), fmt.Sprintf("idle/%d", i), nil, m.env.Epoch)
		c.idleTask.IsIdle = true
		c.idleTask.Processor = i
		// The per-CPU event set is allocated once here; the hot paths
		// re-arm these objects (tick, IPI) or draw from the engine's
		// freelist (rundone, sleep), so steady-state execution never
		// allocates per event.
		c.tickEv = m.eng.NewPeriodicEvent("tick", c.tick)
		c.ipiEv = m.eng.NewPeriodicEvent("resched-ipi", c.ipiArrive)
		c.dispatchEv = m.eng.NewPeriodicEvent("dispatch", c.dispatchArrive)
		c.runDoneFn = c.segmentDone
		m.cpus[i] = c
		// Stagger per-CPU timer interrupts slightly so four CPUs do
		// not pile onto the run-queue lock at the exact same instant.
		m.eng.Schedule(c.tickEv, sim.Time(DefaultTickCycles+uint64(i)*997))
	}
	if cfg.Watchdog != nil {
		m.EnableWatchdog(*cfg.Watchdog)
	}
	return m
}

// bindPolicy builds the policy from factory together with everything
// shaped by it: the optional kernel hooks it implements and a fresh
// run-queue lock set — one global lock, or one per CPU for policies that
// advertise PerCPU queues.
func (m *Machine) bindPolicy(factory SchedulerFactory) {
	m.cfg.NewScheduler = factory
	m.sched = factory(m.env)
	m.noter, _ = m.sched.(runningNoter)
	m.preempter, _ = m.sched.(preemptComparer)
	m.ticker, _ = m.sched.(tickPreempter)
	m.placer, _ = m.sched.(wakePlacer)
	nlocks := 1
	if pc, ok := m.sched.(perCPUQueues); ok && pc.PerCPU() {
		nlocks = m.cfg.CPUs
	}
	m.rqLocks = make([]spinlock, nlocks)
}

// Engine exposes the event engine (workloads schedule helper events).
func (m *Machine) Engine() *sim.Engine { return m.eng }

// RNG returns the machine's deterministic random stream.
func (m *Machine) RNG() *sim.RNG { return m.rng }

// Env returns the scheduler environment.
func (m *Machine) Env() *sched.Env { return m.env }

// Scheduler returns the active policy.
func (m *Machine) Scheduler() sched.Scheduler { return m.sched }

// Stats returns the accumulated machine statistics.
func (m *Machine) Stats() *Stats {
	m.stats.LockAcquisitions = m.lockAcqBase
	m.stats.LockContended = m.lockContBase
	for i := range m.rqLocks {
		m.stats.LockAcquisitions += m.rqLocks[i].acquisitions
		m.stats.LockContended += m.rqLocks[i].contended
	}
	m.stats.EventsFired = m.eng.Fired()
	m.stats.EventsWheel = m.eng.FiredWheel()
	m.stats.EventsHeap = m.eng.FiredHeap()
	return &m.stats
}

// rqLockFor returns the lock guarding cpu's run queue.
func (m *Machine) rqLockFor(cpu int) *spinlock {
	return &m.rqLocks[cpu%len(m.rqLocks)]
}

// rqLockOfTask returns the lock guarding the queue a just-filed task landed
// on. With a single global lock that is the global lock; with per-CPU
// queues the scheduler records the home queue in the task's QIndex.
func (m *Machine) rqLockOfTask(t *task.Task) *spinlock {
	if len(m.rqLocks) == 1 {
		return &m.rqLocks[0]
	}
	return &m.rqLocks[t.QIndex%len(m.rqLocks)]
}

// Now returns current virtual time in cycles.
func (m *Machine) Now() sim.Time { return m.eng.Now() }

// Hz returns the simulated clock rate, DefaultHz.
func (m *Machine) Hz() uint64 { return DefaultHz }

// Seconds converts the current virtual time to seconds.
func (m *Machine) Seconds() float64 {
	return float64(m.eng.Now()) / float64(DefaultHz)
}

// Alive returns the number of live (non-exited) tasks.
func (m *Machine) Alive() int { return m.alive }

// Procs returns all spawned procs, including exited ones.
func (m *Machine) Procs() []*Proc { return m.procs }

// NewMM allocates a fresh address space.
func (m *Machine) NewMM(name string) *task.MM {
	m.mmSeq++
	return &task.MM{ID: m.mmSeq, Name: name}
}

// Spawn creates a task running prog in address space mm (nil for a kernel
// thread), makes it runnable, and lets it preempt an idle or weaker CPU,
// like wake_up_process on a fresh fork.
func (m *Machine) Spawn(name string, mm *task.MM, prog Program) *Proc {
	m.nextPID++
	t := task.New(m.nextPID, name, mm, m.env.Epoch)
	return m.spawn(t, prog)
}

// SpawnRT creates a real-time task.
func (m *Machine) SpawnRT(name string, policy task.Policy, rtprio int, prog Program) *Proc {
	m.nextPID++
	t := task.NewRT(m.nextPID, name, policy, rtprio, m.env.Epoch)
	return m.spawn(t, prog)
}

func (m *Machine) spawn(t *task.Task, prog Program) *Proc {
	p := &Proc{Task: t, M: m, prog: prog, memDomain: -1}
	p.sleepWakeFn = p.sleepWake
	p.WaitNode.Owner = p
	m.procs = append(m.procs, p)
	m.byTask[t] = p
	m.alive++
	if !m.cfg.UniformSpawnCounter && !t.RealTime() {
		// Fork-time quantum inheritance: the child gets a share of the
		// forking parent's remaining quantum, which varies with how
		// recently the parent was recharged.
		lo := uint64(t.Priority/4) + 1
		hi := uint64(t.MaxCounter())
		t.SetCounter(m.env.Epoch, int(m.rng.Range(lo, hi)))
	}
	// Fork-time interactivity inheritance, 2.6-style: a fresh task starts
	// at the neutral midpoint of the sleep_avg range — neither branded a
	// hog (it has not run yet) nor fully interactive (it has not slept) —
	// and earns its bonus from its own behavior within its first ticks.
	t.CreditSleep(m.env.Cost.MaxSleepAvg/2, m.env.Cost.MaxSleepAvg)
	p.runnableSince = m.eng.Now()
	m.sched.AddToRunqueue(t)
	m.rqLockOfTask(t).bump(m.eng.Now(), m.env.Cost.AddRunqueue+m.env.Cost.LockOp)
	m.rescheduleIdle(p)
	return p
}

// SetPriority changes a task's static priority, re-indexing it if queued
// ("its priority almost never changes, though when it does, the ELSC
// scheduler adapts accordingly").
func (m *Machine) SetPriority(p *Proc, prio int) {
	if prio < task.MinPriority || prio > task.MaxPriority {
		panic("kernel: priority out of range")
	}
	t := p.Task
	// Re-index only tasks actually waiting in a queue; a running task is
	// re-filed by its next schedule() anyway.
	queued := m.sched.OnRunqueue(t) && !t.HasCPU
	if queued {
		m.sched.DelFromRunqueue(t)
	}
	// Apply pending recalculations at the old priority first, so the
	// result does not depend on whether anything read the counter since
	// the last recalc.
	t.SyncCounter(m.env.Epoch)
	t.Priority = prio
	if c := t.Counter(m.env.Epoch); c > t.MaxCounter() {
		t.SetCounter(m.env.Epoch, t.MaxCounter())
	}
	// Restart the watchdog's starvation stopwatch: its threshold is scaled
	// by the task's quantum, so a priority drop must not let wait time
	// accrued under the old, larger quantum retroactively cross the new,
	// tighter bar (fuzzer seed 90031 flagged a hog the instant churn
	// dropped it from priority 20 to 1).
	if t.Runnable() && !t.HasCPU {
		p.runnableSince = m.eng.Now()
	}
	if queued {
		m.sched.AddToRunqueue(t)
	}
}

// Run drives the simulation until stop returns true, no events remain, or
// the configured MaxCycles horizon passes. It kicks every CPU's first
// schedule() at time zero and flushes idle accounting on return.
func (m *Machine) Run(stop func() bool) {
	for _, c := range m.cpus {
		if c.isIdle() {
			m.reschedule(c, m.eng.Now())
		}
	}
	m.eng.Run(stop)
	for _, c := range m.cpus {
		if c.isIdle() {
			d := uint64(m.eng.Now() - c.idleFrom)
			m.stats.IdleCycles += d
			c.idleAccum += d
			c.idleFrom = m.eng.Now()
		}
		// Flush skipped-tick accounting for chains still parked at the
		// stop instant, advancing the grid anchor so a later Run (or
		// ensureTick) never counts the same instants twice. Same ≤-now
		// convention as ensureTick.
		if c.online && c.tickParked && c.tickNext != 0 && c.tickNext <= m.eng.Now() {
			k := uint64(m.eng.Now()-c.tickNext)/DefaultTickCycles + 1
			m.stats.TicksSkipped += k
			c.tickNext += sim.Time(k * DefaultTickCycles)
		}
	}
}

// WakeOne releases the longest waiter on wq (wake_up). Returns the proc
// woken, or nil.
func (m *Machine) WakeOne(wq *WaitQueue) *Proc {
	p := wq.dequeueFirst()
	if p == nil {
		return nil
	}
	m.wake(p)
	return p
}

// WakeAll releases every waiter on wq (wake_up_all).
func (m *Machine) WakeAll(wq *WaitQueue) int {
	n := 0
	for {
		p := wq.dequeueFirst()
		if p == nil {
			return n
		}
		m.wake(p)
		n++
	}
}

// wake is try_to_wake_up: credit the blocked stretch to the task's
// sleep_avg, mark runnable, insert into the run queue (a short critical
// section on the run-queue lock), then look for a CPU to preempt. When
// the wake was issued from a CPU whose cache domain holds an idle
// processor, a policy implementing wakePlacer is offered that CPU first
// (SD_WAKE_IDLE): the woken task starts immediately, near the waker's
// warm data, instead of queueing behind its home CPU's backlog.
func (m *Machine) wake(p *Proc) {
	t := p.Task
	if p.exited {
		return
	}
	if p.sleepEv != nil {
		m.eng.Cancel(p.sleepEv)
		p.sleepEv = nil
	}
	if t.Runnable() && (m.sched.OnRunqueue(t) || t.HasCPU) {
		return // already awake
	}
	m.stats.WakeCalls++
	now := m.eng.Now()
	if now > p.sleepFrom {
		t.CreditSleep(uint64(now-p.sleepFrom), m.env.Cost.MaxSleepAvg)
	}
	t.State = task.Running
	p.runnableSince = now
	wakeCost := m.env.Cost.AddRunqueue + m.env.Cost.WakeupCost/4 + m.env.Cost.LockOp + m.env.Cost.SleepAvgOp
	if m.placer != nil {
		if target := m.wakeIdleTarget(t); target >= 0 && m.placer.PlaceWake(t, target) {
			m.stats.WakeIdlePlacements++
			m.rqLockOfTask(t).bump(now, wakeCost)
			m.cpus[target].kickIdle()
			return
		}
	}
	m.sched.AddToRunqueue(t)
	m.rqLockOfTask(t).bump(now, wakeCost)
	m.rescheduleIdle(p)
}

// wakeIdleTarget returns the idle CPU an SD_WAKE_IDLE wake-up should
// prefer, or -1. Like 2.6's wake_idle, the domain of the task's own last
// CPU is scanned first — an idle processor next to the task's cache and
// memory beats any other — then the waker's domain (the data the wake is
// about is warm there), before falling back to the ordinary wake path.
// No placement happens outside a syscall context (timer and engine-event
// wakes have no waker), and none is needed when the task's own last CPU
// is already idle: the affinity fast path in rescheduleIdle lands it
// there for free.
func (m *Machine) wakeIdleTarget(t *task.Task) int {
	if m.wakerCPU < 0 {
		return -1
	}
	topo := m.env.Topo
	if t.EverRan && t.Processor < len(m.cpus) && t.AllowedOn(t.Processor) {
		if m.cpus[t.Processor].isIdle() {
			return -1
		}
		if cpu := m.idleIn(topo.DomainOf(t.Processor), t); cpu >= 0 {
			return cpu
		}
	}
	return m.idleIn(topo.DomainOf(m.wakerCPU), t)
}

// idleIn returns the first idle CPU in domain dom that t may run on, -1
// if the domain is fully busy.
func (m *Machine) idleIn(dom int, t *task.Task) int {
	for _, cpu := range m.env.Topo.DomainCPUs(dom) {
		if t.AllowedOn(cpu) && m.cpus[cpu].isIdle() {
			return cpu
		}
	}
	return -1
}

// rescheduleIdle decides which CPU, if any, should run schedule() because
// p became runnable — 2.3.99's reschedule_idle: prefer the task's last
// CPU if idle, then any idle CPU, else preempt the CPU whose current task
// has the worst goodness, if the woken task beats it.
func (m *Machine) rescheduleIdle(p *Proc) {
	t := p.Task
	// Per-CPU queues: the task waits on one specific queue, and only that
	// queue owner's schedule() is guaranteed to find it — a remote CPU may
	// steal, but balancing thresholds can (rightly) decline. Deliver to
	// the owner first. An owner mid-transition to idle is the treacherous
	// case: it is not isIdle() yet, so the generic scan below would kick
	// some other CPU whose steal may refuse, and once the owner's switch
	// completes nothing will ever look at its queue again (with its tick
	// parked, not even the old polling chain). Flagging needResched makes
	// the completion re-run schedule(), exactly like a kick landing
	// mid-transition. An owner busy running falls through to the steal
	// and preemption paths.
	if len(m.rqLocks) > 1 {
		owner := m.cpus[t.QIndex%len(m.cpus)]
		if owner.online && t.AllowedOn(owner.id) {
			if owner.isIdle() {
				owner.kickIdle()
				return
			}
			if owner.transitioning && owner.dispatchNext == nil {
				if !owner.reschedSent {
					owner.needResched = true
				}
				return
			}
		}
	}
	// Last CPU first: the affinity-preserving fast path. A CPU with a
	// kick already in flight needs no second one: its schedule() will
	// see this task on the run queue too.
	if t.EverRan && t.AllowedOn(t.Processor) {
		if c := m.cpus[t.Processor]; c.isIdle() {
			c.kickIdle()
			return
		}
	}
	anyKicked := false
	for _, c := range m.cpus {
		if !t.AllowedOn(c.id) {
			continue
		}
		if c.isIdle() {
			if !c.reschedSent {
				c.kickIdle()
				return
			}
			anyKicked = true
		}
	}
	if anyKicked {
		return
	}
	// No idle allowed CPU: consider preemption. With a global run queue
	// any CPU can dispatch the woken task, so the weakest current task
	// A global-queue CPU mid-transition to idle counts as almost-idle:
	// its completion can re-run schedule() (needResched) and any CPU can
	// dispatch from the shared queue, so deliver there before resorting
	// to preemption. Without this, a wake racing the machine's last
	// non-busy CPU into idleness strands the task until someone's
	// quantum expires.
	if len(m.rqLocks) == 1 {
		for _, c := range m.cpus {
			if c.online && c.transitioning && c.dispatchNext == nil && t.AllowedOn(c.id) {
				if !c.reschedSent {
					c.needResched = true
				}
				return
			}
		}
	}
	// machine-wide is the victim. With per-CPU queues only the queue
	// owner's schedule() will find the task — preempting any other CPU
	// just makes it re-pick its own backlog while the woken task waits
	// out the owner's quantum — so the IPI goes to the owning CPU or
	// nowhere, exactly 2.6's resched_task(rq->curr) after enqueueing.
	candidates := m.cpus
	if len(m.rqLocks) > 1 {
		candidates = m.cpus[t.QIndex%len(m.cpus) : t.QIndex%len(m.cpus)+1]
	}
	var victim *CPU
	worst := 0
	for _, c := range candidates {
		if c.transitioning || c.current == nil || c.reschedSent || !t.AllowedOn(c.id) {
			continue // a decision is already in flight there
		}
		cur := c.current.Task
		if cur.RealTime() && !t.RealTime() {
			continue
		}
		if m.preempter != nil {
			if victim == nil && m.preempter.PreemptsCurr(t, cur) {
				victim = c
			}
			continue
		}
		gw := sched.Goodness(m.env.Epoch, t, c.id, cur.MM)
		gc := sched.Goodness(m.env.Epoch, cur, c.id, cur.MM)
		if gw-gc > worst {
			worst = gw - gc
			victim = c
		}
	}
	if victim != nil {
		m.stats.Preemptions++
		victim.sendResched()
		return
	}
	// No idle CPU and no preemption victim. If a candidate CPU is mid
	// context-switch, flag it so its dispatch path re-runs schedule():
	// otherwise a wake landing in a transition-to-idle window would be
	// lost — the task would sit runnable on the queue with every CPU
	// idle and nothing left to trigger a schedule. An offline CPU can be
	// transitioning too (its last dispatch still in flight), but its
	// dispatch path will not schedule, so it cannot carry the wake.
	for _, c := range candidates {
		if c.online && c.transitioning && t.AllowedOn(c.id) {
			c.needResched = true
			return
		}
	}
}

// tickRescueNeeded reports whether an idle CPU's timer tick found queued
// work that nothing in flight is going to deliver — a lost kick. It must
// stay false in every healthy state. Two machine-wide states rule it out
// before any task is looked at:
//
//   - a resched IPI is in flight somewhere (this CPU or another): the
//     landing will run schedule() and the wakes that piggybacked on it
//     name the queued tasks;
//   - a CPU is mid context-switch: its dispatch path re-examines the
//     queue (needResched) or the completed decision already claimed the
//     task.
//
// Otherwise the tick owes a rescue exactly when deliverableCPUs says this
// CPU's own schedule() would pick something. Work that predicate leaves
// out is benign: an affinity-barred task is not this CPU's to run, and a
// task on another CPU's per-CPU queue will be reached by its owner —
// declining to steal it (e.g. a short remote-domain queue under the
// cross-domain steal threshold) is balancing policy, not a lost wake-up.
// What remains is a bug in some enqueue-to-idle path. The tick rescues it
// (and the audited IdleTickRescues counter records the bug) rather than
// hanging.
func (m *Machine) tickRescueNeeded(c *CPU) bool {
	if m.sched.Runnable() == 0 {
		return false
	}
	for _, o := range m.cpus {
		if o.reschedSent || (o.online && o.transitioning) {
			return false
		}
	}
	return m.deliverableCPUs(1<<uint(c.id)) != 0
}

// deliverableCPUs returns the subset of cand whose own schedule() would
// find queued work: a live, runnable, unclaimed task on a queue the CPU
// picks from — its own queue under per-CPU queues, the shared queue
// otherwise, affinity permitting in both — that still holds quantum. An
// exhausted task (zero counter) is waiting for the next global
// recalculation, not for a kick: the epoch policies park it in the
// zero-counter section and legitimately leave a CPU idle while any
// selectable task exists anywhere, and the recalc owes the kick when it
// finally runs (kickIdleBacklog). RT tasks are exempt: FIFO/RR selection
// ignores the counter.
//
// One pass over the processes answers for every candidate at once. A task
// whose CPUs are all already answered is skipped before its counter is
// read, and the pass stops once every candidate is answered (at once for
// an empty cand).
func (m *Machine) deliverableCPUs(cand uint64) uint64 {
	perCPU := len(m.rqLocks) > 1
	var hit uint64
	for i := 0; i < len(m.procs) && hit != cand; i++ {
		p := m.procs[i]
		t := p.Task
		if p.exited || !t.Runnable() || t.HasCPU || !m.sched.OnRunqueue(t) {
			continue
		}
		cpus := t.CPUsAllowed
		if cpus == 0 {
			cpus = ^uint64(0)
		}
		if perCPU {
			cpus &= 1 << uint(t.QIndex)
		}
		if cpus&cand&^hit == 0 || !t.RealTime() && t.Counter(m.env.Epoch) == 0 {
			continue
		}
		hit |= cpus & cand
	}
	return hit
}

// kickIdleAllowed kicks one idle CPU the task may run on, preferring
// the cache-warm last processor. Unlike the wake path (rescheduleIdle)
// it never preempts. Used for a task that stayed runnable through a
// schedule() that picked someone else.
func (m *Machine) kickIdleAllowed(t *task.Task) {
	if t.EverRan && t.AllowedOn(t.Processor) {
		if c := m.cpus[t.Processor]; c.isIdle() && !c.reschedSent {
			c.kickIdle()
			return
		}
	}
	for _, c := range m.cpus {
		if t.AllowedOn(c.id) && c.isIdle() && !c.reschedSent {
			c.kickIdle()
			return
		}
	}
}

// kickIdleBacklog kicks every idle CPU that has deliverable work
// (deliverableCPUs) with no delivery in flight. Called after a schedule()
// decision that dispatched a task or bumped the epoch — the two events
// that make previously undeliverable work deliverable: a recalculation
// recharges all queued tasks in bulk, and a dispatch both consumes the
// one kick that several wake-ups may have piggybacked on and can uncover
// backlog the chooser was hiding (popping a pinned task off a shared heap
// top exposes the element beneath it to every CPU). Exactly one task
// leaves with the deciding CPU; any other idle CPU with usable work is
// owed a kick, or it sits stranded until its (possibly parked) tick
// polls. A kicked CPU whose policy still cannot see the work declines and
// goes back to idle without re-arming anything, so the sweep cannot loop.
//
// A CPU mid-transition to idle is not isIdle() yet but will be the
// moment its switch completes — and with its tick parked nothing will
// look at the queue again. A decision racing that window (another CPU's
// pop exposing backlog just as this one deschedules) must still deliver:
// flagging needResched makes the to-idle completion re-run schedule(),
// the same almost-idle handling rescheduleIdle uses.
//
// With nothing queued there is nothing to deliver, which makes the common
// busy-machine case free. Otherwise one pass answers for all candidate
// CPUs, and the kicks go out in ascending CPU order.
func (m *Machine) kickIdleBacklog() {
	if m.sched.Runnable() == 0 {
		return
	}
	var cand uint64
	for _, o := range m.cpus {
		if (o.isIdle() || o.online && o.transitioning && o.dispatchNext == nil) && !o.reschedSent {
			cand |= 1 << uint(o.id)
		}
	}
	for hit := m.deliverableCPUs(cand); hit != 0; hit &= hit - 1 {
		o := m.cpus[bits.TrailingZeros64(hit)]
		if o.isIdle() {
			o.kickIdle()
		} else {
			o.needResched = true
		}
	}
}

// SetAffinity pins a task to the CPUs in mask (bit i allows CPU i; zero
// allows all), re-filing it if it waits on a per-CPU queue. An explicit
// mask supersedes any cpuset fallback in effect; if the new mask names
// only offline CPUs, fallback applies to it immediately (the task runs
// anywhere until one of its CPUs returns).
func (m *Machine) SetAffinity(p *Proc, mask uint64) {
	t := p.Task
	queued := m.sched.OnRunqueue(t) && !t.HasCPU
	if queued {
		m.sched.DelFromRunqueue(t)
	}
	p.savedAffinity = 0
	t.CPUsAllowed = mask
	if mask != 0 && mask&m.env.OnlineMask() == 0 {
		p.savedAffinity = mask
		t.CPUsAllowed = 0
	}
	if queued {
		m.sched.AddToRunqueue(t)
		m.rescheduleIdle(p)
	}
}

// SetPolicy is sched_setscheduler: change a task's scheduling class and
// real-time priority at run time. Following 2.3.99, the task is moved to
// the front of its queue and the scheduler is given a chance to preempt.
func (m *Machine) SetPolicy(p *Proc, policy task.Policy, rtprio int) {
	if policy != task.Other && (rtprio < task.MinRTPriority || rtprio > task.MaxRTPriority) {
		panic("kernel: rt_priority out of range")
	}
	t := p.Task
	queued := m.sched.OnRunqueue(t) && !t.HasCPU
	if queued {
		m.sched.DelFromRunqueue(t)
	}
	t.Policy = policy
	if policy == task.Other {
		t.RTPriority = 0
	} else {
		t.RTPriority = rtprio
	}
	if queued {
		m.sched.AddToRunqueue(t)
		m.sched.MoveFirstRunqueue(t)
		m.rescheduleIdle(p)
	}
}

// SwitchPolicy hot-swaps the scheduling policy: it drains every queued
// task out of the current scheduler, builds a fresh one via factory, and
// imports the set atomically (in virtual time — the swap happens between
// events, so no CPU ever observes a half-populated queue). Returns the
// number of tasks handed over, queued plus running.
//
// The handoff has three hazards this function is careful about:
//
//  1. Bookkeeping conventions differ per policy (ELSC leaves zero-section
//     tags stale after removal, heapsched encodes membership in QZero), so
//     every live task — including ones currently blocked, whose stale tags
//     would otherwise resurface at their next wake-up — is normalized with
//     sched.ResetQueueState before the successor sees it.
//  2. Running tasks: most policies dequeue a dispatched task, but the
//     stock scheduler keeps it listed and counts it via NoteRunning. The
//     old policy is told to forget running tasks before the drain, and a
//     runningNoter successor is handed them back after the import.
//  3. The lock regime can change (global lock <-> per-CPU locks), so the
//     retired lock set's totals are folded into base accumulators and a
//     fresh set is built to the successor's shape.
//
// Call from between-events contexts only (an engine event callback or
// between Run calls), never from inside a syscall effect.
func (m *Machine) SwitchPolicy(factory SchedulerFactory) int {
	now := m.eng.Now()
	old := m.sched

	// Detach running tasks from the old policy's bookkeeping. HasCPU
	// tasks are exactly the CPUs' current and in-flight dispatch procs.
	var running []*task.Task
	for _, c := range m.cpus {
		if c.current != nil {
			running = append(running, c.current.Task)
		}
		if c.dispatchNext != nil {
			running = append(running, c.dispatchNext.Task)
		}
	}
	for _, t := range running {
		old.DelFromRunqueue(t)
	}

	// Drain the queued set and verify nothing was lost on the way out.
	want := old.Runnable()
	exported := old.ExportRunnable()
	if len(exported) != want || old.Runnable() != 0 {
		panic(fmt.Sprintf("kernel: %s exported %d tasks, had %d queued, %d left",
			old.Name(), len(exported), want, old.Runnable()))
	}

	// Normalize every live task. Exported ones already are; this catches
	// running and blocked tasks whose scheduler-private fields still
	// carry the old policy's conventions.
	for _, p := range m.procs {
		if !p.exited {
			sched.ResetQueueState(p.Task)
		}
	}

	// Retire the old lock set, keeping its totals, and rebuild everything
	// policy-shaped: the scheduler, its optional kernel hooks, the locks.
	for i := range m.rqLocks {
		m.lockAcqBase += m.rqLocks[i].acquisitions
		m.lockContBase += m.rqLocks[i].contended
	}
	m.bindPolicy(factory)

	// Import in export order, then hand running tasks to a successor that
	// keeps them listed (the stock scheduler; AddToRunqueue sees HasCPU
	// and counts them as running, so Runnable is unaffected).
	for _, t := range exported {
		m.sched.AddToRunqueue(t)
	}
	if m.noter != nil {
		for _, t := range running {
			m.sched.AddToRunqueue(t)
		}
	}
	if got := m.sched.Runnable(); got != len(exported) {
		panic(fmt.Sprintf("kernel: %s imported %d runnable tasks, want %d",
			m.sched.Name(), got, len(exported)))
	}

	// The swap's critical section: one pass over the migrated set under
	// the new lock regime.
	m.rqLocks[0].bump(now, m.env.Cost.LockOp+
		uint64(len(exported)+len(running))*m.env.Cost.AddRunqueue)
	m.stats.PolicySwitches++

	// The imported backlog may be visible to CPUs that went idle under
	// the old policy (or sit behind a transitioning CPU's dispatch);
	// nothing else will trigger their schedule(), so kick them here.
	m.nudgeOnline()
	return len(exported) + len(running)
}

// procOf maps a task back to its proc.
func (m *Machine) procOf(t *task.Task) *Proc {
	p := m.byTask[t]
	if p == nil {
		panic("kernel: task with no proc")
	}
	return p
}
