package sched

import "elsc/internal/task"

const (
	// BalanceEvery is the pull-balancing period in schedule() calls per
	// CPU, and balanceImbalance the queue-length gap that triggers a pull
	// — the 2.5 kernel's "25% imbalance" rule at small queue sizes.
	BalanceEvery     = 32
	balanceImbalance = 2

	// crossImbalance is the gap a pull across a domain boundary needs,
	// twice the in-domain threshold, and crossBatch caps the tasks one
	// cross-domain pull moves: one decisive rebalance amortizes the
	// interconnect refill instead of paying it every balancing period.
	crossImbalance = 2 * balanceImbalance
	crossBatch     = 4

	// crossStealMin is the minimum victim queue length for an idle steal
	// that leaves the thief's cache domain: dragging a victim's only
	// queued task across the interconnect costs more than letting the
	// victim run it next.
	crossStealMin = 2
)

// Queues is what placement needs to know of a policy's private per-CPU
// run queues: how many tasks each one holds.
type Queues interface {
	Len(cpu int) int
}

// BalanceQueues is the queue adapter a policy hands its Balancer. The
// balancer decides which queues trade tasks; the policy decides which
// task leaves a queue and how it is filed on arrival.
type BalanceQueues interface {
	Queues
	// Movable returns the task victim's queue gives up first to cpu,
	// charging the scan to res, or nil when none may run on cpu. The task
	// stays queued on victim.
	Movable(victim, cpu int, res *Result) *task.Task
	// Migrate moves t, just returned by Movable, from victim toward cpu.
	// steal is set on the idle path, where cpu's Schedule dispatches t at
	// once; otherwise t is a periodic pull and waits on cpu's queue.
	Migrate(t *task.Task, victim, cpu int, steal bool, res *Result)
}

// Home picks the queue for t among the per-CPU queues q: its last CPU
// when the affinity mask allows it and the CPU is online, otherwise the
// least-loaded allowed online queue. Offline CPUs' queues are drained at
// hotplug and must stay empty, so they are never a home; a mask naming
// only offline CPUs falls back to the first online queue rather than lose
// the task.
func Home(env *Env, q Queues, t *task.Task) int {
	if t.EverRan && t.Processor < env.NCPU && t.AllowedOn(t.Processor) && env.CPUOnline(t.Processor) {
		return t.Processor
	}
	best, bestLen := -1, 0
	for i := 0; i < env.NCPU; i++ {
		if !t.AllowedOn(i) || !env.CPUOnline(i) {
			continue
		}
		if n := q.Len(i); best < 0 || n < bestLen {
			best, bestLen = i, n
		}
	}
	if best >= 0 {
		return best
	}
	for i := 0; i < env.NCPU; i++ {
		if env.CPUOnline(i) {
			return i
		}
	}
	return 0
}

// Balancer is the pull-based load balancer of the 2.5 kernel, made
// hierarchical as 2.6's sched_domains did, for policies with private
// per-CPU queues. A CPU whose queue empties steals a movable task from
// another queue, and every BalanceEvery schedule() calls a CPU pulls
// work from a queue past the imbalance threshold. Victims inside the
// CPU's cache domain come first; crossing a domain boundary takes a
// larger imbalance and then moves a batch. Given the flat topology it is
// the pre-sched_domains balancer.
//
// Embed it in the policy: DomainSteals and PerCPUSteals are then the
// policy's own.
type Balancer struct {
	env  *Env
	topo *Topology
	q    BalanceQueues

	// steals counts tasks moved within and across cache domains, per
	// stealing CPU; sinceBalance counts schedule() calls per CPU since
	// its last periodic pull.
	steals       []CPUSteals
	sinceBalance []int

	// acct collects what the adapter charges during one entry. An
	// interface call makes its pointer arguments escape, so handing the
	// adapter the caller's Result would move every Schedule's Result to
	// the heap; the entries fold acct into it instead.
	acct Result
}

// NewBalancer returns a balancer over env's CPUs that sees topo's cache
// domains (nil: one flat domain) and moves tasks through q.
func NewBalancer(env *Env, topo *Topology, q BalanceQueues) Balancer {
	if topo == nil {
		topo = FlatTopology(env.NCPU)
	}
	return Balancer{
		env:          env,
		topo:         topo,
		q:            q,
		steals:       make([]CPUSteals, env.NCPU),
		sinceBalance: make([]int, env.NCPU),
	}
}

// DomainSteals reports tasks the balancer moved within and across cache
// domains, machine-wide. A balancer given the flat topology sees one
// domain, so its moves all count as intra-domain; the machine-level
// CrossDomainMigrations stat records what they really cost.
func (b *Balancer) DomainSteals() (intra, cross uint64) {
	for i := range b.steals {
		intra += b.steals[i].Intra
		cross += b.steals[i].Cross
	}
	return intra, cross
}

// PerCPUSteals returns a copy of the per-CPU steal counters, indexed by
// the stealing CPU — the breakdown schedtrace renders per domain.
func (b *Balancer) PerCPUSteals() []CPUSteals {
	return append([]CPUSteals(nil), b.steals...)
}

// Rebalance counts one schedule() call on cpu and runs Pull every
// BalanceEvery of them.
func (b *Balancer) Rebalance(cpu int, res *Result) {
	if b.env.NCPU <= 1 {
		return
	}
	b.sinceBalance[cpu]++
	if b.sinceBalance[cpu] >= BalanceEvery {
		b.sinceBalance[cpu] = 0
		b.Pull(cpu, res)
	}
}

// Steal takes a movable task from another queue for the idle cpu — the
// 2.5 idle-balance path. Victims inside cpu's cache domain are exhausted
// before any cross-domain queue is touched, and a cross-domain victim
// must hold at least crossStealMin tasks (an imbalance of one does not
// justify paying the interconnect refill). Within each tier the longest
// queue is tried first, but a queue full of pinned tasks must not end
// the hunt while a shorter queue holds stealable work, so the remaining
// queues are tried in index order. Each victim queue's lock is charged.
func (b *Balancer) Steal(cpu int, res *Result) *task.Task {
	t := b.stealTier(cpu, true)
	if t == nil && b.topo.NumDomains() > 1 {
		t = b.stealTier(cpu, false)
	}
	b.settle(res)
	return t
}

// Pull is the periodic half of 2.5's load_balance, run through the
// domain hierarchy: an in-domain victim at the balanceImbalance threshold
// moves one task; with no in-domain imbalance, a cross-domain victim is
// considered only past the larger crossImbalance gap, and then a batch of
// up to crossBatch tasks moves at once.
func (b *Balancer) Pull(cpu int, res *Result) {
	b.pull(cpu)
	b.settle(res)
}

func (b *Balancer) pull(cpu int) {
	n := b.q.Len(cpu)
	if victim := b.busiest(cpu, n+balanceImbalance-1, true); victim >= 0 {
		b.pullFrom(victim, cpu, 1)
		return
	}
	if b.topo.NumDomains() == 1 {
		return
	}
	victim := b.busiest(cpu, n+crossImbalance-1, false)
	if victim < 0 {
		return
	}
	b.pullFrom(victim, cpu, min(max((b.q.Len(victim)-n)/2, 1), crossBatch))
}

// settle folds what the adapter charged during one entry into res.
func (b *Balancer) settle(res *Result) {
	res.Cycles += b.acct.Cycles
	res.Examined += b.acct.Examined
	b.acct = Result{}
}

// stealTier hunts one tier of the hierarchy: the thief's own domain
// (local) or the rest of the machine.
func (b *Balancer) stealTier(cpu int, local bool) *task.Task {
	floor := 0
	if !local {
		floor = crossStealMin - 1
	}
	first := b.busiest(cpu, floor, local)
	if first < 0 {
		return nil
	}
	if t := b.stealFrom(first, cpu); t != nil {
		return t
	}
	for i := range b.steals {
		if i == cpu || i == first || b.topo.SameDomain(i, cpu) != local || b.q.Len(i) <= floor {
			continue
		}
		if t := b.stealFrom(i, cpu); t != nil {
			return t
		}
	}
	return nil
}

func (b *Balancer) stealFrom(victim, cpu int) *task.Task {
	b.acct.Cycles += b.env.Cost.LockOp
	t := b.q.Movable(victim, cpu, &b.acct)
	if t != nil {
		b.q.Migrate(t, victim, cpu, true, &b.acct)
		b.noteMove(cpu, victim)
	}
	return t
}

// pullFrom moves up to batch movable tasks from victim's queue to cpu.
// The victim's lock is charged once for the whole batch.
func (b *Balancer) pullFrom(victim, cpu, batch int) {
	b.acct.Cycles += b.env.Cost.LockOp
	for moved := 0; moved < batch; moved++ {
		t := b.q.Movable(victim, cpu, &b.acct)
		if t == nil {
			return
		}
		b.q.Migrate(t, victim, cpu, false, &b.acct)
		b.noteMove(cpu, victim)
	}
}

// busiest returns the longest queue other than cpu, inside cpu's cache
// domain (local) or outside it, holding more than floor tasks, or -1.
func (b *Balancer) busiest(cpu, floor int, local bool) int {
	victim, most := -1, floor
	for i := range b.steals {
		if i == cpu || b.topo.SameDomain(i, cpu) != local {
			continue
		}
		if n := b.q.Len(i); n > most {
			victim, most = i, n
		}
	}
	return victim
}

// noteMove classifies one balancer-driven migration for the stealing
// CPU's counters.
func (b *Balancer) noteMove(cpu, victim int) {
	if b.topo.SameDomain(cpu, victim) {
		b.steals[cpu].Intra++
	} else {
		b.steals[cpu].Cross++
	}
}
