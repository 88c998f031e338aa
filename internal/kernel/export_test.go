package kernel

import "fmt"

// Reference oracle for the lost-kick backstop. Before deliverableCPUs
// folded them into one pass, kickIdleBacklog and tickRescueNeeded each
// scanned every process for every CPU. The two scans are kept here as
// they were, except that the backstop's kick/needResched actions now
// record the CPU instead, so tests can hold the one-pass predicate to
// them after every event of a run.

// refTickRescueNeeded is the per-CPU tickRescueNeeded scan.
func (m *Machine) refTickRescueNeeded(c *CPU) bool {
	if m.sched.Runnable() == 0 {
		return false
	}
	for _, o := range m.cpus {
		if o.reschedSent || (o.online && o.transitioning) {
			return false
		}
	}
	perCPU := len(m.rqLocks) > 1
	for _, p := range m.procs {
		if p.exited {
			continue
		}
		t := p.Task
		if !t.Runnable() || t.HasCPU || !t.AllowedOn(c.id) || !m.sched.OnRunqueue(t) {
			continue
		}
		if perCPU && t.QIndex != c.id {
			continue
		}
		if !t.RealTime() && t.Counter(m.env.Epoch) == 0 {
			continue
		}
		return true
	}
	return false
}

// refBacklogCPUs is the kickIdleBacklog scan over the CPUs in cand,
// without its idle/reschedSent gate: the CPUs whose process scan found
// allowed, charged, queued work.
func (m *Machine) refBacklogCPUs(cand uint64) uint64 {
	var found uint64
	perCPU := len(m.rqLocks) > 1
	for _, o := range m.cpus {
		if cand&(1<<uint(o.id)) == 0 {
			continue
		}
		for _, p := range m.procs {
			if p.exited {
				continue
			}
			t := p.Task
			if !t.Runnable() || t.HasCPU || !t.AllowedOn(o.id) || !m.sched.OnRunqueue(t) {
				continue
			}
			if perCPU && t.QIndex != o.id {
				continue
			}
			if !t.RealTime() && t.Counter(m.env.Epoch) == 0 {
				continue
			}
			found |= 1 << uint(o.id)
			break
		}
	}
	return found
}

// CheckBacklogPredicate compares the one-pass predicate with the
// reference scans on the machine's current state: for the all-CPUs
// candidate set, for each single CPU, and through tickRescueNeeded. It
// also checks the backstop's early exit: with nothing Runnable, the
// reference finds no work anywhere. It returns the CPUs with deliverable
// work.
func CheckBacklogPredicate(m *Machine) (uint64, error) {
	all := uint64(1)<<uint(len(m.cpus)) - 1 // all ones at 64 CPUs too
	want := m.refBacklogCPUs(all)
	if got := m.deliverableCPUs(all); got != want {
		return 0, fmt.Errorf("all CPUs: deliverableCPUs = %#x, reference %#x", got, want)
	}
	if want != 0 && m.sched.Runnable() == 0 {
		return 0, fmt.Errorf("Runnable() = 0 but the reference finds work on %#x", want)
	}
	for _, c := range m.cpus {
		bit := uint64(1) << uint(c.id)
		if got := m.deliverableCPUs(bit); got != want&bit {
			return 0, fmt.Errorf("CPU %d: deliverableCPUs = %#x, reference %#x", c.id, got, want&bit)
		}
		if got, ref := m.tickRescueNeeded(c), m.refTickRescueNeeded(c); got != ref {
			return 0, fmt.Errorf("CPU %d: tickRescueNeeded = %v, reference %v", c.id, got, ref)
		}
	}
	return want, nil
}
