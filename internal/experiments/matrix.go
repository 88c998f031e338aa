package experiments

import (
	"context"
	"fmt"
	"runtime/pprof"
	"strconv"
	"sync"
	"time"

	"elsc/internal/kernel"
	"elsc/internal/sim"
	"elsc/internal/stats"
	"elsc/internal/workload"
)

// The cell runner. Every measurement in this package — the paper's
// figures, the §8 alternatives, the ablations, the NUMA and interactivity
// studies, and the policy x workload x machine matrix — is a list of
// Cells handed to RunCells, which builds each cell's machine with
// NewMachine on a worker's recycled engine, runs its workload, and
// harvests one WorkloadRun. A new policy or workload therefore reaches
// every table through one path.

// WorkloadParams maps a Scale onto the registry's sizing knobs for a run
// on the given spec. Machines past the paper's hardware (16+ CPUs) get
// the post-2.3 scalable network stack for the socket-bound workloads, as
// the NUMA experiments do: the 2.3-era serialized stack caps the whole
// machine at one socket operation at a time and would make every policy
// measure the same.
func WorkloadParams(spec MachineSpec, sc Scale) workload.Params {
	return workload.Params{
		Work:          sc.Messages,
		Quick:         sc.Quick,
		ScalableStack: spec.CPUs >= 16,
	}
}

// Cell is one run: a machine spec, a scheduler, and the workload to build
// on the machine.
type Cell struct {
	Spec MachineSpec
	// Policy labels the scheduler in tables and lookups. Factory builds
	// it; nil means the registered policy named Policy.
	Policy  string
	Factory kernel.SchedulerFactory
	// Load labels the workload: the registry name, or a figure's
	// "volano@10" carrying its room count. Build constructs it.
	Load  string
	Build func(m *kernel.Machine) workload.Instance
}

// RegistryCell is the matrix cell: a registered policy running a
// registered workload sized by WorkloadParams.
func RegistryCell(spec MachineSpec, policy, load string, sc Scale) Cell {
	p := WorkloadParams(spec, sc)
	return Cell{Spec: spec, Policy: policy, Load: load,
		Build: func(m *kernel.Machine) workload.Instance { return workload.Build(load, m, p) }}
}

// MatrixCells lists policies x specs x loads as registry cells, in the
// matrix tables' order.
func MatrixCells(policies []string, specs []MachineSpec, loads []string, sc Scale) []Cell {
	var cells []Cell
	for _, spec := range specs {
		for _, l := range loads {
			for _, p := range policies {
				cells = append(cells, RegistryCell(spec, p, l, sc))
			}
		}
	}
	return cells
}

// WorkloadRun is one cell's measurement.
type WorkloadRun struct {
	Spec   MachineSpec
	Policy string
	Load   string
	Result workload.Result
	Stats  kernel.Stats

	// WallNS is the host wall-clock the cell took to build and run, in
	// nanoseconds. It is the one host-dependent number a run carries —
	// recorded in BENCH_wallclock.json so harness-speed regressions show
	// up across PRs — and is excluded from every determinism digest.
	WallNS int64

	// BonusLevels and InteractiveRequeues are the interactivity
	// estimator's own counters, for policies that track them (HasBonus):
	// enqueues by dynamic-priority bonus (-5..+5) and active-array
	// re-insertions granted.
	BonusLevels         []uint64
	InteractiveRequeues uint64
	HasBonus            bool

	// IntraSteals and CrossSteals are the balancer's own same-domain and
	// cross-domain move counts, for policies that track them (HasSteals).
	IntraSteals uint64
	CrossSteals uint64
	HasSteals   bool
}

// bonusStatser is implemented by policies whose interactivity estimator
// exposes its observable counters (o1).
type bonusStatser interface {
	BonusLevels() []uint64
	InteractiveRequeues() uint64
}

// domainStealer is implemented by policies whose balancer counts its own
// intra- versus cross-domain moves (o1, cfs: the shared sched.Balancer).
type domainStealer interface {
	DomainSteals() (intra, cross uint64)
}

// Key renders "db-o1-8P" style identifiers.
func (r WorkloadRun) Key() string {
	return fmt.Sprintf("%s-%s-%s", r.Load, r.Policy, r.Spec.Label)
}

// RunCells runs cells on a pool of sc.Workers() workers and returns their
// runs in input order. Each worker builds its cells' machines on one
// recycled event engine, so hundreds of cells share one heap array,
// wheel, and freelist instead of re-paying engine construction per cell.
func RunCells(cells []Cell, sc Scale) []WorkloadRun {
	out := make([]WorkloadRun, len(cells))
	forEachIndexParallel(len(cells), sc, func(i int, eng *sim.Engine) {
		c := cells[i]
		start := time.Now()
		factory := c.Factory
		if factory == nil {
			factory = Factory(c.Policy)
		}
		m := NewMachine(c.Spec, factory, sc, func(cfg *kernel.Config) { cfg.Engine = eng })
		run := WorkloadRun{Spec: c.Spec, Policy: c.Policy, Load: c.Load, Result: c.Build(m).Run(), Stats: *m.Stats()}
		if bs, ok := m.Scheduler().(bonusStatser); ok {
			run.BonusLevels = bs.BonusLevels()
			run.InteractiveRequeues = bs.InteractiveRequeues()
			run.HasBonus = true
		}
		if ds, ok := m.Scheduler().(domainStealer); ok {
			run.IntraSteals, run.CrossSteals = ds.DomainSteals()
			run.HasSteals = true
		}
		run.WallNS = time.Since(start).Nanoseconds()
		out[i] = run
	})
	return out
}

// FindWorkload returns the cell matching the key parameters, or panics;
// matrices are small and a missing cell is a harness bug.
func FindWorkload(runs []WorkloadRun, policy, label, load string) WorkloadRun {
	for _, r := range runs {
		if r.Policy == policy && r.Spec.Label == label && r.Load == load {
			return r
		}
	}
	panic(fmt.Sprintf("experiments: no run %s-%s-%s", load, policy, label))
}

// MatrixTable renders the policy x workload throughput grid for one spec:
// one row per policy, one column per workload (in its own unit). An
// incomplete run — the workload did not finish before the horizon — is
// flagged with a trailing '!', since its throughput understates.
func MatrixTable(runs []WorkloadRun, spec MachineSpec, policies, loads []string) *stats.Table {
	headers := make([]string, 0, len(loads)+1)
	headers = append(headers, "Policy")
	for _, l := range loads {
		unit := FindWorkload(runs, policies[0], spec.Label, l).Result.Unit
		headers = append(headers, fmt.Sprintf("%s (%s)", l, unit))
	}
	t := stats.NewTable(
		fmt.Sprintf("Policy x workload throughput on %s", spec.Label), headers...)
	for _, p := range policies {
		row := make([]any, 0, len(loads)+1)
		row = append(row, p)
		for _, l := range loads {
			r := FindWorkload(runs, p, spec.Label, l)
			cell := fmt.Sprintf("%d", int(r.Result.Throughput))
			if !r.Result.Complete {
				cell += "!"
			}
			row = append(row, cell)
		}
		t.AddRow(row...)
	}
	return t
}

// WorkloadDetail renders one workload's per-policy breakdown on one spec:
// throughput plus every extra metric the workload reports, so a workload
// with tail-latency or contention counters (db, wakestorm) gets a full
// table without bespoke harness code.
func WorkloadDetail(runs []WorkloadRun, spec MachineSpec, policies []string, load string) *stats.Table {
	first := FindWorkload(runs, policies[0], spec.Label, load)
	headers := []string{"Policy", "Throughput (" + first.Result.Unit + ")"}
	for _, m := range first.Result.Extras {
		headers = append(headers, m.Name)
	}
	t := stats.NewTable(
		fmt.Sprintf("Workload detail: %s on %s", load, spec.Label), headers...)
	for _, p := range policies {
		r := FindWorkload(runs, p, spec.Label, load)
		row := []any{p, int(r.Result.Throughput)}
		for _, m := range first.Result.Extras {
			v, ok := r.Result.Extra(m.Name)
			if !ok {
				row = append(row, "-")
				continue
			}
			row = append(row, v)
		}
		t.AddRow(row...)
	}
	return t
}

// WakeStorm races the default (non-baseline) policies through the
// wake-storm workload on one spec and reports per-policy wakeup-to-run
// latency: the p50/p99/max tail a woken herd member waits before it
// actually executes.
func WakeStorm(spec MachineSpec, sc Scale) *stats.Table {
	pols := DefaultPolicies()
	runs := RunCells(MatrixCells(pols, []MachineSpec{spec}, []string{workload.WakeStorm}, sc), sc)
	return WorkloadDetail(runs, spec, pols, workload.WakeStorm)
}

// forEachIndexParallel runs n independent jobs on a pool of sc.Workers()
// workers, with results written by index so table order stays
// deterministic regardless of completion order. Each worker owns one
// recycled event engine for its whole job stream (cells reuse the heap
// array, wheel rings, and freelist instead of reallocating them) and is
// tagged with a sweep_worker pprof label, so a CPU profile of a parallel
// sweep can be sliced per worker.
func forEachIndexParallel(n int, sc Scale, run func(i int, eng *sim.Engine)) {
	workers := sc.Workers()
	if workers > n {
		workers = n
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			labels := pprof.Labels("sweep_worker", strconv.Itoa(w))
			pprof.Do(context.Background(), labels, func(context.Context) {
				eng := new(sim.Engine)
				for i := range jobs {
					run(i, eng)
				}
			})
		}(w)
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}
