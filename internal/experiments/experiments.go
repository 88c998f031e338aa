// Package experiments regenerates every table and figure in the paper's
// evaluation (§6), plus the future-work comparisons (§8) and our ablation
// studies, and renders the same rows/series the paper reports.
//
// Every measurement goes through one path. An experiment lists Cells — a
// machine spec, a scheduler (a registered policy, or a tuned factory for
// an ablation), and a function that builds a workload.Instance, either
// from the registry (RegistryCell, MatrixCells) or from a workload
// package's full Config through its registry adapter (VolanoCells, the
// Table 2 and webserver cells). RunCells runs the cells in parallel on
// the host, builds each machine with NewMachine on its worker's recycled
// engine, and returns one WorkloadRun per cell: the common result, the
// machine stats, the host wall-clock, and the policy's own estimator and
// balancer counters where it has them. Tables look cells up with
// FindWorkload; a figure cell's load label carries its room count.
package experiments

import (
	"fmt"
	"runtime"
	"strings"

	"elsc/internal/kernel"
	"elsc/internal/sched"
	"elsc/internal/sched/cfs"
	"elsc/internal/sched/elsc"
	"elsc/internal/sched/heapsched"
	"elsc/internal/sched/mq"
	"elsc/internal/sched/o1"
	"elsc/internal/sched/vanilla"
)

// Policy names, as the paper's figures label them.
const (
	Reg  = "reg"
	ELSC = "elsc"
	Heap = "heap"
	MQ   = "mq"
	O1   = "o1"
	CFS  = "cfs"
)

// Policies lists every registered scheduling policy: the paper's two, the
// §8 future-work designs, the O(1) endpoint of that lineage, and the
// weighted-vruntime fair scheduler that succeeded it. The conformance,
// determinism, and cross-scheduler smoke suites all iterate this list, so
// a new policy registered here (with a matching SchedulerKind in the
// public API) is automatically held to the same contract. Note the fuzz
// generator draws `Policies[rng.Intn(len(Policies))]`, so growing this
// list re-rolls every seed's composition — any regression that depends on
// a specific historical composition must pin the Scenario as a literal
// (see the seed-586 pre-fix replay).
var Policies = []string{Reg, ELSC, Heap, MQ, O1, CFS}

// Factory returns the scheduler factory for a policy name.
func Factory(name string) kernel.SchedulerFactory {
	switch name {
	case Reg:
		return func(env *sched.Env) sched.Scheduler { return vanilla.New(env) }
	case ELSC:
		return func(env *sched.Env) sched.Scheduler { return elsc.New(env) }
	case Heap:
		return func(env *sched.Env) sched.Scheduler { return heapsched.New(env) }
	case MQ:
		return func(env *sched.Env) sched.Scheduler { return mq.New(env) }
	case O1:
		return func(env *sched.Env) sched.Scheduler { return o1.New(env) }
	case CFS:
		return func(env *sched.Env) sched.Scheduler { return cfs.New(env) }
	default:
		panic("experiments: unknown scheduler " + name)
	}
}

// MachineSpec is one hardware configuration from the paper: UP is a
// non-SMP build on one processor, 1P an SMP build on one processor, 2P and
// 4P SMP builds on two and four. Specs past the paper's hardware may also
// declare cache domains (Domains > 1), giving the machine a NUMA-style
// topology in which off-domain migrations pay the interconnect refill.
type MachineSpec struct {
	Label   string
	CPUs    int
	SMP     bool
	Domains int // cache domains; 0 or 1 means flat
}

// Topology returns the spec's cache-domain layout, nil for flat machines.
func (s MachineSpec) Topology() *sched.Topology {
	if s.Domains <= 1 {
		return nil
	}
	return sched.UniformTopology(s.CPUs, s.Domains)
}

// PaperSpecs are the four configurations of §6.
var PaperSpecs = []MachineSpec{
	{Label: "UP", CPUs: 1, SMP: false},
	{Label: "1P", CPUs: 1, SMP: true},
	{Label: "2P", CPUs: 2, SMP: true},
	{Label: "4P", CPUs: 4, SMP: true},
}

// AllSpecs extends PaperSpecs with machines past the paper's hardware:
// 8, 16 and 32 flat processors, where the per-CPU-lock designs separate
// decisively from the global-lock ones, and a 32-processor machine with
// four 8-CPU cache domains — the NUMA-style spec the domain-aware
// balancing experiments run on.
var AllSpecs = append(append([]MachineSpec{}, PaperSpecs...),
	MachineSpec{Label: "8P", CPUs: 8, SMP: true},
	MachineSpec{Label: "16P", CPUs: 16, SMP: true},
	MachineSpec{Label: "32P", CPUs: 32, SMP: true},
	MachineSpec{Label: "32P-NUMA", CPUs: 32, SMP: true, Domains: 4},
	MachineSpec{Label: "64P-NUMA", CPUs: 64, SMP: true, Domains: 8})

// NUMASpecs are the cache-domain machines: the 4x8 spec the domain
// experiments were built on, and the 64-processor, 8-domain spec that
// stresses the two-level balancing hierarchy (eight domains to choose a
// cross-domain victim from, not three).
var NUMASpecs = []MachineSpec{SpecByLabel("32P-NUMA"), SpecByLabel("64P-NUMA")}

// SpecByLabel returns the named spec.
func SpecByLabel(label string) MachineSpec {
	for _, s := range AllSpecs {
		if s.Label == label {
			return s
		}
	}
	panic("experiments: unknown machine spec " + label)
}

// SpecLabels returns every registered spec label, in AllSpecs order —
// the validation list command-line spec filters check against.
func SpecLabels() []string {
	labels := make([]string, len(AllSpecs))
	for i, s := range AllSpecs {
		labels[i] = s.Label
	}
	return labels
}

// PaperRooms is the room sweep of Figure 3.
var PaperRooms = []int{5, 10, 15, 20}

// Scale controls how much work each run performs, so tests and benchmarks
// can shrink the experiments while cmd/sweep runs them at paper scale.
type Scale struct {
	// Messages per user (paper: 100). The generic matrix runner feeds
	// this to every workload as its per-actor work count.
	Messages int
	// Seed for the deterministic run.
	Seed int64
	// HorizonSeconds bounds each run's virtual time.
	HorizonSeconds uint64
	// Parallel is the number of concurrent runs (0 = GOMAXPROCS).
	Parallel int
	// Quick selects each workload's reduced shape (fewer actors, same
	// code paths) in the registry-driven runs.
	Quick bool
	// TicklessOff disables NO_HZ tickless idle on every machine built
	// for this scale (see kernel.Config.TicklessOff) — the ablation the
	// equivalence tests and `sweep -tickless=off` run under.
	TicklessOff bool
}

// DefaultScale reproduces the paper's parameters.
func DefaultScale() Scale {
	return Scale{Messages: 100, Seed: 42, HorizonSeconds: 3000}
}

// QuickScale is a reduced configuration for tests and benchmarks.
func QuickScale() Scale {
	return Scale{Messages: 10, Seed: 42, HorizonSeconds: 600, Quick: true}
}

// Workers returns the effective worker-pool width: Parallel when set,
// otherwise GOMAXPROCS.
func (s Scale) Workers() int {
	if s.Parallel > 0 {
		return s.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

// NewMachine is the harness's one machine constructor: the spec's
// processors, SMP build and cache-domain topology, booted under factory
// with every Scale field that shapes a machine (seed, horizon, tickless
// mode). with, when non-nil, edits the config before boot: the cell
// runner hands in its worker's recycled engine, the scenario fuzzer its
// watchdog and trace hook.
func NewMachine(spec MachineSpec, factory kernel.SchedulerFactory, sc Scale, with func(*kernel.Config)) *kernel.Machine {
	cfg := kernel.Config{
		CPUs:         spec.CPUs,
		SMP:          spec.SMP,
		Topology:     spec.Topology(),
		Seed:         sc.Seed,
		NewScheduler: factory,
		MaxCycles:    sc.HorizonSeconds * kernel.DefaultHz,
		TicklessOff:  sc.TicklessOff,
	}
	if with != nil {
		with(&cfg)
	}
	return kernel.NewMachine(cfg)
}

// CheckName returns nil when name is in registered, else the usage
// diagnostic the commands print before exiting 2: the unknown name and
// the registered set.
func CheckName(name string, registered []string) error {
	for _, r := range registered {
		if r == name {
			return nil
		}
	}
	return fmt.Errorf("unknown name %q (registered: %s)", name, strings.Join(registered, " "))
}
