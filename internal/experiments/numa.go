package experiments

import (
	"fmt"

	"elsc/internal/sched"
	"elsc/internal/sched/o1"
	"elsc/internal/stats"
	"elsc/internal/workload"
	"elsc/internal/workload/volano"
)

// The NUMA experiments: race every policy on a cache-domain machine and
// measure what topology awareness buys. RackSched-style results say
// topology-blind balancing destroys locality at scale; here that shows up
// as cross-domain migrations (each charged CrossDomainRefillMax instead
// of CacheRefillMax at dispatch) and as remote-access cycles while a
// displaced task waits for its pages to rehome.
//
// These runs use volano.ScalableStackCosts: with the 2.3-era big-lock
// network stack the whole 32-processor machine is stack-bound (one socket
// op at a time machine-wide) and every policy measures the same. The
// scaled specs model the fine-grained socket locking the kernel actually
// had by the sched_domains era, so scheduling is what differs.

// numaVolanoConfig is the workload for the NUMA tables.
func numaVolanoConfig(rooms int, sc Scale) volano.Config {
	return volano.Config{
		Rooms:           rooms,
		MessagesPerUser: sc.Messages,
		Costs:           volano.ScalableStackCosts(),
	}
}

// Numa races every registered policy on a domained spec and reports how
// each treats the interconnect: total and cross-domain migrations
// (machine-observed), the balancer's own intra- versus cross-domain move
// counts where the policy tracks them (o1), lock spin, and throughput.
func Numa(spec MachineSpec, rooms int, sc Scale) *stats.Table {
	domains := max(spec.Domains, 1)
	t := stats.NewTable(
		fmt.Sprintf("NUMA domains: VolanoMark %d rooms on %s (%d domains x %d CPUs)",
			rooms, spec.Label, domains, spec.CPUs/domains),
		"Scheduler", "Throughput", "spin cyc/sched", "migrations", "cross-dom",
		"remote Mcyc", "intra-steal", "cross-steal")
	runs := RunCells(policyCells(spec, Policies, volanoLoad(rooms),
		builds(workload.NewVolano, numaVolanoConfig(rooms, sc))), sc)
	for _, r := range runs {
		intra, cross := "-", "-"
		if r.HasSteals {
			intra = fmt.Sprintf("%d", r.IntraSteals)
			cross = fmt.Sprintf("%d", r.CrossSteals)
		}
		t.AddRow(r.Policy,
			int(r.Result.Throughput),
			int(spinPerSchedule(r.Stats)),
			r.Stats.Migrations,
			r.Stats.CrossDomainMigrations,
			int(r.Stats.RemoteCycles/1_000_000),
			intra,
			cross)
	}
	return t
}

// O1TopologyCell is the topology ablation's cell: the NUMA tables'
// VolanoMark under o1 with or without domain awareness. It shares the
// Numa table's workload and runner, so the ablation baseline cannot
// drift from what it is compared against.
func O1TopologyCell(spec MachineSpec, blind bool, rooms int, sc Scale) Cell {
	cfg := o1.Config{TopologyBlind: blind}
	return Cell{Spec: spec, Policy: O1, Load: volanoLoad(rooms),
		Factory: func(env *sched.Env) sched.Scheduler { return o1.NewWithConfig(env, cfg) },
		Build:   builds(workload.NewVolano, numaVolanoConfig(rooms, sc))}
}

// AblateTopology isolates what o1's domain awareness buys on a NUMA spec:
// the same scheduler with the TopologyBlind flag set treats the machine
// as one flat domain, so the delta in cross-domain migrations,
// remote-access cycles, and throughput is the value of the hierarchy.
// The effect is largest at marginal load (a few rooms on 32 CPUs), where
// CPUs go idle often enough that the steal path runs constantly; at
// saturation the balancer barely fires and the variants converge.
func AblateTopology(spec MachineSpec, rooms int, sc Scale) *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Ablation: o1 domain awareness (%s, %d rooms)", spec.Label, rooms),
		"o1 variant", "Throughput", "migrations", "cross-dom", "remote Mcyc", "cache Mcyc")
	runs := RunCells([]Cell{O1TopologyCell(spec, false, rooms, sc), O1TopologyCell(spec, true, rooms, sc)}, sc)
	for i, label := range []string{"domain-aware", "topology-blind"} {
		r := runs[i]
		t.AddRow(label,
			int(r.Result.Throughput),
			r.Stats.Migrations,
			r.Stats.CrossDomainMigrations,
			int(r.Stats.RemoteCycles/1_000_000),
			int(r.Stats.CacheCycles/1_000_000))
	}
	return t
}
