package main

import "elsc/internal/experiments"

// metricDef is one reported metric. BENCHMARK.json lists the same names,
// units and directions. For an end-to-end metric, note defines it; for a
// per-layer metric, it records which end-to-end metric, on which workload,
// a change to the metric's layer should move.
type metricDef struct {
	name, unit, better, note string
}

// endToEndMetrics are what a user of the simulator sees. Host times are
// wall-clock seconds scaled to the reference host speed (hostspeed.go);
// sim metrics are virtual and, for a seed, deterministic.
var endToEndMetrics = []metricDef{
	{"ops_per_s", "1/s", "higher", "host: messages delivered or requests served per second of run, set-up excluded"},
	{"cell_s_max", "s", "lower", "host: the slowest cell's set-up plus run, mean over its seeds of the median over rounds"},
	{"setup_s", "s", "lower", "host: machine boot plus program build, summed over jobs"},
	{"alloc_mb", "MB", "lower", "host: bytes allocated in a round"},
	{"heap_live_mb", "MB", "lower", "host: largest live-heap growth over a job, machine still referenced"},
	{"sim_seconds", "sim_s", "lower", "sim: virtual seconds the jobs took, summed"},
	{"sim_cycles_per_schedule", "cycles", "lower", "sim: cycles per schedule() call (Figure 5)"},
}

const (
	movesSched    = "moves ops_per_s and sim_cycles_per_schedule on chat-paper; no change on web-numa"
	movesKernel   = "moves ops_per_s on web-numa; less on chat-paper"
	movesSim      = "moves ops_per_s on chat-paper and web-numa"
	movesPrograms = "moves ops_per_s on chat-paper; no change on web-numa"
	movesGC       = "moves alloc_mb and ops_per_s on both workloads"
	movesRest     = "moves ops_per_s on both workloads"
	movesTrace    = "the tracing's own cost; moves no end-to-end metric"
)

// perLayerMetrics are the traced run's per-layer metrics, each per round.
var perLayerMetrics = func() []metricDef {
	ms := []metricDef{
		{"sched.schedule_calls", "count", "lower", movesSched},
		{"sched.schedule_ns_p50", "ns", "lower", movesSched},
		{"sched.schedule_ns_p99", "ns", "lower", movesSched},
		{"sched.enqueue_ns_p50", "ns", "lower", movesSched},
		{"sched.self_s", "s", "lower", movesSched},
	}
	for _, p := range experiments.Policies {
		ms = append(ms, metricDef{"sched." + p + ".self_s", "s", "lower", movesSched})
	}
	ms = append(ms, []metricDef{
		{"sched.sim_examined_per_call", "tasks", "lower", movesSched},
		{"sched.sim_recalcs", "count", "lower", movesSched},
		{"kernel.self_s", "s", "lower", movesKernel},
		{"kernel.wake_calls", "count", "lower", movesKernel},
		{"kernel.ctx_switches", "count", "lower", movesKernel},
		{"kernel.migrations", "count", "lower", movesKernel},
		{"kernel.cross_domain_migrations", "count", "lower", movesKernel},
		{"kernel.rq_lock_contended", "count", "lower", movesKernel},
		{"kernel.ticks_skipped", "count", "higher", movesKernel},
		{"kernel.idle_tick_rescues", "count", "lower", movesKernel},
		{"sim.events", "count", "lower", movesSim},
		{"sim.events_wheel", "count", "higher", movesSim},
		{"sim.events_heap", "count", "lower", movesSim},
		{"sim.self_s", "s", "lower", movesSim},
		{"sim.ns_per_event", "ns", "lower", movesSim},
		{"ipc.self_s", "s", "lower", movesPrograms},
		{"ipc.lock_spins", "count", "lower", movesPrograms},
		{"workload.self_s", "s", "lower", movesPrograms},
		{"task.self_s", "s", "lower", movesPrograms},
		{"gc.self_s", "s", "lower", movesGC},
		{"gc.cycles", "count", "lower", movesGC},
	}...)
	shareMoves := map[string]string{"sim": movesSim, "kernel": movesKernel, "sched": movesSched,
		"task": movesPrograms, "ipc": movesPrograms, "workload": movesPrograms, "gc": movesGC,
		"bench": movesTrace, "other": movesRest, "runtime": movesRest}
	for _, l := range foldLayers {
		ms = append(ms, metricDef{l + ".share", "%", "lower", shareMoves[l]})
	}
	return append(ms, []metricDef{
		{"trace.profiled_s", "s", "lower", movesTrace},
		{"trace.profile_overhead", "%", "lower", movesTrace},
		{"trace.timing_overhead", "%", "lower", movesTrace},
	}...)
}()
