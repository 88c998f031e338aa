// Command perfbench is the simulator's benchmark. It runs one workload — a
// fixed list of policy × machine × program cells, each under four seeds
// derived from -seed — serially in one process, checks every cell's
// output, and prints every metric by name and unit. The last line of
// standard output is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With -trace 0 it repeats rounds of the workload for -seconds of host
// time and reports the end-to-end metrics, medians over the rounds (the
// simulated metrics are identical in every round). With -trace 1 it
// spends a quarter of -seconds on plain rounds, half on rounds under a
// CPU profile and a quarter on rounds with every policy call timed, and
// reports the per-layer metrics, each per round. Attempted counts jobs
// (cells under one seed); a job fails if its output check fails or its
// simulated digest differs from the first round's.
//
// Run it from the repository root, normally through perfbench/run.py,
// which builds it:
//
//	python3 perfbench/run.py --workload chat-paper --seed 1 --seconds 55 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"time"

	"elsc/internal/experiments"
	"elsc/internal/kernel"
	"elsc/internal/sim"
	"elsc/internal/workload/volano"
)

// profileDir holds the traced runs' CPU profiles, relative to the
// repository root the benchmark runs from.
const profileDir = ".bench_build/perfbench"

func main() {
	name := flag.String("workload", "", "workload to run: chat-paper or web-numa")
	seed := flag.Int64("seed", 1, "benchmark seed; every job's seed derives from it")
	seconds := flag.Float64("seconds", 55, "host seconds to measure for")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 || flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (chat-paper or web-numa), -seconds > 0 and -trace 0 or 1\n")
		os.Exit(2)
	}
	// Jobs run serially, and the GC workers share their one processor. With
	// a second processor the idle one runs GC mark workers and spinning
	// threads, so host times come to depend on whatever else the machine
	// runs: on a 2-vCPU host a busy loop on the other CPU slowed VolanoMark
	// rounds by a fifth with two processors and by a twentieth with one.
	runtime.GOMAXPROCS(1)
	b := &bench{name: w.name, jobs: w.jobs(*seed), seed: *seed, eng: new(sim.Engine), host: newHostRef()}
	var values map[string]float64
	var err error
	table := endToEndMetrics
	if *trace == 0 {
		b.plain = b.repeat(*seconds, experiments.Factory, true)
		values = b.endToEnd()
	} else {
		table = perLayerMetrics
		values, err = b.traced(*seconds)
	}
	if err == nil {
		err = b.report(table, values)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// round is one run of every job of the workload.
type round struct {
	runs     []jobRun
	elapsed  time.Duration
	alloc    uint64  // bytes allocated (TotalAlloc delta)
	gcCycles uint32  // GC cycles the runtime started on its own
	speed    float64 // plain rounds: median reference pass over refNominal
}

func (r *round) sum(f func(j *jobRun) float64) float64 {
	s := 0.0
	for _, v := range r.values(f) {
		s += v
	}
	return s
}

func (r *round) values(f func(j *jobRun) float64) []float64 {
	v := make([]float64, len(r.runs))
	for i := range r.runs {
		v[i] = f(&r.runs[i])
	}
	return v
}

// bench runs one workload's rounds on one recycled event engine.
type bench struct {
	name      string
	jobs      []job
	seed      int64
	eng       *sim.Engine
	ref       []string // per-job digests of the first round
	host      *hostRef
	plain     []round
	profiled  []round
	timed     []round
	attempted int
	failed    int
	problems  []string
}

// repeat runs whole rounds, at least one, for up to seconds of host time:
// it starts another round only if a typical round still fits. Plain rounds
// also measure the live heap and the host's speed.
func (b *bench) repeat(seconds float64, factory func(policy string) kernel.SchedulerFactory, plain bool) []round {
	var out []round
	var took []float64
	start := time.Now()
	for len(out) == 0 || time.Since(start).Seconds()+median(took) <= seconds {
		r := b.runRound(factory, plain)
		out = append(out, r)
		took = append(took, r.elapsed.Seconds())
	}
	return out
}

func (b *bench) runRound(factory func(policy string) kernel.SchedulerFactory, plain bool) round {
	var host *hostRef
	if plain {
		host = b.host
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	r := round{runs: make([]jobRun, len(b.jobs))}
	for i, j := range b.jobs {
		r.runs[i] = runJob(b.eng, j, factory(j.policy), host)
	}
	r.elapsed = time.Since(start)
	if plain {
		r.speed = median(r.values(func(j *jobRun) float64 { return j.ref.Seconds() })) / refNominal.Seconds()
	}
	runtime.ReadMemStats(&after)
	r.alloc = after.TotalAlloc - before.TotalAlloc
	r.gcCycles = (after.NumGC - after.NumForcedGC) - (before.NumGC - before.NumForcedGC)
	b.score(&r)
	return r
}

// score counts the round's jobs as attempted and charges a failure to
// every job whose output check failed or whose digest differs from the
// same job's in the first round, traced or not.
func (b *bench) score(r *round) {
	first := b.ref == nil
	for i, j := range b.jobs {
		d := digest(j, &r.runs[i])
		if first {
			b.ref = append(b.ref, d)
		}
		b.attempted++
		err := r.runs[i].err
		if err == nil && d != b.ref[i] {
			err = fmt.Errorf("%s: simulated digest %.12s differs from the first round's %.12s", j.label(), d, b.ref[i])
		}
		if err != nil {
			b.failed++
			b.problems = append(b.problems, err.Error())
		}
	}
}

// medianRound returns the median of f over rounds.
func medianRound(rs []round, f func(r *round) float64) float64 {
	v := make([]float64, len(rs))
	for i := range rs {
		v[i] = f(&rs[i])
	}
	return median(v)
}

// medianScaled returns the median over rounds of job i's host time f,
// scaled by each round's host speed.
func medianScaled(rs []round, i int, f func(j *jobRun) time.Duration) float64 {
	v := make([]float64, len(rs))
	for k := range rs {
		v[k] = f(&rs[k].runs[i]).Seconds() / rs[k].speed
	}
	return median(v)
}

// endToEnd computes the end-to-end metrics over the plain rounds. Host
// times are scaled to the reference host speed round by round (see
// hostspeed.go), then taken as medians over rounds, per job, so a stall in
// one round moves no metric. A cell's time is the mean of its jobs'
// medians: its cost moves from seed to seed, and the mean uses every seed
// where a median over all of the cell's runs would take one seed's.
func (b *bench) endToEnd() map[string]float64 {
	rs := b.plain
	first := &rs[0]
	var ops, run, setup float64
	cellTimes := map[cell][]float64{}
	for i, j := range b.jobs {
		ops += float64(first.runs[i].out.ops)
		run += medianScaled(rs, i, func(r *jobRun) time.Duration { return r.run })
		setup += medianScaled(rs, i, func(r *jobRun) time.Duration { return r.setup })
		cellTimes[j.cell] = append(cellTimes[j.cell], medianScaled(rs, i, func(r *jobRun) time.Duration { return r.setup + r.run }))
	}
	slowest := 0.0
	for _, t := range cellTimes {
		slowest = max(slowest, mean(t))
	}
	heapLive := 0.0
	for k := range rs {
		for i := range rs[k].runs {
			heapLive = max(heapLive, float64(rs[k].runs[i].heapLive)/1e6)
		}
	}
	return map[string]float64{
		"ops_per_s":    ops / run,
		"cell_s_max":   slowest,
		"setup_s":      setup,
		"alloc_mb":     medianRound(rs, func(r *round) float64 { return float64(r.alloc) / 1e6 }),
		"heap_live_mb": heapLive,
		"sim_seconds":  first.sum(func(j *jobRun) float64 { return j.out.simSecs }),
		"sim_cycles_per_schedule": first.sum(func(j *jobRun) float64 { return float64(j.stats.SchedCycles) }) /
			first.sum(func(j *jobRun) float64 { return float64(j.stats.SchedCalls) }),
	}
}

// traced splits seconds between plain rounds, rounds under a CPU profile
// (half, since its shares rest on 100 samples a second) and rounds with
// every policy call timed. Keeping the profile and the timing apart keeps
// the timing's own cost out of the layer shares. All three kinds must
// give the same digests.
func (b *bench) traced(seconds float64) (map[string]float64, error) {
	b.plain = b.repeat(seconds/4, experiments.Factory, true)
	layers, err := b.profile(seconds / 2)
	if err != nil {
		return nil, err
	}
	times := map[string]*policyTimes{}
	bias := clockCost()
	for _, j := range b.jobs {
		if times[j.policy] == nil {
			times[j.policy] = &policyTimes{bias: bias}
		}
	}
	b.timed = b.repeat(seconds/4, func(policy string) kernel.SchedulerFactory {
		return timedFactory(policy, times[policy])
	}, false)
	return b.perLayer(times, layers), nil
}

// profile runs rounds under a CPU profile and folds it by layer.
func (b *bench) profile(seconds float64) (map[string]float64, error) {
	if err := os.MkdirAll(profileDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(profileDir, fmt.Sprintf("%s-%d.pprof", b.name, b.seed))
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	b.profiled = b.repeat(seconds, experiments.Factory, false)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return nil, err
	}
	text, err := exec.Command("go", "tool", "pprof", "-traces", "-symbolize=none", path).Output()
	if err != nil {
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			err = fmt.Errorf("go tool pprof: %w: %s", err, ee.Stderr)
		}
		return nil, err
	}
	return foldTraces(string(text))
}

// perLayer computes the per-layer metrics, each per round. Policy times
// come from the timing wrapper, layer self times from the profile, counts
// from the machines' Stats and the programs' Results.
func (b *bench) perLayer(times map[string]*policyTimes, layers map[string]float64) map[string]float64 {
	first := &b.plain[0]
	stat := func(f func(s *kernel.Stats) uint64) float64 {
		return first.sum(func(j *jobRun) float64 { return float64(f(&j.stats)) })
	}
	var sched, enq []uint32
	var schedTotal time.Duration
	for _, t := range times {
		sched = append(sched, t.schedule...)
		enq = append(enq, t.enqueue...)
		schedTotal += t.total
	}
	slices.Sort(sched)
	slices.Sort(enq)
	profiled := 0.0
	for _, s := range layers {
		profiled += s
	}
	nProf, nTimed := float64(len(b.profiled)), float64(len(b.timed))
	self := func(layer string) float64 { return layers[layer] / nProf }
	calls := stat(func(s *kernel.Stats) uint64 { return s.SchedCalls })
	events := stat(func(s *kernel.Stats) uint64 { return s.EventsFired })
	roundSeconds := func(rs []round) float64 {
		return medianRound(rs, func(r *round) float64 { return r.sum(func(j *jobRun) float64 { return j.run.Seconds() }) })
	}

	v := map[string]float64{
		"sched.schedule_calls":        calls,
		"sched.schedule_ns_p50":       percentile(sched, 50),
		"sched.schedule_ns_p99":       percentile(sched, 99),
		"sched.enqueue_ns_p50":        percentile(enq, 50),
		"sched.self_s":                schedTotal.Seconds() / nTimed,
		"sched.sim_examined_per_call": stat(func(s *kernel.Stats) uint64 { return s.Examined }) / calls,
		"sched.sim_recalcs":           stat(func(s *kernel.Stats) uint64 { return s.Recalcs }),

		"kernel.self_s":                  self("kernel"),
		"kernel.wake_calls":              stat(func(s *kernel.Stats) uint64 { return s.WakeCalls }),
		"kernel.ctx_switches":            stat(func(s *kernel.Stats) uint64 { return s.CtxSwitches }),
		"kernel.migrations":              stat(func(s *kernel.Stats) uint64 { return s.Migrations }),
		"kernel.cross_domain_migrations": stat(func(s *kernel.Stats) uint64 { return s.CrossDomainMigrations }),
		"kernel.rq_lock_contended":       stat(func(s *kernel.Stats) uint64 { return s.LockContended }),
		"kernel.ticks_skipped":           stat(func(s *kernel.Stats) uint64 { return s.TicksSkipped }),
		"kernel.idle_tick_rescues":       stat(func(s *kernel.Stats) uint64 { return s.IdleTickRescues }),

		"sim.events":       events,
		"sim.events_wheel": stat(func(s *kernel.Stats) uint64 { return s.EventsWheel }),
		"sim.events_heap":  stat(func(s *kernel.Stats) uint64 { return s.EventsHeap }),
		"sim.self_s":       self("sim"),
		"sim.ns_per_event": self("sim") * 1e9 / events,

		"ipc.self_s": self("ipc"),
		"ipc.lock_spins": first.sum(func(j *jobRun) float64 {
			if r, ok := j.out.result.(volano.Result); ok {
				return float64(r.LockSpins)
			}
			return 0
		}),
		"workload.self_s": self("workload"),
		"task.self_s":     self("task"),
		"gc.self_s":       self("gc"),
		"gc.cycles":       medianRound(b.profiled, func(r *round) float64 { return float64(r.gcCycles) }),

		"trace.profiled_s":       profiled / nProf,
		"trace.profile_overhead": 100 * (roundSeconds(b.profiled)/roundSeconds(b.plain) - 1),
		"trace.timing_overhead":  100 * (roundSeconds(b.timed)/roundSeconds(b.plain) - 1),
	}
	for _, pol := range experiments.Policies {
		v["sched."+pol+".self_s"] = 0
		if t := times[pol]; t != nil {
			v["sched."+pol+".self_s"] = t.total.Seconds() / nTimed
		}
	}
	for _, l := range foldLayers {
		v[l+".share"] = 100 * layers[l] / profiled
	}
	return v
}

// report prints the digest, any failures and every metric of table, then
// the result object as the last line.
func (b *bench) report(table []metricDef, values map[string]float64) error {
	fmt.Printf("workload %s seed %d: %d jobs; %d plain, %d profiled and %d timed rounds\n",
		b.name, b.seed, len(b.jobs), len(b.plain), len(b.profiled), len(b.timed))
	fmt.Printf("digest %s %s\n", b.name, digestOf(b.ref))
	fmt.Printf("host speed: a reference pass took %.4g times refNominal, median over plain rounds\n",
		medianRound(b.plain, func(r *round) float64 { return r.speed }))
	for _, p := range b.problems {
		fmt.Printf("FAIL %s\n", p)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(b.problems) == 0, b.attempted, b.failed, map[string]value{}}
	for _, m := range table {
		v, ok := values[m.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.name)
		}
		fmt.Printf("metric %-32s %16.6g %-6s %s\n", m.name, v, m.unit, m.note)
		out.Metrics[m.name] = value{v, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func mean(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-th percentile of sorted samples,
// 0 when there are none.
func percentile(sorted []uint32, q int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := (q*len(sorted) + 99) / 100
	return float64(sorted[max(rank, 1)-1])
}
