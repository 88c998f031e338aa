package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"strings"
	"time"

	"elsc/internal/experiments"
	"elsc/internal/kernel"
	"elsc/internal/sim"
	"elsc/internal/workload/volano"
	"elsc/internal/workload/webserver"
)

// horizonSeconds bounds every cell's virtual time. Every cell finishes in
// well under a tenth of it; one that reaches it is reported incomplete.
const horizonSeconds = 600

// A cell is one policy on one machine spec running one program. Exactly
// one of chat and web is set.
type cell struct {
	policy string
	spec   experiments.MachineSpec
	chat   *volano.Config
	web    *webserver.Config
}

// A workload is a fixed list of cells. A round runs every cell under
// each of seedsPerRound seeds derived from the benchmark's seed, serially.
type workload struct {
	name  string
	cells []cell
}

// seedsPerRound is how many seeds a round runs each cell under. The
// scan-heavy reg cells' simulated cost moves by about a tenth from one
// seed to the next, and their host time with it; four seeds per round
// keep the spread of the slowest cell's time between benchmark seeds
// under a third of its bound.
const seedsPerRound = 4

// A job is one cell under one seed.
type job struct {
	cell
	seed int64
}

// jobs lists a round's jobs for the benchmark seed: seeds seed*4 .. seed*4+3,
// so distinct benchmark seeds never share a job seed.
func (w workload) jobs(seed int64) []job {
	var out []job
	for k := int64(0); k < seedsPerRound; k++ {
		for _, c := range w.cells {
			out = append(out, job{c, seed*seedsPerRound + k})
		}
	}
	return out
}

// chatPaper is VolanoMark at the paper's shape on the 2.3-era serialized
// network stack: 10 rooms of 20 users, 800 threads.
var chatPaper = volano.Config{Rooms: 10, UsersPerRoom: 20, MessagesPerUser: 15}

// webNUMA is the open-loop Apache-style webserver: 64 workers, 10k req/s
// offered on the workload's own virtual-time arrival schedule.
var webNUMA = webserver.Config{Workers: 64, Requests: 20000}

// workloads lists the benchmark's workloads. BENCHMARK.json records why
// each was chosen.
var workloads = []workload{
	{name: "chat-paper", cells: cross([]string{"reg", "elsc"}, []string{"UP", "4P"}, &chatPaper, nil)},
	{name: "web-numa", cells: cross([]string{"reg", "elsc", "heap", "mq", "o1", "cfs"}, []string{"32P-NUMA"}, nil, &webNUMA)},
}

// cross builds the policies × specs cells of one program, chat or web.
func cross(policies, specs []string, chat *volano.Config, web *webserver.Config) []cell {
	var out []cell
	for _, s := range specs {
		for _, p := range policies {
			out = append(out, cell{policy: p, spec: experiments.SpecByLabel(s), chat: chat, web: web})
		}
	}
	return out
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func (j job) label() string {
	prog := "web"
	if j.chat != nil {
		prog = "chat"
	}
	return fmt.Sprintf("%s/%s/%s@%d", prog, j.policy, j.spec.Label, j.seed)
}

// outcome is what a cell's program reports after its run.
type outcome struct {
	ops      uint64 // operations completed: messages delivered, requests served
	settled  uint64 // operations accounted for: deliveries, served+dropped
	want     uint64 // operations the configuration asks for
	complete bool
	simSecs  float64
	result   any // the program's own Result, hashed into the digest
}

// build constructs the cell's program on m and returns the call that runs
// it. The expected operation count comes from the benchmark's own config,
// not from the program.
func (c cell) build(m *kernel.Machine) func() outcome {
	if c.chat != nil {
		cfg := *c.chat
		b := volano.Build(m, cfg)
		want := uint64(cfg.Rooms) * uint64(cfg.UsersPerRoom) * uint64(cfg.UsersPerRoom) * uint64(cfg.MessagesPerUser)
		return func() outcome {
			r := b.Run()
			return outcome{ops: r.Deliveries, settled: r.Deliveries, want: want,
				complete: b.Done(), simSecs: r.Seconds, result: r}
		}
	}
	s := webserver.New(m, *c.web)
	want := uint64(c.web.Requests)
	return func() outcome {
		r := s.Run()
		return outcome{ops: uint64(r.Served), settled: uint64(r.Served + r.Dropped), want: want,
			complete: s.Done(), simSecs: r.Seconds, result: r}
	}
}

// jobRun is one job's host and simulated measurements.
type jobRun struct {
	setup, run time.Duration
	heapLive   int64         // live-heap growth from just before boot to the end, machine still referenced
	ref        time.Duration // the reference pass just before boot; see hostspeed.go
	out        outcome
	stats      kernel.Stats
	err        error // the first failed output check, nil if none
}

// runJob boots a machine on the recycled engine, builds the cell's program
// and runs it. factory chooses the policy: plain, or wrapped for timing.
// In plain rounds, given ref, forced GCs before boot and after the run
// measure the job's live heap, the one before boot keeping earlier jobs'
// garbage out of its timing, and a reference pass between that GC and
// boot measures the host's speed. Traced rounds, with ref nil, skip all
// three, so the profile's GC time is the program's own. The heap growth is
// what counts, because a recycled engine can keep earlier machines
// reachable: released wheel events keep their wheelNext link.
func runJob(eng *sim.Engine, j job, factory kernel.SchedulerFactory, ref *hostRef) jobRun {
	var before int64
	var refTime time.Duration
	if ref != nil {
		before = liveHeap()
		refTime = ref.pass()
	}
	t0 := time.Now()
	m := kernel.NewMachine(kernel.Config{
		CPUs:         j.spec.CPUs,
		SMP:          j.spec.SMP,
		Topology:     j.spec.Topology(),
		Seed:         j.seed,
		NewScheduler: factory,
		MaxCycles:    horizonSeconds * kernel.DefaultHz,
		Engine:       eng,
	})
	run := j.build(m)
	t1 := time.Now()
	out := run()
	t2 := time.Now()
	r := jobRun{setup: t1.Sub(t0), run: t2.Sub(t1), ref: refTime, out: out, stats: *m.Stats()}
	r.err = check(j, out, &r.stats)
	if ref != nil {
		r.heapLive = liveHeap() - before
		runtime.KeepAlive(m)
	}
	return r
}

// liveHeap forces a full collection and returns the bytes still reachable.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// check applies the output checks every cell must pass.
func check(j job, out outcome, st *kernel.Stats) error {
	switch {
	case !out.complete:
		return fmt.Errorf("%s: did not complete within %ds of virtual time", j.label(), horizonSeconds)
	case out.settled != out.want:
		return fmt.Errorf("%s: %d operations accounted for, want %d", j.label(), out.settled, out.want)
	case st.IdleTickRescues != 0:
		return fmt.Errorf("%s: %d idle tick rescues, want 0", j.label(), st.IdleTickRescues)
	}
	return nil
}

// digest hashes a job's simulated results: its label, the program's
// Result and the machine's Stats. Neither holds a host-side measurement,
// and %v renders every field, unexported ones included, so any moved
// simulated number changes the digest.
func digest(j job, r *jobRun) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\n%v\n%v\n", j.label(), r.out.result, r.stats)
	return hex.EncodeToString(h.Sum(nil))
}

// digestOf folds the per-job digests into the workload's digest.
func digestOf(jobs []string) string {
	h := sha256.Sum256([]byte(strings.Join(jobs, "\n")))
	return hex.EncodeToString(h[:])
}
