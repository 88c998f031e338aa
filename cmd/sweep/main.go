// Command sweep regenerates every table and figure from the paper's
// evaluation section, plus the future-work comparisons and this
// reproduction's ablation studies, and drives the policy x workload x
// machine matrix over the unified workload registry.
//
// Usage:
//
//	sweep                 # everything at paper scale (takes a few minutes)
//	sweep -exp fig3       # one experiment
//	sweep -quick          # reduced scale for a fast look
//	sweep -exp numa -json # domain tables + machine-readable BENCH_sweep.json
//	sweep -exp matrix -specs 8P -loads db,volano -policies o1,elsc
//	sweep -exp fuzz -seed 500 -fuzzn 32   # scenario fuzzer batch
//
// Experiments: table2, fig2, fig3, fig4, fig5, fig6, profile, alt, web,
// latency, lock, numa, matrix, wakestorm, interactive, ablate, scaling,
// fuzz, all. fuzz runs only when named: it prints one trace line per
// scenario rather than a paper table. scaling re-runs the workload
// matrix at worker-pool sizes 1/2/4/GOMAXPROCS, checks every rung's
// simulated results are identical to the serial rung's, and reports
// measured speedup and ns-per-event per rung.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"elsc/internal/experiments"
	"elsc/internal/kernel"
	"elsc/internal/stats"
	"elsc/internal/workload"
)

// main delegates to run so deferred cleanup — stopping the CPU profile,
// writing the heap profile — still happens on error exits (os.Exit would
// skip the defers and leave a truncated profile).
func main() {
	os.Exit(run())
}

func run() int {
	var (
		exp        = flag.String("exp", "all", "experiment to run (table2 fig2 fig3 fig4 fig5 fig6 profile alt web latency lock numa matrix wakestorm interactive ablate scaling fuzz all)")
		fuzzN      = flag.Int("fuzzn", 16, "scenarios for -exp fuzz (seeds seed..seed+n-1)")
		fuzzHot    = flag.Bool("fuzzhotplug", true, "keep hotplug storms in -exp fuzz scenarios (false strips them, for A/B isolation)")
		wdTrace    = flag.Bool("wdtrace", false, "print each watchdog violation as it fires during -exp fuzz")
		quick      = flag.Bool("quick", false, "reduced message counts for a fast pass")
		messages   = flag.Int("messages", 0, "override messages per user")
		seed       = flag.Int64("seed", 42, "simulation seed")
		parallel   = flag.Int("parallel", 0, "concurrent runs (default GOMAXPROCS)")
		jsonOut    = flag.Bool("json", false, "also write every table to "+jsonPath)
		policies   = flag.String("policies", "", "comma-separated policy filter for the matrix experiments (default: non-baseline policies; retired baselines like mq run only when named)")
		loads      = flag.String("loads", "", "comma-separated workload filter for the matrix experiments (default all registered)")
		specs      = flag.String("specs", "", "comma-separated machine specs for the matrix experiment (default 8P,32P-NUMA)")
		tickless   = flag.String("tickless", "on", "tickless idle mode: on (NO_HZ, the default) or off (re-arm every idle tick; ablation)")
		rungs      = flag.String("rungs", "", "comma-separated worker-pool widths for -exp scaling, e.g. 1,2,4 (default 1,2,4,GOMAXPROCS)")
		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile of the sweep to this file")
		memprofile = flag.String("memprofile", "", "write a pprof heap profile at sweep end to this file")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "creating %s: %v\n", *cpuprofile, err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "starting CPU profile: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		path := *memprofile
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "creating %s: %v\n", path, err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "writing heap profile: %v\n", err)
			}
		}()
	}

	sc := experiments.DefaultScale()
	if *quick {
		sc = experiments.QuickScale()
		sc.Messages = 30
	}
	if *messages > 0 {
		sc.Messages = *messages
	}
	sc.Seed = *seed
	sc.Parallel = *parallel
	switch *tickless {
	case "on":
	case "off":
		sc.TicklessOff = true
	default:
		fmt.Fprintf(os.Stderr, "unknown -tickless mode %q (want on or off)\n", *tickless)
		return 2
	}
	scalingRungs, err := parseRungs(*rungs)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	// The default matrix set excludes retired baselines (experiments.Caps);
	// naming one in -policies still runs it.
	matrixPolicies := splitList(*policies, experiments.DefaultPolicies(), experiments.Policies)
	matrixLoads := splitList(*loads, workload.Names(), workload.Names())
	matrixSpecs := specList(*specs, []string{"8P", "32P-NUMA"})

	want := func(name string) bool { return *exp == "all" || *exp == name }
	t0 := time.Now()

	// The VolanoMark matrix feeds figures 2-6 and the profile table.
	var runs []experiments.WorkloadRun
	needMatrix := want("fig2") || want("fig3") || want("fig4") || want("fig5") ||
		want("fig6") || want("profile")
	if needMatrix {
		fmt.Fprintf(os.Stderr, "running VolanoMark matrix (%d messages/user, rooms %v)...\n",
			sc.Messages, experiments.PaperRooms)
		runs = experiments.RunCells(experiments.VolanoCells(
			[]string{experiments.Reg, experiments.ELSC},
			experiments.PaperSpecs, experiments.PaperRooms, sc), sc)
	}

	var tables []*stats.Table
	var workloadRuns []experiments.WorkloadRun
	section := func(t *stats.Table) {
		tables = append(tables, t)
		fmt.Println(t.Render())
	}

	// Table 2 and the webserver table run the registry's shapes for the
	// scale; cmd/kcompile and cmd/websim pass their own.
	paperParams := experiments.WorkloadParams(experiments.SpecByLabel("2P"), sc)
	if want("table2") {
		section(experiments.Table2(sc, workload.KBuildConfig(paperParams)))
	}
	if want("fig2") {
		section(experiments.Fig2(runs, 10))
	}
	if want("fig3") {
		section(experiments.Fig3(runs, experiments.PaperRooms))
	}
	if want("fig4") {
		section(experiments.Fig4(runs, 5, 20))
	}
	if want("fig5") {
		section(experiments.Fig5(runs, 10))
	}
	if want("fig6") {
		section(experiments.Fig6(runs, 10))
	}
	if want("profile") {
		section(experiments.Profile(runs, experiments.PaperRooms))
	}
	if want("alt") {
		section(experiments.AltSchedulers(experiments.SpecByLabel("4P"), 10, sc))
	}
	if want("web") {
		section(experiments.Webserver(experiments.SpecByLabel("2P"), workload.WebServerConfig(paperParams), sc))
	}
	if want("lock") {
		// The lock-wait headline, scaled past the paper's hardware: the
		// global-lock policies collapse as CPUs double, the per-CPU-lock
		// ones do not.
		for _, label := range []string{"8P", "16P", "32P"} {
			section(experiments.LockContention(experiments.SpecByLabel(label), 10, sc))
		}
	}
	if want("numa") {
		for _, spec := range experiments.NUMASpecs {
			section(experiments.Numa(spec, 10, sc))
		}
		// Marginal load (3 rooms on 32 CPUs) keeps the steal path hot —
		// the regime where domain awareness pays.
		section(experiments.AblateTopology(experiments.SpecByLabel("32P-NUMA"), 3, sc))
	}
	if want("matrix") {
		fmt.Fprintf(os.Stderr, "running workload matrix (%d policies x %d workloads x %v)...\n",
			len(matrixPolicies), len(matrixLoads), labelsOf(matrixSpecs))
		mruns := experiments.RunCells(experiments.MatrixCells(matrixPolicies, matrixSpecs, matrixLoads, sc), sc)
		workloadRuns = append(workloadRuns, mruns...)
		for _, spec := range matrixSpecs {
			section(experiments.MatrixTable(mruns, spec, matrixPolicies, matrixLoads))
		}
	}
	if want("wakestorm") {
		spec := experiments.SpecByLabel("32P-NUMA")
		// Under -exp all the matrix block usually just ran these exact
		// cells; reuse them rather than re-running and duplicating the
		// JSON entries.
		sruns := filterRuns(workloadRuns, spec.Label, workload.WakeStorm, matrixPolicies)
		if len(sruns) != len(matrixPolicies) {
			sruns = experiments.RunCells(experiments.MatrixCells(matrixPolicies, []experiments.MachineSpec{spec},
				[]string{workload.WakeStorm}, sc), sc)
			workloadRuns = append(workloadRuns, sruns...)
		}
		section(experiments.WorkloadDetail(sruns, spec, matrixPolicies, workload.WakeStorm))
	}
	if want("interactive") {
		// The interactivity ablation: the same o1 scheduler with and
		// without the sleep_avg machinery and SD_WAKE_IDLE placement, on
		// the spec where PR 3 exposed the latency collapse.
		section(experiments.AblateInteractivity(experiments.SpecByLabel("32P-NUMA"), sc))
	}
	if want("latency") {
		section(experiments.WakeLatency(experiments.SpecByLabel("UP"),
			[]int{4, 16, 64, 256}, sc))
	}
	if want("ablate") {
		section(experiments.AblateSearchLimit(experiments.SpecByLabel("4P"), 10,
			[]int{1, 3, 7, 15, 40}, sc))
		section(experiments.AblateTableSize(experiments.SpecByLabel("1P"), 10,
			[]int{15, 30, 60}, sc))
		section(experiments.AblateUPShortcut(10, sc))
	}
	var scalingLevels []experiments.ScalingLevel
	if want("scaling") {
		effectiveRungs := scalingRungs
		if effectiveRungs == nil {
			effectiveRungs = experiments.ScalingRungs()
		} else {
			effectiveRungs = experiments.NormalizeRungs(effectiveRungs)
		}
		fmt.Fprintf(os.Stderr, "running parallel-scaling sweep (rungs %v, %d cells/rung)...\n",
			effectiveRungs, len(matrixPolicies)*len(matrixLoads)*len(matrixSpecs))
		levels, sruns, err := experiments.RunScalingSweep(matrixPolicies, matrixSpecs, matrixLoads, sc, effectiveRungs)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		scalingLevels = levels
		// Rendered but kept out of the JSON tables: the rung timings are
		// host wall-clock, and BENCH_sweep.json must stay byte-identical
		// for a seed. The machine-readable copy goes to
		// BENCH_wallclock.json with the other host-dependent numbers.
		fmt.Println(experiments.ScalingTable(levels, strings.Join(labelsOf(matrixSpecs), ",")).Render())
		// When scaling runs alone its serial rung doubles as the matrix
		// cells for the JSON outputs; under -exp all the matrix block
		// already recorded the identical cells.
		if len(workloadRuns) == 0 {
			workloadRuns = append(workloadRuns, sruns...)
		}
	}

	if *exp == "fuzz" {
		// The whole-machine scenario fuzzer, outside `go test -fuzz`: one
		// deterministic scenario per seed, each audited for task
		// conservation across hot policy swaps, churn, and fork storms.
		// Any FAIL line is a complete reproduction — rerun with that seed.
		fmt.Fprintf(os.Stderr, "running %d fuzz scenarios (seeds %d..%d)...\n",
			*fuzzN, *seed, *seed+int64(*fuzzN)-1)
		failed := 0
		for i := 0; i < *fuzzN; i++ {
			s := experiments.GenScenario(*seed + int64(i))
			if *policies != "" {
				// A -policies filter pins each scenario's starting policy
				// to the filtered set (round-robin), so CI can aim the
				// fuzz budget at one policy; swap targets still draw
				// from the whole registry.
				s.Policy = matrixPolicies[i%len(matrixPolicies)]
			}
			if !*fuzzHot {
				s.Hotplugs = nil
			}
			var opts experiments.ScenarioOpts
			if *wdTrace {
				opts.OnViolation = func(v kernel.WatchdogViolation) {
					fmt.Printf("     watchdog: %s\n", v)
				}
			}
			rep, err := experiments.RunScenarioOpts(s, opts)
			if err != nil {
				failed++
				fmt.Printf("FAIL %v\n", err)
				continue
			}
			fmt.Printf("ok   %s (migrated=%d forked=%d offlined=%d onlined=%d %.2fs virtual)\n",
				s, rep.Migrated, rep.Forked, rep.Offlined, rep.Onlined, rep.Result.Seconds)
		}
		if failed > 0 {
			fmt.Fprintf(os.Stderr, "%d of %d scenarios violated an invariant\n", failed, *fuzzN)
			return 1
		}
	}

	known := false
	for _, name := range strings.Fields("table2 fig2 fig3 fig4 fig5 fig6 profile alt web latency lock numa matrix wakestorm interactive ablate scaling fuzz all") {
		if *exp == name {
			known = true
			break
		}
	}
	if !known {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		return 2
	}
	if *jsonOut {
		if err := writeJSON(jsonPath, *exp, *quick, sc, tables, workloadRuns); err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", jsonPath, err)
			return 1
		}
		if err := writeWallclockJSON(wallclockPath, *exp, *quick, sc, time.Since(t0), workloadRuns, scalingLevels); err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", wallclockPath, err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "wrote %d tables and %d workload entries to %s (+wall-clock to %s)\n",
			len(tables), len(workloadRuns), jsonPath, wallclockPath)
	}
	fmt.Fprintf(os.Stderr, "done in %.1fs\n", time.Since(t0).Seconds())
	return 0
}

// resolveList parses a comma-separated flag, defaulting to def and
// validating each entry against the registered set (which may be wider
// than the default — retired baselines are valid but not default). An
// unknown entry returns an error naming the registered set.
func resolveList(flagVal string, def, all []string) ([]string, error) {
	if flagVal == "" {
		return def, nil
	}
	var out []string
	for _, name := range strings.Split(flagVal, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if err := experiments.CheckName(name, all); err != nil {
			return nil, err
		}
		out = append(out, name)
	}
	if len(out) == 0 {
		return def, nil
	}
	return out, nil
}

// splitList is resolveList with the command-line exit policy: an unknown
// name is a usage error (exit 2), diagnosed on stderr.
func splitList(flagVal string, def, all []string) []string {
	out, err := resolveList(flagVal, def, all)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	return out
}

// parseRungs parses the -rungs flag: a comma-separated list of positive
// worker-pool widths, or nil when unset (the ScalingRungs default).
// Normalization (serial baseline, sort, dedup) happens downstream.
func parseRungs(flagVal string) ([]int, error) {
	if flagVal == "" {
		return nil, nil
	}
	var out []int
	for _, s := range strings.Split(flagVal, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		var n int
		if _, err := fmt.Sscanf(s, "%d", &n); err != nil || n < 1 {
			return nil, fmt.Errorf("bad -rungs width %q (want a positive integer)", s)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, nil
	}
	return out, nil
}

// filterRuns returns the cells of runs matching one spec and workload,
// covering exactly the given policies in order — or nil if any policy's
// cell is missing.
func filterRuns(runs []experiments.WorkloadRun, specLabel, load string, policies []string) []experiments.WorkloadRun {
	var out []experiments.WorkloadRun
	for _, p := range policies {
		found := false
		for _, r := range runs {
			if r.Policy == p && r.Spec.Label == specLabel && r.Load == load {
				out = append(out, r)
				found = true
				break
			}
		}
		if !found {
			return nil
		}
	}
	return out
}

// specList resolves a comma-separated machine-spec filter, validating
// each label against the registered specs with the same diagnostic (and
// exit status) as splitList — a typo must fail loudly, not panic.
func specList(flagVal string, def []string) []experiments.MachineSpec {
	labels := splitList(flagVal, def, experiments.SpecLabels())
	var out []experiments.MachineSpec
	for _, l := range labels {
		out = append(out, experiments.SpecByLabel(l))
	}
	return out
}

func labelsOf(specs []experiments.MachineSpec) []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Label
	}
	return out
}

// jsonPath is where -json drops the machine-readable results, so the
// perf trajectory can be tracked across PRs.
const jsonPath = "BENCH_sweep.json"

// workloadEntry is one matrix cell in the JSON schema: the registry's
// common result flattened for machine consumers, plus the run identity.
type workloadEntry struct {
	Workload   string             `json:"workload"`
	Policy     string             `json:"policy"`
	Spec       string             `json:"spec"`
	Throughput float64            `json:"throughput"`
	Unit       string             `json:"unit"`
	Ops        uint64             `json:"ops"`
	Seconds    float64            `json:"seconds"`
	Complete   bool               `json:"complete"`
	Extras     map[string]float64 `json:"extras,omitempty"`

	// Scheduler-side observability for the run: SD_WAKE_IDLE placements
	// and TIMESLICE_GRANULARITY rotations the kernel performed, and — for
	// policies with an interactivity estimator (o1) — the enqueue counts
	// by dynamic-priority bonus (-5..+5) and active-array requeues.
	WakeIdlePlacements  uint64   `json:"wake_idle_placements"`
	TimesliceRotations  uint64   `json:"timeslice_rotations"`
	TickPreemptions     uint64   `json:"tick_preemptions"`
	BonusLevels         []uint64 `json:"bonus_levels,omitempty"`
	InteractiveRequeues uint64   `json:"interactive_requeues,omitempty"`
}

// sweepJSON is the file schema: enough run metadata to reproduce the
// numbers, every rendered table, and one entry per workload-matrix cell.
type sweepJSON struct {
	Experiment string          `json:"experiment"`
	Quick      bool            `json:"quick"`
	Seed       int64           `json:"seed"`
	Messages   int             `json:"messages_per_user"`
	Horizon    uint64          `json:"horizon_seconds"`
	Tables     []*stats.Table  `json:"tables"`
	Workloads  []workloadEntry `json:"workloads,omitempty"`
}

// wallclockPath is where -json drops the harness-speed numbers. Unlike
// BENCH_sweep.json — virtual-time results, byte-identical for a seed —
// this file records host wall-clock per matrix cell, so engine-speed
// regressions become visible across PRs (numbers vary with the host; the
// committed file tracks the CI-class container the repo is grown on).
const wallclockPath = "BENCH_wallclock.json"

// wallclockCell is one matrix cell's harness cost. events splits into
// events_wheel (dispatched from the timer wheel's O(1) fast path) and
// events_heap (the min-heap fallback), so the wheel's hit rate is
// visible per workload across PRs. ticks_skipped counts idle tick
// firings the NO_HZ parking elided — events the always-on chain would
// have paid for.
type wallclockCell struct {
	Workload     string  `json:"workload"`
	Policy       string  `json:"policy"`
	Spec         string  `json:"spec"`
	WallMS       float64 `json:"wall_ms"`
	Events       uint64  `json:"events"` // engine events dispatched in the cell
	EventsWheel  uint64  `json:"events_wheel"`
	EventsHeap   uint64  `json:"events_heap"`
	TicksSkipped uint64  `json:"ticks_skipped"`
}

// wallclockJSON is the BENCH_wallclock.json schema. Scaling and
// ParallelSpeedup are filled when the scaling experiment ran (-exp
// scaling or all): one entry per worker-pool rung, and the top rung's
// measured speedup over serial.
type wallclockJSON struct {
	Experiment      string                     `json:"experiment"`
	Quick           bool                       `json:"quick"`
	Seed            int64                      `json:"seed"`
	Parallel        int                        `json:"parallel"`
	GoMaxProcs      int                        `json:"gomaxprocs"`
	TotalSeconds    float64                    `json:"total_seconds"`
	ParallelSpeedup float64                    `json:"parallel_speedup,omitempty"`
	Scaling         []experiments.ScalingLevel `json:"scaling,omitempty"`
	Cells           []wallclockCell            `json:"cells"`
}

func writeWallclockJSON(path, exp string, quick bool, sc experiments.Scale, total time.Duration, wruns []experiments.WorkloadRun, scaling []experiments.ScalingLevel) error {
	cells := make([]wallclockCell, 0, len(wruns))
	for _, r := range wruns {
		cells = append(cells, wallclockCell{
			Workload:     r.Load,
			Policy:       r.Policy,
			Spec:         r.Spec.Label,
			WallMS:       float64(r.WallNS) / 1e6,
			Events:       r.Stats.EventsFired,
			EventsWheel:  r.Stats.EventsWheel,
			EventsHeap:   r.Stats.EventsHeap,
			TicksSkipped: r.Stats.TicksSkipped,
		})
	}
	out, err := json.MarshalIndent(wallclockJSON{
		Experiment:      exp,
		Quick:           quick,
		Seed:            sc.Seed,
		Parallel:        sc.Workers(),
		GoMaxProcs:      runtime.GOMAXPROCS(0),
		TotalSeconds:    total.Seconds(),
		ParallelSpeedup: experiments.ParallelSpeedup(scaling),
		Scaling:         scaling,
		Cells:           cells,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

func writeJSON(path, exp string, quick bool, sc experiments.Scale, tables []*stats.Table, wruns []experiments.WorkloadRun) error {
	entries := make([]workloadEntry, 0, len(wruns))
	for _, r := range wruns {
		e := workloadEntry{
			Workload:   r.Load,
			Policy:     r.Policy,
			Spec:       r.Spec.Label,
			Throughput: r.Result.Throughput,
			Unit:       r.Result.Unit,
			Ops:        r.Result.Ops,
			Seconds:    r.Result.Seconds,
			Complete:   r.Result.Complete,

			WakeIdlePlacements: r.Stats.WakeIdlePlacements,
			TimesliceRotations: r.Stats.TimesliceRotations,
			TickPreemptions:    r.Stats.TickPreemptions,
		}
		if r.HasBonus {
			e.BonusLevels = r.BonusLevels
			e.InteractiveRequeues = r.InteractiveRequeues
		}
		if len(r.Result.Extras) > 0 {
			e.Extras = make(map[string]float64, len(r.Result.Extras))
			for _, m := range r.Result.Extras {
				e.Extras[m.Name] = m.Value
			}
		}
		entries = append(entries, e)
	}
	out, err := json.MarshalIndent(sweepJSON{
		Experiment: exp,
		Quick:      quick,
		Seed:       sc.Seed,
		Messages:   sc.Messages,
		Horizon:    sc.HorizonSeconds,
		Tables:     tables,
		Workloads:  entries,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
