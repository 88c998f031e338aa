package experiments

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"

	"elsc/internal/workload"
)

// TestWorkersDefaultsToGOMAXPROCS pins the -parallel 0 contract the
// sweep flag documents: an unset Parallel resolves to GOMAXPROCS, an
// explicit value wins.
func TestWorkersDefaultsToGOMAXPROCS(t *testing.T) {
	if got, want := (Scale{}).Workers(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("Scale{Parallel: 0}.Workers() = %d, want GOMAXPROCS = %d", got, want)
	}
	if got := (Scale{Parallel: 3}).Workers(); got != 3 {
		t.Fatalf("Scale{Parallel: 3}.Workers() = %d, want 3", got)
	}
}

// TestScalingRungs checks the rung set is ascending, deduplicated, and
// includes both the serial baseline and GOMAXPROCS.
func TestScalingRungs(t *testing.T) {
	rungs := ScalingRungs()
	if len(rungs) == 0 || rungs[0] != 1 {
		t.Fatalf("rungs = %v, want leading 1", rungs)
	}
	seen := map[int]bool{}
	hasMax := false
	for i, r := range rungs {
		if seen[r] {
			t.Fatalf("rungs = %v contains duplicate %d", rungs, r)
		}
		seen[r] = true
		if i > 0 && rungs[i] <= rungs[i-1] {
			t.Fatalf("rungs = %v not ascending", rungs)
		}
		if r == runtime.GOMAXPROCS(0) {
			hasMax = true
		}
	}
	if !hasMax {
		t.Fatalf("rungs = %v missing GOMAXPROCS = %d", rungs, runtime.GOMAXPROCS(0))
	}
}

// TestRunScalingSweepDeterministic runs a tiny matrix through every
// rung and checks the sweep's own cross-rung determinism validation
// passes, speedups are populated, and the event totals agree with the
// serial runs.
func TestRunScalingSweepDeterministic(t *testing.T) {
	sc := QuickScale()
	levels, runs, err := RunScalingSweep(
		[]string{O1}, []MachineSpec{SpecByLabel("2P")}, []string{workload.DB}, sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(levels) != len(ScalingRungs()) {
		t.Fatalf("got %d levels, want %d", len(levels), len(ScalingRungs()))
	}
	var events uint64
	for _, r := range runs {
		events += r.Stats.EventsFired
	}
	for _, l := range levels {
		if l.Events != events {
			t.Fatalf("rung %d events = %d, serial runs total %d", l.Parallel, l.Events, events)
		}
		if l.Seconds <= 0 || l.Speedup <= 0 || l.NsPerEvent <= 0 {
			t.Fatalf("rung %d has unpopulated timing: %+v", l.Parallel, l)
		}
	}
	if levels[0].Speedup != 1.0 {
		t.Fatalf("serial rung speedup = %v, want 1.0", levels[0].Speedup)
	}
	if ParallelSpeedup(levels) != levels[len(levels)-1].Speedup {
		t.Fatal("ParallelSpeedup does not report the top rung")
	}
}

// TestParallelSweepCPUProfileUsable captures a CPU profile around a
// -parallel 2 matrix and checks the result is a valid gzipped protobuf
// that carries the per-worker sweep_worker pprof label — the property
// that makes a parallel sweep's profile sliceable by worker.
func TestParallelSweepCPUProfileUsable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.out")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Fatal(err)
	}
	sc := QuickScale()
	sc.Parallel = 2
	// Repeat the matrix until enough wall time has passed that the
	// 100 Hz sampler has landed samples inside worker goroutines.
	for start := time.Now(); time.Since(start) < 700*time.Millisecond; {
		RunCells(MatrixCells([]string{O1, ELSC}, []MachineSpec{SpecByLabel("4P")},
			[]string{workload.DB, workload.WebServer}, sc), sc)
	}
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("profile is not gzip-framed: %v", err)
	}
	proto, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("profile does not decompress: %v", err)
	}
	if len(proto) == 0 {
		t.Fatal("profile is empty")
	}
	// The label key lands in the profile's string table verbatim.
	if !bytes.Contains(proto, []byte("sweep_worker")) {
		t.Fatal("profile carries no sweep_worker label; per-worker slicing would be impossible")
	}
}
