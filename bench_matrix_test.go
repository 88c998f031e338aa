// BenchmarkMatrixSweep measures the harness itself: wall-clock per full
// quick-scale 8P policy x workload cell set, the unit of work every
// bench-regeneration and matrix PR pays over and over. The serial variant
// is the engine-speed headline tracked in BENCH_wallclock.json; the
// parallel variant exercises the worker pool (on a multi-core host it
// should scale near-linearly, since cells are independent simulations).
package elsc_test

import (
	"fmt"
	"runtime"
	"testing"

	"elsc/internal/experiments"
	"elsc/internal/workload"
)

// matrixSweepCells runs the full quick-scale 8P cell set once.
func matrixSweepCells(b *testing.B, parallel int) {
	b.Helper()
	sc := experiments.QuickScale()
	sc.Parallel = parallel
	spec := []experiments.MachineSpec{experiments.SpecByLabel("8P")}
	for i := 0; i < b.N; i++ {
		runs := experiments.RunCells(experiments.MatrixCells(experiments.Policies, spec, workload.Names(), sc), sc)
		if len(runs) != len(experiments.Policies)*len(workload.Names()) {
			b.Fatalf("matrix returned %d cells", len(runs))
		}
	}
}

func BenchmarkMatrixSweep(b *testing.B) {
	b.Run("serial", func(b *testing.B) { matrixSweepCells(b, 1) })
	procs := runtime.GOMAXPROCS(0)
	b.Run(fmt.Sprintf("parallel%d", procs), func(b *testing.B) { matrixSweepCells(b, procs) })
}
