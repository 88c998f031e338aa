package experiments

import (
	"strings"
	"testing"

	"elsc/internal/workload"
	"elsc/internal/workload/kbuild"
	"elsc/internal/workload/webserver"
)

// tinyScale keeps the full-matrix tests fast.
func tinyScale() Scale {
	return Scale{Messages: 4, Seed: 42, HorizonSeconds: 600, Quick: true}
}

// tinyRooms shrinks the room sweep.
var tinyRooms = []int{1, 2}

func tinyMatrix(t *testing.T) []WorkloadRun {
	t.Helper()
	return RunCells(VolanoCells([]string{Reg, ELSC}, PaperSpecs, tinyRooms, tinyScale()), tinyScale())
}

func TestMatrixCoversAllCells(t *testing.T) {
	runs := tinyMatrix(t)
	if len(runs) != 2*len(PaperSpecs)*len(tinyRooms) {
		t.Fatalf("matrix has %d cells", len(runs))
	}
	for _, policy := range []string{Reg, ELSC} {
		for _, spec := range PaperSpecs {
			for _, r := range tinyRooms {
				run := FindWorkload(runs, policy, spec.Label, volanoLoad(r))
				if run.Result.Ops == 0 {
					t.Fatalf("%s produced no deliveries", run.Key())
				}
			}
		}
	}
}

func TestMatrixDeterministicAcrossParallelism(t *testing.T) {
	sc1 := tinyScale()
	sc1.Parallel = 1
	sc4 := tinyScale()
	sc4.Parallel = 4
	a := RunCells(VolanoCells([]string{ELSC}, PaperSpecs[:2], tinyRooms, sc1), sc1)
	b := RunCells(VolanoCells([]string{ELSC}, PaperSpecs[:2], tinyRooms, sc4), sc4)
	for i := range a {
		if a[i].Result.Cycles != b[i].Result.Cycles {
			t.Fatalf("run %s differs across parallelism: %d vs %d",
				a[i].Key(), a[i].Result.Cycles, b[i].Result.Cycles)
		}
	}
}

func TestFig3ShapeELSCFlatRegDecays(t *testing.T) {
	// The paper's headline: reg throughput falls as rooms grow; ELSC
	// stays roughly flat. Use a wider spread for signal.
	sc := Scale{Messages: 8, Seed: 42, HorizonSeconds: 900}
	rooms := []int{2, 8}
	runs := RunCells(VolanoCells([]string{Reg, ELSC}, []MachineSpec{SpecByLabel("UP")}, rooms, sc), sc)

	regLo := FindWorkload(runs, Reg, "UP", volanoLoad(2)).Result.Throughput
	regHi := FindWorkload(runs, Reg, "UP", volanoLoad(8)).Result.Throughput
	elscLo := FindWorkload(runs, ELSC, "UP", volanoLoad(2)).Result.Throughput
	elscHi := FindWorkload(runs, ELSC, "UP", volanoLoad(8)).Result.Throughput

	regScale := regHi / regLo
	elscScale := elscHi / elscLo
	if elscScale <= regScale {
		t.Fatalf("scaling: elsc %.2f should beat reg %.2f", elscScale, regScale)
	}
	if elscScale < 0.85 {
		t.Fatalf("elsc scaling %.2f should be near 1.0", elscScale)
	}
}

func TestFig5ShapeELSCCheaper(t *testing.T) {
	runs := tinyMatrix(t)
	for _, spec := range PaperSpecs {
		e := FindWorkload(runs, ELSC, spec.Label, volanoLoad(2)).Stats
		r := FindWorkload(runs, Reg, spec.Label, volanoLoad(2)).Stats
		if e.CyclesPerSchedule() >= r.CyclesPerSchedule() {
			t.Errorf("%s: elsc cyc/sched %.0f not below reg %.0f",
				spec.Label, e.CyclesPerSchedule(), r.CyclesPerSchedule())
		}
		if e.ExaminedPerSchedule() >= r.ExaminedPerSchedule() {
			t.Errorf("%s: elsc examined %.1f not below reg %.1f",
				spec.Label, e.ExaminedPerSchedule(), r.ExaminedPerSchedule())
		}
	}
}

func TestFigureTablesRender(t *testing.T) {
	runs := tinyMatrix(t)
	cases := map[string]string{
		"fig2": Fig2(runs, 2).Render(),
		"fig3": Fig3(runs, tinyRooms).Render(),
		"fig4": Fig4(runs, 1, 2).Render(),
		"fig5": Fig5(runs, 2).Render(),
		"fig6": Fig6(runs, 2).Render(),
		"prof": Profile(runs, tinyRooms).Render(),
	}
	for name, out := range cases {
		if len(strings.Split(out, "\n")) < 4 {
			t.Errorf("%s table too small:\n%s", name, out)
		}
	}
}

func TestTable2Renders(t *testing.T) {
	tab := Table2(tinyScale(), workload.KBuildConfig(WorkloadParams(SpecByLabel("2P"), tinyScale())))
	out := tab.Render()
	for _, want := range []string{"Current - UP", "ELSC - UP", "Current - 2P", "ELSC - 2P"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table 2 missing row %q:\n%s", want, out)
		}
	}
}

func TestTable2WithRenders(t *testing.T) {
	tab := Table2(tinyScale(), kbuild.Config{Units: 16, MeanCompile: 3_000_000, MeanIO: 50_000})
	if tab.NumRows() != 4 {
		t.Fatalf("Table 2 (explicit config) rows = %d, want 4", tab.NumRows())
	}
}

func TestAltSchedulersTable(t *testing.T) {
	tab := AltSchedulers(SpecByLabel("2P"), 1, tinyScale())
	out := tab.Render()
	for _, want := range Policies {
		if !strings.Contains(out, want) {
			t.Fatalf("alternatives table missing %q:\n%s", want, out)
		}
	}
}

func TestLockContentionTable(t *testing.T) {
	tab := LockContention(SpecByLabel("2P"), 1, tinyScale())
	out := tab.Render()
	for _, want := range Policies {
		if !strings.Contains(out, want) {
			t.Fatalf("lock table missing %q:\n%s", want, out)
		}
	}
	if tab.NumRows() != len(Policies) {
		t.Fatalf("lock table rows = %d, want %d", tab.NumRows(), len(Policies))
	}
}

func TestWebserverTable(t *testing.T) {
	tab := Webserver(SpecByLabel("2P"), workload.WebServerConfig(WorkloadParams(SpecByLabel("2P"), tinyScale())), tinyScale())
	if tab.NumRows() != 2 {
		t.Fatalf("webserver table rows = %d, want 2", tab.NumRows())
	}
}

func TestWebserverWithTable(t *testing.T) {
	tab := Webserver(SpecByLabel("2P"), webserver.Config{Workers: 8, Requests: 200}, tinyScale())
	if tab.NumRows() != 2 {
		t.Fatalf("webserver table rows = %d, want 2", tab.NumRows())
	}
}

func TestAblationTables(t *testing.T) {
	sc := tinyScale()
	if got := AblateSearchLimit(SpecByLabel("1P"), 1, []int{1, 5}, sc); got.NumRows() != 2 {
		t.Fatal("search-limit ablation rows")
	}
	if got := AblateTableSize(SpecByLabel("1P"), 1, []int{15, 30}, sc); got.NumRows() != 2 {
		t.Fatal("table-size ablation rows")
	}
	if got := AblateUPShortcut(1, sc); got.NumRows() != 2 {
		t.Fatal("up-shortcut ablation rows")
	}
}

func TestFactoryNames(t *testing.T) {
	for _, name := range Policies {
		m := NewMachine(SpecByLabel("1P"), Factory(name), tinyScale(), nil)
		if m.Scheduler().Name() != name {
			t.Fatalf("factory %q built scheduler %q", name, m.Scheduler().Name())
		}
	}
}

// TestFindPanicsOnMissing: figure cells carry their room count in the
// cell identity, so a lookup at a room count the sweep did not run
// panics even when the same policy and spec ran at another.
func TestFindPanicsOnMissing(t *testing.T) {
	runs := RunCells(VolanoCells([]string{Reg}, []MachineSpec{SpecByLabel("UP")}, []int{1}, tinyScale()), tinyScale())
	if got := FindWorkload(runs, Reg, "UP", volanoLoad(1)); got.Load != "volano@1" {
		t.Fatalf("figure cell load = %q, want volano@1", got.Load)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("lookup of an unrun room count should panic")
		}
	}()
	FindWorkload(runs, Reg, "UP", volanoLoad(5))
}

func TestCheckNameDiagnostic(t *testing.T) {
	if err := CheckName(CFS, Policies); err != nil {
		t.Fatalf("registered policy rejected: %v", err)
	}
	want := `unknown name "bogus" (registered: reg elsc heap mq o1 cfs)`
	if err := CheckName("bogus", Policies); err == nil || err.Error() != want {
		t.Fatalf("diagnostic = %v, want %q", err, want)
	}
}
