package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"elsc/internal/experiments"
)

// TestUnknownSchedExits2 pins `schedtrace -sched nope`: exit 2 with the registered
// names on stderr, the diagnostic sweep gives for `-policies typo`, not
// a panic's goroutine dump. The test re-executes itself so os.Exit(2)
// lands in a child process.
func TestUnknownSchedExits2(t *testing.T) {
	if os.Getenv("SCHEDTRACE_BAD_FLAG") == "1" {
		os.Args = []string{"schedtrace", "-sched", "nope"}
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestUnknownSchedExits2$")
	cmd.Env = append(os.Environ(), "SCHEDTRACE_BAD_FLAG=1")
	out, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 2 {
		t.Fatalf("schedtrace -sched nope: got %v, want exit status 2; output:\n%s", err, out)
	}
	want := `unknown name "nope" (registered: ` + strings.Join(experiments.Policies, " ") + ")"
	if !strings.Contains(string(out), want) {
		t.Fatalf("diagnostic missing %q; output:\n%s", want, out)
	}
	if strings.Contains(string(out), "goroutine") {
		t.Fatalf("bad flag produced a goroutine trace:\n%s", out)
	}
}
