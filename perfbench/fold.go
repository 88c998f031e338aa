package main

import (
	"bufio"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// layerOf maps the first path element under elsc/internal/ to the layer
// the benchmark reports it as.
var layerOf = map[string]string{
	"sim":      "sim",
	"kernel":   "kernel",
	"sched":    "sched",
	"task":     "task",
	"klist":    "task",
	"ipc":      "ipc",
	"workload": "workload",
	"prog":     "workload",
}

// foldLayers are the layers a profile fold reports, in output order:
// the program's layers, gc (the runtime's background GC workers), bench
// (this benchmark's own frames, the timing wrapper included), other (the
// program's packages outside any layer) and runtime (samples with no
// program frame at all).
var foldLayers = []string{"sim", "kernel", "sched", "task", "ipc", "workload", "gc", "bench", "other", "runtime"}

// gcWorkers are the entry points of the runtime's background GC goroutines.
var gcWorkers = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
}

// frameLayer returns the layer a function belongs to, or "" for runtime
// and standard-library functions.
func frameLayer(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "elsc/internal/"); ok {
		pkg, _, _ := strings.Cut(rest, ".")
		top, _, _ := strings.Cut(pkg, "/")
		if l, ok := layerOf[top]; ok {
			return l
		}
		return "other"
	}
	if strings.HasPrefix(fn, "main.") {
		return "bench"
	}
	return ""
}

// stackLayer charges a stack, leaf first, to the innermost frame that has
// a layer, so runtime work (a duffcopy, a map lookup, a GC assist) counts
// against the code that asked for it. Stacks with no such frame go to gc
// when a background GC worker runs them, to runtime otherwise.
func stackLayer(frames []string) string {
	for _, f := range frames {
		if l := frameLayer(f); l != "" {
			return l
		}
	}
	for _, f := range frames {
		if gcWorkers[f] {
			return "gc"
		}
	}
	return "runtime"
}

// foldTraces reads the output of `go tool pprof -traces` on a CPU profile
// and returns the sampled seconds charged to each layer. Each stack is
// listed leaf first, the sampled time on the leaf's line; an inlined frame
// carries an "(inline)" suffix. The folded total must match the header's
// "Total samples", so a change in the format cannot drop samples unseen.
func foldTraces(text string) (map[string]float64, error) {
	out := make(map[string]float64)
	var frames []string
	value, folded, total := -1.0, 0.0, -1.0
	flush := func() {
		if value >= 0 {
			out[stackLayer(frames)] += value
			folded += value
		}
		frames, value = frames[:0], -1
	}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		fields := strings.Fields(line)
		switch {
		case strings.HasPrefix(line, "-----------+"):
			flush()
		case !strings.HasPrefix(line, " "):
			// Header: File, Type, Time, Duration and Total samples.
			if _, t, ok := strings.Cut(line, "Total samples = "); ok {
				v, err := parseSeconds(strings.Fields(t)[0])
				if err != nil {
					return nil, err
				}
				total = v
			}
		case len(fields) == 0:
		case value < 0:
			v, err := parseSeconds(fields[0])
			if err != nil || len(fields) < 2 {
				continue // a sample label line, ahead of the stack
			}
			value = v
			frames = append(frames, fields[1])
		default:
			frames = append(frames, fields[0])
		}
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading pprof traces: %w", err)
	}
	if folded == 0 {
		return nil, fmt.Errorf("no samples in pprof traces output")
	}
	if total >= 0 && math.Abs(folded-total) > 0.01*total+0.01 {
		return nil, fmt.Errorf("folded %.2fs of the profile's %.2fs of samples", folded, total)
	}
	return out, nil
}

// parseSeconds reads a pprof time value such as "10ms", "1.50s" or "2mins".
func parseSeconds(s string) (float64, error) {
	units := []struct {
		suffix string
		scale  float64
	}{{"mins", 60}, {"hrs", 3600}, {"ns", 1e-9}, {"us", 1e-6}, {"µs", 1e-6}, {"ms", 1e-3}, {"s", 1}}
	for _, u := range units {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			v, err := strconv.ParseFloat(num, 64)
			if err != nil {
				return 0, fmt.Errorf("pprof value %q: %w", s, err)
			}
			return v * u.scale, nil
		}
	}
	return 0, fmt.Errorf("pprof value %q: no time unit", s)
}
