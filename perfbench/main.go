// Command perfbench is the repository's end-to-end and per-layer benchmark.
// It drives the simulator, the operating-point solver and the serving layer
// in-process through their public APIs, checks every output against a
// reference stored beside it, and prints one JSON result line.
//
// Run it from the root of a checkout (perfbench/run.py builds and runs it):
//
//	python3 perfbench/run.py --workload fig6-cold --seed 1 --seconds 40 --trace 0
//
// Workloads:
//
//	fig6-cold  a fresh exp.Session regenerates the Figure 6 grid (3 apps x
//	           SC/MC-nosync/MC at 10 s measured, 2.5 s probe), one cell at a
//	           time, each cell's failure isolated from the others.
//	serve-mix  an in-process wbsn-serve HTTP handler driven by two closed-loop
//	           clients with a seeded request mix, then restarted over its
//	           store.
//
// With -trace 0 the result line carries the end-to-end metrics; with
// -trace 1 the workload runs once untraced and once traced, the per-layer
// metrics come from the traced repetition, and every deterministic count of
// the two repetitions must agree (the count self-check). -gen-ref rebuilds
// the reference files, cross-checked against the cycle-exact engine.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// maxProcs bounds the scheduler: load comes from one process on at most two
// hardware threads, so results do not depend on how many cores a host has.
const maxProcs = 2

func main() {
	workload := flag.String("workload", "", "fig6-cold or serve-mix")
	seed := flag.Int64("seed", 1, "workload seed: selects the inputs from the reference pools")
	seconds := flag.Float64("seconds", 40, "measurement budget in seconds (each workload runs at least its minimum repetitions)")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from an extra traced repetition")
	genRef := flag.String("gen-ref", "", "regenerate reference files (fig6, serve or all) under perfbench/ref; slow: cross-checks the exact engine")
	flag.Parse()

	if runtime.GOMAXPROCS(0) > maxProcs {
		runtime.GOMAXPROCS(maxProcs)
	}
	if *genRef != "" {
		if err := generateReferences(*genRef); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	run, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown -workload %q (want fig6-cold or serve-mix)\n", *workload)
		os.Exit(2)
	}
	if err := checkCheckout(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}

	probeBefore := hostProbe()
	res, err := run(config{seed: *seed, budget: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	probeAfter := hostProbe()

	fmt.Printf("host-speed probe: %.3f ms before, %.3f ms after (diagnostic only, no metric is normalized by it)\n",
		probeBefore, probeAfter)
	if *trace == 1 {
		res.layer.add("host.probe_ms", "ms", (probeBefore+probeAfter)/2, 2)
	}
	res.print(os.Stdout, *trace == 1)
}

// config is what every workload receives.
type config struct {
	seed   int64
	budget time.Duration
	trace  bool
}

var workloads = map[string]func(config) (*result, error){
	"fig6-cold": runFig6,
	"serve-mix": runServeMix,
}

// checkCheckout fails fast outside a full checkout (the benchmark needs the
// bundled scenarios and its reference files).
func checkCheckout() error {
	for _, p := range []string{"scenarios", fig6RefPath, serveRefPath} {
		if _, err := os.Stat(p); err != nil {
			return fmt.Errorf("run from the root of a checkout: %w", err)
		}
	}
	return nil
}

// hostProbe times a fixed pure-Go integer loop, in milliseconds: a
// reading of the host's speed taken beside each workload, so machine drift
// can be told apart from a code change.
func hostProbe() float64 {
	best := 0.0
	for r := 0; r < 5; r++ {
		t := time.Now()
		x := uint64(88172645463325252)
		var acc uint64
		for i := 0; i < 20_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			acc += x % 1000003
		}
		probeSink = acc
		ms := float64(time.Since(t).Nanoseconds()) / 1e6
		if r == 0 || ms < best {
			best = ms
		}
	}
	return best
}

var probeSink uint64

// metric is one named, unit-tagged value with the number of samples behind
// it.
type metric struct {
	name  string
	unit  string
	value float64
	n     int
	note  string
}

type metricSet struct{ list []metric }

func (s *metricSet) add(name, unit string, v float64, n int) {
	s.list = append(s.list, metric{name: name, unit: unit, value: v, n: n})
}

func (s *metricSet) addNote(name, unit string, v float64, n int, note string) {
	s.list = append(s.list, metric{name: name, unit: unit, value: v, n: n, note: note})
}

// result is one workload run's outcome.
type result struct {
	workload  string
	attempted int
	failed    int
	// mismatches lists every operation whose output differed from its
	// reference, plus every failed self-check; any entry makes the run
	// incorrect.
	mismatches []string
	// failures counts failed operations per class (reference-matching
	// known failures included).
	failures map[string]int
	e2e      metricSet
	layer    metricSet
	// notes are diagnostic lines printed above the result.
	notes []string
}

func (r *result) mismatch(format string, args ...any) {
	r.mismatches = append(r.mismatches, fmt.Sprintf(format, args...))
}

// print writes the human-readable report and, as the last line, the JSON
// result object.
func (r *result) print(w *os.File, traced bool) {
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	classes := make([]string, 0, len(r.failures))
	for c := range r.failures {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	var fl []string
	for _, c := range classes {
		fl = append(fl, fmt.Sprintf("%s=%d", c, r.failures[c]))
	}
	fmt.Fprintf(w, "%s: %d operations, %d failed (%s)\n", r.workload, r.attempted, r.failed, strings.Join(fl, " "))
	for _, m := range r.mismatches {
		fmt.Fprintln(w, "MISMATCH:", m)
	}
	set := &r.e2e
	if traced {
		set = &r.layer
	}
	fmt.Fprintf(w, "%-40s %16s %-6s %8s\n", "metric", "value", "unit", "samples")
	for _, m := range set.list {
		line := fmt.Sprintf("%-40s %16.6g %-6s %8d", m.name, m.value, m.unit, m.n)
		if m.note != "" {
			line += "  " + m.note
		}
		fmt.Fprintln(w, line)
	}

	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]jsonMetric{}
	for _, m := range set.list {
		metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	out, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{len(r.mismatches) == 0, r.attempted, r.failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Fprintln(w, string(out))
}
