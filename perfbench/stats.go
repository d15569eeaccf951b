package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minBeyond is the percentile rule: a percentile is reported only when at
// least this many samples lie beyond it, so p90 needs 100 samples. Below
// that the median is reported in its place, with its sample count.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs and whether it
// satisfies the percentile rule. The median is always reported.
func percentile(xs []float64, q float64) (float64, bool) {
	if len(xs) == 0 {
		return math.NaN(), false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], q == 0.5 || len(s)-rank >= minBeyond
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func median(xs []float64) float64 {
	v, _ := percentile(xs, 0.5)
	return v
}

// addLatency reports class latency samples (milliseconds) as name at
// quantile q, falling back to the median when the class has too few samples
// for q.
func addLatency(set *metricSet, name string, samples []float64, q float64) error {
	if len(samples) == 0 {
		return fmt.Errorf("%s: no successful samples", name)
	}
	v, ok := percentile(samples, q)
	if ok {
		set.add(name, "ms", v, len(samples))
		return nil
	}
	set.addNote(name, "ms", median(samples), len(samples),
		fmt.Sprintf("p%.0f needs %d samples; median shown", q*100, int(math.Ceil(minBeyond/(1-q)))))
	return nil
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set size in MiB (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(strings.TrimPrefix(line, "VmHWM:"))
		kb, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return 0, fmt.Errorf("peak rss: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("peak rss: no VmHWM in /proc/self/status")
}

// rep is the wall and CPU time of one workload repetition.
type rep struct {
	wall, cpu time.Duration
}

// timeRep runs f and measures its wall and process CPU time.
func timeRep(f func() error) (rep, error) {
	c0, t0 := cpuTime(), time.Now()
	err := f()
	return rep{wall: time.Since(t0), cpu: cpuTime() - c0}, err
}

// setupSamples is how many times each workload's set-up is repeated to
// report its median.
const setupSamples = 9

// measureSetup times f setupSamples times and returns the median seconds.
func measureSetup(f func() error) (float64, error) {
	runtime.GC()
	var xs []float64
	for i := 0; i < setupSamples; i++ {
		t := time.Now()
		if err := f(); err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		xs = append(xs, time.Since(t).Seconds())
	}
	return median(xs), nil
}

// counts is a repetition's deterministic work counters, by name. Two
// repetitions of one workload at one seed must produce identical counts.
type counts map[string]uint64

// compareCounts records a mismatch for every count that differs between two
// repetitions.
func compareCounts(r *result, label string, a, b counts) {
	names := make([]string, 0, len(a))
	for k := range a {
		names = append(names, k)
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	for _, k := range names {
		if a[k] != b[k] {
			r.mismatch("self-check %s: count %s differs between repetitions: %d vs %d", label, k, a[k], b[k])
		}
	}
}
