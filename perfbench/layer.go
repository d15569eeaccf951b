package main

import (
	"fmt"
	"time"

	"repro/internal/exp"
	"repro/internal/obs"
)

// layerData is the per-layer account of one traced repetition. The
// simulated-cycle split comes from the program's observation hooks
// (Options.Obs phase spans and SessionStats engine counters); host times come
// from spans the benchmark records around its own calls into each layer.
// Layers a workload does not exercise report zero.
type layerData struct {
	cols [3]colCycles

	stats                    exp.SessionStats
	solveS, measureS, synthS float64
	synths, cacheHits        uint64

	// handler holds server-side milliseconds per request class (timing
	// middleware around Handler); transport is client minus handler time.
	handler   map[string][]float64
	transport []float64

	coStarted, coCoalesced                       uint64
	storeHits, storeMisses, storePuts, storeErrs uint64
	tHits, tMisses, tEvict                       uint64

	untraced, traced rep
}

// handlerClasses are the request classes whose handler time is reported.
var handlerClasses = []string{"solve_cold", "solve_hit", "measure_cold", "measure_repeat", "store_hit", "solve_burst"}

func newLayerData() *layerData {
	return &layerData{handler: map[string][]float64{}}
}

// addEngines attributes the engine work between two session-stat readings
// to column c.
func (l *layerData) addEngines(c int, before, after exp.SessionStats) {
	col := &l.cols[c]
	col.ff += after.FFSkippedCycles - before.FFSkippedCycles
	col.spin += after.SpinSkippedCycles - before.SpinSkippedCycles
	col.block += after.BlockCycles - before.BlockCycles
	col.blockMC += after.BlockMCCycles - before.BlockMCCycles
}

// addCell accounts one fig6 cell: its phase spans from tl, its engine work
// from the session-stat delta, and the host time of its Measure call.
func (l *layerData) addCell(c int, tl *obs.Timeline, before, after exp.SessionStats, meas time.Duration) error {
	if tl.Dropped() > 0 {
		return fmt.Errorf("timeline dropped %d events; raise timelineCap", tl.Dropped())
	}
	all, measured := phaseCycles(tl.Events())
	col := &l.cols[c]
	col.sim += all
	col.measCycles += measured
	col.measHost += meas
	l.addEngines(c, before, after)
	return nil
}

// emit writes the per-layer metrics onto res and checks the engines'
// disjointness: the four engine counts of a column never exceed its
// simulated cycles.
func (l *layerData) emit(res *result) {
	s := &res.layer
	for i, c := range columns {
		col := l.cols[i]
		engines := col.ff + col.spin + col.block + col.blockMC
		if engines > col.sim {
			res.mismatch("platform.%s: engine cycles %d exceed simulated cycles %d", c.name, engines, col.sim)
		}
		step := float64(col.sim) - float64(engines)
		share := 0.0
		if col.sim > 0 {
			share = step / float64(col.sim)
		}
		rate := 0.0
		if col.measHost > 0 {
			rate = float64(col.measCycles) / col.measHost.Seconds() / 1e6
		}
		p := "platform." + c.name + "."
		s.add(p+"sim_cycles", "cycles", float64(col.sim), 1)
		s.add(p+"ff_cycles", "cycles", float64(col.ff), 1)
		s.add(p+"spin_cycles", "cycles", float64(col.spin), 1)
		s.add(p+"block_cycles", "cycles", float64(col.block), 1)
		s.add(p+"block_mc_cycles", "cycles", float64(col.blockMC), 1)
		s.add(p+"step_cycles", "cycles", step, 1)
		s.add(p+"step_share", "ratio", share, 1)
		s.add(p+"mcycles_per_s", "Mcyc/s", rate, 1)
	}
	st := l.stats
	s.add("exp.solve_s", "s", l.solveS, 1)
	s.add("exp.measure_s", "s", l.measureS, 1)
	s.add("exp.probe_runs", "count", float64(st.ProbeRuns), 1)
	s.add("exp.forks", "count", float64(st.Forks), 1)
	s.add("exp.early_aborts", "count", float64(st.EarlyAborts), 1)
	s.add("exp.warm_measures", "count", float64(st.WarmMeasures), 1)
	s.add("exp.builds", "count", float64(st.Builds), 1)
	s.add("signal.synth_s", "s", l.synthS, 1)
	s.add("signal.synths", "count", float64(l.synths), 1)
	s.add("signal.cache_hits", "count", float64(l.cacheHits), 1)
	for _, c := range handlerClasses {
		xs := l.handler[c]
		v := 0.0
		if len(xs) > 0 {
			v = median(xs)
		}
		s.add("serve.handler_"+c+"_p50_ms", "ms", v, len(xs))
	}
	tr := 0.0
	if len(l.transport) > 0 {
		tr = median(l.transport)
	}
	s.add("serve.transport_p50_ms", "ms", tr, len(l.transport))
	share := 0.0
	if n := l.coStarted + l.coCoalesced; n > 0 {
		share = float64(l.coCoalesced) / float64(n)
	}
	s.add("coalesce.started", "count", float64(l.coStarted), 1)
	s.add("coalesce.coalesced", "count", float64(l.coCoalesced), 1)
	s.add("coalesce.share", "ratio", share, 1)
	s.add("store.hits", "count", float64(l.storeHits), 1)
	s.add("store.misses", "count", float64(l.storeMisses), 1)
	s.add("store.puts", "count", float64(l.storePuts), 1)
	s.add("store.errs", "count", float64(l.storeErrs), 1)
	s.add("exp.template_hits", "count", float64(l.tHits), 1)
	s.add("exp.template_misses", "count", float64(l.tMisses), 1)
	s.add("exp.template_evictions", "count", float64(l.tEvict), 1)
	s.add("trace.untraced_wall_s", "s", l.untraced.wall.Seconds(), 1)
	s.add("trace.traced_wall_s", "s", l.traced.wall.Seconds(), 1)
	s.add("trace.untraced_cpu_s", "s", l.untraced.cpu.Seconds(), 1)
	s.add("trace.traced_cpu_s", "s", l.traced.cpu.Seconds(), 1)
	s.add("trace.overhead_share", "ratio", l.traced.cpu.Seconds()/l.untraced.cpu.Seconds()-1, 1)
}
