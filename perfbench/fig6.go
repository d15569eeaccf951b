package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/power"
)

// fig6-cold: a fresh exp.Session regenerates the full Figure 6 grid at the
// wbsn-bench defaults, one cell at a time through the calls Sweep.point
// makes (Options.Record, Session.SolveOperatingPoint, Session.Measure). A
// failed cell is one failed operation; the other cells still run and are
// timed. Each repetition regenerates the figure for one record seed of the
// reference pool; the workload seed picks where in the pool a run starts.
//
// After the grid, three short tails exercise the reuse a wbsn-bench user
// gets: every solved cell re-solved on the same session (solve hits, as when
// experiments share a session), the session checkpointed and reloaded into
// fresh sessions that re-solve every cell (checkpoint hits, as a -checkpoint
// re-run does), and the grid's first cell measured again (a repeat measure
// re-simulates in full).

const (
	fig6HitRounds   = 30 // timed hit samples per cell on the grid's session
	hitBatch        = 10 // consecutive hits per sample
	fig6StoreRounds = 6  // checkpoint reloads, each re-solving every cell
	// Three repetitions let the median drop one that a burst of host
	// contention slowed.
	fig6MinReps = 3
	// timelineCap holds every event of one traced fig6 cell (about 2e5
	// for the largest) with room to spare; overflow is reported.
	timelineCap = 1 << 20
)

// columns are Figure 6's bars in metric-name form, in grid order.
var columns = []struct {
	name string
	arch power.Arch
}{{"sc", power.SC}, {"mc_nosync", power.MCNoSync}, {"mc", power.MC}}

func columnOf(a power.Arch) int {
	for i, c := range columns {
		if c.arch == a {
			return i
		}
	}
	return -1
}

// colCycles is one column's simulated-cycle account: every cycle the
// column's simulations advanced, split by the engine that ran it.
type colCycles struct {
	sim, ff, spin, block, blockMC uint64
	// measured-run cycles and the host time of the Measure calls that ran
	// them, for the measured simulation rate.
	measCycles uint64
	measHost   time.Duration
}

// fig6Rep is one repetition's outcome.
type fig6Rep struct {
	rep
	seed                int64
	cells, cellsOK      int
	col                 [3]time.Duration
	solve, measure      []float64
	hit, store, repeat  []float64
	attempted, failed   int
	failures            map[string]int
	counts              counts
	layer               *layerData
	solveHost, measHost time.Duration
	synthHost           time.Duration
}

func runFig6(cfg config) (*result, error) {
	ref, err := loadFig6Ref()
	if err != nil {
		return nil, err
	}
	tmp, err := benchTempDir()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	res := &result{workload: "fig6-cold", failures: map[string]int{}}
	setup, err := measureSetup(func() error {
		// What precedes a wbsn-bench grid's first simulation: the sweep and
		// its session, the nine application images assembled and linked,
		// and the three input records synthesized.
		sw := exp.NewSweep(1, nil)
		for _, pt := range exp.Fig6Grid(ref.options(ref.Seeds[0].Seed)) {
			if _, err := apps.Build(pt.App, pt.Arch); err != nil {
				return err
			}
			o := pt.Opts
			o.Cache = sw.Cache
			if _, err := o.Record(pt.App); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	start := pick(cfg.seed, len(ref.Seeds))
	if cfg.trace {
		// The traced repetition reruns the untraced one's record seed:
		// every count must repeat exactly (the self-check).
		rs := ref.Seeds[start]
		rp, err := fig6Once(rs, ref, tmp, false, res)
		if err != nil {
			return nil, err
		}
		tr, err := fig6Once(rs, ref, tmp, true, res)
		if err != nil {
			return nil, err
		}
		compareCounts(res, fmt.Sprintf("fig6-cold seed %d untraced vs traced", rs.Seed), rp.counts, tr.counts)
		tr.layer.untraced = rp.rep
		return fig6Traced(res, tr), nil
	}

	// At least fig6MinReps repetitions, and more while another fits in
	// the budget; each takes the next record seed of the pool.
	var reps []*fig6Rep
	t0 := time.Now()
	for r := 0; r < fig6MinReps || time.Since(t0)+time.Since(t0)/time.Duration(r) <= cfg.budget; r++ {
		rp, err := fig6Once(ref.Seeds[(start+r)%len(ref.Seeds)], ref, tmp, false, res)
		if err != nil {
			return nil, err
		}
		reps = append(reps, rp)
	}

	var wall, cpu, sc, nosync, mc []float64
	var gridWall time.Duration
	var solve, measure, hit, store, repeat []float64
	okCells, cells := 0, 0
	for _, rp := range reps {
		wall = append(wall, rp.wall.Seconds())
		cpu = append(cpu, rp.cpu.Seconds())
		gridWall += rp.wall
		sc = append(sc, rp.col[0].Seconds())
		nosync = append(nosync, rp.col[1].Seconds())
		mc = append(mc, rp.col[2].Seconds())
		solve = append(solve, mean(rp.solve))
		measure = append(measure, mean(rp.measure))
		hit = append(hit, rp.hit...)
		store = append(store, rp.store...)
		repeat = append(repeat, rp.repeat...)
		okCells += rp.cellsOK
		cells += rp.cells
		res.attempted += rp.attempted
		res.failed += rp.failed
		for c, n := range rp.failures {
			res.failures[c] += n
		}
		res.notes = append(res.notes, fmt.Sprintf("rep record-seed %d: grid %.3f s, cpu %.3f s, %d/%d cells ok",
			rp.seed, rp.wall.Seconds(), rp.cpu.Seconds(), rp.cellsOK, rp.cells))
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	n := len(reps)
	e := &res.e2e
	e.add("wall_s", "s", median(wall), n)
	e.add("cpu_s", "s", median(cpu), n)
	e.add("setup_s", "s", setup, setupSamples)
	e.add("peak_rss_mb", "MiB", rss, 1)
	e.add("success_ratio", "ratio", float64(okCells)/float64(cells), cells)
	e.add("sc_s", "s", median(sc), n)
	e.add("mc_nosync_s", "s", median(nosync), n)
	e.add("mc_s", "s", median(mc), n)
	e.add("throughput_rps", "1/s", float64(cells)/gridWall.Seconds(), cells)
	// The grid's cells differ in cost by an order of magnitude, so a
	// percentile over nine of them jumps between cells; the cold classes
	// report the median over repetitions of the per-cell mean instead.
	const cellNote = "median over repetitions of the per-cell mean (cells differ in cost)"
	e.addNote("solve_cold_p50_ms", "ms", median(solve), n, cellNote)
	e.addNote("solve_cold_p90_ms", "ms", median(solve), n, cellNote)
	if err := addLatency(e, "solve_hit_p50_ms", hit, 0.5); err != nil {
		return nil, err
	}
	if err := addLatency(e, "solve_hit_p90_ms", hit, 0.9); err != nil {
		return nil, err
	}
	e.addNote("measure_cold_p50_ms", "ms", median(measure), n, cellNote)
	if err := addLatency(e, "measure_repeat_p50_ms", repeat, 0.5); err != nil {
		return nil, err
	}
	if err := addLatency(e, "store_hit_p50_ms", store, 0.5); err != nil {
		return nil, err
	}
	return res, nil
}

// fig6Traced assembles the per-layer result from the traced repetition.
func fig6Traced(res *result, tr *fig6Rep) *result {
	res.attempted, res.failed, res.failures = tr.attempted, tr.failed, tr.failures
	l := tr.layer
	l.traced = tr.rep
	l.solveS = tr.solveHost.Seconds()
	l.measureS = tr.measHost.Seconds()
	l.synthS = tr.synthHost.Seconds()
	res.notes = append(res.notes, fmt.Sprintf("traced rep record-seed %d: grid %.3f s (untraced %.3f s)",
		tr.seed, tr.wall.Seconds(), l.untraced.wall.Seconds()))
	l.emit(res)
	return res
}

// fig6Once runs one repetition: the cold grid, then the reuse tails.
// Outcomes are checked against the reference; mismatches land on res.
func fig6Once(rs fig6Seed, ref *fig6Ref, tmp string, traced bool, res *result) (*fig6Rep, error) {
	ctx := context.Background()
	opts := ref.options(rs.Seed)
	points := exp.Fig6Grid(opts)
	if len(points) != len(rs.Cells) {
		return nil, fmt.Errorf("fig6 reference for seed %d has %d cells, the grid %d", rs.Seed, len(rs.Cells), len(points))
	}
	rp := &fig6Rep{seed: rs.Seed, failures: map[string]int{}, counts: counts{}}
	fail := func(class string) {
		rp.failed++
		rp.failures[class]++
	}
	sess := exp.NewSession(nil)
	var tl *obs.Timeline
	if traced {
		rp.layer = newLayerData()
		tl = obs.NewTimeline(timelineCap)
	}
	ops := make([]exp.OperatingPoint, len(points))
	solved := make([]bool, len(points))

	grid, err := timeRep(func() error {
		for i, pt := range points {
			o := pt.Opts
			o.Cache = sess.Cache()
			var before exp.SessionStats
			if traced {
				tl.Reset()
				o.Obs = obs.NewSink(tl, nil)
				before = sess.Stats()
			}
			want := rs.Cells[i]
			if want.App != pt.App || want.Arch != pt.Arch.String() {
				return fmt.Errorf("fig6 reference cell %d is %s/%s, the grid's %s", i, want.App, want.Arch, pt)
			}
			rp.cells++
			rp.attempted++
			tc := time.Now()
			sig, err := o.Record(pt.App)
			synth := time.Since(tc)
			rp.synthHost += synth
			if err != nil {
				return fmt.Errorf("fig6 %s: record: %w", pt, err)
			}
			ts := time.Now()
			op, err := sess.SolveOperatingPoint(ctx, pt.App, pt.Arch, sig, o)
			solve := time.Since(ts)
			rp.solveHost += solve
			var m *exp.Measurement
			var meas time.Duration
			if err == nil {
				ops[i], solved[i] = op, true
				rp.solve = append(rp.solve, ms(solve))
				tm := time.Now()
				m, err = sess.Measure(ctx, pt.App, pt.Arch, op, sig, o)
				meas = time.Since(tm)
				rp.measHost += meas
				if err == nil {
					rp.measure = append(rp.measure, ms(meas))
				}
			}
			c := columnOf(pt.Arch)
			rp.col[c] += synth + solve + meas
			got := cellOutcome(pt, m, err)
			if d := got.diff(want); d != "" {
				res.mismatch("fig6 seed %d %s: %s", rs.Seed, pt, d)
			}
			if err != nil {
				fail("cell")
				rp.counts["cell."+pt.String()+".failed"] = 1
			} else {
				rp.cellsOK++
			}
			if traced {
				if err := rp.layer.addCell(c, tl, before, sess.Stats(), meas); err != nil {
					res.mismatch("fig6 seed %d %s: %v", rs.Seed, pt, err)
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rp.rep = grid
	st := sess.Stats()
	sessionCounts(rp.counts, "", st)
	th, tm, te := sess.TemplateCacheStats()
	req, syn := sess.Cache().Stats()
	rp.counts["template.hits"], rp.counts["template.misses"], rp.counts["template.evictions"] = th, tm, te
	rp.counts["signal.requests"], rp.counts["signal.synths"] = req, syn
	if traced {
		l := rp.layer
		l.stats = st
		l.tHits, l.tMisses, l.tEvict = th, tm, te
		l.synths, l.cacheHits = syn, req-syn
		l.storeErrs = st.StoreErrs
	}

	// Tail 1: solve hits on the grid's session, each sample the mean of
	// hitBatch consecutive hits after an untimed warm-up pass. Each timed
	// tail starts after a collection, so the grid's garbage does not land
	// in microsecond samples.
	runtime.GC()
	for r := -1; r < fig6HitRounds; r++ {
		for i, pt := range points {
			if !solved[i] {
				continue
			}
			rp.attempted += hitBatch
			d, err := timedSolve(ctx, sess, pt, ops[i], hitBatch)
			if err != nil {
				rp.failed += hitBatch - 1
				fail("solve_hit")
				res.mismatch("fig6 seed %d %s solve hit: %v", rs.Seed, pt, err)
				continue
			}
			if r >= 0 {
				rp.hit = append(rp.hit, d)
			}
		}
	}

	// Tail 2: checkpoint, then fresh sessions served from it.
	ckpt := filepath.Join(tmp, "fig6.ckpt")
	if err := sess.SaveCheckpoint(ckpt); err != nil {
		return nil, err
	}
	var loaded exp.SessionStats
	runtime.GC()
	for r := 0; r < fig6StoreRounds; r++ {
		s2 := exp.NewSession(nil)
		if err := s2.LoadCheckpoint(ckpt); err != nil {
			return nil, err
		}
		for i, pt := range points {
			if !solved[i] {
				continue
			}
			rp.attempted++
			d, err := timedSolve(ctx, s2, pt, ops[i], 1)
			if err != nil {
				fail("store_hit")
				res.mismatch("fig6 seed %d %s checkpoint hit: %v", rs.Seed, pt, err)
				continue
			}
			rp.store = append(rp.store, d)
		}
		loaded = s2.Stats()
	}
	sessionCounts(rp.counts, "reloaded.", loaded)

	// Tail 3: the first cell measured again.
	if solved[0] {
		pt := points[0]
		o := pt.Opts
		o.Cache = sess.Cache()
		sig, err := o.Record(pt.App)
		if err != nil {
			return nil, err
		}
		rp.attempted++
		t := time.Now()
		m, err := sess.Measure(ctx, pt.App, pt.Arch, ops[0], sig, o)
		d := ms(time.Since(t))
		if diff := cellOutcome(pt, m, err).diff(rs.Cells[0]); diff != "" {
			res.mismatch("fig6 seed %d %s repeat measure: %s", rs.Seed, pt, diff)
		}
		if err != nil {
			fail("measure_repeat")
		} else {
			rp.repeat = append(rp.repeat, d)
		}
	}
	rp.counts["ops.attempted"] = uint64(rp.attempted)
	rp.counts["ops.failed"] = uint64(rp.failed)
	return rp, nil
}

// timedSolve re-solves pt n times, checks every answer is want, and returns
// the mean milliseconds per solve.
func timedSolve(ctx context.Context, s *exp.Session, pt exp.Point, want exp.OperatingPoint, n int) (float64, error) {
	o := pt.Opts
	o.Cache = s.Cache()
	t := time.Now()
	for k := 0; k < n; k++ {
		sig, err := o.Record(pt.App)
		if err != nil {
			return 0, err
		}
		op, err := s.SolveOperatingPoint(ctx, pt.App, pt.Arch, sig, o)
		if err != nil {
			return 0, err
		}
		if op != want {
			return 0, fmt.Errorf("solved %+v, the grid solved %+v", op, want)
		}
	}
	return ms(time.Since(t)) / float64(n), nil
}

// sessionCounts copies a session's deterministic work counters into c.
func sessionCounts(c counts, prefix string, st exp.SessionStats) {
	for k, v := range map[string]uint64{
		"builds": st.Builds, "forks": st.Forks, "probe_runs": st.ProbeRuns,
		"demand_hits": st.DemandHits, "solve_hits": st.SolveHits,
		"early_aborts": st.EarlyAborts, "warm_measures": st.WarmMeasures,
		"ff_leaps": st.FFLeaps, "ff_cycles": st.FFSkippedCycles,
		"spin_leaps": st.SpinLeaps, "spin_cycles": st.SpinSkippedCycles,
		"block_runs": st.BlockRuns, "block_cycles": st.BlockCycles,
		"block_mc_strides": st.BlockMCStrides, "block_mc_cycles": st.BlockMCCycles,
		"store_hits": st.StoreHits, "store_puts": st.StorePuts, "store_errs": st.StoreErrs,
	} {
		c["session."+prefix+k] = v
	}
}

// phaseCycles sums the cycles of the session phase spans in events, and
// separately those of the measured runs.
func phaseCycles(events []obs.Event) (all, measured uint64) {
	for _, ev := range events {
		if ev.Kind != obs.KindPhase {
			continue
		}
		all += ev.Dur
		if strings.HasPrefix(ev.Label, "measure ") {
			measured += ev.Dur
		}
	}
	return all, measured
}

// pick maps a workload seed onto an index of a pool of n entries.
func pick(seed int64, n int) int {
	i := seed % int64(n)
	if i < 0 {
		i += int64(n)
	}
	return int(i)
}

// benchTempDir creates the run's scratch directory inside the checkout.
func benchTempDir() (string, error) {
	base := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "perfbench-")
}
