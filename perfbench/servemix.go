package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/serve"
)

// serve-mix: an httptest server over serve.NewEngine(...).Handler(), driven
// as a closed loop by two clients with a seeded request stream over bundled
// scenarios at short windows. Every class of request is bound to one cell
// and varies only the record seed, so the cost within a class is
// homogeneous:
//
//	solve_cold      /v1/solve on a fresh seed (ecg-default, 3l-mmd, mc)
//	solve_hit       the same solve again: served from the session
//	measure_cold    /v1/measure on a fresh seed (mix-multirate, 3l-mf, mc)
//	measure_repeat  the same measure again: re-simulated today
//	solve_burst     one cold solve sent by both clients at once, to
//	                exercise coalescing; bursts alternate between
//	                (ppg-motion, rp-class, mc-nosync) and (emg-burst,
//	                3l-mmd, sc)
//	store_hit       after the main phase, a second Engine opened over the
//	                same store directory replays the round's solved
//	                solve_cold requests
//
// A round is one fresh store, the main phase and the restart phase; rounds
// repeat the same stream, so every count must repeat exactly across rounds.

const (
	serveDurationS = 2.0
	serveProbeS    = 0.5
	// templateCap is wbsn-serve's default. A round creates fewer templates
	// than this (two per fresh seed), so no eviction depends on timing.
	templateCap = 64

	// planCycle round plans share out the solve pool (64 seeds, about 21 a
	// round) and the measure pool (16 seeds); a round creates fewer
	// templates than templateCap.
	planCycle   = 3
	roundBursts = 2
	// minCycles of planCycle rounds give the solve classes over 100
	// samples, what a p90 needs under the percentile rule.
	minCycles    = 2
	serveClients = 2

	// Traced rounds keep every simulated event of the round to attribute
	// phase cycles to columns; overflow is reported.
	serveTimelineCap   = 1 << 21
	restartTimelineCap = 1 << 18
)

// serveCells are the request classes' cells, indexed by serveCellRef order
// in the reference file.
const (
	cellSolve = iota
	cellMeasure
	cellBurst // bursts alternate between this cell and the next
)

type serveRef struct {
	DurationS    float64        `json:"duration_s"`
	ProbeS       float64        `json:"probe_s"`
	ExactChecked bool           `json:"exact_checked"`
	Cells        []serveCellRef `json:"cells"`
}

// serveCellRef is one request cell and the reference response for every
// seed of its pool.
type serveCellRef struct {
	Endpoint string         `json:"endpoint"`
	Scenario string         `json:"scenario"`
	App      string         `json:"app"`
	Arch     string         `json:"arch"`
	Pool     []serveOutcome `json:"pool"`
}

// serveOutcome is one reference response: status and body digest, with the
// body's gist for reading.
type serveOutcome struct {
	Seed   int64  `json:"seed"`
	Status int    `json:"status"`
	Body   string `json:"body_sha256"`
	Gist   string `json:"gist"`
}

func (c serveCellRef) column() (int, error) {
	a, err := power.ParseArchSpec(c.Arch)
	if err != nil {
		return 0, err
	}
	if col := columnOf(a); col >= 0 {
		return col, nil
	}
	return 0, fmt.Errorf("serve cell %s/%s is not a Figure 6 column", c.App, c.Arch)
}

func (c serveCellRef) body(seed int64, exact bool) []byte {
	ex := ""
	if exact {
		ex = `,"exact":true`
	}
	return []byte(fmt.Sprintf(`{"scenario":%q,"app":%q,"arch":%q,"duration_s":%v,"probe_s":%v,"seed":%d%s}`,
		c.Scenario, c.App, c.Arch, serveDurationS, serveProbeS, seed, ex))
}

func (c serveCellRef) outcome(seed int64) (serveOutcome, bool) {
	for _, o := range c.Pool {
		if o.Seed == seed {
			return o, true
		}
	}
	return serveOutcome{}, false
}

func loadServeRef() (*serveRef, error) {
	var r serveRef
	if err := readJSON(serveRefPath, &r); err != nil {
		return nil, err
	}
	if len(r.Cells) != len(serveCells) || r.DurationS != serveDurationS || r.ProbeS != serveProbeS {
		return nil, fmt.Errorf("%s: does not match this benchmark's request cells; regenerate with -gen-ref", serveRefPath)
	}
	return &r, nil
}

// serveOp is one request of the stream.
type serveOp struct {
	cell  int
	seed  int64
	class string
	burst int // barrier index of a solve_burst, else -1
}

// servePlan is a round's request stream: each client's main-phase list (a
// repeat always follows its cold request on the same client, so hits never
// race their own misses) and its restart-phase list.
type servePlan struct {
	main, restart [serveClients][]serveOp
	bursts        int
}

// newServePlans shuffles every cell's seed pool and deals it into
// planCycle round plans, so that a cycle of rounds requests each solve and
// measure seed of the reference pools exactly once: runs at different
// workload seeds see the same inputs in a different order and grouping,
// and their latency distributions differ only by noise.
func newServePlans(ref *serveRef, seed int64) []servePlan {
	rng := rand.New(rand.NewSource(seed))
	deal := func(cell int) [][]int64 {
		seeds := ref.seeds(cell)
		rng.Shuffle(len(seeds), func(i, j int) { seeds[i], seeds[j] = seeds[j], seeds[i] })
		var out [][]int64
		for i := 0; i < planCycle; i++ {
			out = append(out, seeds[i*len(seeds)/planCycle:(i+1)*len(seeds)/planCycle])
		}
		return out
	}
	solves, measures := deal(cellSolve), deal(cellMeasure)
	burstSeeds := [2][][]int64{deal(cellBurst), deal(cellBurst + 1)}
	plans := make([]servePlan, planCycle)
	for i := range plans {
		var bursts []serveOp
		for b := 0; b < roundBursts; b++ {
			bursts = append(bursts, serveOp{cell: cellBurst + b%2, seed: burstSeeds[b%2][i][0], class: "solve_burst", burst: b})
		}
		plans[i] = newServePlan(ref, rng, solves[i], measures[i], bursts)
	}
	return plans
}

func newServePlan(ref *serveRef, rng *rand.Rand, solves, measures []int64, bursts []serveOp) servePlan {
	var p servePlan
	p.bursts = len(bursts)
	for k := 0; k < serveClients; k++ {
		var cold []serveOp
		for i, s := range solves {
			if i%serveClients == k {
				cold = append(cold, serveOp{cell: cellSolve, seed: s, class: "solve_cold", burst: -1})
			}
		}
		for i, s := range measures {
			if i%serveClients == k {
				cold = append(cold, serveOp{cell: cellMeasure, seed: s, class: "measure_cold", burst: -1})
			}
		}
		rng.Shuffle(len(cold), func(i, j int) { cold[i], cold[j] = cold[j], cold[i] })
		list := append([]serveOp(nil), cold...)
		for _, op := range cold {
			at := 0
			for i := range list {
				if list[i] == op {
					at = i
				}
			}
			rep := op
			rep.class = map[string]string{"solve_cold": "solve_hit", "measure_cold": "measure_repeat"}[op.class]
			pos := at + 1 + rng.Intn(len(list)-at)
			list = append(list[:pos], append([]serveOp{rep}, list[pos:]...)...)
		}
		for b, op := range bursts {
			pos := (b + 1) * len(list) / (len(bursts) + 1)
			list = append(list[:pos], append([]serveOp{op}, list[pos:]...)...)
		}
		p.main[k] = list
	}
	// The restart replays every solve that succeeded (only results are
	// stored), in a new order.
	stored := succeeded(ref, cellSolve, solves)
	rng.Shuffle(len(stored), func(i, j int) { stored[i], stored[j] = stored[j], stored[i] })
	for i, s := range stored {
		k := i % serveClients
		p.restart[k] = append(p.restart[k], serveOp{cell: cellSolve, seed: s, class: "store_hit", burst: -1})
	}
	return p
}

// succeeded returns the seeds whose reference response for cell is 200 OK.
func succeeded(ref *serveRef, cell int, seeds []int64) []int64 {
	var ok []int64
	for _, s := range seeds {
		if o, _ := ref.Cells[cell].outcome(s); o.Status == http.StatusOK {
			ok = append(ok, s)
		}
	}
	return ok
}

func (r *serveRef) seeds(cell int) []int64 {
	var out []int64
	for _, o := range r.Cells[cell].Pool {
		out = append(out, o.Seed)
	}
	return out
}

// roundResult is one round's outcome.
type roundResult struct {
	rep
	lat       map[string][]float64 // successful client latency per class, ms
	col       [3]time.Duration     // client latency per column
	attempted int
	failed    int
	failures  map[string]int
	counts    counts
	layer     *layerData
}

func runServeMix(cfg config) (*result, error) {
	ref, err := loadServeRef()
	if err != nil {
		return nil, err
	}
	tmp, err := benchTempDir()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	res := &result{workload: "serve-mix", failures: map[string]int{}}

	// Set-up is what a fresh wbsn-serve process does before its first
	// answer: the engine (scenarios loaded, store opened), the listener,
	// and one cold solve.
	cell := ref.Cells[cellSolve]
	want := cell.Pool[0]
	setup, err := measureSetup(func() error {
		dir, err := os.MkdirTemp(tmp, "setup-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		e, err := serve.NewEngine(engineConfig(dir, 0))
		if err != nil {
			return err
		}
		srv := httptest.NewServer(e.Handler())
		defer srv.Close()
		resp, err := http.Post(srv.URL+cell.Endpoint, "application/json", bytes.NewReader(cell.body(want.Seed, false)))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		if resp.StatusCode != want.Status || sha(body) != want.Body {
			return fmt.Errorf("first solve: status %d body %q, reference status %d %s", resp.StatusCode, gist(body), want.Status, want.Gist)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	plans := newServePlans(ref, cfg.seed)
	first, err := serveRound(ref, plans[0], tmp, false, res)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		// The traced round replays the first round's plan: every count
		// must repeat exactly (the self-check).
		tr, err := serveRound(ref, plans[0], tmp, true, res)
		if err != nil {
			return nil, err
		}
		compareCounts(res, "serve-mix untraced vs traced round", first.counts, tr.counts)
		res.attempted, res.failed, res.failures = tr.attempted, tr.failed, tr.failures
		l := tr.layer
		l.untraced, l.traced = first.rep, tr.rep
		res.notes = append(res.notes, fmt.Sprintf("traced round (one client, bursts on two): %.3f s wall, %.3f s cpu; untraced round (two clients): %.3f s wall, %.3f s cpu",
			tr.wall.Seconds(), tr.cpu.Seconds(), first.wall.Seconds(), first.cpu.Seconds()))
		l.emit(res)
		return res, nil
	}

	// Whole cycles of plans, at least minCycles and as many more as the
	// budget allows; every round's counts must equal those of the first
	// round that ran the same plan.
	rounds := []*roundResult{first}
	t0 := time.Now().Add(-first.wall)
	for {
		if len(rounds)%planCycle == 0 {
			cycles := len(rounds) / planCycle
			perCycle := time.Since(t0) / time.Duration(cycles)
			if cycles >= minCycles && time.Since(t0)+perCycle > cfg.budget {
				break
			}
		}
		i := len(rounds)
		rr, err := serveRound(ref, plans[i%planCycle], tmp, false, res)
		if err != nil {
			return nil, err
		}
		if i >= planCycle {
			compareCounts(res, fmt.Sprintf("serve-mix rounds %d and %d (plan %d)", i%planCycle+1, i+1, i%planCycle+1),
				rounds[i%planCycle].counts, rr.counts)
		}
		rounds = append(rounds, rr)
	}

	// Per-round figures are taken over whole cycles (a cycle's total over
	// its planCycle rounds): every cycle requests the same seeds, so cycles
	// differ only by noise, while single rounds differ by their plan.
	lat := map[string][]float64{}
	var wall, cpu, sc, nosync, mc []float64
	var total time.Duration
	for c := 0; c < len(rounds); c += planCycle {
		var cyc rep
		var col [3]time.Duration
		for _, rr := range rounds[c : c+planCycle] {
			for class, xs := range rr.lat {
				lat[class] = append(lat[class], xs...)
			}
			cyc.wall += rr.wall
			cyc.cpu += rr.cpu
			for i := range col {
				col[i] += rr.col[i]
			}
			res.attempted += rr.attempted
			res.failed += rr.failed
			for class, n := range rr.failures {
				res.failures[class] += n
			}
		}
		total += cyc.wall
		per := func(d time.Duration) float64 { return d.Seconds() / planCycle }
		wall = append(wall, per(cyc.wall))
		cpu = append(cpu, per(cyc.cpu))
		sc = append(sc, per(col[0]))
		nosync = append(nosync, per(col[1]))
		mc = append(mc, per(col[2]))
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	n := len(wall)
	res.notes = append(res.notes, fmt.Sprintf("%d cycles of %d rounds; per-round wall median %.3f s", n, planCycle, median(wall)))
	e := &res.e2e
	e.add("wall_s", "s", median(wall), n)
	e.add("cpu_s", "s", median(cpu), n)
	e.add("setup_s", "s", setup, setupSamples)
	e.add("peak_rss_mb", "MiB", rss, 1)
	e.add("success_ratio", "ratio", float64(res.attempted-res.failed)/float64(res.attempted), res.attempted)
	e.add("sc_s", "s", median(sc), n)
	e.add("mc_nosync_s", "s", median(nosync), n)
	e.add("mc_s", "s", median(mc), n)
	e.add("throughput_rps", "1/s", float64(res.attempted)/total.Seconds(), res.attempted)
	for _, l := range []struct {
		name, class string
		q           float64
	}{
		{"solve_cold_p50_ms", "solve_cold", 0.5},
		{"solve_cold_p90_ms", "solve_cold", 0.9},
		{"solve_hit_p50_ms", "solve_hit", 0.5},
		{"solve_hit_p90_ms", "solve_hit", 0.9},
		{"measure_cold_p50_ms", "measure_cold", 0.5},
		{"measure_repeat_p50_ms", "measure_repeat", 0.5},
		{"store_hit_p50_ms", "store_hit", 0.5},
	} {
		if err := addLatency(e, l.name, lat[l.class], l.q); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func engineConfig(storeDir string, timelineCap int) serve.Config {
	return serve.Config{ScenarioDir: "scenarios", StoreDir: storeDir, TemplateCap: templateCap, Jobs: 1, TimelineCap: timelineCap}
}

// handlerTimes is the benchmark's timing middleware: server-side duration
// per request id.
type handlerTimes struct {
	mu sync.Mutex
	d  map[string]time.Duration
}

func (h *handlerTimes) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t := time.Now()
		next.ServeHTTP(w, r)
		d := time.Since(t)
		h.mu.Lock()
		h.d[r.Header.Get(opHeader)] = d
		h.mu.Unlock()
	})
}

const opHeader = "X-Perfbench-Op"

// sent is one completed request as the client saw it.
type sent struct {
	id     string
	op     serveOp
	status int
	body   []byte
	err    error
	client time.Duration
	before exp.SessionStats
	after  exp.SessionStats
}

// serveRound runs one round: a fresh store, the main phase on one engine,
// then the restart phase on a second engine over the same store. A traced
// round sends requests one at a time (a burst still goes out on two
// clients at once), so each request's engine work can be attributed to its
// column, and wraps the handler in the timing middleware.
func serveRound(ref *serveRef, plan servePlan, tmp string, traced bool, res *result) (*roundResult, error) {
	dir, err := os.MkdirTemp(tmp, "store-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	rr := &roundResult{lat: map[string][]float64{}, failures: map[string]int{}, counts: counts{}}
	var layer *layerData
	if traced {
		layer = newLayerData()
		rr.layer = layer
	}
	ht := &handlerTimes{d: map[string]time.Duration{}}
	var all []sent
	var e1, e2 *serve.Engine
	var events1, events2 []obs.Event

	phase := func(e *serve.Engine, lists [serveClients][]serveOp, tag string) {
		var h http.Handler = e.Handler()
		if traced {
			h = ht.wrap(h)
		}
		srv := httptest.NewServer(h)
		tr := &http.Transport{MaxIdleConnsPerHost: serveClients}
		client := &http.Client{Transport: tr}
		var out []sent
		if traced {
			out = runSequential(client, srv.URL, ref, e, lists, tag)
		} else {
			out = runClients(client, srv.URL, ref, lists, plan.bursts, tag)
		}
		tr.CloseIdleConnections()
		srv.Close()
		all = append(all, out...)
	}

	r, err := timeRep(func() error {
		var err error
		e1, err = serve.NewEngine(engineConfig(dir, capIf(traced, serveTimelineCap)))
		if err != nil {
			return err
		}
		phase(e1, plan.main, "m")
		e2, err = serve.NewEngine(engineConfig(dir, capIf(traced, restartTimelineCap)))
		if err != nil {
			return err
		}
		phase(e2, plan.restart, "r")
		return nil
	})
	if err != nil {
		return nil, err
	}
	rr.rep = r
	if traced {
		events1, events2 = e1.Timeline(), e2.Timeline()
	}

	// Check every response against the reference and account it.
	for _, s := range all {
		rr.attempted++
		col, _ := ref.Cells[s.op.cell].column()
		rr.col[col] += s.client
		ok := s.check(ref, res)
		if !ok {
			rr.failed++
			rr.failures[s.op.class]++
			rr.counts["failed."+s.op.class]++
		} else {
			rr.lat[s.op.class] = append(rr.lat[s.op.class], ms(s.client))
			rr.counts["ok."+s.op.class]++
		}
		if traced {
			layer.addEngines(col, s.before, s.after)
			if d, found := ht.d[s.id]; found {
				layer.handler[s.op.class] = append(layer.handler[s.op.class], ms(d))
				layer.transport = append(layer.transport, ms(s.client-d))
			} else {
				res.mismatch("serve-mix: no handler time for request %s", s.id)
			}
		}
	}

	started, coalesced := e1.CoalesceStats()
	st1, st2 := e1.Session().Stats(), e2.Session().Stats()
	// A burst's second request either coalesces onto the first or, if it
	// arrives after the flight landed, is served from the session (one
	// solve hit, two signal-cache requests); these sums do not depend on
	// which.
	sessionCounts(rr.counts, "", st1)
	rr.counts["session.solve_hits"] += coalesced
	sessionCounts(rr.counts, "restart.", st2)
	for i, e := range []*serve.Engine{e1, e2} {
		p := fmt.Sprintf("engine%d.", i+1)
		th, tm, te := e.Session().TemplateCacheStats()
		req, syn := e.Session().Cache().Stats()
		hits, misses, puts := e.Store().Stats()
		rr.counts[p+"template.hits"], rr.counts[p+"template.misses"], rr.counts[p+"template.evictions"] = th, tm, te
		rr.counts[p+"signal.synths"] = syn
		rr.counts[p+"signal.requests"] = req
		rr.counts[p+"store.hits"], rr.counts[p+"store.misses"], rr.counts[p+"store.puts"] = hits, misses, puts
		if traced {
			layer.tHits += th
			layer.tMisses += tm
			layer.tEvict += te
			layer.synths += syn
			layer.cacheHits += req - syn
			layer.storeHits += hits
			layer.storeMisses += misses
			layer.storePuts += puts
		}
	}
	rr.counts["engine1.signal.requests"] += 2 * coalesced
	rr.counts["coalesce.flights+coalesced"] = started + coalesced

	if traced {
		for _, evs := range [][]obs.Event{events1, events2} {
			if err := layer.addPhases(ref, evs); err != nil {
				res.mismatch("serve-mix: %v", err)
			}
		}
		if len(events1) >= serveTimelineCap || len(events2) >= restartTimelineCap {
			res.mismatch("serve-mix: timeline full; raise serveTimelineCap")
		}
		layer.stats = sumStats(st1, st2)
		layer.coStarted, layer.coCoalesced = started, coalesced
		layer.storeErrs = st1.StoreErrs + st2.StoreErrs
		for _, s := range all {
			if d, ok := ht.d[s.id]; ok {
				if strings.HasPrefix(s.op.class, "measure") {
					layer.measureS += d.Seconds()
					col, _ := ref.Cells[s.op.cell].column()
					layer.cols[col].measHost += d
				} else {
					layer.solveS += d.Seconds()
				}
			}
		}
	}
	return rr, nil
}

func capIf(on bool, n int) int {
	if on {
		return n
	}
	return 0
}

// sumStats adds the counters the per-layer table reads.
func sumStats(a, b exp.SessionStats) exp.SessionStats {
	a.Builds += b.Builds
	a.Forks += b.Forks
	a.ProbeRuns += b.ProbeRuns
	a.EarlyAborts += b.EarlyAborts
	a.WarmMeasures += b.WarmMeasures
	return a
}

// addPhases attributes a serve engine's phase spans to the columns of the
// request cells they ran for: a phase label names the application and the
// architecture simulated (a busy-wait cell's demand probe runs on its
// sync-unit twin).
func (l *layerData) addPhases(ref *serveRef, events []obs.Event) error {
	owner := map[string]int{}
	for _, c := range ref.Cells {
		col, err := c.column()
		if err != nil {
			return err
		}
		a, _ := power.ParseArchSpec(c.Arch)
		owner[c.App+"/"+a.String()] = col
		if a.BusyWait {
			twin := a
			twin.BusyWait = false
			if _, taken := owner[c.App+"/"+twin.String()]; !taken {
				owner[c.App+"/"+twin.String()] = col
			}
		}
	}
	for _, ev := range events {
		if ev.Kind != obs.KindPhase {
			continue
		}
		f := strings.Fields(ev.Label)
		if len(f) < 2 {
			return fmt.Errorf("unparsed phase label %q", ev.Label)
		}
		col, ok := owner[f[1]]
		if !ok {
			return fmt.Errorf("phase %q belongs to no request cell", ev.Label)
		}
		l.cols[col].sim += ev.Dur
		if f[0] == "measure" {
			l.cols[col].measCycles += ev.Dur
		}
	}
	return nil
}

// runClients drives the closed loop: one goroutine per client list, bursts
// released on both clients together.
func runClients(client *http.Client, url string, ref *serveRef, lists [serveClients][]serveOp, bursts int, tag string) []sent {
	barriers := make([]sync.WaitGroup, bursts)
	for i := range barriers {
		barriers[i].Add(serveClients)
	}
	out := make([][]sent, serveClients)
	var wg sync.WaitGroup
	for k := 0; k < serveClients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i, op := range lists[k] {
				if op.burst >= 0 {
					barriers[op.burst].Done()
					barriers[op.burst].Wait()
				}
				out[k] = append(out[k], do(client, url, ref, op, fmt.Sprintf("%s%d.%d", tag, k, i), nil))
			}
		}(k)
	}
	wg.Wait()
	var all []sent
	for _, o := range out {
		all = append(all, o...)
	}
	return all
}

// runSequential sends the lists one request at a time, alternating
// clients, with each burst sent by both clients at once; every request's
// session-stat delta is its own.
func runSequential(client *http.Client, url string, ref *serveRef, e *serve.Engine, lists [serveClients][]serveOp, tag string) []sent {
	var all []sent
	idx := [serveClients]int{}
	for {
		progressed := false
		for k := 0; k < serveClients; k++ {
			if idx[k] >= len(lists[k]) {
				continue
			}
			op := lists[k][idx[k]]
			id := fmt.Sprintf("%s%d.%d", tag, k, idx[k])
			progressed = true
			if op.burst < 0 {
				all = append(all, do(client, url, ref, op, id, e))
				idx[k]++
				continue
			}
			// A burst: wait until the other client reaches it too.
			other := 1 - k
			for idx[other] < len(lists[other]) && lists[other][idx[other]].burst != op.burst {
				oop := lists[other][idx[other]]
				all = append(all, do(client, url, ref, oop, fmt.Sprintf("%s%d.%d", tag, other, idx[other]), e))
				idx[other]++
			}
			before := e.Session().Stats()
			var pair [serveClients]sent
			var wg sync.WaitGroup
			for c := 0; c < serveClients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					pair[c] = do(client, url, ref, lists[c][idx[c]], fmt.Sprintf("%s%d.%d", tag, c, idx[c]), nil)
				}(c)
			}
			wg.Wait()
			after := e.Session().Stats()
			pair[0].before, pair[0].after = before, after
			pair[1].before, pair[1].after = after, after
			all = append(all, pair[:]...)
			idx[0]++
			idx[1]++
		}
		if !progressed {
			return all
		}
	}
}

// do sends one request and reads the whole response. When e is set, the
// engine's session stats are read around the request.
func do(client *http.Client, url string, ref *serveRef, op serveOp, id string, e *serve.Engine) sent {
	c := ref.Cells[op.cell]
	s := sent{id: id, op: op}
	if e != nil {
		s.before = e.Session().Stats()
	}
	req, err := http.NewRequest(http.MethodPost, url+c.Endpoint, bytes.NewReader(c.body(op.seed, false)))
	if err != nil {
		s.err = err
		return s
	}
	req.Header.Set(opHeader, id)
	req.Header.Set("Content-Type", "application/json")
	t := time.Now()
	resp, err := client.Do(req)
	if err == nil {
		s.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		s.status = resp.StatusCode
	}
	s.client = time.Since(t)
	s.err = err
	if e != nil {
		s.after = e.Session().Stats()
	}
	return s
}

// check compares a response with its reference; it reports whether the
// request succeeded. A reference-matching non-2xx response is a known
// failure; anything else that differs is a mismatch.
func (s sent) check(ref *serveRef, res *result) bool {
	c := ref.Cells[s.op.cell]
	want, ok := c.outcome(s.op.seed)
	switch {
	case !ok:
		res.mismatch("serve-mix %s seed %d: no reference", s.op.class, s.op.seed)
		return false
	case s.err != nil:
		res.mismatch("serve-mix %s seed %d: %v", s.op.class, s.op.seed, s.err)
		return false
	case s.status != want.Status || sha(s.body) != want.Body:
		res.mismatch("serve-mix %s %s/%s/%s seed %d: status %d body %q, reference status %d %s",
			s.op.class, c.Scenario, c.App, c.Arch, s.op.seed, s.status, gist(s.body), want.Status, want.Gist)
		return false
	}
	return s.status/100 == 2
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// gist shortens a body for messages and the reference file.
func gist(b []byte) string {
	s := strings.Join(strings.Fields(string(b)), " ")
	if len(s) > 160 {
		s = s[:160] + "..."
	}
	return s
}
