package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"

	"repro/internal/exp"
	"repro/internal/serve"
)

// Reference files, relative to the checkout root. Each holds the expected
// outcome of every operation a workload can send, generated once with
// -gen-ref and cross-checked against the cycle-exact engine (Options.Exact,
// "exact": true), which must agree bit for bit.
const (
	fig6RefPath  = "perfbench/ref/fig6.json"
	serveRefPath = "perfbench/ref/serve.json"
)

// fig6PoolSeeds are the record seeds fig6-cold draws from: the first twelve,
// failures included (seed 12 trips the solver's known probe-window defect
// on two MC cells).
var fig6PoolSeeds = []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}

type fig6Ref struct {
	DurationS    float64    `json:"duration_s"`
	ProbeS       float64    `json:"probe_s"`
	PathoFrac    float64    `json:"pathological_frac"`
	ExactChecked bool       `json:"exact_checked"`
	Seeds        []fig6Seed `json:"seeds"`
}

type fig6Seed struct {
	Seed  int64     `json:"seed"`
	Cells []cellRef `json:"cells"`
}

// cellRef is one grid cell's outcome: the solved point and power summary for
// reading, and a digest of the full operating point, Measurement.Counters
// and power report for comparison; or the error the cell failed with.
type cellRef struct {
	App      string  `json:"app"`
	Arch     string  `json:"arch"`
	FreqMHz  float64 `json:"freq_mhz,omitempty"`
	VoltageV float64 `json:"voltage_v,omitempty"`
	TotalUW  float64 `json:"total_uw,omitempty"`
	Digest   string  `json:"digest,omitempty"`
	Error    string  `json:"error,omitempty"`
}

func (r *fig6Ref) options(seed int64) exp.Options {
	o := exp.DefaultOptions()
	o.Duration, o.ProbeDuration, o.PathoFrac, o.Seed = r.DurationS, r.ProbeS, r.PathoFrac, seed
	return o
}

func loadFig6Ref() (*fig6Ref, error) {
	var r fig6Ref
	if err := readJSON(fig6RefPath, &r); err != nil {
		return nil, err
	}
	if len(r.Seeds) == 0 {
		return nil, fmt.Errorf("%s: no seeds", fig6RefPath)
	}
	return &r, nil
}

// cellOutcome summarizes a cell's measurement (or failure) for comparison.
func cellOutcome(pt exp.Point, m *exp.Measurement, err error) cellRef {
	c := cellRef{App: pt.App, Arch: pt.Arch.String()}
	if err != nil {
		c.Error = err.Error()
		return c
	}
	c.FreqMHz = m.Op.FreqHz / 1e6
	c.VoltageV = m.Op.VoltageV
	c.TotalUW = m.Report.TotalUW
	c.Digest = digest(struct {
		Op                                  exp.OperatingPoint
		Cores, ActiveIMBanks, ActiveDMBanks int
		Counters                            any
		Report                              any
		CodeOverheadPct                     float64
	}{m.Op, m.Cores, m.ActiveIMBanks, m.ActiveDMBanks, m.Counters, m.Report, m.CodeOverheadPct})
	return c
}

// diff describes how got differs from the reference want ("" if equal).
func (got cellRef) diff(want cellRef) string {
	switch {
	case got.Error != want.Error:
		return fmt.Sprintf("error %q, reference %q", got.Error, want.Error)
	case got.Digest != want.Digest:
		return fmt.Sprintf("result %.4f MHz %.4f V %.4f uW (digest %.12s), reference %.4f MHz %.4f V %.4f uW (digest %.12s)",
			got.FreqMHz, got.VoltageV, got.TotalUW, got.Digest, want.FreqMHz, want.VoltageV, want.TotalUW, want.Digest)
	}
	return ""
}

// digest is the hex SHA-256 of v's JSON encoding (float64 values encode
// exactly, so equal digests mean bit-identical results).
func digest(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		// Every digested value is a plain struct of numbers and strings.
		panic(fmt.Sprintf("perfbench: digest: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// generateReferences rebuilds the reference files of which ("fig6",
// "serve" or "all"). Every outcome is computed twice, on the fast engines
// and on the cycle-exact one, and a file is written only if the two agree.
func generateReferences(which string) error {
	if which == "fig6" || which == "all" {
		if err := genFig6Ref(); err != nil {
			return err
		}
	}
	if which == "serve" || which == "all" {
		return genServeRef()
	}
	if which != "fig6" {
		return fmt.Errorf("-gen-ref %q: want fig6, serve or all", which)
	}
	return nil
}

func genFig6Ref() error {
	def := exp.DefaultOptions()
	ref := &fig6Ref{DurationS: def.Duration, ProbeS: def.ProbeDuration, PathoFrac: def.PathoFrac, ExactChecked: true}
	for _, seed := range fig6PoolSeeds {
		var runs [2][]cellRef
		done := make(chan error, 2)
		for i, exact := range []bool{false, true} {
			go func(i int, exact bool) {
				o := ref.options(seed)
				o.Exact = exact
				var err error
				runs[i], err = fig6Outcomes(o)
				done <- err
			}(i, exact)
		}
		for range runs {
			if err := <-done; err != nil {
				return err
			}
		}
		for i := range runs[0] {
			if d := runs[0][i].diff(runs[1][i]); d != "" {
				return fmt.Errorf("fig6 seed %d cell %d: fast engines and exact disagree: %s", seed, i, d)
			}
		}
		ref.Seeds = append(ref.Seeds, fig6Seed{Seed: seed, Cells: runs[0]})
		fmt.Fprintf(os.Stderr, "fig6 reference: seed %d done\n", seed)
	}
	return writeJSON(fig6RefPath, ref)
}

// fig6Outcomes solves and measures every Figure 6 cell on a fresh session.
func fig6Outcomes(o exp.Options) ([]cellRef, error) {
	sess := exp.NewSession(nil)
	var out []cellRef
	for _, pt := range exp.Fig6Grid(o) {
		po := pt.Opts
		po.Cache = sess.Cache()
		sig, err := po.Record(pt.App)
		if err != nil {
			return nil, err
		}
		op, err := sess.SolveOperatingPoint(context.Background(), pt.App, pt.Arch, sig, po)
		var m *exp.Measurement
		if err == nil {
			m, err = sess.Measure(context.Background(), pt.App, pt.Arch, op, sig, po)
		}
		out = append(out, cellOutcome(pt, m, err))
	}
	return out, nil
}

// serveCells are serve-mix's request cells and the seed pool each draws
// from, over four bundled scenarios: the paper's default ECG on the proposed
// MC system (solves), the multi-rate mix on 3L-MF/MC (measures; some seeds
// hit the solver's known ADC-overrun defect at these windows), and the two
// burst cells covering the MC-nosync and SC columns.
var serveCells = []struct {
	cell serveCellRef
	pool int
}{
	{serveCellRef{Endpoint: "/v1/solve", Scenario: "ecg-default", App: "3l-mmd", Arch: "mc"}, 64},
	{serveCellRef{Endpoint: "/v1/measure", Scenario: "mix-multirate", App: "3l-mf", Arch: "mc"}, 16},
	{serveCellRef{Endpoint: "/v1/solve", Scenario: "ppg-motion", App: "rp-class", Arch: "mc-nosync"}, planCycle},
	{serveCellRef{Endpoint: "/v1/solve", Scenario: "emg-burst", App: "3l-mmd", Arch: "sc"}, planCycle},
}

func genServeRef() error {
	ref := &serveRef{DurationS: serveDurationS, ProbeS: serveProbeS, ExactChecked: true}
	var urls [2]string
	for i := range urls {
		e, err := serve.NewEngine(engineConfig("", 0))
		if err != nil {
			return err
		}
		srv := httptest.NewServer(e.Handler())
		defer srv.Close()
		urls[i] = srv.URL
	}
	for _, sc := range serveCells {
		c := sc.cell
		for seed := int64(1); seed <= int64(sc.pool); seed++ {
			var got [2]serveOutcome
			var bodies [2][]byte
			errs := make(chan error, 2)
			for i, exact := range []bool{false, true} {
				go func(i int, exact bool) {
					resp, err := http.Post(urls[i]+c.Endpoint, "application/json", bytes.NewReader(c.body(seed, exact)))
					if err != nil {
						errs <- err
						return
					}
					defer resp.Body.Close()
					b, err := io.ReadAll(resp.Body)
					bodies[i] = b
					got[i] = serveOutcome{Seed: seed, Status: resp.StatusCode, Body: sha(b), Gist: gist(b)}
					errs <- err
				}(i, exact)
			}
			for range got {
				if err := <-errs; err != nil {
					return err
				}
			}
			if got[0].Status != got[1].Status || withoutKey(bodies[0]) != withoutKey(bodies[1]) {
				return fmt.Errorf("serve %s %s/%s seed %d: fast engines and exact disagree:\n%s\n%s",
					c.Scenario, c.App, c.Arch, seed, bodies[0], bodies[1])
			}
			c.Pool = append(c.Pool, got[0])
		}
		ref.Cells = append(ref.Cells, c)
		fmt.Fprintf(os.Stderr, "serve reference: %s %s/%s done\n", c.Scenario, c.App, c.Arch)
	}
	return writeJSON(serveRefPath, ref)
}

// withoutKey drops a response body's content address (it hashes the
// request, whose exact flag differs between the two runs compared).
func withoutKey(body []byte) string {
	var v map[string]any
	if err := json.Unmarshal(body, &v); err != nil {
		return string(body)
	}
	delete(v, "key")
	// Re-encoding a value json.Unmarshal just produced cannot fail.
	b, _ := json.Marshal(v)
	return string(b)
}
