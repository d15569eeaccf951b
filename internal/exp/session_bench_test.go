package exp

import (
	"context"
	"path/filepath"
	"testing"

	"repro/internal/apps"
	"repro/internal/power"
	"repro/internal/signal"
)

// BenchmarkSolveCheckpoint quantifies the session redesign on the
// escalation-heavy MC-nosync column: without lock-step recovery, solving the
// busy-wait variant walks several candidate frequencies, each candidate a
// full probe-window simulation that the idle fast-forward engine cannot help
// (spinning cores are never quiescent). Three modes of the same column, all
// producing bit-identical results (pinned by TestSessionSolveMatchesScratch
// and the scenario golden matrix):
//
//   - from-scratch: the reference — every candidate rebuilds the
//     application and simulates its full window, every measurement restarts
//     from reset.
//   - session: one fresh Session per iteration — candidates fork a pristine
//     template, failing candidates abort at their first real-time
//     violation, builds and probes are shared.
//   - checkpointed: the Session additionally starts from the previous
//     invocation's results, bulk-loaded from a result store — the
//     wbsn-bench -checkpoint workflow for tracking bench trajectories
//     across commits — so the solve loop is answered from memory and only
//     the measurements simulate. This is the
//     mode the >= 2x solve-loop amortization claim is about.
func BenchmarkSolveCheckpoint(b *testing.B) {
	opts := Options{Duration: 2, ProbeDuration: 1.5, PathoFrac: 0.2, Seed: 1}
	params := power.DefaultParams()
	ctx := context.Background()

	sigs := map[string]*signal.Source{}
	for _, app := range apps.Names {
		sig, err := opts.Record(app)
		if err != nil {
			b.Fatal(err)
		}
		sigs[app] = sig
	}
	column := func(b *testing.B, s *Session) {
		b.Helper()
		for _, app := range apps.Names {
			var op OperatingPoint
			var err error
			if s == nil {
				op, err = SolveOperatingPointFromScratch(ctx, app, power.MCNoSync, sigs[app], opts)
			} else {
				op, err = s.SolveOperatingPoint(ctx, app, power.MCNoSync, sigs[app], opts)
			}
			if err != nil {
				b.Fatal(err)
			}
			if s == nil {
				_, err = Measure(app, power.MCNoSync, op, sigs[app], opts, params)
			} else {
				_, err = s.Measure(ctx, app, power.MCNoSync, op, sigs[app], opts)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	}

	b.Run("from-scratch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			column(b, nil)
		}
	})
	b.Run("session", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			column(b, NewSession(params))
		}
	})
	b.Run("checkpointed", func(b *testing.B) {
		path := filepath.Join(b.TempDir(), "bench.ckpt")
		warm := NewSession(params)
		column(b, warm)
		if err := warm.SaveCheckpoint(path); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s := NewSession(params)
			if err := s.LoadCheckpoint(path); err != nil {
				b.Fatal(err)
			}
			column(b, s)
		}
	})
}
