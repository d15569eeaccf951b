package coalesce

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestConcurrentCallsShareOneFlight pins the single-flight contract: K
// concurrent callers with one key execute fn exactly once and all receive
// the same bytes. The first caller's fn blocks until every other caller has
// attached, so the coalesce count is deterministic.
func TestConcurrentCallsShareOneFlight(t *testing.T) {
	const K = 8
	g := NewGroup()
	var runs atomic.Int64
	attached := make(chan struct{})
	var wg sync.WaitGroup
	results := make([][]byte, K)
	for i := 0; i < K; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, shared, err := g.Do("k", func() ([]byte, error) {
				runs.Add(1)
				<-attached // hold the flight until all K callers arrived
				return []byte("result"), nil
			})
			if err != nil {
				t.Error(err)
			}
			_ = shared
			results[i] = v
		}()
	}
	// Wait until K-1 callers are parked on the flight, then release it.
	for {
		_, coalesced := g.Stats()
		if coalesced == K-1 {
			break
		}
	}
	close(attached)
	wg.Wait()
	if n := runs.Load(); n != 1 {
		t.Fatalf("fn ran %d times, want 1", n)
	}
	for i := 1; i < K; i++ {
		if &results[i][0] != &results[0][0] {
			t.Fatalf("caller %d received a different byte slice", i)
		}
	}
	started, coalesced := g.Stats()
	if started != 1 || coalesced != K-1 {
		t.Fatalf("stats %d/%d, want 1/%d", started, coalesced, K-1)
	}
}

// TestCompletedFlightsAreForgotten pins the no-memoization contract: a
// sequential repeat runs fn again (persistence is the store's job), and an
// error is shared only with the callers already in flight.
func TestCompletedFlightsAreForgotten(t *testing.T) {
	g := NewGroup()
	var runs int
	boom := errors.New("boom")
	for i := 0; i < 2; i++ {
		_, shared, err := g.Do("k", func() ([]byte, error) {
			runs++
			return nil, boom
		})
		if !errors.Is(err, boom) || shared {
			t.Fatalf("call %d: err=%v shared=%v", i, err, shared)
		}
	}
	if runs != 2 {
		t.Fatalf("fn ran %d times, want 2 (flights must not be memoized)", runs)
	}
}

// TestPanickingFlightReleasesWaiters pins panic safety: when fn panics, the
// caller that ran it and a caller already attached to its flight both get
// an error within a bounded time, and the key is free again afterwards.
func TestPanickingFlightReleasesWaiters(t *testing.T) {
	g := NewGroup()
	release := make(chan struct{})
	leader := make(chan error, 1)
	go func() {
		_, _, err := g.Do("k", func() ([]byte, error) {
			<-release
			panic("boom")
		})
		leader <- err
	}()
	for started, _ := g.Stats(); started != 1; started, _ = g.Stats() {
	}
	waiter := make(chan error, 1)
	go func() {
		_, _, err := g.Do("k", func() ([]byte, error) {
			t.Error("attached caller ran fn")
			return nil, nil
		})
		waiter <- err
	}()
	for _, coalesced := g.Stats(); coalesced != 1; _, coalesced = g.Stats() {
	}
	close(release)
	for _, c := range []struct {
		name string
		ch   chan error
	}{{"leader", leader}, {"waiter", waiter}} {
		select {
		case err := <-c.ch:
			if err == nil || !strings.Contains(err.Error(), "boom") {
				t.Errorf("%s: err = %v, want the panic as an error", c.name, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s still blocked after the flight panicked", c.name)
		}
	}

	v, shared, err := g.Do("k", func() ([]byte, error) { return []byte("again"), nil })
	if err != nil || shared || string(v) != "again" {
		t.Fatalf("later Do: v=%q shared=%v err=%v, want fn to run afresh", v, shared, err)
	}
	if started, _ := g.Stats(); started != 2 {
		t.Fatalf("started = %d, want 2", started)
	}
}
