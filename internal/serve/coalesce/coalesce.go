// Package coalesce provides single-flight request coalescing for the
// serving layer: N identical concurrent requests share one computation and
// every caller receives the same result — the signal.Cache pattern lifted
// from record synthesis to whole solves.
//
// Unlike a cache, a Group retains nothing once a flight lands: completed
// results belong to the content-addressed store (which persists them across
// restarts); the group only deduplicates work that is in flight right now.
// That split keeps the memory footprint bounded by concurrency, not by
// history, and keeps one failure mode out: a transient error is never
// memoized, only shared with the callers that were already waiting on it.
package coalesce

import (
	"fmt"
	"sync"
)

// Group deduplicates concurrent calls by key. The zero value is not usable;
// use NewGroup.
type Group struct {
	mu      sync.Mutex
	flights map[string]*flight

	started   uint64
	coalesced uint64
}

type flight struct {
	done chan struct{}
	val  []byte
	err  error
}

// NewGroup returns an empty group safe for concurrent use.
func NewGroup() *Group {
	return &Group{flights: map[string]*flight{}}
}

// Do returns the result of fn for key, executing fn at most once across all
// concurrent callers with the same key: the first caller runs it, the rest
// block until it lands and receive the identical byte slice (callers must
// treat it as immutable — it is shared). shared reports whether this caller
// attached to another caller's flight. Once a flight completes it is
// forgotten: a later Do with the same key runs fn again. A panic in fn
// completes the flight with an error, which the caller that ran it and
// every attached caller receive.
func (g *Group) Do(key string, fn func() ([]byte, error)) (val []byte, shared bool, err error) {
	g.mu.Lock()
	if f, ok := g.flights[key]; ok {
		g.coalesced++
		g.mu.Unlock()
		<-f.done
		return f.val, true, f.err
	}
	f := &flight{done: make(chan struct{})}
	g.flights[key] = f
	g.started++
	g.mu.Unlock()

	// Land the flight even if fn panics, or every identical request after
	// it would wait forever.
	defer func() {
		if r := recover(); r != nil {
			f.val, f.err = nil, fmt.Errorf("coalesce: flight panicked: %v", r)
			val, err = f.val, f.err
		}
		g.mu.Lock()
		delete(g.flights, key)
		g.mu.Unlock()
		close(f.done)
	}()
	f.val, f.err = fn()
	return f.val, false, f.err
}

// Stats returns how many flights were started (distinct executions of fn)
// and how many callers were coalesced onto an already-running flight.
func (g *Group) Stats() (started, coalesced uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.started, g.coalesced
}
