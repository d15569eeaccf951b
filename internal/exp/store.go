package exp

import "repro/internal/platform"

// PointStore is the session's persistence interface: a durable,
// concurrency-safe backing for the three result classes a session memoizes
// — solved operating points, probe demand estimates, and the probe-boundary
// warm snapshots that let a measurement continue its solve's verified run.
// A PointStore persists all three incrementally, as they are produced, so a
// long-running server or an interrupted grid survives process death without
// losing work. DirStore is the on-disk implementation; SaveCheckpoint and
// LoadCheckpoint copy solves and demands into and out of the same format in
// bulk.
//
// Keys are the session's canonical identity strings, pinning everything the
// result depends on, resultVersion included. Implementations must be safe
// for concurrent use; Get methods return ok=false for absent entries and
// reserve the error for I/O or corruption.
//
// Store failures are deliberately non-fatal to the session: a failed Get is
// a miss (the result is recomputed — determinism makes that safe), a failed
// Put loses only amortization. Both are counted in SessionStats.StoreErrs so
// operators can see a sick store.
type PointStore interface {
	GetSolve(key string) (OperatingPoint, bool, error)
	PutSolve(key string, op OperatingPoint) error
	GetDemand(key string) (demand float64, ok bool, err error)
	PutDemand(key string, demand float64) error
	GetWarm(key string) (*platform.Snapshot, bool, error)
	PutWarm(key string, snap *platform.Snapshot) error
}

// SetStore installs the backing store consulted on memory misses and
// written through on every computed result. Install it before the session
// starts solving; results computed earlier are not retroactively persisted.
func (s *Session) SetStore(st PointStore) {
	s.mu.Lock()
	s.store = st
	s.mu.Unlock()
}

func (s *Session) pointStore() PointStore {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.store
}

// storeGet consults the backing store through get. Errors count as misses
// (and into StoreErrs): determinism makes recomputing safe.
func storeGet[V any](s *Session, get func(PointStore) (V, bool, error)) (V, bool) {
	var zero V
	st := s.pointStore()
	if st == nil {
		return zero, false
	}
	v, ok, err := get(st)
	if err != nil {
		s.count(func(x *SessionStats) { x.StoreErrs++ })
		return zero, false
	}
	if ok {
		s.count(func(x *SessionStats) { x.StoreHits++ })
	}
	return v, ok
}

// storePut writes a computed result through to the backing store. A
// failure loses only amortization and counts into StoreErrs.
func (s *Session) storePut(put func(PointStore) error) {
	st := s.pointStore()
	if st == nil {
		return
	}
	if err := put(st); err != nil {
		s.count(func(x *SessionStats) { x.StoreErrs++ })
		return
	}
	s.count(func(x *SessionStats) { x.StorePuts++ })
}

func (s *Session) storeGetSolve(key string) (OperatingPoint, bool) {
	return storeGet(s, func(st PointStore) (OperatingPoint, bool, error) { return st.GetSolve(key) })
}

func (s *Session) storePutSolve(key string, op OperatingPoint) {
	s.storePut(func(st PointStore) error { return st.PutSolve(key, op) })
}

func (s *Session) storeGetDemand(key string) (float64, bool) {
	return storeGet(s, func(st PointStore) (float64, bool, error) { return st.GetDemand(key) })
}

func (s *Session) storePutDemand(key string, demand float64) {
	s.storePut(func(st PointStore) error { return st.PutDemand(key, demand) })
}

func (s *Session) storeGetWarm(key string) *platform.Snapshot {
	snap, _ := storeGet(s, func(st PointStore) (*platform.Snapshot, bool, error) { return st.GetWarm(key) })
	return snap
}

func (s *Session) storePutWarm(key string, snap *platform.Snapshot) {
	s.storePut(func(st PointStore) error { return st.PutWarm(key, snap) })
}
