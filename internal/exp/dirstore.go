package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"

	"repro/internal/platform"
)

// DirStore is the on-disk result store, the one persistence format for
// everything a Session memoizes: one file per result, content-addressed by
// the SHA-256 of the session's canonical key, written atomically as results
// are produced (SetStore) or in bulk (SaveCheckpoint). Under the root:
//
//	solve/<sha256(key)>.json   solved operating point + its full key
//	demand/<sha256(key)>.json  probe demand estimate + its full key
//	warm/<sha256(key)>.snap    platform snapshot file with the key in its
//	                           metadata
//
// Every entry records the full key it was stored under and reads verify
// it, so a hash collision or a misplaced file surfaces as a corruption
// error instead of a silently wrong result. JSON float64 formatting is
// shortest round-trip, so values survive bit-exactly. Keys carry
// resultVersion, so a store written by a build whose results differ simply
// misses. All methods are safe for concurrent use, and readers (including
// other processes) never observe a partial entry. docs/FORMATS.md has the
// full format.
type DirStore struct {
	dir string

	hits, misses, puts atomic.Uint64
}

var _ PointStore = (*DirStore)(nil)

// Entry classes: one subdirectory each.
const (
	classSolve  = "solve"
	classDemand = "demand"
	classWarm   = "warm"
)

// OpenStore creates (if needed) and returns the store rooted at dir. A
// path naming a regular file is refused: the store is a directory.
func OpenStore(dir string) (*DirStore, error) {
	if err := checkStoreDir(dir); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	for _, class := range []string{classSolve, classDemand, classWarm} {
		if err := os.MkdirAll(filepath.Join(dir, class), 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	return &DirStore{dir: dir}, nil
}

// checkStoreDir reports whether dir exists and is a directory; a missing
// dir comes back as an error matching os.ErrNotExist.
func checkStoreDir(dir string) error {
	fi, err := os.Stat(dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if !fi.IsDir() {
		return fmt.Errorf("store: %s is a regular file, but a result store is a directory (an old single-file checkpoint or a platform snapshot cannot be read as one; pass a directory path)", dir)
	}
	return nil
}

// Dir returns the store's root directory.
func (s *DirStore) Dir() string { return s.dir }

// Stats returns the cumulative hit, miss and put counts across all entry
// classes.
func (s *DirStore) Stats() (hits, misses, puts uint64) {
	return s.hits.Load(), s.misses.Load(), s.puts.Load()
}

// path returns the content address of key within class: the hex SHA-256 of
// the canonical key string.
func (s *DirStore) path(class, key, ext string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(s.dir, class, hex.EncodeToString(sum[:])+ext)
}

// solveRecord is the on-disk shape of a solved operating point. Key carries
// the full canonical identity for read-back verification (the filename is
// only its hash).
type solveRecord struct {
	Key      string  `json:"key"`
	FreqHz   float64 `json:"freq_hz"`
	VoltageV float64 `json:"voltage_v"`
}

// demandRecord is the on-disk shape of a probe demand estimate.
type demandRecord struct {
	Key      string  `json:"key"`
	DemandHz float64 `json:"demand_hz"`
}

func errKeyMismatch(path, stored, wanted string) error {
	return fmt.Errorf("store: entry %s was stored under a different key (hash collision or misplaced file):\n  stored: %s\n  wanted: %s", path, stored, wanted)
}

// getJSON loads the JSON entry for key into v, whose key field is stored,
// distinguishing absence (ok=false, nil error) from damage (error).
func (s *DirStore) getJSON(class, key string, v any, stored *string) (bool, error) {
	path := s.path(class, key, ".json")
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		s.misses.Add(1)
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("store: %w", err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		return false, fmt.Errorf("store: corrupt entry %s: %w", path, err)
	}
	if *stored != key {
		return false, errKeyMismatch(path, *stored, key)
	}
	s.hits.Add(1)
	return true, nil
}

// putJSON atomically persists one JSON entry under key.
func (s *DirStore) putJSON(class, key string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return s.put(s.path(class, key, ".json"), func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// put writes one entry at path via a temp file and rename.
func (s *DirStore) put(path string, write func(io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := write(tmp); err != nil {
		tmp.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.puts.Add(1)
	return nil
}

// GetSolve returns the solved operating point stored under key, if any.
func (s *DirStore) GetSolve(key string) (OperatingPoint, bool, error) {
	var r solveRecord
	if ok, err := s.getJSON(classSolve, key, &r, &r.Key); !ok || err != nil {
		return OperatingPoint{}, false, err
	}
	return OperatingPoint{FreqHz: r.FreqHz, VoltageV: r.VoltageV}, true, nil
}

// PutSolve persists a solved operating point under key.
func (s *DirStore) PutSolve(key string, op OperatingPoint) error {
	return s.putJSON(classSolve, key, solveRecord{Key: key, FreqHz: op.FreqHz, VoltageV: op.VoltageV})
}

// GetDemand returns the probe demand estimate stored under key, if any.
func (s *DirStore) GetDemand(key string) (float64, bool, error) {
	var r demandRecord
	if ok, err := s.getJSON(classDemand, key, &r, &r.Key); !ok || err != nil {
		return 0, false, err
	}
	return r.DemandHz, true, nil
}

// PutDemand persists a probe demand estimate under key.
func (s *DirStore) PutDemand(key string, demand float64) error {
	return s.putJSON(classDemand, key, demandRecord{Key: key, DemandHz: demand})
}

// GetWarm returns the probe-boundary warm snapshot stored under key, if
// any. The snapshot file's own magic/version framing rejects foreign or
// incompatible files; the key recorded in its metadata is verified here.
func (s *DirStore) GetWarm(key string) (*platform.Snapshot, bool, error) {
	path := s.path(classWarm, key, ".snap")
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		s.misses.Add(1)
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	file, err := platform.ReadSnapshotFile(f)
	if err != nil {
		return nil, false, fmt.Errorf("store: corrupt entry %s: %w", path, err)
	}
	if got := file.Meta["key"]; got != key {
		return nil, false, errKeyMismatch(path, got, key)
	}
	s.hits.Add(1)
	return file.Snap, true, nil
}

// PutWarm persists a probe-boundary warm snapshot under key.
func (s *DirStore) PutWarm(key string, snap *platform.Snapshot) error {
	return s.put(s.path(classWarm, key, ".snap"), func(w io.Writer) error {
		return platform.WriteSnapshotFile(w, &platform.SnapshotFile{Meta: map[string]string{"key": key}, Snap: snap})
	})
}

// Len counts the persisted entries per class, for startup logging.
func (s *DirStore) Len() (solves, demands, warms int, err error) {
	count := func(class string) (int, error) {
		entries, err := os.ReadDir(filepath.Join(s.dir, class))
		if err != nil {
			return 0, fmt.Errorf("store: %w", err)
		}
		n := 0
		for _, e := range entries {
			if !e.IsDir() {
				n++
			}
		}
		return n, nil
	}
	if solves, err = count(classSolve); err != nil {
		return
	}
	if demands, err = count(classDemand); err != nil {
		return
	}
	warms, err = count(classWarm)
	return
}

// scanJSON decodes every JSON entry of class in turn, verifying that each
// sits at the content address of the key decode reports for it. Temp files
// of unfinished writes are skipped and a missing class directory holds no
// entries; any damaged or misplaced entry ends the scan with an error
// naming its file.
func (s *DirStore) scanJSON(class string, decode func(data []byte) (key string, err error)) error {
	entries, err := os.ReadDir(filepath.Join(s.dir, class))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		path := filepath.Join(s.dir, class, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		key, err := decode(data)
		if err != nil {
			return fmt.Errorf("store: corrupt entry %s: %w", path, err)
		}
		if want := s.path(class, key, ".json"); want != path {
			return fmt.Errorf("store: entry %s records key %q, whose address is %s (misplaced file)", path, key, filepath.Base(want))
		}
	}
	return nil
}

// SaveCheckpoint copies every successfully completed solve and demand
// entry of the session into the result store rooted at dir (created if
// needed; entries it already holds stay): the bulk form of the
// write-through path SetStore installs.
func (s *Session) SaveCheckpoint(dir string) error {
	st, err := OpenStore(dir)
	if err != nil {
		return err
	}
	solved, demands := s.completed()
	for k, op := range solved {
		if err := st.PutSolve(k, op); err != nil {
			return err
		}
	}
	for k, d := range demands {
		if err := st.PutDemand(k, d); err != nil {
			return err
		}
	}
	return nil
}

// LoadCheckpoint reads every solve and demand entry of the result store
// rooted at dir into the session's memory. The read is eager, so a loaded
// solve is an in-memory hit like one the session solved itself (results
// are deterministic, so the answer is bit-identical); entries already in
// the session win, and SessionStats are untouched. A missing dir fails
// without being created, and a damaged or misplaced entry fails the whole
// load, naming its file, with the session left as it was.
func (s *Session) LoadCheckpoint(dir string) error {
	if err := checkStoreDir(dir); err != nil {
		return err
	}
	st := &DirStore{dir: dir}
	solved := map[string]*solveEntry{}
	demands := map[string]*demandEntry{}
	err := st.scanJSON(classSolve, func(data []byte) (string, error) {
		var r solveRecord
		err := json.Unmarshal(data, &r)
		solved[r.Key] = &solveEntry{op: OperatingPoint{FreqHz: r.FreqHz, VoltageV: r.VoltageV}}
		return r.Key, err
	})
	if err == nil {
		err = st.scanJSON(classDemand, func(data []byte) (string, error) {
			var r demandRecord
			err := json.Unmarshal(data, &r)
			demands[r.Key] = &demandEntry{demand: r.DemandHz}
			return r.Key, err
		})
	}
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, e := range solved {
		if _, exists := s.solved[k]; !exists {
			e.once.Do(func() {})
			e.done.Store(true)
			s.solved[k] = e
		}
	}
	for k, e := range demands {
		if _, exists := s.demands[k]; !exists {
			e.once.Do(func() {})
			e.done.Store(true)
			s.demands[k] = e
		}
	}
	return nil
}

// completed returns the session's successfully completed solves and
// demand estimates.
func (s *Session) completed() (map[string]OperatingPoint, map[string]float64) {
	solved := map[string]OperatingPoint{}
	demands := map[string]float64{}
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, e := range s.solved {
		if e.done.Load() && e.err == nil {
			solved[k] = e.op
		}
	}
	for k, e := range s.demands {
		if e.done.Load() && e.err == nil {
			demands[k] = e.demand
		}
	}
	return solved, demands
}

// CheckpointSize reports how many solved points and demand estimates
// SaveCheckpoint would write right now.
func (s *Session) CheckpointSize() (solved, demands int) {
	sv, dm := s.completed()
	return len(sv), len(dm)
}
