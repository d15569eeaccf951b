package exp

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/platform"
	"repro/internal/power"
)

func TestLoadCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	op := OperatingPoint{FreqHz: 1.5e6, VoltageV: 0.65}
	d := 987654.3210000001
	if err := st.PutSolve("k", op); err != nil {
		t.Fatal(err)
	}
	if err := st.PutDemand("d", d); err != nil {
		t.Fatal(err)
	}
	s := NewSession(power.DefaultParams())
	if err := s.LoadCheckpoint(dir); err != nil {
		t.Fatal(err)
	}
	solved, demands := s.completed()
	if len(solved) != 1 || len(demands) != 1 || solved["k"] != op || demands["d"] != d {
		t.Fatalf("loaded %v / %v, want k=%v / d=%v bit-exactly", solved, demands, op, d)
	}
	// Loading is not work the session did: its counters stay untouched.
	if st := s.Stats(); st != (SessionStats{}) {
		t.Fatalf("load moved the session counters: %+v", st)
	}
}

// TestLoadCheckpointWrongMagic pins the most common wrong path: a
// wbsn-sim platform snapshot (a regular file) handed to the session flag.
// Both directions refuse it, and saving leaves it intact.
func TestLoadCheckpointWrongMagic(t *testing.T) {
	opts := tinyOpts()
	sig, err := opts.Record(apps.MF3L)
	if err != nil {
		t.Fatal(err)
	}
	v, err := apps.Build(apps.MF3L, power.MC)
	if err != nil {
		t.Fatal(err)
	}
	p, err := v.NewPlatform(sig, 1e6, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := platform.WriteSnapshotFile(&buf, &platform.SnapshotFile{Snap: p.Snapshot()}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sim.ckpt")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	s := NewSession(power.DefaultParams())
	for name, f := range map[string]func(string) error{"load": s.LoadCheckpoint, "save": s.SaveCheckpoint} {
		err := f(path)
		if err == nil || !strings.Contains(err.Error(), "directory") || !strings.Contains(err.Error(), "snapshot") {
			t.Errorf("%s on a platform snapshot: got %v, want a directory-expected error with the snapshot hint", name, err)
		}
	}
	if data, err := os.ReadFile(path); err != nil || !bytes.Equal(data, buf.Bytes()) {
		t.Fatalf("refused save touched the file (err %v)", err)
	}
}

// TestLoadCheckpointVersionMismatch pins the result-version rule: entries
// an earlier build stored — under the previous version tag, or under keys
// from before keys carried one — miss, whether bulk-loaded or read through
// a backing store, and the solve recomputes.
func TestLoadCheckpointVersionMismatch(t *testing.T) {
	opts := tinyOpts()
	sig, err := opts.Record(apps.MF3L)
	if err != nil {
		t.Fatal(err)
	}
	probe, err := opts.probeRecord(apps.MF3L)
	if err != nil {
		t.Fatal(err)
	}
	key := solveKeyString(apps.MF3L, power.MC, keyOf(sig), keyOf(probe), opts)
	tag := fmt.Sprintf("|v%d|", resultVersion)
	if !strings.Contains(key, tag) {
		t.Fatalf("solve key %q lacks the result version tag %q", key, tag)
	}
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	stale := OperatingPoint{FreqHz: 123, VoltageV: 9}
	for _, old := range []string{strings.Replace(key, tag, fmt.Sprintf("|v%d|", resultVersion-1), 1), strings.Replace(key, tag, "|", 1)} {
		if err := st.PutSolve(old, stale); err != nil {
			t.Fatal(err)
		}
	}

	s := NewSession(nil)
	if err := s.LoadCheckpoint(dir); err != nil {
		t.Fatal(err)
	}
	s.SetStore(st)
	got, err := s.SolveOperatingPoint(context.Background(), apps.MF3L, power.MC, sig, opts)
	if err != nil {
		t.Fatal(err)
	}
	if stats := s.Stats(); got == stale || stats.ProbeRuns == 0 || stats.SolveHits != 0 || stats.StoreHits != 0 {
		t.Errorf("stale entries answered: solve = %+v, stats %+v", got, stats)
	}
}

// TestLoadCheckpointTruncated pins the damage rule: one bad entry fails
// the whole load, names its file, and leaves the session empty.
func TestLoadCheckpointTruncated(t *testing.T) {
	cases := map[string]func(st *DirStore) (string, error){
		"truncated entry": func(st *DirStore) (string, error) {
			path := st.path(classSolve, "k2", ".json")
			return path, os.WriteFile(path, []byte(`{"key":"k2","freq`), 0o644)
		},
		"misplaced entry": func(st *DirStore) (string, error) {
			if err := st.PutDemand("d1", 1); err != nil {
				return "", err
			}
			path := st.path(classDemand, "d2", ".json")
			return path, os.Rename(st.path(classDemand, "d1", ".json"), path)
		},
	}
	for name, damage := range cases {
		dir := t.TempDir()
		st, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.PutSolve("k1", OperatingPoint{FreqHz: 1e6, VoltageV: 0.5}); err != nil {
			t.Fatal(err)
		}
		if err := st.PutDemand("d0", 2e6); err != nil {
			t.Fatal(err)
		}
		bad, err := damage(st)
		if err != nil {
			t.Fatal(err)
		}
		s := NewSession(power.DefaultParams())
		err = s.LoadCheckpoint(dir)
		if err == nil || !strings.Contains(err.Error(), bad) {
			t.Errorf("%s: got %v, want an error naming %s", name, err, bad)
		}
		if solved, demands := s.CheckpointSize(); solved != 0 || demands != 0 {
			t.Errorf("%s: failed load left %d/%d entries in the session", name, solved, demands)
		}
	}
}

// TestLoadCheckpointArbitraryBytes: a regular file of any content is
// refused as a store root by every entry point, before anything is read or
// written.
func TestLoadCheckpointArbitraryBytes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt")
	if err := os.WriteFile(path, []byte("#!/bin/sh\necho not a checkpoint\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(path); err == nil || !strings.Contains(err.Error(), "directory") {
		t.Errorf("OpenStore on a regular file: %v", err)
	}
	if err := NewSession(nil).LoadCheckpoint(path); err == nil || !strings.Contains(err.Error(), "directory") {
		t.Errorf("LoadCheckpoint on a regular file: %v", err)
	}
	// A missing path fails to load and is not created.
	missing := filepath.Join(t.TempDir(), "missing")
	if err := NewSession(nil).LoadCheckpoint(missing); err == nil {
		t.Error("loading a missing store succeeded")
	}
	if _, err := os.Stat(missing); !os.IsNotExist(err) {
		t.Errorf("loading created the missing store (stat: %v)", err)
	}
}
