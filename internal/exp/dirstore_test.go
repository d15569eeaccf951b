package exp

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSolveDemandRoundTrip(t *testing.T) {
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := "solve|3l-mf|multi:sync|sig={...}|dur=2.5|exact=false"
	op := OperatingPoint{FreqHz: 1.1e6 / 3, VoltageV: 0.7000000000000001}
	if _, ok, err := s.GetSolve(key); ok || err != nil {
		t.Fatalf("empty store: ok=%v err=%v", ok, err)
	}
	if err := s.PutSolve(key, op); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.GetSolve(key)
	if err != nil || !ok {
		t.Fatalf("get after put: ok=%v err=%v", ok, err)
	}
	if got != op {
		// Bit-exactness matters: the determinism contract hangs on it.
		t.Fatalf("round trip changed the point: %v != %v", got, op)
	}

	d := 123456.78900000001
	if err := s.PutDemand("demand|x", d); err != nil {
		t.Fatal(err)
	}
	gd, ok, err := s.GetDemand("demand|x")
	if err != nil || !ok || gd != d {
		t.Fatalf("demand round trip: %v/%v/%v", gd, ok, err)
	}

	hits, misses, puts := s.Stats()
	if hits != 2 || misses != 1 || puts != 2 {
		t.Fatalf("stats %d/%d/%d, want 2/1/2", hits, misses, puts)
	}
}

func TestReopenedStoreServesEntries(t *testing.T) {
	dir := t.TempDir()
	s1, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	op := OperatingPoint{FreqHz: 2.2e6, VoltageV: 0.8}
	if err := s1.PutSolve("k", op); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok, err := s2.GetSolve("k")
	if err != nil || !ok || got != op {
		t.Fatalf("reopened store: %v/%v/%v", got, ok, err)
	}
	solves, demands, warms, err := s2.Len()
	if err != nil || solves != 1 || demands != 0 || warms != 0 {
		t.Fatalf("len %d/%d/%d err=%v, want 1/0/0", solves, demands, warms, err)
	}
}

func TestKeyMismatchIsCorruption(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutSolve("key-a", OperatingPoint{FreqHz: 1e6, VoltageV: 0.5}); err != nil {
		t.Fatal(err)
	}
	// Move the entry onto key-b's content address: the stored key no longer
	// matches the requested one, which must surface, not silently serve a
	// wrong operating point.
	a := s.path("solve", "key-a", ".json")
	b := s.path("solve", "key-b", ".json")
	if err := os.Rename(a, b); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.GetSolve("key-b"); ok || err == nil || !strings.Contains(err.Error(), "different key") {
		t.Fatalf("misplaced entry: ok=%v err=%v", ok, err)
	}

	// A truncated entry is corruption, not a miss.
	if err := os.WriteFile(b, []byte(`{"key":"key-b","freq`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.GetSolve("key-b"); ok || err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("truncated entry: ok=%v err=%v", ok, err)
	}
}

func TestAtomicWriteLeavesNoTempFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := s.PutDemand("k", float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(filepath.Join(dir, "demand"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		names := make([]string, 0, len(entries))
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("demand dir holds %v, want exactly one entry", names)
	}
}
