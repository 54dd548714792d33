package trend

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cookiewalk/internal/measure"
)

func testManifest() Manifest {
	return Manifest{Seed: 42, Scale: 0.02, Reps: 2, Targets: 1157, TargetsHash: 0xdeadbeef}
}

// syntheticSummary builds a deterministic per-round summary without
// crawling — store/server tests exercise persistence and serving, not
// measurement.
func syntheticSummary(round int) measure.RoundSummary {
	return measure.RoundSummary{
		Targets:         1157,
		Cookiewalls:     280 + round,
		Prevalence:      0.006 + float64(round)/1000,
		Top1kPrevalence: 0.009,
		PaywallShare:    0.4,
		PriceCount:      200,
		PriceMin:        0.99,
		PriceMedian:     2.5,
		PriceMean:       2.8 + float64(round)/10,
		PriceMax:        9.99,
		PerVP: []measure.VPTrendSplit{
			{VP: "Germany", EU: true, Visited: 1157, Errors: 3, NoBanner: 800, Regular: 70, Cookiewalls: 280 + round, BannerRate: 0.31},
			{VP: "US East", EU: false, Visited: 1157, Errors: 2, NoBanner: 1100, Regular: 30, Cookiewalls: 24, BannerRate: 0.05},
		},
	}
}

func record(round int) Record {
	return Record{Round: round, At: 1700000000 + int64(round)*3600, Summary: syntheticSummary(round)}
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, testManifest())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Append(record(i)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 3 || s.Version() != 3 {
		t.Fatalf("len=%d version=%d, want 3/3", s.Len(), s.Version())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir, testManifest())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	recs := r.Rounds(0, -1)
	if len(recs) != 3 {
		t.Fatalf("reopened %d records, want 3", len(recs))
	}
	for i, rec := range recs {
		if rec.Round != i || rec.At != 1700000000+int64(i)*3600 || rec.Summary.Cookiewalls != 280+i {
			t.Fatalf("record %d = %+v", i, rec)
		}
	}
	// Reopening must keep the append head consistent.
	if err := r.Append(record(3)); err != nil {
		t.Fatal(err)
	}
	if got := r.Rounds(3, 3); len(got) != 1 || got[0].Summary.Cookiewalls != 283 {
		t.Fatalf("round 3 after reopen-append: %+v", got)
	}
}

func TestStoreRangeQueries(t *testing.T) {
	s, err := Open(t.TempDir(), testManifest())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 5; i++ {
		if err := s.Append(record(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Rounds(1, 3); len(got) != 3 || got[0].Round != 1 || got[2].Round != 3 {
		t.Fatalf("Rounds(1,3) = %+v", got)
	}
	if got := s.Rounds(0, 99); len(got) != 5 {
		t.Fatalf("clamped to = %d records", len(got))
	}
	if got := s.Rounds(4, 2); got != nil {
		t.Fatalf("inverted range = %+v, want nil", got)
	}
}

func TestStoreTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, testManifest())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := s.Append(record(i)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	path := filepath.Join(dir, storeFile)
	intact, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A crash mid-append: half a frame of garbage at the tail.
	torn := append(append([]byte{}, intact...), 0x55, 0x03, 0x02, 0x01)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir, testManifest())
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 {
		t.Fatalf("after torn tail: %d records, want 2", r.Len())
	}
	// The tail must be truncated so the next append lands on a clean
	// frame boundary.
	if err := r.Append(record(2)); err != nil {
		t.Fatal(err)
	}
	r.Close()
	final, err := Open(dir, testManifest())
	if err != nil {
		t.Fatal(err)
	}
	defer final.Close()
	if final.Len() != 3 {
		t.Fatalf("after truncate+append+reopen: %d records, want 3", final.Len())
	}
}

func TestStoreCorruptChecksumTruncated(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, testManifest())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := s.Append(record(i)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	path := filepath.Join(dir, storeFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the LAST frame's payload: its checksum fails, the
	// first record survives.
	data[len(data)-2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir, testManifest())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != 1 {
		t.Fatalf("after checksum corruption: %d records, want 1", r.Len())
	}
}

func TestStoreManifestGuard(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, testManifest())
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	other := testManifest()
	other.Seed = 43
	if _, err := Open(dir, other); err == nil || !strings.Contains(err.Error(), "different study") {
		t.Fatalf("foreign manifest accepted: %v", err)
	}
}

func TestStoreRefusesOutOfOrderAppend(t *testing.T) {
	s, err := Open(t.TempDir(), testManifest())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Append(record(1)); err == nil {
		t.Fatal("append of round 1 on an empty store succeeded")
	}
	if err := s.Append(record(0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(record(0)); err == nil {
		t.Fatal("duplicate round 0 append succeeded")
	}
}

func TestStoreRefusesBadMagic(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, storeFile), []byte("not a store\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, testManifest()); err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("bad magic accepted: %v", err)
	}
}

// TestStoreTornMagicRewritten: a crash while the magic was being
// written leaves a strict prefix of it; Open must treat that as an
// empty store, never refuse the directory.
func TestStoreTornMagicRewritten(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, storeFile), []byte("cwt"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, testManifest())
	if err != nil {
		t.Fatalf("torn-magic store refused: %v", err)
	}
	if s.Len() != 0 {
		t.Fatalf("torn-magic store has %d rounds", s.Len())
	}
	if err := s.Append(record(0)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	r, err := Open(dir, testManifest())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != 1 {
		t.Fatalf("rewritten store reopened with %d rounds, want 1", r.Len())
	}
}

// TestStoreByteDeterminism mirrors TestExportDeterminism: two stores
// built independently from the same records are byte-identical on
// disk.
func TestStoreByteDeterminism(t *testing.T) {
	var files [][]byte
	for run := 0; run < 2; run++ {
		dir := t.TempDir()
		s, err := Open(dir, testManifest())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			if err := s.Append(record(i)); err != nil {
				t.Fatal(err)
			}
		}
		s.Close()
		data, err := os.ReadFile(filepath.Join(dir, storeFile))
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, data)
	}
	if string(files[0]) != string(files[1]) {
		t.Fatalf("store journals differ across independent builds (%d vs %d bytes)", len(files[0]), len(files[1]))
	}
}

// FuzzStoreOpen: any rounds.cwt content either opens — as a gap-free
// prefix that survives a reopen and accepts the next round — or is
// refused as a foreign file; it never panics or loses appended rounds.
func FuzzStoreOpen(f *testing.F) {
	seedDir := f.TempDir()
	s, err := Open(seedDir, testManifest())
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Append(record(i)); err != nil {
			f.Fatal(err)
		}
	}
	s.Close()
	seed, err := os.ReadFile(filepath.Join(seedDir, storeFile))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)-7])
	f.Add([]byte(storeMagic))
	f.Add([]byte("cwt"))
	f.Add([]byte("not a store\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, storeFile), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, testManifest())
		if err != nil {
			if !strings.Contains(err.Error(), "bad magic") {
				t.Fatalf("open failed for a reason other than bad magic: %v", err)
			}
			return
		}
		n := s.Len()
		for i, rec := range s.Rounds(0, -1) {
			if rec.Round != i {
				t.Fatalf("round %d stored at position %d", rec.Round, i)
			}
		}
		if err := s.Append(record(n)); err != nil {
			t.Fatal(err)
		}
		s.Close()
		r, err := Open(dir, testManifest())
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if r.Len() != n+1 {
			t.Fatalf("reopened with %d rounds, want %d", r.Len(), n+1)
		}
	})
}
