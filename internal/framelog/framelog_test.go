package framelog

import (
	"bytes"
	"errors"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"cookiewalk/internal/xrand"
)

const testMagic = "cwtst1\n"

func accept([]byte) bool { return true }

// writeLog appends payloads to a fresh log at path and closes it.
func writeLog(t testing.TB, path string, payloads ...[]byte) {
	t.Helper()
	w, err := Open(path, testMagic, accept)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads {
		if err := w.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// readPayloads returns every valid payload of the log at path.
func readPayloads(t testing.TB, path string) [][]byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got [][]byte
	Scan(data, testMagic, func(p []byte) bool { got = append(got, p); return true })
	return got
}

// TestChecksumIsFNV1a: the one frame checksum agrees with the standard
// library's FNV-1a and with xrand.Hash64.
func TestChecksumIsFNV1a(t *testing.T) {
	for _, s := range []string{"", "a", "cookiewall", "\x00\xff\x10"} {
		h := fnv.New64a()
		h.Write([]byte(s))
		if got := checksum([]byte(s)); got != h.Sum64() || got != xrand.Hash64(s) {
			t.Fatalf("checksum(%q) = %#x, fnv %#x, xrand %#x", s, got, h.Sum64(), xrand.Hash64(s))
		}
	}
}

// TestOpenFreshTornAndForeignMagic: missing, empty and torn-magic
// files become fresh logs; a foreign full-length magic is refused and
// left untouched.
func TestOpenFreshTornAndForeignMagic(t *testing.T) {
	dir := t.TempDir()
	for name, content := range map[string]string{"missing": "", "empty": "", "torn": testMagic[:3]} {
		path := filepath.Join(dir, name)
		if name != "missing" {
			if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		writeLog(t, path, []byte("p"))
		if got := readPayloads(t, path); len(got) != 1 || string(got[0]) != "p" {
			t.Fatalf("%s: payloads %q", name, got)
		}
	}
	for _, foreign := range []string{"cwtst2\n", "not a log at all", "xy"} {
		path := filepath.Join(dir, "foreign")
		if err := os.WriteFile(path, []byte(foreign), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(path, testMagic, accept); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("foreign magic %q: err = %v", foreign, err)
		}
		if data, _ := os.ReadFile(path); string(data) != foreign {
			t.Fatalf("foreign file rewritten to %q", data)
		}
	}
}

// TestOpenTruncatesAtRejectedFrame: a torn tail and a frame the caller
// rejects both end the valid prefix; Open truncates there and appends
// extend it.
func TestOpenTruncatesAtRejectedFrame(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	writeLog(t, path, []byte("one"), []byte("bad"), []byte("three"))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, 0x05, 0x01), 0o644); err != nil {
		t.Fatal(err)
	}
	var kept []string
	w, err := Open(path, testMagic, func(p []byte) bool {
		if string(p) == "bad" {
			return false
		}
		kept = append(kept, string(p))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) != 1 || kept[0] != "one" {
		t.Fatalf("kept %q, want [one]", kept)
	}
	if err := w.Append([]byte("four")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got := readPayloads(t, path)
	if len(got) != 2 || string(got[0]) != "one" || string(got[1]) != "four" {
		t.Fatalf("after truncate+append: %q", got)
	}
}

// TestScanOffsets: a magic-only log reports offset len(magic), a file
// without the magic reports 0, and every cut inside a frame drops it.
func TestScanOffsets(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	writeLog(t, path, []byte("alpha"), bytes.Repeat([]byte{7}, 300))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n, valid := Scan([]byte(testMagic), testMagic, accept); n != 0 || valid != len(testMagic) {
		t.Fatalf("magic-only: %d records, offset %d", n, valid)
	}
	if n, valid := Scan(data[1:], testMagic, accept); n != 0 || valid != 0 {
		t.Fatalf("no magic: %d records, offset %d", n, valid)
	}
	first := len(testMagic) + 1 + 8 + len("alpha")
	for cut := 0; cut <= len(data); cut++ {
		n, valid := Scan(data[:cut], testMagic, accept)
		want, wantValid := 0, 0
		switch {
		case cut == len(data):
			want, wantValid = 2, len(data)
		case cut >= first:
			want, wantValid = 1, first
		case cut >= len(testMagic):
			wantValid = len(testMagic)
		}
		if n != want || valid != wantValid {
			t.Fatalf("cut %d: %d records at %d, want %d at %d", cut, n, valid, want, wantValid)
		}
	}
}

// TestWriteManifestAtomic: the manifest round-trips, a rewrite replaces
// it, no tmp file is left behind, and a missing manifest reports
// os.ErrNotExist.
func TestWriteManifestAtomic(t *testing.T) {
	type ident struct {
		Label string `json:"label"`
		N     int    `json:"n"`
	}
	path := filepath.Join(t.TempDir(), "manifest.json")
	var got ident
	if err := ReadManifest(path, &got); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing manifest: %v", err)
	}
	for _, want := range []ident{{"a", 1}, {"b", 2}} {
		if err := WriteManifest(path, want); err != nil {
			t.Fatal(err)
		}
		if err := ReadManifest(path, &got); err != nil || got != want {
			t.Fatalf("read back %+v, %v; want %+v", got, err, want)
		}
	}
	if data, _ := os.ReadFile(path); string(data) != "{\"label\":\"b\",\"n\":2}\n" {
		t.Fatalf("manifest bytes %q", data)
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("tmp file left behind: %v", err)
	}
	if err := os.WriteFile(path, []byte("{tor"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := ReadManifest(path, &got); err == nil {
		t.Fatal("corrupt manifest accepted")
	}
}

// TestAppendAndScanAllocFree pins the hot path: framing a record into
// the buffer and scanning a log allocate nothing.
func TestAppendAndScanAllocFree(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	w, err := Open(path, testMagic, accept)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	payload := bytes.Repeat([]byte("x"), 200)
	if n := testing.AllocsPerRun(1000, func() {
		if err := w.Append(payload); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Append: %v allocs/op, want 0", n)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	noop := func([]byte) bool { return true }
	if n := testing.AllocsPerRun(100, func() { Scan(data, testMagic, noop) }); n != 0 {
		t.Fatalf("Scan: %v allocs/op, want 0", n)
	}
	if n, valid := Scan(data, testMagic, noop); n != 1001 || valid != len(data) {
		t.Fatalf("scan after appends: %d records, %d/%d bytes", n, valid, len(data))
	}
}

// BenchmarkAppend is the journal encode/flush layer: ~200-byte
// payloads, flushed every 64 records as a checkpointed campaign does.
func BenchmarkAppend(b *testing.B) {
	w, err := Open(filepath.Join(b.TempDir(), "log"), testMagic, accept)
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	payload := bytes.Repeat([]byte("o"), 200)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Append(payload); err != nil {
			b.Fatal(err)
		}
		if i%64 == 63 {
			if err := w.Flush(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// FuzzFramelog: Scan never panics on arbitrary bytes, re-scanning the
// valid prefix reproduces the same count and offset, and any payload
// appended to a log scans back byte-exactly.
func FuzzFramelog(f *testing.F) {
	seed := filepath.Join(f.TempDir(), "seed")
	writeLog(f, seed, []byte("alpha"), nil, []byte{0, 1, 255})
	data, err := os.ReadFile(seed)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add([]byte(testMagic))
	f.Add([]byte("garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		n, valid := Scan(data, testMagic, accept)
		if valid > len(data) {
			t.Fatalf("valid %d > len %d", valid, len(data))
		}
		if n2, valid2 := Scan(data[:valid], testMagic, accept); n2 != n || valid2 != valid {
			t.Fatalf("re-scan of valid prefix: %d/%d records, %d/%d bytes", n2, n, valid2, valid)
		}
		path := filepath.Join(t.TempDir(), "log")
		writeLog(t, path, data, data)
		got := readPayloads(t, path)
		if len(got) != 2 || !bytes.Equal(got[0], data) || !bytes.Equal(got[1], data) {
			t.Fatalf("round trip of %d-byte payload: %d payloads", len(data), len(got))
		}
	})
}
