package campaign

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeRecords journals the given (index, err, value) triples into one
// shard file and closes it.
func writeRecords(t *testing.T, path string, recs []struct {
	index int
	err   string
	value string
}) {
	t.Helper()
	jw, err := openJournal(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := appendRecord(jw, r.index, r.err, r.value); err != nil {
			t.Fatal(err)
		}
	}
	if err := jw.close(); err != nil {
		t.Fatal(err)
	}
}

func sampleRecords(n int) []struct {
	index int
	err   string
	value string
} {
	recs := make([]struct {
		index int
		err   string
		value string
	}, n)
	for i := range recs {
		recs[i].index = i
		recs[i].value = fmt.Sprintf("value-%d", i)
		if i%5 == 3 {
			recs[i].err = fmt.Sprintf("visit %d: unreachable", i)
		}
	}
	return recs
}

// TestJournalRoundTrip: append → scan reproduces every record exactly.
func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard-0000.cwj")
	recs := sampleRecords(20)
	writeRecords(t, path, recs)

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got []struct {
		index int
		rec   journalRecord
	}
	n, valid := scanJournal(data, func(index int, rec journalRecord) {
		got = append(got, struct {
			index int
			rec   journalRecord
		}{index, rec})
	})
	if n != len(recs) || valid != len(data) {
		t.Fatalf("scan: %d records, %d/%d bytes valid", n, valid, len(data))
	}
	for i, g := range got {
		want := recs[i]
		if g.index != want.index || g.rec.errStr != want.err || string(g.rec.value) != want.value {
			t.Fatalf("record %d: got (%d, %q, %q), want (%d, %q, %q)",
				i, g.index, g.rec.errStr, g.rec.value, want.index, want.err, want.value)
		}
	}
}

// TestJournalTruncatedTail: a torn final record (the crash case) is
// dropped; every preceding record survives.
func TestJournalTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "shard-0000.cwj")
	recs := sampleRecords(10)
	writeRecords(t, path, recs)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Chop bytes off the tail one at a time down to an empty file: the
	// scanner must never panic, never invent records, and must keep a
	// record exactly until one of its bytes is gone.
	fullLens := recordOffsets(t, data)
	for cut := len(data) - 1; cut >= 0; cut-- {
		n, valid := scanJournal(data[:cut], nil)
		wantN := 0
		for _, end := range fullLens {
			if end <= cut {
				wantN++
			}
		}
		if n != wantN {
			t.Fatalf("cut at %d: %d records, want %d", cut, n, wantN)
		}
		if valid > cut {
			t.Fatalf("cut at %d: valid offset %d beyond data", cut, valid)
		}
	}
}

// recordOffsets returns the end offset of every record in a journal.
func recordOffsets(t *testing.T, data []byte) []int {
	t.Helper()
	var ends []int
	prev := len(journalMagic)
	n, _ := scanJournal(data, nil)
	for i := 0; i < n; i++ {
		// Re-scan prefixes to find each record boundary (test-only
		// quadratic is fine at this size).
		for off := prev + 1; off <= len(data); off++ {
			if cnt, valid := scanJournal(data[:off], nil); cnt == i+1 && valid == off {
				ends = append(ends, off)
				prev = off
				break
			}
		}
	}
	if len(ends) != n {
		t.Fatalf("found %d record ends, want %d", len(ends), n)
	}
	return ends
}

// TestJournalCorruptTailFlippedBit: flipping a byte in the last record
// invalidates it (checksum) without touching earlier records.
func TestJournalCorruptTailFlippedBit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard-0000.cwj")
	writeRecords(t, path, sampleRecords(5))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	clean4, _ := scanJournal(data, nil)
	if clean4 != 5 {
		t.Fatalf("precondition: %d records", clean4)
	}
	corrupt := append([]byte(nil), data...)
	corrupt[len(corrupt)-1] ^= 0xff
	n, valid := scanJournal(corrupt, nil)
	if n != 4 {
		t.Fatalf("corrupt tail: %d records survived, want 4", n)
	}
	// A writer reopening the file truncates to the last valid record
	// and can append cleanly.
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	jw, err := openJournal(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := appendRecord(jw, 99, "", "appended-after-repair"); err != nil {
		t.Fatal(err)
	}
	if err := jw.close(); err != nil {
		t.Fatal(err)
	}
	repaired, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(repaired[:valid], corrupt[:valid]) {
		t.Fatal("repair rewrote the valid prefix")
	}
	var indices []int
	n2, valid2 := scanJournal(repaired, func(index int, _ journalRecord) { indices = append(indices, index) })
	if n2 != 5 || valid2 != len(repaired) {
		t.Fatalf("after repair: %d records, %d/%d valid", n2, valid2, len(repaired))
	}
	if indices[4] != 99 {
		t.Fatalf("appended record index = %d", indices[4])
	}
}

// TestJournalGarbageFile: a file that is not a journal at all loads as
// empty (and a writer rewrites it from scratch).
func TestJournalGarbageFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard-0000.cwj")
	if err := os.WriteFile(path, []byte("this is not a journal"), 0o644); err != nil {
		t.Fatal(err)
	}
	if n, valid := scanJournal([]byte("this is not a journal"), nil); n != 0 || valid != 0 {
		t.Fatalf("garbage scanned to %d records, %d valid bytes", n, valid)
	}
	jw, err := openJournal(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := appendRecord(jw, 7, "", "v"); err != nil {
		t.Fatal(err)
	}
	if err := jw.close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	n, valid := scanJournal(data, nil)
	if n != 1 || valid != len(data) {
		t.Fatalf("rewritten garbage file: %d records, %d/%d valid", n, valid, len(data))
	}
}

// TestLoadJournalsMergesFiles: records spread over several shard files
// (as different shard layouts would leave them) merge by index.
func TestLoadJournalsMergesFiles(t *testing.T) {
	dir := t.TempDir()
	writeRecords(t, shardFile(dir, 0), sampleRecords(4))
	writeRecords(t, shardFile(dir, 7), []struct {
		index int
		err   string
		value string
	}{{index: 10, value: "ten"}, {index: 11, err: "boom", value: "eleven"}})
	replay, err := loadJournals(dir, 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(replay) != 12 {
		t.Fatalf("replay index has %d slots, want 12", len(replay))
	}
	var present []int
	for i, rec := range replay {
		if rec.ok {
			present = append(present, i)
		}
	}
	if fmt.Sprint(present) != "[0 1 2 3 10 11]" {
		t.Fatalf("merged indices %v, want [0 1 2 3 10 11]", present)
	}
	if string(replay[10].value) != "ten" || replay[11].errStr != "boom" {
		t.Fatalf("replay[10] = %+v, replay[11] = %+v", replay[10], replay[11])
	}
}

// TestLoadJournalsDropsOutOfRangeAndLaterFileWins: a record whose index
// is past the campaign's targets is dropped, and on a duplicate index
// the file that sorts last wins.
func TestLoadJournalsDropsOutOfRangeAndLaterFileWins(t *testing.T) {
	dir := t.TempDir()
	type rec = struct {
		index int
		err   string
		value string
	}
	writeRecords(t, shardFile(dir, 0), []rec{{index: 0, value: "old"}, {index: 1, value: "one"}})
	writeRecords(t, shardFile(dir, 1), []rec{{index: 0, value: "new"}, {index: 3, value: "three"}, {index: 1 << 40, value: "far"}})
	replay, err := loadJournals(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(replay) != 3 || !replay[0].ok || !replay[1].ok || replay[2].ok {
		t.Fatalf("replay index = %+v, want slots 0 and 1 only", replay)
	}
	if string(replay[0].value) != "new" || string(replay[1].value) != "one" {
		t.Fatalf("replay[0] = %q, replay[1] = %q, want new, one", replay[0].value, replay[1].value)
	}
	empty, err := loadJournals(filepath.Join(dir, "missing"), 2)
	if err != nil || len(empty) != 2 || empty[0].ok || empty[1].ok {
		t.Fatalf("missing dir: %+v, %v", empty, err)
	}
}

// TestJournalAppendAllocFree pins the journal's hot path the way
// framelog's TestAppendAndScanAllocFree pins the frame layer: framing
// a record and encoding its value into the reused payload scratch
// allocate nothing.
func TestJournalAppendAllocFree(t *testing.T) {
	jw, err := openJournal(filepath.Join(t.TempDir(), ShardFilename(0)), 64)
	if err != nil {
		t.Fatal(err)
	}
	defer jw.close()
	value := strings.Repeat("v", 200)
	var codec Codec = stringCodec{}
	index := 0
	if n := testing.AllocsPerRun(1000, func() {
		index++
		if err := jw.append(index, "no such host", codec, &value); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("journal append: %v allocs/op, want 0", n)
	}
}

// FuzzScanJournal: arbitrary bytes never panic the scanner, and the
// reported valid offset is always consistent (a re-scan of the valid
// prefix yields the same records).
func FuzzScanJournal(f *testing.F) {
	path := filepath.Join(f.TempDir(), "seed.cwj")
	jw, err := openJournal(path, 1)
	if err != nil {
		f.Fatal(err)
	}
	appendRecord(jw, 3, "err", "value")
	appendRecord(jw, 4, "", "\x00\x01\x02\xff")
	jw.close()
	seed, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(journalMagic))
	f.Add([]byte("garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		n, valid := scanJournal(data, nil)
		if valid > len(data) {
			t.Fatalf("valid %d > len %d", valid, len(data))
		}
		n2, valid2 := scanJournal(data[:valid], nil)
		if n2 != n || (valid > 0 && valid2 != valid) {
			t.Fatalf("re-scan of valid prefix: %d/%d records, %d/%d bytes", n2, n, valid2, valid)
		}
	})
}

// FuzzJournalRecordRoundTrip: any (index, err, value) triple survives
// the journal byte-exactly.
func FuzzJournalRecordRoundTrip(f *testing.F) {
	f.Add(0, "", []byte(nil))
	f.Add(45221, "no such host", []byte("observation bytes"))
	f.Add(1<<40, "x", bytes.Repeat([]byte{0xab}, 300))
	f.Fuzz(func(t *testing.T, index int, errStr string, value []byte) {
		if index < 0 {
			index = -index
		}
		path := filepath.Join(t.TempDir(), "f.cwj")
		jw, err := openJournal(path, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := appendRecord(jw, index, errStr, string(value)); err != nil {
			t.Fatal(err)
		}
		if err := jw.close(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		found := 0
		n, valid := scanJournal(data, func(gotIndex int, rec journalRecord) {
			found++
			if gotIndex != index || rec.errStr != errStr || !bytes.Equal(rec.value, value) {
				t.Fatalf("round trip: got (%d, %q, %x), want (%d, %q, %x)",
					gotIndex, rec.errStr, rec.value, index, errStr, value)
			}
		})
		if n != 1 || found != 1 || valid != len(data) {
			t.Fatalf("scan: %d records, %d/%d bytes", n, valid, len(data))
		}
	})
}
