package campaign

import (
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// journalPin is the exact on-disk encoding of the three records
// TestJournalBytePin writes: the "cwjl1\n" magic, then per record
// uvarint(len) u64le(FNV-1a) uvarint(index) uvarint(len(err)) err value.
// Checkpoint directories written by any earlier release replay only if
// these bytes never move.
const journalPin = "63776a6c310a" +
	"07" + "e396e4c8fdd478e0" + "00" + "00" + "616c706861" +
	"0e" + "ccb6a89fc8740e22" + "01" + "0c" + "6e6f207375636820686f7374" +
	"06" + "bb576e218aa743e9" + "ac02" + "00" + "0001ff"

// TestJournalBytePin pins the journal's byte layout.
func TestJournalBytePin(t *testing.T) {
	path := filepath.Join(t.TempDir(), ShardFilename(0))
	writeRecords(t, path, []struct {
		index int
		err   string
		value string
	}{
		{index: 0, value: "alpha"},
		{index: 1, err: "no such host", value: ""},
		{index: 300, value: "\x00\x01\xff"},
	})
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(data); got != journalPin {
		t.Fatalf("journal bytes moved:\n got %s\nwant %s", got, journalPin)
	}
}
