package trend

import (
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"cookiewalk/internal/measure"
)

// storePin is the exact on-disk encoding of the two rounds
// TestStoreBytePin appends: the "cwts1\n" magic, then per round
// uvarint(len) u64le(FNV-1a) and the Record's JSON. The trend golden
// and every existing store replay only if these bytes never move.
const storePin = "cwts1\n" +
	"\xe4\x01" + "\x3a\x7b\xb8\x7a\x9f\x77\x6f\xd8" + storePinRound0 +
	"\xe4\x01" + "\x8f\x3e\xc4\x8b\x5c\x76\xf2\x5c" + storePinRound1

const (
	storePinRound0 = `{"round":0,"at":0,"summary":{"targets":7,"cookiewalls":0,"prevalence":0,"top1k_prevalence":0,"paywall_share":0,"price_count":0,"price_min":0,"price_median":0,"price_mean":0,"price_max":0,"price_share_at_most_3":0,"per_vp":null}}`
	storePinRound1 = `{"round":1,"at":1,"summary":{"targets":7,"cookiewalls":1,"prevalence":0,"top1k_prevalence":0,"paywall_share":0,"price_count":0,"price_min":0,"price_median":0,"price_mean":0,"price_max":0,"price_share_at_most_3":0,"per_vp":null}}`
)

// TestStoreBytePin pins the round store's byte layout.
func TestStoreBytePin(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, testManifest())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		rec := Record{Round: i, At: int64(i), Summary: measure.RoundSummary{Targets: 7, Cookiewalls: i}}
		if err := s.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, storeFile))
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != storePin {
		t.Fatalf("store bytes moved:\n got %s\nwant %s", hex.EncodeToString(data), hex.EncodeToString([]byte(storePin)))
	}
}
