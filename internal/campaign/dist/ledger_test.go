package dist

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"cookiewalk/internal/framelog"
)

// TestLedgerRoundTripAndTornTail: events appended to a ledger survive
// a reopen; bytes torn off the tail (the crash-mid-write case) cost
// exactly the torn line, and the reopened ledger truncates the tail so
// later appends extend a consistent prefix.
func TestLedgerRoundTripAndTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), ledgerName)
	led, events, err := openLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 0 {
		t.Fatalf("fresh ledger replayed %d events", len(events))
	}
	evs := []ledgerEvent{
		{Ev: evStart, Inc: 1, Fleet: 0xfeed},
		{Ev: evGrant, Seq: 1, Lease: "L01-000001", Worker: "w0", Label: "camp", Shard: 0, Lo: 0, Hi: 10},
		{Ev: evMerge, Lease: "L01-000001", Label: "camp", Shard: 0, Lo: 0, Hi: 10},
	}
	for _, ev := range evs {
		if err := led.append(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := led.close(); err != nil {
		t.Fatal(err)
	}

	_, replayed, err := openLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != len(evs) {
		t.Fatalf("replayed %d events, want %d", len(replayed), len(evs))
	}
	for i, ev := range replayed {
		if ev != evs[i] {
			t.Fatalf("event %d: got %+v, want %+v", i, ev, evs[i])
		}
	}

	// Tear bytes off the tail: the merge line is damaged, start+grant
	// survive, and the reopened ledger accepts fresh appends.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	led3, replayed, err := openLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != 2 || replayed[1].Ev != evGrant {
		t.Fatalf("after torn tail: %d events (%+v)", len(replayed), replayed)
	}
	if err := led3.append(ledgerEvent{Ev: evExpire, Lease: "L01-000001"}); err != nil {
		t.Fatal(err)
	}
	led3.close()
	_, replayed, err = openLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != 3 || replayed[2].Ev != evExpire {
		t.Fatalf("after truncate+append: %d events (%+v)", len(replayed), replayed)
	}
}

// TestLedgerCorruptLineStopsScan: flipping one payload byte breaks the
// line checksum and parsing stops there — everything after a corrupt
// line is untrusted, exactly like the visit journals.
func TestLedgerCorruptLineStopsScan(t *testing.T) {
	path := filepath.Join(t.TempDir(), ledgerName)
	led, _, err := openLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	led.append(ledgerEvent{Ev: evStart, Inc: 1, Fleet: 1})
	led.append(ledgerEvent{Ev: evGrant, Seq: 1, Lease: "L01-000001"})
	led.append(ledgerEvent{Ev: evGrant, Seq: 2, Lease: "L01-000002"})
	led.close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte inside the SECOND event's payload (past the magic
	// and the first full frame).
	seen := 0
	_, second := framelog.Scan(data, ledgerMagic, func([]byte) bool { seen++; return seen < 2 })
	data[second+20] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, events, err := openLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Ev != evStart {
		t.Fatalf("after corruption: %d events (%+v)", len(events), events)
	}
}

// TestLedgerMissingMagicDiscardsAll: a file whose magic is torn is
// treated as empty and rewritten — never partially trusted.
func TestLedgerMissingMagicDiscardsAll(t *testing.T) {
	path := filepath.Join(t.TempDir(), ledgerName)
	if err := os.WriteFile(path, []byte("cwl"), 0o644); err != nil {
		t.Fatal(err)
	}
	led, events, err := openLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 0 {
		t.Fatalf("torn-magic ledger replayed %d events", len(events))
	}
	if err := led.append(ledgerEvent{Ev: evStart, Inc: 1, Fleet: 2}); err != nil {
		t.Fatal(err)
	}
	led.close()
	_, events, err = openLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 {
		t.Fatalf("rewritten ledger replayed %d events", len(events))
	}
}

// TestFleetHashDistinguishesSpecs: any identity component — label,
// size, hash, shard count, order — changes the fleet hash, so a ledger
// can never be replayed by a differently-configured coordinator.
func TestFleetHashDistinguishesSpecs(t *testing.T) {
	base := []Spec{{Label: "a", Targets: 10, TargetsHash: 7, Shards: 2}, {Label: "b", Targets: 20, TargetsHash: 9, Shards: 4}}
	variants := [][]Spec{
		{{Label: "a!", Targets: 10, TargetsHash: 7, Shards: 2}, base[1]},
		{{Label: "a", Targets: 11, TargetsHash: 7, Shards: 2}, base[1]},
		{{Label: "a", Targets: 10, TargetsHash: 8, Shards: 2}, base[1]},
		{{Label: "a", Targets: 10, TargetsHash: 7, Shards: 3}, base[1]},
		{base[1], base[0]},
		{base[0]},
	}
	want := fleetHash(base)
	if want != fleetHash(base) {
		t.Fatal("fleetHash not deterministic")
	}
	for i, v := range variants {
		if fleetHash(v) == want {
			t.Fatalf("variant %d collides with base", i)
		}
	}
}

// TestJitterBoundsAndDeterminism pins the jitter contract the fleet
// depends on: every delay lands in [base/2, base], the schedule is a
// pure function of (seed, call, attempt), and different seeds (i.e.
// different workers) decorrelate.
func TestJitterBoundsAndDeterminism(t *testing.T) {
	base := 100 * time.Millisecond
	same := 0
	for attempt := 0; attempt < 8; attempt++ {
		d1 := jitter(1, 1, attempt, base)
		d2 := jitter(2, 1, attempt, base)
		if d1 < base/2 || d1 > base {
			t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, d1, base/2, base)
		}
		if d1 != jitter(1, 1, attempt, base) {
			t.Fatalf("attempt %d: jitter not deterministic", attempt)
		}
		if d1 == d2 {
			same++
		}
	}
	if same == 8 {
		t.Fatal("two seeds produced identical 8-delay schedules — no decorrelation")
	}
}

// FuzzLedgerOpen: any ledger.cwl content either opens — replaying a
// prefix of events that survives a reopen and accepts a further event
// — or is refused as a foreign file; it never panics.
func FuzzLedgerOpen(f *testing.F) {
	seedPath := filepath.Join(f.TempDir(), ledgerName)
	led, _, err := openLedger(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	led.append(ledgerEvent{Ev: evStart, Inc: 1, Fleet: 0xfeed})
	led.append(ledgerEvent{Ev: evGrant, Seq: 1, Lease: "L01-000001", Worker: "w0", Label: "camp", Shard: 0, Lo: 0, Hi: 10})
	led.append(ledgerEvent{Ev: evMerge, Lease: "L01-000001", Label: "camp", Shard: 0, Lo: 0, Hi: 10})
	led.close()
	seed, err := os.ReadFile(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)-5])
	f.Add([]byte(ledgerMagic))
	f.Add([]byte("cwl"))
	f.Add([]byte("cwled1\n0123456789abcdef {}\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), ledgerName)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		led, events, err := openLedger(path)
		if err != nil {
			if !errors.Is(err, framelog.ErrBadMagic) {
				t.Fatalf("open failed for a reason other than bad magic: %v", err)
			}
			return
		}
		extra := ledgerEvent{Ev: evExpire, Lease: "L09-000009"}
		if err := led.append(extra); err != nil {
			t.Fatal(err)
		}
		led.close()
		_, replayed, err := openLedger(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(replayed) != len(events)+1 || replayed[len(events)] != extra {
			t.Fatalf("reopened with %d events, want %d ending in %+v", len(replayed), len(events)+1, extra)
		}
		for i, ev := range events {
			if replayed[i] != ev {
				t.Fatalf("event %d changed across reopen: %+v vs %+v", i, replayed[i], ev)
			}
		}
	})
}
