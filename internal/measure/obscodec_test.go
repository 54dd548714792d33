package measure

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"cookiewalk/internal/campaign"
	"cookiewalk/internal/core"
	"cookiewalk/internal/synthweb"
	"cookiewalk/internal/vantage"
	"cookiewalk/internal/webfarm"
)

func sampleObservation() Observation {
	return Observation{
		Domain:       "zeitung-a1.de",
		VP:           "Germany",
		Fingerprint:  0xdeadbeefcafe1234,
		Kind:         core.KindCookiewall,
		Source:       core.SourceIFrame,
		ShadowMode:   "open",
		HasAccept:    true,
		HasSub:       true,
		MatchedWords: []string{"abo", "werbefrei", "pur"},
		PriceCount:   2,
		MonthlyEUR:   3.99,
		Language:     "de",
		Category:     "news",
		ScrollLocked: true,
	}
}

// codecRegistry is a small registry for the codec tests that exercise
// registry-resolved domains.
var codecRegistry = sync.OnceValue(func() *synthweb.Registry {
	return synthweb.Generate(synthweb.Config{Seed: 7, FillerScale: 0.01})
})

// encodeObservation appends o's encoding to a new buffer.
func encodeObservation(t testing.TB, o Observation) []byte {
	t.Helper()
	enc, err := ObservationCodec{}.Append(nil, &o)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// decodeObservation decodes data into a zero Observation.
func decodeObservation(codec ObservationCodec, data []byte) (Observation, error) {
	var o Observation
	err := codec.DecodeInto(data, &o)
	return o, err
}

// checkDecodes decodes a valid encoding of want four ways — into a
// zero value and into a used destination, each with and without the
// registry — and requires every result to equal want exactly.
func checkDecodes(t *testing.T, reg *synthweb.Registry, enc []byte, want Observation) {
	t.Helper()
	for _, codec := range []ObservationCodec{{}, {Reg: reg}} {
		got, err := decodeObservation(codec, enc)
		if err != nil {
			t.Fatalf("decode (Reg set: %v): %v", codec.Reg != nil, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip (Reg set: %v) changed the observation\n got: %+v\nwant: %+v", codec.Reg != nil, got, want)
		}
		dirty := sampleObservation()
		if err := codec.DecodeInto(enc, &dirty); err != nil {
			t.Fatalf("decode into a used destination (Reg set: %v): %v", codec.Reg != nil, err)
		}
		if !reflect.DeepEqual(dirty, got) {
			t.Fatalf("decode into a used destination (Reg set: %v)\n got: %+v\nwant: %+v", codec.Reg != nil, dirty, got)
		}
	}
}

// TestObservationCodecRoundTrip: every field survives exactly, whether
// its strings resolve through the known-value tables or are copied.
func TestObservationCodecRoundTrip(t *testing.T) {
	reg := codecRegistry()
	cases := []Observation{
		sampleObservation(),
		{},
		{Domain: "down.example", VP: "US East", Err: "webfarm: no such host down.example"},
		{Domain: "plain.se", VP: "Sweden", Fingerprint: 1, Kind: core.KindRegular, HasAccept: true, HasReject: true, Language: "sv", Category: "shopping"},
		{Domain: reg.TargetList()[0], VP: "Brazil", Fingerprint: 2, Kind: core.KindRegular, ShadowMode: "closed",
			Language: "und", Category: "Others", MatchedWords: []string{"pur"}},
		{Domain: reg.TargetList()[1], VP: "Sweden", Language: "xx", Category: "News and Media"},
	}
	for i, want := range cases {
		enc, err := ObservationCodec{Reg: reg}.Append([]byte("prefix"), &want)
		if err != nil {
			t.Fatalf("case %d: append: %v", i, err)
		}
		if !bytes.Equal(enc[6:], encodeObservation(t, want)) {
			t.Fatalf("case %d: append after a prefix encodes differently", i)
		}
		checkDecodes(t, reg, enc[6:], want)
	}
	if _, err := (ObservationCodec{}).Append(nil, "not an observation"); err == nil {
		t.Fatal("append accepted a non-Observation")
	}
	if err := (ObservationCodec{}).DecodeInto(encodeObservation(t, cases[0]), new(string)); err == nil {
		t.Fatal("decode into a non-Observation succeeded")
	}
}

// TestObservationCodecRejectsCorrupt: truncations and version skew
// decode to errors, never panics or silent misreads.
func TestObservationCodecRejectsCorrupt(t *testing.T) {
	var codec ObservationCodec
	enc := encodeObservation(t, sampleObservation())
	for cut := 0; cut < len(enc); cut++ {
		if _, err := decodeObservation(codec, enc[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", cut)
		}
	}
	bad := append([]byte(nil), enc...)
	bad[0] = 99 // future version
	if _, err := decodeObservation(codec, bad); err == nil {
		t.Fatal("decoded an unknown codec version")
	}
	if _, err := decodeObservation(codec, append(append([]byte(nil), enc...), 0xff)); err == nil {
		t.Fatal("decoded a record with trailing bytes")
	}
}

// TestObservationCodecAllocFree pins the journal codec's steady state:
// appending into a reused buffer allocates nothing, and neither does
// decoding a registry-known regular observation without matched words
// whose analysis the memo already holds — every string resolves to a
// table's copy.
func TestObservationCodecAllocFree(t *testing.T) {
	reg := codecRegistry()
	codec := ObservationCodec{Reg: reg}
	o := Observation{
		Domain: reg.TargetList()[3], VP: "Germany",
		Fingerprint: 0x5eed5eed5eed0002, // private to this test
		Kind:        core.KindRegular, Source: core.SourceShadowDOM, ShadowMode: "open",
		HasAccept: true, HasReject: true, Language: "de", Category: "News and Media",
	}
	buf := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(1000, func() {
		var err error
		if buf, err = codec.Append(buf[:0], &o); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Append: %v allocs/op, want 0", n)
	}
	var got Observation
	if err := codec.DecodeInto(buf, &got); err != nil { // seeds the memo
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, o) {
		t.Fatalf("round trip\n got: %+v\nwant: %+v", got, o)
	}
	if n := testing.AllocsPerRun(1000, func() {
		if err := codec.DecodeInto(buf, &got); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("DecodeInto: %v allocs/op, want 0", n)
	}
}

// FuzzObservationCodec: arbitrary observations round-trip exactly —
// into a zero value or a used one, with or without the registry — and
// arbitrary bytes never panic the decoder.
func FuzzObservationCodec(f *testing.F) {
	reg := codecRegistry()
	seedEnc := encodeObservation(f, sampleObservation())
	f.Add("a.de", "Germany", "", uint64(42), 2, "abo|pur", 3.99, "de", "news", byte(5))
	f.Add("", "", "host down", uint64(0), 0, "", 0.0, "", "", byte(0))
	f.Add(string(seedEnc), "x", "y", uint64(1), 1, "w", -1.5, "zz", "cat", byte(31))
	f.Add(reg.TargetList()[0], "US West", "", uint64(7), 1, "", 1.0, "und", "Others", byte(3))
	f.Fuzz(func(t *testing.T, domain, vp, errStr string, fp uint64, kind int, words string, eur float64, lang, cat string, flags byte) {
		var o Observation
		o.Domain, o.VP, o.Err, o.Fingerprint = domain, vp, errStr, fp
		o.Kind = core.Kind(kind & 3)
		o.Source = core.Source(kind >> 2 & 3)
		if words != "" {
			o.MatchedWords = strings.Split(words, "|")
		}
		o.MonthlyEUR = eur
		o.Language, o.Category = lang, cat
		unpackFlags(&o, flags)
		enc := encodeObservation(t, o)
		checkDecodes(t, reg, enc, o)
		// The encoding itself, corrupted arbitrarily, must never panic.
		for cut := 0; cut <= len(enc); cut += 7 {
			_, _ = decodeObservation(ObservationCodec{Reg: reg}, enc[:cut])
		}
	})
}

// TestDecodeSeedsAnalysisMemo: decoding a successful observation
// publishes its analysis so later visits with the same fingerprint are
// memo hits.
func TestDecodeSeedsAnalysisMemo(t *testing.T) {
	o := sampleObservation()
	o.Fingerprint = 0x5eed5eed5eed0001 // private to this test
	if _, err := decodeObservation(ObservationCodec{}, encodeObservation(t, o)); err != nil {
		t.Fatal(err)
	}
	computed := false
	a := analyses.get(o.Fingerprint, func() core.Analysis {
		computed = true
		return core.Analysis{}
	})
	if computed {
		t.Fatal("memo miss after decode seeding")
	}
	if a.Kind != o.Kind || a.MonthlyEUR != o.MonthlyEUR || len(a.MatchedWords) != len(o.MatchedWords) {
		t.Fatalf("seeded analysis = %+v", a)
	}
	// Seeding never overwrites: a live entry wins.
	live := core.Analysis{Language: "live"}
	analyses.seed(o.Fingerprint, live)
	if got := analyses.get(o.Fingerprint, func() core.Analysis { return core.Analysis{} }); got.Language == "live" {
		t.Fatal("seed replaced an existing entry")
	}
}

// landscapeFixture builds a small crawler over a fresh universe.
func landscapeFixture(t *testing.T, checkpointDir string) (*Crawler, []string) {
	t.Helper()
	reg := synthweb.Generate(synthweb.Config{Seed: 7, FillerScale: 0.01})
	farm := webfarm.New(reg)
	c := New(reg, farm.Transport())
	c.Workers = 4
	c.Shards = 3
	c.CheckpointDir = checkpointDir
	return c, reg.TargetList()
}

// landscapeKey renders the fields downstream tables consume, for
// whole-landscape equality checks.
func landscapeKey(l *Landscape) string {
	var b strings.Builder
	for _, res := range l.PerVP {
		fmt.Fprintf(&b, "%s|%d,%d,%d,%d,%d,%d", res.VP,
			res.Visited, res.Errors, res.NoBanner, res.Regular,
			len(res.Cookiewalls), len(res.RegularAcceptDomains))
		for _, o := range res.Cookiewalls {
			fmt.Fprintf(&b, ";%s:%s:%s:%.4f:%s",
				o.Domain, o.Language, o.Category, o.MonthlyEUR,
				strings.Join(o.MatchedWords, "+"))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestLandscapeCheckpointResume kills a checkpointed landscape crawl
// mid-campaign and resumes it with a different worker/shard setting:
// the resumed landscape must equal the uninterrupted one field for
// field, with a nonzero replay count in its engine stats.
func TestLandscapeCheckpointResume(t *testing.T) {
	cRef, targets := landscapeFixture(t, "")
	vps := []vantage.VP{mustVP(t, "Germany"), mustVP(t, "Sweden")}
	ref, err := cRef.Landscape(context.Background(), vps, targets)
	if err != nil {
		t.Fatal(err)
	}

	dir := filepath.Join(t.TempDir(), "ckpt")
	c1, _ := landscapeFixture(t, dir)
	c1.ProgressEvery = 1
	ctx, cancel := context.WithCancel(context.Background())
	kill := len(targets)/2 + 3
	c1.Progress = func(p campaign.Progress) {
		if p.Label == "landscape Sweden" && p.Done >= int64(kill) {
			cancel()
		}
	}
	if _, err := c1.Landscape(ctx, vps, targets); err == nil {
		t.Fatal("interrupted landscape returned nil error")
	}
	cancel()

	c2, _ := landscapeFixture(t, dir)
	c2.Resume = true
	c2.Workers = 2
	c2.Shards = 5
	got, err := c2.Landscape(context.Background(), vps, targets)
	if err != nil {
		t.Fatal(err)
	}
	if landscapeKey(got) != landscapeKey(ref) {
		t.Fatal("resumed landscape differs from uninterrupted crawl")
	}
	// Germany completed before the kill: fully replayed. Sweden was cut
	// mid-campaign: partially replayed.
	gotDE, _ := got.Result("Germany")
	gotSE, _ := got.Result("Sweden")
	if gotDE.Stats.Replayed != int64(len(targets)) || gotDE.Stats.Fresh() != 0 {
		t.Fatalf("Germany stats = %+v", gotDE.Stats)
	}
	if gotSE.Stats.Replayed == 0 || gotSE.Stats.Fresh() == 0 {
		t.Fatalf("Sweden stats replayed=%d fresh=%d, want both nonzero",
			gotSE.Stats.Replayed, gotSE.Stats.Fresh())
	}
}

func mustVP(t *testing.T, name string) vantage.VP {
	t.Helper()
	vp, ok := vantage.ByName(name)
	if !ok {
		t.Fatalf("unknown VP %s", name)
	}
	return vp
}
