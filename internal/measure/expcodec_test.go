package measure

import (
	"bytes"
	"testing"

	"cookiewalk/internal/campaign"
)

// roundTrip pins the codec contract for one result type: each value,
// appended after a prefix, leaves the prefix intact, and decodes back
// to itself both into a zero destination and into the destination the
// previous value left behind. A value of a foreign type is refused in
// both directions.
func roundTrip[R comparable](t *testing.T, codec campaign.Codec, vals []R) {
	t.Helper()
	prefix := []byte("prefix")
	var dirty R
	for _, v := range vals {
		enc, err := codec.Append(append([]byte(nil), prefix...), &v)
		if err != nil {
			t.Fatalf("append %#v: %v", v, err)
		}
		if !bytes.HasPrefix(enc, prefix) {
			t.Fatalf("append %#v overwrote the buffer's prefix", v)
		}
		enc = enc[len(prefix):]
		var fresh R
		if err := codec.DecodeInto(enc, &fresh); err != nil {
			t.Fatalf("decode %#v: %v", v, err)
		}
		if fresh != v {
			t.Fatalf("round trip: got %#v, want %#v", fresh, v)
		}
		if err := codec.DecodeInto(enc, &dirty); err != nil {
			t.Fatalf("decode %#v into a used destination: %v", v, err)
		}
		if dirty != fresh {
			t.Fatalf("decode into a used destination: got %#v, want %#v", dirty, fresh)
		}
	}
	if _, err := codec.Append(nil, &struct{}{}); err == nil {
		t.Fatal("appending a foreign type succeeded")
	}
	enc, err := codec.Append(nil, &vals[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := codec.DecodeInto(enc, &struct{}{}); err == nil {
		t.Fatal("decoding into a foreign type succeeded")
	}
}

// TestExperimentCodecRoundTrips pins DecodeInto(Append(v)) == v for
// every experiment journal codec — the property resumed campaigns rest
// on.
func TestExperimentCodecRoundTrips(t *testing.T) {
	cases := []struct {
		name string
		run  func(*testing.T)
	}{
		{"sitecookies", func(t *testing.T) {
			roundTrip(t, SiteCookiesCodec{}, []SiteCookies{
				{Domain: "a.example", Tally: CookieTally{FirstParty: 1.5, ThirdParty: 2.25, Tracking: 42}},
				{Domain: "b.example", Err: "webfarm: host not found"},
				{},
			})
		}},
		{"bypass", func(t *testing.T) {
			roundTrip(t, bypassCodec(), []bypassOutcome{
				{Domain: "wall.example", Wall: true, AdblockPlea: true},
				{Domain: "gone.example", ScrollLocked: true},
				{},
			})
		}},
		{"ablation", func(t *testing.T) {
			roundTrip(t, ablationCodec(), []ablationCounts{
				{full: true, noShadow: true},
				{mainOnly: true, noFrames: true},
				{},
			})
		}},
		{"autoreject", func(t *testing.T) {
			roundTrip(t, autoRejectCodec(), []rejectOutcome{outRejected, outNoReject, outNoBanner, outFailed})
		}},
		{"botcheck", func(t *testing.T) {
			roundTrip(t, botCheckCodec(), []botPair{{mitigated: true}, {naive: true}, {}})
		}},
		{"revocation", func(t *testing.T) {
			roundTrip(t, revocationCodec(), []revOutcome{
				{tested: true, gone: true, persisted: true, back: true},
				{tested: true},
				{},
			})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, tc.run)
	}
}

// TestExperimentCodecsRejectCrossWiring: every codec carries a
// distinct tag, so a journal replayed through the wrong campaign's
// codec fails decoding (and the engine degrades that record to a fresh
// visit) instead of mis-decoding.
func TestExperimentCodecsRejectCrossWiring(t *testing.T) {
	enc, err := ablationCodec().Append(nil, &ablationCounts{full: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, other := range []struct {
		codec campaign.Codec
		dst   any
	}{
		{SiteCookiesCodec{}, &SiteCookies{}},
		{bypassCodec(), &bypassOutcome{}},
		{autoRejectCodec(), new(rejectOutcome)},
		{botCheckCodec(), &botPair{}},
		{revocationCodec(), &revOutcome{}},
		{ObservationCodec{}, &Observation{}},
	} {
		if err := other.codec.DecodeInto(enc, other.dst); err == nil {
			t.Fatalf("%T decoded an ablation record", other.codec)
		}
	}
	// Truncated and trailing-garbage records are refused too.
	var c ablationCounts
	if err := ablationCodec().DecodeInto(enc[:1], &c); err == nil {
		t.Fatal("decoded a truncated record")
	}
	if err := ablationCodec().DecodeInto(append(append([]byte(nil), enc...), 0xFF), &c); err == nil {
		t.Fatal("decoded a record with trailing bytes")
	}
}

// FuzzExperimentCodecs: arbitrary bytes never panic an experiment
// journal codec's DecodeInto, and every record a codec accepts
// re-encodes to exactly its own bytes — a replayed journal holds
// nothing its encoder could not have written. The seeds include the
// shapes the decoders must refuse: flag bits a verdict does not define,
// a domain on a codec that carries none and a length prefix in a
// longer varint form than Append writes.
func FuzzExperimentCodecs(f *testing.F) {
	codecs := []struct {
		codec campaign.Codec
		dst   func() any
	}{
		{SiteCookiesCodec{}, func() any { return new(SiteCookies) }},
		{bypassCodec(), func() any { return new(bypassOutcome) }},
		{ablationCodec(), func() any { return new(ablationCounts) }},
		{autoRejectCodec(), func() any { return new(rejectOutcome) }},
		{botCheckCodec(), func() any { return new(botPair) }},
		{revocationCodec(), func() any { return new(revOutcome) }},
	}
	for _, v := range []struct {
		codec campaign.Codec
		val   any
	}{
		{SiteCookiesCodec{}, &SiteCookies{Domain: "a.example", Tally: CookieTally{FirstParty: 1.5, Tracking: 42}}},
		{SiteCookiesCodec{}, &SiteCookies{Domain: "b.example", Err: "webfarm: host not found"}},
		{bypassCodec(), &bypassOutcome{Domain: "wall.example", Wall: true, ScrollLocked: true}},
		{ablationCodec(), &ablationCounts{full: true, mainOnly: true}},
		{autoRejectCodec(), ptr(outFailed)},
		{botCheckCodec(), &botPair{naive: true}},
		{revocationCodec(), &revOutcome{tested: true, back: true}},
	} {
		enc, err := v.codec.Append(nil, v.val)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	for _, tag := range []byte{bypassTag, ablationTag, autoRejectTag, botCheckTag, revocationTag} {
		f.Add([]byte{tag, 0xF0, 0})         // undefined flag bits
		f.Add([]byte{tag, 1, 1, 'x'})       // a domain
		f.Add([]byte{tag, 1, 0x81, 0, 'x'}) // a two-byte length of 1
		f.Add([]byte{tag, 1, 0x80, 0x00})   // a two-byte length of 0
	}
	// An empty SiteCookies record with a two-byte domain length of 0.
	f.Add(append([]byte{siteCookiesTag, 0x80, 0x00, 0}, make([]byte, 24)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range codecs {
			dst := c.dst()
			if c.codec.DecodeInto(data, dst) != nil {
				continue
			}
			enc, err := c.codec.Append(nil, dst)
			if err != nil {
				t.Fatalf("%T: re-encoding accepted record %x: %v", c.codec, data, err)
			}
			if !bytes.Equal(enc, data) {
				t.Fatalf("%T accepted %x, which re-encodes to %x", c.codec, data, enc)
			}
		}
	})
}

func ptr[T any](v T) *T { return &v }
