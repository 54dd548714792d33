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
