package measure

import (
	"slices"
	"testing"
)

// TestUnionDetectionsSorted pins UnionDetections' documented contract
// on a landscape whose vantage points list their cookiewalls out of
// order, with a domain that two of them share: every distinct domain
// once, sorted, in a copy the caller owns. A crawl sorts each VP's
// cookiewalls itself, so only a hand-built landscape shows the union's
// own sort.
func TestUnionDetectionsSorted(t *testing.T) {
	l := &Landscape{PerVP: []VPResult{
		{VP: "Sweden", Cookiewalls: []Observation{{Domain: "zeit.de"}, {Domain: "bild.de"}}},
		{VP: "Germany", Cookiewalls: []Observation{{Domain: "spiegel.de"}, {Domain: "zeit.de"}, {Domain: "abendblatt.de"}}},
	}}
	want := []string{"abendblatt.de", "bild.de", "spiegel.de", "zeit.de"}
	got := l.UnionDetections()
	if !slices.Equal(got, want) {
		t.Fatalf("UnionDetections() = %q, want %q", got, want)
	}
	got[0] = "mutated.example"
	if again := l.UnionDetections(); !slices.Equal(again, want) {
		t.Fatalf("UnionDetections() after the caller wrote to its result = %q, want %q", again, want)
	}
}
