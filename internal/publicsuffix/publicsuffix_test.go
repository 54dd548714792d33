package publicsuffix

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestETLDPlusOne(t *testing.T) {
	cases := map[string]string{
		"www.spiegel.de":            "spiegel.de",
		"spiegel.de":                "spiegel.de",
		"news.bbc.co.uk":            "bbc.co.uk",
		"bbc.co.uk":                 "bbc.co.uk",
		"a.b.c.example.com.au":      "example.com.au",
		"sync.trackpix1.example":    "trackpix1.example",
		"pt.climate-data.org":       "climate-data.org",
		"WWW.UPPER.DE":              "upper.de",
		"trailing.dot.de.":          "dot.de",
		"with.port.de:8443":         "port.de",
		"deep.sub.domain.houses.at": "houses.at",
		"Example.COM.:443":          "example.com",
		"dots.example.com..":        "example.com",
	}
	for in, want := range cases {
		got, err := ETLDPlusOne(in)
		if err != nil {
			t.Errorf("ETLDPlusOne(%q): %v", in, err)
			continue
		}
		if got != want {
			t.Errorf("ETLDPlusOne(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestETLDPlusOneErrors(t *testing.T) {
	for _, in := range []string{"", "de", "co.uk", "com", "example"} {
		if got, err := ETLDPlusOne(in); err == nil {
			t.Errorf("ETLDPlusOne(%q) = %q, want error", in, got)
		}
	}
}

func TestUnknownTLDFallback(t *testing.T) {
	got, err := ETLDPlusOne("foo.bar.unknowntld")
	if err != nil || got != "bar.unknowntld" {
		t.Fatalf("got %q, %v", got, err)
	}
}

func TestPublicSuffix(t *testing.T) {
	if s, ok := publicSuffix(normalize("www.bbc.co.uk")); !ok || s != "co.uk" {
		t.Fatalf("co.uk: %q %v", s, ok)
	}
	if s, ok := publicSuffix(normalize("x.de")); !ok || s != "de" {
		t.Fatalf("de: %q %v", s, ok)
	}
	if s, ok := publicSuffix(normalize("a.veryunknown")); ok || s != "veryunknown" {
		t.Fatalf("unknown: %q %v", s, ok)
	}
}

func TestSameSite(t *testing.T) {
	cases := []struct {
		a, b string
		want bool
	}{
		{"www.spiegel.de", "abo.spiegel.de", true},
		{"spiegel.de", "spiegel.de", true},
		{"www.spiegel.de", "zeit.de", false},
		{"sub.a.co.uk", "other.a.co.uk", true},
		{"a.co.uk", "a.org.uk", false},
		{"tracker.example", "site.de", false},
		// Suffix-only hosts fall back to literal comparison.
		{"de", "de", true},
		{"de", "at", false},
	}
	for _, c := range cases {
		if got := SameSite(c.a, c.b); got != c.want {
			t.Errorf("SameSite(%q,%q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestIsSuffix(t *testing.T) {
	if !IsSuffix("de") || !IsSuffix("co.uk") || IsSuffix("spiegel.de") {
		t.Fatal("IsSuffix misbehaves")
	}
}

// Property: ETLDPlusOne is idempotent — applying it to its own output
// returns the same value.
func TestQuickIdempotent(t *testing.T) {
	hosts := []string{
		"a.b.c.de", "x.y.com.br", "www.site.co.za", "q.example",
		"sub.domain.org", "t.co.in", "deep.nest.net.au",
	}
	for _, h := range hosts {
		e1, err := ETLDPlusOne(h)
		if err != nil {
			t.Fatalf("%s: %v", h, err)
		}
		e2, err := ETLDPlusOne(e1)
		if err != nil || e1 != e2 {
			t.Fatalf("not idempotent: %s -> %s -> %s (%v)", h, e1, e2, err)
		}
	}
}

// Property: SameSite is symmetric.
func TestQuickSameSiteSymmetric(t *testing.T) {
	f := func(a, b string) bool {
		return SameSite(a, b) == SameSite(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// The reference implementation: the Split/Join label walk the package
// used before it returned substrings in place, over the same normalize.
// FuzzETLDPlusOne holds the two to identical answers.

func refPublicSuffix(domain string) (string, bool) {
	d := normalize(domain)
	if d == "" {
		return "", false
	}
	labels := strings.Split(d, ".")
	for i := 0; i < len(labels); i++ {
		candidate := strings.Join(labels[i:], ".")
		if suffixes[candidate] {
			return candidate, true
		}
	}
	return labels[len(labels)-1], false
}

func refETLDPlusOne(host string) (string, bool) {
	d := normalize(host)
	if d == "" {
		return "", false
	}
	suffix, _ := refPublicSuffix(d)
	if d == suffix {
		return "", false
	}
	rest := strings.TrimSuffix(d, "."+suffix)
	labels := strings.Split(rest, ".")
	return labels[len(labels)-1] + "." + suffix, true
}

func refSameSite(a, b string) bool {
	ea, okA := refETLDPlusOne(a)
	eb, okB := refETLDPlusOne(b)
	if !okA || !okB {
		return normalize(a) == normalize(b)
	}
	return ea == eb
}

func FuzzETLDPlusOne(f *testing.F) {
	for _, seed := range [][2]string{
		{"www.spiegel.de", "abo.spiegel.de"},
		{"news.bbc.co.uk", "bbc.co.uk"},
		{"Example.COM.:443", "example.com"},
		{"a..com", ".com"},
		{"co.uk", "de"},
		{" x.y.com.br. ", "y.com.br"},
		{"a.com. :80", "a.com.."},
		{"", "."},
		{"\xff.DE", "İ.de"},
		{"[::1]:8080", "foo.bar.unknowntld"},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		for _, h := range []string{a, b} {
			if n := normalize(h); normalize(n) != n {
				t.Fatalf("normalize not idempotent on %q: %q -> %q", h, n, normalize(n))
			}
			gotS, gotOK := publicSuffix(normalize(h))
			wantS, wantOK := refPublicSuffix(h)
			if gotS != wantS || gotOK != wantOK {
				t.Fatalf("publicSuffix(%q) = %q, %v; reference %q, %v", h, gotS, gotOK, wantS, wantOK)
			}
			got, err := ETLDPlusOne(h)
			want, ok := refETLDPlusOne(h)
			if got != want || (err == nil) != ok {
				t.Fatalf("ETLDPlusOne(%q) = %q, %v; reference %q, ok %v", h, got, err, want, ok)
			}
		}
		if got, want := SameSite(a, b), refSameSite(a, b); got != want {
			t.Fatalf("SameSite(%q, %q) = %v; reference %v", a, b, got, want)
		}
	})
}

// Lower-case hosts are labelled without allocating: every cookie of
// every measured page goes through ETLDPlusOne and SameSite.
func TestLookupsDoNotAllocate(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc counting is exact; skip in -short/-race runs")
	}
	for _, h := range []string{"www.spiegel.de", "news.bbc.co.uk", "sync.trackpix1.example", "de", "foo.bar.unknowntld"} {
		if n := testing.AllocsPerRun(100, func() { publicSuffix(normalize(h)) }); n != 0 {
			t.Errorf("publicSuffix(%q): %.1f allocs", h, n)
		}
		if n := testing.AllocsPerRun(100, func() { SameSite(h, "abo.spiegel.de") }); n != 0 {
			t.Errorf("SameSite(%q): %.1f allocs", h, n)
		}
		if h == "de" {
			continue // the error path may allocate
		}
		if n := testing.AllocsPerRun(100, func() { ETLDPlusOne(h) }); n != 0 {
			t.Errorf("ETLDPlusOne(%q): %.1f allocs", h, n)
		}
	}
}
