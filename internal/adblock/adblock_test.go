package adblock

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestDomainAnchorRule(t *testing.T) {
	e := NewEngine("||cdn.contentpass.example^")
	if !e.ShouldBlock("spiegel.de", "https://cdn.contentpass.example/cw.js") {
		t.Fatal("exact domain not blocked")
	}
	if !e.ShouldBlock("spiegel.de", "https://eu.cdn.contentpass.example/cw.js") {
		t.Fatal("subdomain not blocked")
	}
	if e.ShouldBlock("spiegel.de", "https://notcdn.contentpass.example.evil.de/x") {
		t.Fatal("suffix-similar host blocked")
	}
	if e.ShouldBlock("spiegel.de", "https://contentpass.example/cw.js") {
		t.Fatal("parent domain wrongly blocked by subdomain anchor")
	}
}

func TestWildcardRule(t *testing.T) {
	// The exact pattern shape quoted in the paper's footnote 7.
	e := NewEngine("*cdn.opencmp.example/*")
	if !e.ShouldBlock("a.de", "https://cdn.opencmp.example/banner.js") {
		t.Fatal("wildcard rule failed")
	}
	if e.ShouldBlock("a.de", "https://cdn.opencmp.example") {
		t.Fatal("no trailing path should not match the /-anchored pattern")
	}
	if !e.ShouldBlock("a.de", "http://x.cdn.opencmp.example/y/z?q=1") {
		t.Fatal("wildcard with subdomain and query failed")
	}
}

func TestPlainSubstringRule(t *testing.T) {
	e := NewEngine("/cookiewall-loader.")
	if !e.ShouldBlock("a.de", "https://host.example/static/cookiewall-loader.js") {
		t.Fatal("substring rule failed")
	}
}

func TestOrderedWildcardFragments(t *testing.T) {
	e := NewEngine("*banner*loader*")
	if !e.ShouldBlock("a.de", "https://x.example/banner/v2/loader.js") {
		t.Fatal("ordered fragments should match")
	}
	if e.ShouldBlock("a.de", "https://x.example/loader/v2/banner.js") {
		t.Fatal("fragments out of order must not match")
	}
}

func TestExceptionRule(t *testing.T) {
	e := NewEngine("||ads.example^\n@@||ads.example/acceptable^")
	if !e.ShouldBlock("a.de", "https://ads.example/bad.js") {
		t.Fatal("block rule inactive")
	}
	if e.ShouldBlock("a.de", "https://ads.example/acceptable/ok.js") {
		t.Fatal("exception not honoured")
	}
}

func TestCommentsAndJunkSkipped(t *testing.T) {
	e := NewEngine("! comment\n[Adblock Plus 2.0]\n\n||real.example^\n*\n||^")
	b, x, c := len(e.block), len(e.exceptions), len(e.cosmetic)
	if b != 1 || x != 0 || c != 0 {
		t.Fatalf("counts = %d %d %d", b, x, c)
	}
}

func TestOptionSuffixStripped(t *testing.T) {
	e := NewEngine("||tracker.example^$third-party,script")
	if !e.ShouldBlock("a.de", "https://tracker.example/t.js") {
		t.Fatal("rule with options not applied")
	}
}

func TestCosmeticRules(t *testing.T) {
	e := NewEngine("##div.cw-overlay\nspiegel.de##.paywall")
	all := e.CompiledCosmetics("www.zeit.de")
	if len(all) != 1 || all[0].String() != "div.cw-overlay" {
		t.Fatalf("global cosmetic = %v", all)
	}
	sp := e.CompiledCosmetics("www.spiegel.de")
	if len(sp) != 2 || sp[0].String() != "div.cw-overlay" || sp[1].String() != ".paywall" {
		t.Fatalf("scoped cosmetic = %v", sp)
	}
}

func TestCaseInsensitive(t *testing.T) {
	e := NewEngine("||CDN.Contentpass.Example^")
	if !e.ShouldBlock("a.de", "HTTPS://CDN.CONTENTPASS.EXAMPLE/CW.JS") {
		t.Fatal("matching must be case-insensitive")
	}
}

func TestBaseListBlocksAllTrackers(t *testing.T) {
	e := NewEngine(BaseList())
	for _, d := range []string{"trackpix1.example", "adsync2.example", "doubleclick.net"} {
		if !e.ShouldBlock("site.de", "https://sync."+d+"/p.gif") {
			t.Errorf("base list does not block %s", d)
		}
	}
	if e.ShouldBlock("site.de", "https://cdnassets.example/app.js") {
		t.Fatal("base list blocks benign CDN")
	}
}

func TestAnnoyancesListBlocksSMPs(t *testing.T) {
	e := NewEngine(AnnoyancesList())
	blocked := []string{
		"https://cdn.contentpass.example/cw.js",
		"https://cdn.freechoice.example/wall.js",
		"https://cdn.opencmp.example/banner.js",
		"https://cwkit.example/kit.js",
	}
	for _, u := range blocked {
		if !e.ShouldBlock("site.de", u) {
			t.Errorf("annoyances list does not block %s", u)
		}
	}
	// Lesser-known hosts evade (paper §4.5).
	if e.ShouldBlock("site.de", "https://nichewall.example/cw.js") {
		t.Fatal("unlisted host wrongly blocked")
	}
	// Without annoyances, SMP CDNs are not blocked (default uBlock).
	base := NewEngine(BaseList())
	if base.ShouldBlock("site.de", "https://cdn.contentpass.example/cw.js") {
		t.Fatal("base list must not cover SMP CDNs")
	}
}

func TestHostOf(t *testing.T) {
	cases := map[string]string{
		"https://a.b.example/path?q=1": "a.b.example",
		"http://x.de":                  "x.de",
		"x.de/path":                    "x.de",
		"https://h.example:8443/p":     "h.example",
	}
	for in, want := range cases {
		if got := hostOf(strings.ToLower(in)); got != want {
			t.Errorf("hostOf(%q) = %q, want %q", in, got, want)
		}
	}
}

// Property: the engine never panics and ShouldBlock is deterministic.
func TestQuickEngineTotal(t *testing.T) {
	e := NewEngine(BaseList(), AnnoyancesList())
	f := func(host, url string) bool {
		return e.ShouldBlock(host, url) == e.ShouldBlock(host, url)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: arbitrary filter text never crashes the parser.
func TestQuickParserTotal(t *testing.T) {
	f := func(list string) bool {
		e := NewEngine(list)
		return e != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
